"""php.ini parser.

php.ini is flat ``directive = value`` with ``;`` comments and optional
``[Section]`` headers that PHP itself ignores for core directives; we keep
them as provenance but do *not* fold them into the canonical name, so that
``upload_max_filesize`` lines up across images regardless of which cosmetic
section a distribution placed it under.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.parsers.base import ConfigEntry, ConfigParseError, ConfigParser, dedupe_occurrences

_SECTION = re.compile(r"^\[([^\]]+)\]$")


class PHPIniParser(ConfigParser):
    """Parser for php.ini-style files."""

    app = "php"

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        entries: List[ConfigEntry] = []
        section: Optional[str] = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = self.strip_comment(raw, markers=(";",)).strip()
            if not line:
                continue
            match = _SECTION.match(line)
            if match:
                section = match.group(1).strip()
                continue
            if "=" not in line:
                raise ConfigParseError(f"line {lineno}: expected 'directive = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if not key:
                raise ConfigParseError(f"line {lineno}: empty directive name")
            entries.append(
                ConfigEntry(
                    self.app, key, self.unquote(value.strip()),
                    source_path, lineno, section,
                )
            )
        return dedupe_occurrences(entries)
