"""MySQL my.cnf parser (INI dialect).

my.cnf is INI-style: ``[section]`` headers followed by ``key = value`` or
bare boolean flags (``skip-networking``).  Canonical names are
``section/key`` with dashes normalised to underscores — MySQL itself
treats ``skip-networking`` and ``skip_networking`` identically, and the
normalisation keeps the training columns aligned across images that mix
the spellings.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.parsers.base import ConfigEntry, ConfigParseError, ConfigParser, dedupe_occurrences

_SECTION = re.compile(r"^\[([^\]]+)\]$")
#: Value recorded for bare boolean flags such as ``skip-networking``.
FLAG_VALUE = "ON"


class MySQLParser(ConfigParser):
    """Parser for my.cnf-style INI files."""

    app = "mysql"

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        entries: List[ConfigEntry] = []
        section: Optional[str] = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = self.strip_comment(raw, markers=("#", ";")).strip()
            if not line:
                continue
            match = _SECTION.match(line)
            if match:
                section = match.group(1).strip().lower()
                continue
            if "=" in line:
                key, _, value = line.partition("=")
                key, value = key.strip(), self.unquote(value.strip())
            else:
                key, value = line.strip(), FLAG_VALUE
            if not key:
                raise ConfigParseError(f"line {lineno}: empty key")
            entries.append(self._entry(section, key, value, lineno))
        return dedupe_occurrences(entries, source_path)

    def _entry(self, section: Optional[str], key: str, value: str, lineno: int) -> ConfigEntry:
        key = key.replace("-", "_").lower()
        name = f"{section}/{key}" if section else key
        return ConfigEntry(self.app, name, value, line=lineno, section=section)
