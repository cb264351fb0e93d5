"""MySQL my.cnf parser (INI dialect).

my.cnf is INI-style: ``[section]`` headers followed by ``key = value`` or
bare boolean flags (``skip-networking``).  Canonical names are
``section/key`` with dashes normalised to underscores — MySQL itself
treats ``skip-networking`` and ``skip_networking`` identically, and the
normalisation keeps the training columns aligned across images that mix
the spellings.

``!include FILE`` and ``!includedir DIR`` pull in further option files.
They belong to no section, so each becomes an entry named after its
directive (``!includedir``) whose value is the path: the path is typed
and augmented like any other, and images that include different
directories still share the column.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.parsers.base import ConfigEntry, ConfigParseError, ConfigParser, dedupe_occurrences

_SECTION = re.compile(r"^\[([^\]]+)\]$")
#: Value recorded for bare boolean flags such as ``skip-networking``.
FLAG_VALUE = "ON"
#: Directives that name another option file or directory.
INCLUDE_DIRECTIVES = frozenset({"!include", "!includedir"})


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
            if line.startswith("!"):
                directive, *rest = line.split(None, 1)
                if directive in INCLUDE_DIRECTIVES:
                    path = self.unquote(rest[0]) if rest else ""
                    if not path:
                        raise ConfigParseError(f"line {lineno}: {directive} needs a path")
                    entries.append(ConfigEntry(
                        self.app, directive, path, source_path, lineno, section
                    ))
                    continue
            if "=" in line:
                key, _, value = line.partition("=")
                key, value = key.strip(), self.unquote(value.strip())
            else:
                key, value = line.strip(), FLAG_VALUE
            if not key:
                raise ConfigParseError(f"line {lineno}: empty key")
            entries.append(self._entry(section, key, value, lineno, source_path))
        return dedupe_occurrences(entries)

    def _entry(
        self, section: Optional[str], key: str, value: str, lineno: int,
        source_path: str,
    ) -> ConfigEntry:
        key = key.replace("-", "_").lower()
        name = f"{section}/{key}" if section else key
        return ConfigEntry(self.app, name, value, source_path, lineno, section)
