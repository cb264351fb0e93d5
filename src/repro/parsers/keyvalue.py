"""Generic ``key = value`` fallback parser.

Used for applications without a dedicated lens; mirrors Augeas' simple
lenses.  Accepts ``key = value``, ``key: value`` and ``key value`` lines
with ``#`` comments.
"""

from __future__ import annotations

from typing import List

from repro.parsers.base import ConfigEntry, ConfigParser, dedupe_occurrences


class KeyValueParser(ConfigParser):
    """Best-effort parser for unknown line-oriented formats."""

    app = "generic"

    def __init__(self, app: str = "generic") -> None:
        self.app = app

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        entries: List[ConfigEntry] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = self.strip_comment(raw, markers=("#", ";")).strip()
            if not line:
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key, _, value = line.partition(sep)
                    break
            else:
                parts = line.split(None, 1)
                key = parts[0]
                value = parts[1] if len(parts) > 1 else ""
            key = key.strip()
            if not key:
                continue
            entries.append(ConfigEntry(
                self.app, key, self.unquote(value.strip()), source_path, lineno
            ))
        return dedupe_occurrences(entries)
