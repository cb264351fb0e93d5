"""sshd_config parser.

OpenSSH server configuration is ``Keyword argument...`` lines, case-
insensitive keywords, ``#`` comments, and ``Match`` blocks that scope the
following keywords conditionally.  Keywords inside a ``Match`` block are
canonicalised as ``Match/<Keyword>`` so conditional overrides do not merge
with global settings.
"""

from __future__ import annotations

from typing import List, Optional

from repro.parsers.base import ConfigEntry, ConfigParser, dedupe_occurrences


class SSHDParser(ConfigParser):
    """Parser for sshd_config-style files."""

    app = "sshd"

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        entries: List[ConfigEntry] = []
        in_match: Optional[str] = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = self.strip_comment(raw).strip()
            if not line:
                continue
            parts = line.split(None, 1)
            keyword = parts[0]
            value = self.unquote(parts[1]) if len(parts) > 1 else ""
            if keyword.lower() == "match":
                in_match = value
                entries.append(
                    ConfigEntry(self.app, "Match", value, source_path, lineno)
                )
                continue
            name = self._canonical(keyword)
            if in_match is not None:
                name = f"Match/{name}"
            entries.append(
                ConfigEntry(self.app, name, value, source_path, lineno, in_match)
            )
        return dedupe_occurrences(entries)

    @staticmethod
    def _canonical(keyword: str) -> str:
        """Normalise keyword casing: sshd keywords are case-insensitive."""
        return keyword[:1].upper() + keyword[1:] if keyword else keyword
