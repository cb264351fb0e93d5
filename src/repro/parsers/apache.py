"""Apache httpd.conf parser.

Apache configuration is line-oriented directives with nested
``<Section arg>`` blocks at arbitrary depth (the paper notes that "Apache
allows nested configuration entries at arbitrary levels", §7.1.2).  The
canonical entry name concatenates the enclosing section names with the
directive name: a ``DocumentRoot`` inside ``<VirtualHost *:80>`` becomes
``VirtualHost/DocumentRoot``.

Multi-argument directives additionally produce per-argument columns
(``LoadModule/arg1``, ``LoadModule/arg2``) matching the concrete rule of
paper Figure 4(b) — ``ServerRoot + LoadModule/arg2 => <FileExistence>``.
"""

from __future__ import annotations

import re
import shlex
from typing import List

from repro.parsers.base import ConfigEntry, ConfigParseError, ConfigParser, dedupe_occurrences

_SECTION_OPEN = re.compile(r"^<(\w+)(\s+[^>]*)?>$")
_SECTION_CLOSE = re.compile(r"^</(\w+)>$")
#: shlex's ``whitespace_split`` separators; enough for lines with no quote
#: or escape character.
_WHITESPACE = re.compile(r"[ \t\r\n]+")

#: Directives whose individual arguments become separate columns.
MULTIARG_DIRECTIVES = frozenset({"LoadModule", "AddType", "Alias", "ScriptAlias", "ErrorDocument"})


class ApacheParser(ConfigParser):
    """Parser for Apache httpd.conf-style files."""

    app = "apache"

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        entries: List[ConfigEntry] = []
        stack: List[str] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = self.strip_comment(raw).strip()
            if not line:
                continue
            open_match = _SECTION_OPEN.match(line)
            if open_match:
                name, arg = open_match.group(1), (open_match.group(2) or "").strip()
                stack.append(name)
                if arg:
                    entries.append(
                        self._entry(stack, f"{name}.arg", arg, lineno, source_path)
                    )
                continue
            close_match = _SECTION_CLOSE.match(line)
            if close_match:
                if not stack or stack[-1] != close_match.group(1):
                    raise ConfigParseError(
                        f"line {lineno}: unbalanced </{close_match.group(1)}>"
                    )
                stack.pop()
                continue
            entries.extend(self._directive(stack, line, lineno, source_path))
        if stack:
            raise ConfigParseError(f"unclosed section(s): {'/'.join(stack)}")
        return dedupe_occurrences(entries)

    def _directive(
        self, stack: List[str], line: str, lineno: int, source_path: str = ""
    ) -> List[ConfigEntry]:
        if '"' in line or "'" in line or "\\" in line:
            try:
                tokens = shlex.split(line, comments=False, posix=True)
            except ValueError:
                tokens = line.split()
        else:
            tokens = [t for t in _WHITESPACE.split(line) if t]
        if not tokens:
            return []
        directive, args = tokens[0], tokens[1:]
        value = " ".join(args)
        out = [self._entry(stack, directive, value, lineno, source_path)]
        if directive in MULTIARG_DIRECTIVES and len(args) > 1:
            for i, arg in enumerate(args, start=1):
                out.append(
                    self._entry(stack, f"{directive}/arg{i}", arg, lineno, source_path)
                )
        return out

    def _entry(
        self, stack: List[str], name: str, value: str, lineno: int, source_path: str
    ) -> ConfigEntry:
        section = "/".join(stack) if stack else None
        full_name = f"{section}/{name}" if section else name
        return ConfigEntry(
            self.app, full_name, self.unquote(value), source_path, lineno, section
        )
