"""Parser interface and the uniform key-value record.

The data assembler "first converts the configuration files from
application-specific format to uniform key-value pairs" (paper §4.1).
:class:`ConfigEntry` is that pair, annotated with provenance (app, file,
line, section) so the detector can point warnings back at the source.

Entry *names* are canonicalised hierarchically: a MySQL entry ``datadir``
in section ``[mysqld]`` becomes ``mysqld/datadir``; an Apache directive
inside ``<Directory /var/www>`` becomes ``Directory/DocumentRoot``-style
names; repeated directives (e.g. ``LoadModule``) get positional argument
columns (``LoadModule/arg2``) exactly as the paper's concrete rules show
(Figure 4b uses ``LoadModule/arg2``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import List, Optional, Sequence, Tuple


class ConfigParseError(ValueError):
    """Raised when a configuration file cannot be parsed at all."""


@dataclass(frozen=True, slots=True)
class ConfigEntry:
    """One uniform key-value pair extracted from a configuration file.

    ``name`` is the canonical hierarchical entry name; ``value`` the raw
    string value.  ``occurrence`` disambiguates repeated entries with the
    same canonical name (0-based).
    """

    app: str
    name: str
    value: str
    source_path: str = ""
    line: int = 0
    section: Optional[str] = None
    occurrence: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("entry name must be non-empty")

    @property
    def qualified_name(self) -> str:
        """``app:name`` — globally unique across a multi-app image."""
        return f"{self.app}:{self.name}"

    def with_value(self, value: str) -> "ConfigEntry":
        """A copy carrying a different value (injection helper)."""
        return ConfigEntry(
            self.app, self.name, value, self.source_path,
            self.line, self.section, self.occurrence,
        )


@cache
def _comment_scan(markers: Tuple[str, ...]) -> re.Pattern[str]:
    """The compiled comment-scan regex for one marker tuple (see
    :meth:`ConfigParser.strip_comment`), built on first use."""
    marker = "|".join(re.escape(m) for m in markers)
    return re.compile(rf"""(?:(?!{marker})[^"']|"[^"]*"?|'[^']*'?)*""")


class ConfigParser:
    """Base class for format-specific parsers (the Augeas 'lens' role).

    Subclasses implement :meth:`parse_text`: they build each entry with
    the provenance path that :meth:`parse` hands down and finish with
    :func:`dedupe_occurrences`.
    """

    #: Application name this parser handles (registry key).
    app: str = ""

    def parse(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        """Parse *text* into entries, stamping ``source_path`` on each.

        The error contract at this boundary is total: *any* failure of
        the format-specific :meth:`parse_text` surfaces as
        :class:`ConfigParseError`, so callers (and the per-image error
        policy above them) never see an unhandled ``IndexError`` or the
        like from adversarial input.
        """
        try:
            return self.parse_text(text, source_path)
        except ConfigParseError:
            raise
        except Exception as exc:
            raise ConfigParseError(
                f"unparseable {self.app or 'config'} text: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def parse_text(self, text: str, source_path: str = "") -> List[ConfigEntry]:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    @staticmethod
    def strip_comment(line: str, markers: Sequence[str] = ("#",)) -> str:
        """Drop a trailing comment, respecting quoted strings.

        A marker inside single or double quotes is literal text, not a
        comment — ``CustomLog "/var/log/a#b.log" combined`` keeps its
        full path.  An unterminated quote disarms markers for the rest
        of the line (truncating a value the author clearly opened a
        string for would be worse than keeping a trailing comment).

        One compiled regex per marker tuple does the scan: it consumes
        runs of non-quote characters that do not start a marker and
        whole quoted strings (an unterminated one eats the rest of the
        line), so the match ends at the first live marker or at the end.
        It can only stop early at a marker, so a line holding none skips
        it.
        """
        for marker in markers:
            if marker in line:
                break
        else:
            return line.rstrip()
        end = _comment_scan(tuple(markers)).match(line).end()
        return line[:end].rstrip()

    @staticmethod
    def unquote(value: str) -> str:
        """Strip one layer of matching single or double quotes."""
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            return value[1:-1]
        return value


def dedupe_occurrences(entries: List[ConfigEntry]) -> List[ConfigEntry]:
    """Assign 0-based occurrence indices to repeated entry names.

    The paper (Table 2) notes that "the mining algorithms treat each
    occurrence of an entry as a different attribute"; keeping explicit
    occurrence numbers lets the assembler reproduce that behaviour.
    Parsers build every entry as occurrence 0, so only the repeats are
    rebuilt; an entry already right is kept as is.
    """
    seen: dict = {}
    out: List[ConfigEntry] = []
    for entry in entries:
        key = (entry.app, entry.name)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        if occurrence != entry.occurrence:
            entry = ConfigEntry(
                entry.app, entry.name, entry.value, entry.source_path,
                entry.line, entry.section, occurrence,
            )
        out.append(entry)
    return out
