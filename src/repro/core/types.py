r"""EnCore's semantic type system (paper Table 4 and §4.2).

Type inference is a two-step process:

1. **Syntactic matching** — a cheap regular-expression guess ("any string
   that contains a slash is a potential FilePath");
2. **Semantic verification** — a heavy-weight check against the system
   environment ("the verification searches the full file system meta-data
   to validate the existence of the path").

The first step prunes improbable types for efficiency; the second
guarantees accuracy.  Types are tried in a fixed priority order; user
customization (:mod:`repro.core.customization`) prepends new types, which
"have priority over predefined ones" (§5.3.1).

The first step is one pass per value.  :meth:`TypeInferencer.infer`
strips the value once and picks a precomputed candidate tuple by its
first character (ASCII ``/``, ASCII digit, ASCII letter, or anything
else) and by whether it contains a ``/``.  Each tuple lists, in
priority order, only the predefined types whose pattern can match such
a value: ``10.0.0.1`` tries IPAddress, Size, Boolean, Port, Number and
FileName, never FilePath or UserName.  The "anything else" bucket keeps
the full list, because ``\d`` and ``\w`` match non-ASCII characters.  No
predefined pattern admits a space, so a value holding one is a String
at once.  :meth:`~TypeInferencer.infer_syntactic_only` uses the same
tables.  A registry holding anything but the predefined definitions (a
registered custom type, or a registry built from other definitions)
falls back to trying every definition in order, since a custom matcher
can accept anything.

The detector's check 3 builds on this: on a predefined registry, a
value that :meth:`~TypeInferencer.infer` typed as *T* passes
:meth:`~TypeInferencer.verify` as *T* against the same image, so the
detector does not verify it again.

Note on fidelity: the paper deliberately keeps some imprecision — integer
``0``/``1`` values match the ``Boolean`` pattern, which is exactly the
false-inference source reported for PHP in Table 11.  We reproduce that
behaviour rather than "fix" it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from operator import methodcaller
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sysmodel.image import SystemImage


class ConfigType(str, Enum):
    """The predefined semantic types of paper Table 4 (plus internals)."""

    FILE_PATH = "FilePath"
    PARTIAL_FILE_PATH = "PartialFilePath"
    FILE_NAME = "FileName"
    USER_NAME = "UserName"
    GROUP_NAME = "GroupName"
    IP_ADDRESS = "IPAddress"
    PORT_NUMBER = "PortNumber"
    URL = "URL"
    MIME_TYPE = "MIMEType"
    CHARSET = "Charset"
    LANGUAGE = "Language"
    SIZE = "Size"
    BOOLEAN = "Boolean"
    NUMBER = "Number"
    # Internal types carried by augmented attributes (Table 5a).
    PERMISSION = "Permission"
    ENUM = "Enum"
    STRING = "String"

    @property
    def is_trivial(self) -> bool:
        """Trivial types carry no checkable semantics (Table 11 wording)."""
        return self in _TRIVIAL


_TRIVIAL = frozenset({ConfigType.STRING, ConfigType.NUMBER})
#: Types whose values :meth:`TypeInferencer.verify` never rejects.
_ALWAYS_VERIFIES = _TRIVIAL | {ConfigType.ENUM}


@dataclass(frozen=True)
class TypedValue:
    """A raw string value paired with its inferred type.

    The ordering templates compare one cell against many others, in
    training and in check 2, so its Size and Number readings are parsed
    on first use and kept.
    """

    # Slots keep a row's cells small; the two parsed readings stay unset
    # until first read.
    __slots__ = ("value", "type", "_size_bytes", "_number")

    value: str
    type: ConfigType

    def __str__(self) -> str:
        return f"{self.value}:{self.type.value}"

    @property
    def size_bytes(self) -> Optional[int]:
        """:func:`parse_size_bytes` of :attr:`value`."""
        try:
            return self._size_bytes
        except AttributeError:
            parsed = parse_size_bytes(self.value)
            object.__setattr__(self, "_size_bytes", parsed)
            return parsed

    @property
    def number(self) -> Optional[float]:
        """:func:`parse_number` of :attr:`value`."""
        try:
            return self._number
        except AttributeError:
            parsed = parse_number(self.value)
            object.__setattr__(self, "_number", parsed)
            return parsed


# --------------------------------------------------------------------------
# Syntactic patterns (simplified in the paper's Table 4; ours are complete
# enough to drive the corpus).
# --------------------------------------------------------------------------

_RX = {
    ConfigType.FILE_PATH: re.compile(r"^/[^\s:]+$|^/$"),
    ConfigType.PARTIAL_FILE_PATH: re.compile(r"^[^/\s]+(/[^/\s]+)+/?$"),
    ConfigType.FILE_NAME: re.compile(r"^[\w\-]+\.[\w\-.]+$"),
    ConfigType.USER_NAME: re.compile(r"^[a-zA-Z][a-zA-Z0-9_\-]*$"),
    ConfigType.GROUP_NAME: re.compile(r"^[a-zA-Z][a-zA-Z0-9_\-]*$"),
    # IPv4 dotted quad, or a pragmatic IPv6 shape: hex digits and at least
    # two colons ("::", "::1", "fd00::1", "2001:db8::5").
    ConfigType.IP_ADDRESS: re.compile(
        r"^\d{1,3}(\.\d{1,3}){3}$|^(?=(?:[^:]*:){2})[0-9A-Fa-f:]{2,39}$"
    ),
    ConfigType.PORT_NUMBER: re.compile(r"^\d{1,5}$"),
    ConfigType.URL: re.compile(r"^[a-z][a-z0-9+.\-]*://\S+$"),
    ConfigType.MIME_TYPE: re.compile(r"^[\w\-.]+/[\w\-.+]+$"),
    ConfigType.CHARSET: re.compile(r"^[A-Za-z][\w\-]*$"),
    ConfigType.LANGUAGE: re.compile(r"^[a-zA-Z]{2}(-[a-zA-Z]{2})?$"),
    ConfigType.SIZE: re.compile(r"^\d+[KMGT]B?$", re.IGNORECASE),
    ConfigType.NUMBER: re.compile(r"^-?\d+(\.\d+)?$"),
    ConfigType.PERMISSION: re.compile(r"^0?[0-7]{3,4}$"),
}

#: Literal boolean spellings accepted by the studied applications.
BOOLEAN_VALUES = frozenset(
    {
        "on", "off", "true", "false", "yes", "no", "0", "1",
        "enabled", "disabled", "none",
    }
)

#: IANA charsets we ship for offline semantic verification.
KNOWN_CHARSETS = frozenset(
    {
        "utf-8", "utf8", "iso-8859-1", "iso-8859-15", "us-ascii", "ascii",
        "latin1", "utf-16", "windows-1252", "big5", "gbk", "euc-jp",
        "shift_jis", "koi8-r", "utf8mb4",
    }
)

#: ISO 639-1 two-letter language codes (common subset).
KNOWN_LANGUAGES = frozenset(
    {
        "aa", "ar", "bg", "ca", "cs", "da", "de", "el", "en", "eo", "es",
        "et", "fi", "fr", "ga", "he", "hi", "hr", "hu", "id", "it", "ja",
        "ko", "lt", "lv", "nl", "no", "pl", "pt", "ro", "ru", "sk", "sl",
        "sr", "sv", "th", "tr", "uk", "vi", "zh",
    }
)

#: IANA top-level MIME types.
KNOWN_MIME_TOPLEVEL = frozenset(
    {"application", "audio", "font", "image", "message", "model",
     "multipart", "text", "video"}
)


_SIZE_LITERAL = re.compile(r"^(\d+)([KMGT])?B?$", re.IGNORECASE)
_SIZE_SHIFT = {"": 0, "k": 10, "m": 20, "g": 30, "t": 40}


def parse_size_bytes(value: str) -> Optional[int]:
    """``"64M"`` → 67108864; ``None`` when not a size literal."""
    match = _SIZE_LITERAL.match(value.strip())
    if not match:
        return None
    number = int(match.group(1))
    # Lower-cased: the case-blind [KMGT] also admits the Kelvin sign,
    # whose upper case is itself but whose lower case is "k".
    unit = (match.group(2) or "").lower()
    return number << _SIZE_SHIFT[unit]


def parse_number(value: str) -> Optional[float]:
    """Numeric literal → float; ``None`` when not numeric."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


# --------------------------------------------------------------------------
# Semantic verification (the "heavy-weight" second step).
# --------------------------------------------------------------------------

def _verify_file_path(value: str, image: Optional[SystemImage]) -> bool:
    if image is None:
        return True
    if "*" in value or "?" in value:
        return False  # globs are patterns, not paths (a Table 11 FP source)
    return image.fs.exists(value)


def _verify_partial_path(value: str, image: Optional[SystemImage]) -> bool:
    if image is None:
        return True
    return _some_path_ends_with(image, "/" + value.strip("/"))


def _verify_file_name(value: str, image: Optional[SystemImage]) -> bool:
    if image is None:
        return True
    return _some_path_ends_with(image, "/" + value)


def _some_path_ends_with(image: SystemImage, suffix: str) -> bool:
    return any(map(methodcaller("endswith", suffix), image.fs.paths()))


def _verify_user(value: str, image: Optional[SystemImage]) -> bool:
    return image is None or image.accounts.has_user(value)


def _verify_group(value: str, image: Optional[SystemImage]) -> bool:
    return image is None or image.accounts.has_group(value)


def _verify_ip(value: str, image: Optional[SystemImage]) -> bool:
    if ":" in value:
        return True  # IPv6 syntactic form is enough (Table 4: N/A)
    try:
        octets = [int(part) for part in value.split(".")]
    except ValueError:
        return False
    return len(octets) == 4 and all(0 <= o <= 255 for o in octets)


def _verify_port(value: str, image: Optional[SystemImage]) -> bool:
    try:
        port = int(value)
    except ValueError:
        return False
    if not 0 < port <= 65535:
        return False
    if image is None:
        return True
    # Registered ports verify directly; unregistered unprivileged ports are
    # plausible custom services and pass too.
    return image.services.is_registered(port) or port >= 1024


def _verify_mime(value: str, image: Optional[SystemImage]) -> bool:
    toplevel = value.split("/", 1)[0].lower()
    return toplevel in KNOWN_MIME_TOPLEVEL


def _verify_charset(value: str, image: Optional[SystemImage]) -> bool:
    return value.lower() in KNOWN_CHARSETS


def _verify_language(value: str, image: Optional[SystemImage]) -> bool:
    return value.split("-", 1)[0].lower() in KNOWN_LANGUAGES


def _always(value: str, image: Optional[SystemImage]) -> bool:
    return True


@dataclass(frozen=True)
class TypeDefinition:
    """One inferable type: syntactic matcher + semantic verifier.

    ``syntactic`` returns whether the value *could* be of this type;
    ``semantic`` performs the environment check (it receives ``None`` for
    the image when no environment is available and should then accept).
    """

    type: ConfigType
    syntactic: Callable[[str], bool]
    semantic: Callable[[str, Optional[SystemImage]], bool] = _always
    description: str = ""

    def matches(self, value: str, image: Optional[SystemImage]) -> bool:
        """Full two-step check for one value."""
        return self.syntactic(value) and self.semantic(value, image)


def _rx_matcher(config_type: ConfigType) -> Callable[[str], bool]:
    rx = _RX[config_type]
    return lambda value: bool(rx.match(value.strip()))


def _boolean_matcher(value: str) -> bool:
    return value.strip().lower() in BOOLEAN_VALUES


#: Priority-ordered predefined definitions (first match wins).  Order is
#: deliberate: Boolean before Number reproduces the paper's PHP 0/1
#: misclassification; Size before Number so "64M" is a Size; URL before
#: FilePath is irrelevant (disjoint patterns) but kept early for clarity.
#: Size and Boolean need no environment: their pattern is the whole check.
_PREDEFINED: Sequence[TypeDefinition] = (
    TypeDefinition(ConfigType.URL, _rx_matcher(ConfigType.URL),
                   description="scheme://... resource locator"),
    TypeDefinition(ConfigType.FILE_PATH, _rx_matcher(ConfigType.FILE_PATH),
                   _verify_file_path, "absolute filesystem path"),
    TypeDefinition(ConfigType.IP_ADDRESS, _rx_matcher(ConfigType.IP_ADDRESS),
                   _verify_ip, "IPv4/IPv6 address"),
    TypeDefinition(ConfigType.MIME_TYPE, _rx_matcher(ConfigType.MIME_TYPE),
                   _verify_mime, "IANA media type"),
    TypeDefinition(ConfigType.PARTIAL_FILE_PATH,
                   _rx_matcher(ConfigType.PARTIAL_FILE_PATH),
                   _verify_partial_path, "relative path fragment"),
    TypeDefinition(ConfigType.SIZE, _rx_matcher(ConfigType.SIZE),
                   description="byte size with K/M/G/T suffix"),
    TypeDefinition(ConfigType.BOOLEAN, _boolean_matcher,
                   description="boolean flag value"),
    TypeDefinition(ConfigType.PORT_NUMBER, _rx_matcher(ConfigType.PORT_NUMBER),
                   _verify_port, "TCP/UDP port"),
    TypeDefinition(ConfigType.NUMBER, _rx_matcher(ConfigType.NUMBER),
                   _always, "plain numeric literal"),
    TypeDefinition(ConfigType.FILE_NAME, _rx_matcher(ConfigType.FILE_NAME),
                   _verify_file_name, "bare file name"),
    TypeDefinition(ConfigType.LANGUAGE, _rx_matcher(ConfigType.LANGUAGE),
                   _verify_language, "ISO 639-1 language code"),
    TypeDefinition(ConfigType.CHARSET, _rx_matcher(ConfigType.CHARSET),
                   _verify_charset, "IANA character set"),
    TypeDefinition(ConfigType.USER_NAME, _rx_matcher(ConfigType.USER_NAME),
                   _verify_user, "system user name"),
    TypeDefinition(ConfigType.GROUP_NAME, _rx_matcher(ConfigType.GROUP_NAME),
                   _verify_group, "system group name"),
)


#: What each predefined type's pattern admits, for the first-character
#: dispatch: the ASCII first characters it can start with, and whether
#: its values always (True) or never (False) contain a ``/``.  Values
#: starting with any other character try every type.
_LETTERS, _DIGITS = string.ascii_letters, string.digits
_SHAPES: Dict[ConfigType, Tuple[str, bool]] = {
    ConfigType.URL: (_LETTERS, True),
    ConfigType.FILE_PATH: ("/", True),
    ConfigType.IP_ADDRESS: (_DIGITS + _LETTERS, False),
    ConfigType.MIME_TYPE: (_DIGITS + _LETTERS, True),
    ConfigType.PARTIAL_FILE_PATH: (_DIGITS + _LETTERS, True),
    ConfigType.SIZE: (_DIGITS, False),
    ConfigType.BOOLEAN: (_DIGITS + _LETTERS, False),
    ConfigType.PORT_NUMBER: (_DIGITS, False),
    ConfigType.NUMBER: (_DIGITS, False),
    ConfigType.FILE_NAME: (_DIGITS + _LETTERS, False),
    ConfigType.LANGUAGE: (_LETTERS, False),
    ConfigType.CHARSET: (_LETTERS, False),
    ConfigType.USER_NAME: (_LETTERS, False),
    ConfigType.GROUP_NAME: (_LETTERS, False),
}

#: One predefined type as the dispatch runs it: the type, its syntactic
#: test on an already stripped value, and its semantic check (``None``
#: when it accepts everything).
_Candidate = Tuple[
    ConfigType,
    Callable[[str], object],
    Optional[Callable[[str, Optional[SystemImage]], bool]],
]


def _candidate(definition: TypeDefinition) -> _Candidate:
    rx = _RX.get(definition.type)
    match = rx.match if rx is not None else definition.syntactic
    semantic = None if definition.semantic is _always else definition.semantic
    return (definition.type, match, semantic)


_ALL_CANDIDATES: Tuple[_Candidate, ...] = tuple(_candidate(d) for d in _PREDEFINED)

#: First ASCII character → (candidates without a ``/``, with a ``/``),
#: each in ``_PREDEFINED`` priority order.
_DISPATCH: Dict[str, Tuple[Tuple[_Candidate, ...], Tuple[_Candidate, ...]]] = {
    first: tuple(
        tuple(
            candidate for candidate in _ALL_CANDIDATES
            if first in _SHAPES[candidate[0]][0]
            and _SHAPES[candidate[0]][1] is slash
        )
        for slash in (False, True)
    )
    for first in "/" + _DIGITS + _LETTERS
}


def _candidates(value: str) -> Tuple[_Candidate, ...]:
    """The predefined types a stripped, non-empty *value* may have."""
    if " " in value:
        return ()  # no predefined pattern admits a space
    pair = _DISPATCH.get(value[0])
    return _ALL_CANDIDATES if pair is None else pair["/" in value]


class TypeRegistry:
    """Ordered collection of type definitions; customs take priority."""

    def __init__(self, definitions: Optional[Sequence[TypeDefinition]] = None) -> None:
        self._custom: List[TypeDefinition] = []
        self._predefined: List[TypeDefinition] = list(
            definitions if definitions is not None else _PREDEFINED
        )
        self._reindex()

    def register(self, definition: TypeDefinition) -> None:
        """Add a user-defined type; later registrations rank after earlier
        ones, but all customs rank before predefined types (§5.3.1)."""
        self._custom.append(definition)
        self._reindex()

    def _reindex(self) -> None:
        self._by_type: Dict[ConfigType, TypeDefinition] = {}
        for definition in self.definitions():
            self._by_type.setdefault(definition.type, definition)
        #: True while the registry holds exactly the predefined
        #: definitions, so the inferencer may use the dispatch tables.
        self.predefined_only = not self._custom and self._predefined == list(_PREDEFINED)

    def definitions(self) -> List[TypeDefinition]:
        return self._custom + self._predefined

    def definition_for(self, config_type: ConfigType) -> Optional[TypeDefinition]:
        return self._by_type.get(config_type)


def default_type_registry() -> TypeRegistry:
    """The registry with the predefined Table 4 types."""
    return TypeRegistry()


class TypeInferencer:
    """The two-step inference engine of §4.2."""

    def __init__(self, registry: Optional[TypeRegistry] = None) -> None:
        self.registry = registry if registry is not None else default_type_registry()

    def infer(self, value: str, image: Optional[SystemImage] = None) -> ConfigType:
        """Type of one value in the context of *image*.

        Falls back to :attr:`ConfigType.NUMBER` for unverified numerics and
        :attr:`ConfigType.STRING` otherwise (the paper's trivial types).
        """
        value = value.strip()
        if not value:
            return ConfigType.STRING
        if self.registry.predefined_only:
            # Number accepts every numeric, so nothing falls through.
            for config_type, match, semantic in _candidates(value):
                if match(value) and (semantic is None or semantic(value, image)):
                    return config_type
            return ConfigType.STRING
        for definition in self.registry.definitions():
            if definition.syntactic(value) and definition.semantic(value, image):
                return definition.type
        if _RX[ConfigType.NUMBER].match(value):
            return ConfigType.NUMBER
        return ConfigType.STRING

    def infer_syntactic_only(self, value: str) -> ConfigType:
        """Step-1-only inference — the ablation baseline for Table 11."""
        value = value.strip()
        if not value:
            return ConfigType.STRING
        if self.registry.predefined_only:
            for config_type, match, _ in _candidates(value):
                if match(value):
                    return config_type
            return ConfigType.STRING
        for definition in self.registry.definitions():
            if definition.syntactic(value):
                return definition.type
        return ConfigType.STRING

    def may_be_file_path(self, value: str) -> bool:
        """False only when :meth:`infer_syntactic_only` cannot say FilePath.

        Predefined FilePath values start with ``/``; a custom type may
        claim the FilePath carrier for anything.
        """
        return not self.registry.predefined_only or value.lstrip().startswith("/")

    def verify(self, value: str, config_type: ConfigType,
               image: Optional[SystemImage] = None) -> bool:
        """Does *value* satisfy *config_type* in the context of *image*?

        Used by the detector's data-type-violation check (§6, check 3).
        Trivial and Enum types always verify.
        """
        if config_type in _ALWAYS_VERIFIES:
            return True
        value = value.strip()
        if config_type is ConfigType.PERMISSION:
            return bool(_RX[ConfigType.PERMISSION].match(value))
        definition = self.registry.definition_for(config_type)
        if definition is None:
            return True
        return definition.matches(value, image)
