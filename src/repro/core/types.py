"""EnCore's semantic type system (paper Table 4 and §4.2).

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

Note on fidelity: the paper deliberately keeps some imprecision — integer
``0``/``1`` values match the ``Boolean`` pattern, which is exactly the
false-inference source reported for PHP in Table 11.  We reproduce that
behaviour rather than "fix" it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence

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
        return self in (ConfigType.STRING, ConfigType.NUMBER)


@dataclass(frozen=True)
class TypedValue:
    """A raw string value paired with its inferred type."""

    value: str
    type: ConfigType

    def __str__(self) -> str:
        return f"{self.value}:{self.type.value}"


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
_SIZE_SHIFT = {"": 0, "K": 10, "M": 20, "G": 30, "T": 40}


def parse_size_bytes(value: str) -> Optional[int]:
    """``"64M"`` → 67108864; ``None`` when not a size literal."""
    match = _SIZE_LITERAL.match(value.strip())
    if not match:
        return None
    number = int(match.group(1))
    unit = (match.group(2) or "").upper()
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
    suffix = "/" + value.strip("/")
    return any(path.endswith(suffix) for path in image.fs.file_list())


def _verify_file_name(value: str, image: Optional[SystemImage]) -> bool:
    if image is None:
        return True
    needle = "/" + value
    return any(path.endswith(needle) for path in image.fs.file_list())


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


def _verify_boolean(value: str, image: Optional[SystemImage]) -> bool:
    return value.lower() in BOOLEAN_VALUES


def _verify_size(value: str, image: Optional[SystemImage]) -> bool:
    return parse_size_bytes(value) is not None


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
                   _verify_size, "byte size with K/M/G/T suffix"),
    TypeDefinition(ConfigType.BOOLEAN, _boolean_matcher, _verify_boolean,
                   "boolean flag value"),
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


class TypeRegistry:
    """Ordered collection of type definitions; customs take priority."""

    def __init__(self, definitions: Optional[Sequence[TypeDefinition]] = None) -> None:
        self._custom: List[TypeDefinition] = []
        self._predefined: List[TypeDefinition] = list(
            definitions if definitions is not None else _PREDEFINED
        )

    def register(self, definition: TypeDefinition) -> None:
        """Add a user-defined type; later registrations rank after earlier
        ones, but all customs rank before predefined types (§5.3.1)."""
        self._custom.append(definition)

    def definitions(self) -> List[TypeDefinition]:
        return self._custom + self._predefined

    def definition_for(self, config_type: ConfigType) -> Optional[TypeDefinition]:
        for definition in self.definitions():
            if definition.type is config_type:
                return definition
        return None


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
        for definition in self.registry.definitions():
            if definition.syntactic(value):
                return definition.type
        return ConfigType.STRING

    def verify(self, value: str, config_type: ConfigType,
               image: Optional[SystemImage] = None) -> bool:
        """Does *value* satisfy *config_type* in the context of *image*?

        Used by the detector's data-type-violation check (§6, check 3).
        Trivial types always verify.
        """
        if config_type.is_trivial:
            return True
        if config_type is ConfigType.ENUM:
            return True
        if config_type is ConfigType.PERMISSION:
            return bool(_RX[ConfigType.PERMISSION].match(value.strip()))
        definition = self.registry.definition_for(config_type)
        if definition is None:
            return True
        return definition.matches(value.strip(), image)
