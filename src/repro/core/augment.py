"""Environment information integration (paper §4.3, Table 5).

For every configuration entry whose inferred type "carries system
semantics", the assembler attaches *augmented attributes* — new columns
whose names append a dot-suffix to the original entry name
(``datadir.owner``) and whose values are computed from the environment
(here: the :class:`~repro.sysmodel.image.SystemImage`).

Environment data independent of any entry (system config, OS release,
hardware spec — Table 5b) is appended under the ``env:`` namespace and
"treated equally as other attributes in the rule inference process".
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.types import ConfigType, parse_size_bytes
from repro.sysmodel.filesystem import DirectoryIndex, FileMeta
from repro.sysmodel.image import SystemImage

#: RFC 1918 IPv4 private ranges plus loopback; RFC 4193 IPv6 ULA prefix.
_PRIVATE_V4_PREFIXES = ("10.", "192.168.", "127.")


def _is_private_ip(value: str) -> bool:
    if value.startswith(_PRIVATE_V4_PREFIXES):
        return True
    if value.startswith("172."):
        try:
            second = int(value.split(".")[1])
        except (IndexError, ValueError):
            return False
        return 16 <= second <= 31
    lowered = value.lower()
    return lowered.startswith("fd") or lowered in ("::1",)


def _bool_str(flag: bool) -> str:
    return "True" if flag else "False"


def _contents_digest(children: Sequence[FileMeta]) -> str:
    """Stable digest of a directory listing — the paper's ``.contents``.

    The paper stores a content descriptor ("dirDes"); a digest of the
    child basenames keeps the column comparable across images without
    storing listings.  *children* is the sorted listing
    :meth:`~repro.sysmodel.filesystem.FileSystem.children` returns.
    """
    names = ",".join(child.path.rsplit("/", 1)[-1] for child in children)
    return hashlib.sha1(names.encode()).hexdigest()[:12]


class AugmentedAttribute(NamedTuple):
    """A value + type produced for one augmented column."""

    suffix: str
    value: str
    type: ConfigType


class Augmenter:
    """Computes augmented attributes per Table 5a and env rows per 5b.

    Users extend it via :meth:`register` (the ``$$TypeAugment`` sections of
    the customization file funnel into this).
    """

    def __init__(self) -> None:
        self._custom: Dict[ConfigType, List[Tuple[str, ConfigType, Callable]]] = {}

    def register(
        self,
        config_type: ConfigType,
        suffix: str,
        value_type: ConfigType,
        compute: Callable[[str, SystemImage], Optional[str]],
    ) -> None:
        """Attach a user-defined augmented attribute to *config_type*.

        *compute* receives (entry value, image) and returns the augmented
        value or ``None`` to skip.
        """
        self._custom.setdefault(config_type, []).append((suffix, value_type, compute))

    # -- per-entry augmentation (Table 5a) -------------------------------------

    def augment(
        self, value: str, config_type: ConfigType, image: SystemImage,
        directories: Optional[DirectoryIndex] = None,
    ) -> List[AugmentedAttribute]:
        """All augmented attributes for one (value, type) in *image*.

        *directories* lists the image's directories for the ``.contents``,
        ``.hasDir`` and ``.hasSymLink`` columns; without one, each listing
        scans ``image.fs``.
        """
        out: List[AugmentedAttribute] = []
        if config_type is ConfigType.FILE_PATH:
            out.extend(self._augment_file_path(value, image, directories))
        elif config_type is ConfigType.IP_ADDRESS:
            out.extend(self._augment_ip(value))
        elif config_type is ConfigType.USER_NAME:
            out.extend(self._augment_user(value, image))
        elif config_type is ConfigType.SIZE:
            out.extend(self._augment_size(value))
        for suffix, value_type, compute in self._custom.get(config_type, ()):
            computed = compute(value, image)
            if computed is not None:
                out.append(AugmentedAttribute(suffix, str(computed), value_type))
        return out

    @staticmethod
    def _augment_file_path(
        value: str, image: SystemImage, directories: Optional[DirectoryIndex]
    ) -> List[AugmentedAttribute]:
        meta: Optional[FileMeta] = image.fs.get(value)
        if meta is None:
            # Missing paths still produce a .type column: 'missing' is a
            # legitimate (and highly suspicious) observation.
            return [AugmentedAttribute("type", "missing", ConfigType.ENUM)]
        out = [
            AugmentedAttribute("owner", meta.owner, ConfigType.USER_NAME),
            AugmentedAttribute("group", meta.group, ConfigType.GROUP_NAME),
            AugmentedAttribute("type", meta.kind.value, ConfigType.ENUM),
            AugmentedAttribute("permission", meta.octal_mode, ConfigType.PERMISSION),
        ]
        if meta.is_dir:
            # One listing feeds all three columns.
            listing = image.fs if directories is None else directories
            children = listing.children(meta.path)
            out.append(
                AugmentedAttribute(
                    "contents", _contents_digest(children), ConfigType.STRING
                )
            )
            out.append(
                AugmentedAttribute(
                    "hasDir", _bool_str(any(c.is_dir for c in children)),
                    ConfigType.BOOLEAN,
                )
            )
            out.append(
                AugmentedAttribute(
                    "hasSymLink", _bool_str(any(c.is_symlink for c in children)),
                    ConfigType.BOOLEAN,
                )
            )
        return out

    @staticmethod
    def _augment_ip(value: str) -> List[AugmentedAttribute]:
        return [
            AugmentedAttribute("Local", _bool_str(_is_private_ip(value)),
                               ConfigType.BOOLEAN),
            AugmentedAttribute("IPv6", _bool_str(":" in value), ConfigType.BOOLEAN),
            AugmentedAttribute(
                "AnyAddr", _bool_str(value in ("0.0.0.0", "::")), ConfigType.BOOLEAN
            ),
        ]

    @staticmethod
    def _augment_user(value: str, image: SystemImage) -> List[AugmentedAttribute]:
        accounts = image.accounts
        out = [
            AugmentedAttribute(
                "isRootGroup", _bool_str(accounts.is_in_root_group(value)),
                ConfigType.BOOLEAN,
            ),
            AugmentedAttribute(
                "isAdmin", _bool_str(accounts.is_admin(value)), ConfigType.BOOLEAN
            ),
        ]
        primary = accounts.primary_group(value)
        if primary is not None:
            out.append(AugmentedAttribute("isGroup", primary, ConfigType.GROUP_NAME))
        return out

    @staticmethod
    def _augment_size(value: str) -> List[AugmentedAttribute]:
        size = parse_size_bytes(value)
        if size is None:
            return []
        return [AugmentedAttribute("bytes", str(size), ConfigType.NUMBER)]

    # -- whole-system environment attributes (Table 5b) -------------------------

    @staticmethod
    def environment_attributes(image: SystemImage) -> Dict[str, AugmentedAttribute]:
        """The ``env:``-namespace columns for one image.

        Hardware columns are emitted only when the spec is available —
        dormant EC2 images lack them (Table 7 note; the root cause of the
        missed Problem #8 in Table 9).
        """
        os_info = image.os_info
        out = {
            "Sys.IPAddress": AugmentedAttribute(
                "", os_info.ip_address, ConfigType.IP_ADDRESS),
            "Sys.HostName": AugmentedAttribute("", os_info.hostname, ConfigType.STRING),
            "Sys.FSType": AugmentedAttribute("", os_info.fs_type, ConfigType.STRING),
            "Sys.Users": AugmentedAttribute(
                "", ",".join(image.accounts.user_list()), ConfigType.STRING),
            "OS.DistName": AugmentedAttribute("", os_info.dist_name, ConfigType.STRING),
            "OS.Version": AugmentedAttribute("", os_info.version, ConfigType.STRING),
            "OS.SEStatus": AugmentedAttribute(
                "", os_info.selinux.value, ConfigType.ENUM),
        }
        if image.hardware.available:
            hw = image.hardware
            out["CPU.Threads"] = AugmentedAttribute(
                "", str(hw.cpu_threads), ConfigType.NUMBER)
            out["CPU.Freq"] = AugmentedAttribute(
                "", str(hw.cpu_freq_mhz), ConfigType.NUMBER)
            out["MemSize"] = AugmentedAttribute(
                "", str(hw.memory_bytes), ConfigType.NUMBER)
            out["HDD.AvailSpace"] = AugmentedAttribute(
                "", str(hw.disk_bytes), ConfigType.NUMBER)
        return out
