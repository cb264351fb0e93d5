"""Operating-system release information and SELinux state.

Paper Table 5b collects ``OS.DistName``, ``OS.Version`` and ``OS.SEStatus``
as environment attributes appended to every assembled row; Table 7 exposes
``Sec.SELinux`` to customization code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SELinuxStatus(str, Enum):
    """The three SELinux operating modes (plus absent)."""

    ENFORCING = "enforcing"
    PERMISSIVE = "permissive"
    DISABLED = "disabled"
    ABSENT = "absent"


@dataclass(frozen=True, slots=True)
class OSInfo:
    """Distribution identity of an image."""

    dist_name: str = "ubuntu"
    version: str = "12.04"
    selinux: SELinuxStatus = SELinuxStatus.ABSENT
    fs_type: str = "ext4"
    hostname: str = "localhost"
    ip_address: str = "10.0.0.1"
    #: An AppArmor-style mandatory-access-control layer confining daemons to
    #: their default data directories (real-world case #4 of Table 9).
    apparmor_enabled: bool = False

    def __post_init__(self) -> None:
        if not self.dist_name:
            raise ValueError("dist_name must be non-empty")
