"""JSON (de)serialisation of :class:`SystemImage` objects.

The paper's data collector emits "raw data including all files relevant for
analysis, as well as additional environment information in text format"
(§3).  Snapshots are that text format: a corpus of images can be saved to
disk and re-loaded without re-running the generator.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.sysmodel.accounts import AccountDatabase, Group, User
from repro.sysmodel.filesystem import FileKind, FileMeta, FileSystem
from repro.sysmodel.hardware import HardwareSpec
from repro.sysmodel.image import ConfigFile, SystemImage
from repro.sysmodel.osinfo import OSInfo, SELinuxStatus
from repro.sysmodel.services import Service, ServiceRegistry

SNAPSHOT_VERSION = 1


class ImageCorruptError(ValueError):
    """An image snapshot cannot be read or decoded.

    Raised by :func:`image_from_dict` for a dict that is not a
    version-:data:`SNAPSHOT_VERSION` image (missing keys, wrong types),
    and by :func:`load_image` also for an unreadable path (a directory, a
    missing file) and bytes that are not JSON.  Names the path, when
    there is one, so the CLI can fail with one line, not a traceback.
    """

    def __init__(self, path: Optional[Union[str, Path]], reason: str) -> None:
        self.path = None if path is None else str(path)
        self.reason = reason
        where = "" if path is None else f" {self.path}"
        super().__init__(f"corrupt image snapshot{where}: {reason}")


def image_to_dict(image: SystemImage) -> Dict[str, Any]:
    """Serialise an image into a plain JSON-ready dict."""
    return {
        "version": SNAPSHOT_VERSION,
        "image_id": image.image_id,
        "running": image.running,
        "env_vars": dict(image.env_vars),
        "hardware": {
            "cpu_threads": image.hardware.cpu_threads,
            "cpu_freq_mhz": image.hardware.cpu_freq_mhz,
            "memory_bytes": image.hardware.memory_bytes,
            "disk_bytes": image.hardware.disk_bytes,
            "available": image.hardware.available,
        },
        "os_info": {
            "dist_name": image.os_info.dist_name,
            "version": image.os_info.version,
            "selinux": image.os_info.selinux.value,
            "fs_type": image.os_info.fs_type,
            "hostname": image.os_info.hostname,
            "ip_address": image.os_info.ip_address,
            "apparmor_enabled": image.os_info.apparmor_enabled,
        },
        "services": [
            {"name": s.name, "port": s.port, "protocol": s.protocol}
            for s in image.services
        ],
        "users": [
            {"name": u.name, "uid": u.uid, "gid": u.gid, "home": u.home, "shell": u.shell}
            for name in image.accounts.user_list()
            for u in (image.accounts.user(name),)
        ],
        "groups": [
            {"name": g.name, "gid": g.gid, "members": list(g.members)}
            for name in image.accounts.group_list()
            for g in (image.accounts.group(name),)
        ],
        "files": [
            {
                "path": m.path,
                "kind": m.kind.value,
                "owner": m.owner,
                "group": m.group,
                "mode": m.mode,
                "size": m.size,
                "target": m.target,
            }
            for m in image.fs.walk("/")
        ],
        "config_files": [
            {"app": c.app, "path": c.path, "text": c.text}
            for c in image.config_files()
        ],
    }


def image_from_dict(data: Dict[str, Any]) -> SystemImage:
    """Rebuild a :class:`SystemImage` from :func:`image_to_dict` output.

    Raises :class:`ImageCorruptError` when *data* is not an image dict.
    """
    try:
        return _image_from_dict(data)
    except KeyError as exc:
        raise ImageCorruptError(None, f"missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ImageCorruptError(None, str(exc)) from exc


def _image_from_dict(data: Dict[str, Any]) -> SystemImage:
    version = data.get("version", 0)
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version: {version}")

    accounts = AccountDatabase(
        users=[User(**u) for u in data["users"]],
        groups=[
            Group(g["name"], g["gid"], tuple(g.get("members", ())))
            for g in data["groups"]
        ],
    )
    services = ServiceRegistry([Service(**s) for s in data["services"]])
    hardware = HardwareSpec(**data["hardware"])
    os_raw = dict(data["os_info"])
    os_raw["selinux"] = SELinuxStatus(os_raw["selinux"])
    os_info = OSInfo(**os_raw)

    fs = FileSystem()
    for f in data["files"]:
        fs.add(
            FileMeta(
                f["path"],
                kind=FileKind(f["kind"]),
                owner=f["owner"],
                group=f["group"],
                mode=f["mode"],
                size=f["size"],
                target=f.get("target"),
            )
        )

    image = SystemImage(
        data["image_id"],
        fs=fs,
        accounts=accounts,
        services=services,
        hardware=hardware,
        os_info=os_info,
        env_vars=data.get("env_vars", {}),
        running=data.get("running", False),
    )
    for c in data["config_files"]:
        image.add_config_file(ConfigFile(c["app"], c["path"], c["text"]))
    return image


def save_image(image: SystemImage, path: Union[str, Path]) -> Path:
    """Write one image as JSON to *path*."""
    out = Path(path)
    out.write_text(json.dumps(image_to_dict(image), indent=1))
    return out


def load_image(path: Union[str, Path]) -> SystemImage:
    """Load one image previously saved with :func:`save_image`.

    Raises :class:`ImageCorruptError` when *path* cannot be read or
    does not hold an image snapshot.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ImageCorruptError(path, f"cannot read ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ImageCorruptError(path, f"invalid JSON ({exc})") from exc
    try:
        return image_from_dict(data)
    except ImageCorruptError as exc:
        raise ImageCorruptError(path, exc.reason) from exc
