"""``repro doctor``: redacted diagnostic bundles for incident handoff.

When a detection run or daemon misbehaves, the operator needs one
artifact to attach to a ticket: what the process was doing (flight
recorder), what it did recently (ledger tail), what it dropped
(quarantine tail), how it was configured (digests, alert rules), how it
performed (profile, SLO snapshot), and where it ran (platform info).
:func:`build_bundle` assembles exactly that as a ``tar.gz`` of JSON
members plus a ``manifest.json`` naming every member with its SHA-256
digest; :func:`check_bundle` re-verifies a bundle — every member listed,
every digest matching, nothing smuggled in — so a bundle that crossed
machines or ticket systems can be trusted before anyone reads it.

Everything is **redacted on the way in**: values under secret-looking
keys (password/token/credential/…) are masked and the operator's home
directory is rewritten to ``~`` in every string, so a bundle is safe to
share by construction rather than by after-the-fact scrubbing.

Sources are best-effort by design — a missing ledger or profile just
means that member is absent (and the manifest says so); the bundle must
be buildable from a half-broken environment, because that is precisely
when it is needed.  A live daemon can be snapshotted too: pass *fetch*
(the CLI wires ``--url``) and the bundle gains ``statusz.json``,
``alertz.json``, ``tracez.json``, and ``flightz.json``.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import re
import tarfile
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

#: Where ``repro doctor`` writes (and ``repro doctor check`` reads) by
#: default.
DEFAULT_BUNDLE_PATH = ".encore/doctor-bundle.tar.gz"

#: The state directory bundle sources are collected from by default.
DEFAULT_STATE_DIR = ".encore"

#: Bumped on incompatible manifest changes; ``check_bundle`` refuses
#: versions it does not know.
BUNDLE_VERSION = 1

#: Ledger / quarantine lines kept (newest last) by default.
DEFAULT_TAIL = 200

#: Keys whose values are masked wherever they appear in a JSON document.
SECRET_KEY_RE = re.compile(
    r"(?i)(password|passwd|secret|token|credential|cookie|"
    r"api[_-]?key|private[_-]?key|authorization)"
)

REDACTED = "[redacted]"

#: Daemon routes snapshotted into the bundle when *fetch* is given.
DAEMON_ROUTES = ("statusz", "alertz", "tracez", "flightz")


class DoctorError(Exception):
    """A bundle could not be built or failed validation."""


# -- redaction -------------------------------------------------------------------


def _home() -> str:
    try:
        return str(Path.home())
    except (RuntimeError, OSError):  # no resolvable home (containers)
        return ""


def redact_text(text: str, home: Optional[str] = None) -> str:
    """Mask the user's home directory in free text."""
    home = _home() if home is None else home
    if home and home != "/" and home in text:
        return text.replace(home, "~")
    return text


def redact(value, home: Optional[str] = None):
    """Recursively mask secrets and home paths in a JSON-able value."""
    home = _home() if home is None else home
    if isinstance(value, dict):
        return {
            key: (REDACTED if isinstance(key, str) and SECRET_KEY_RE.search(key)
                  else redact(item, home))
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [redact(item, home) for item in value]
    if isinstance(value, str):
        return redact_text(value, home)
    return value


# -- sources ---------------------------------------------------------------------


def platform_info() -> Dict[str, object]:
    """Where this bundle was produced (no hostnames, no usernames)."""
    import platform as _platform
    import sys

    return {
        "python": sys.version.split()[0],
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "release": _platform.release(),
        "machine": _platform.machine(),
    }


def tail_lines(path: Union[str, Path], limit: int = DEFAULT_TAIL) -> List[str]:
    """The last *limit* non-empty lines of a text file ([] if unreadable)."""
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return []
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-limit:]


def _redact_jsonl(lines: List[str]) -> str:
    """Redact a JSONL tail line by line (non-JSON lines kept, home-masked)."""
    out: List[str] = []
    for line in lines:
        try:
            out.append(json.dumps(redact(json.loads(line)), sort_keys=True))
        except ValueError:
            out.append(redact_text(line))
    return "\n".join(out) + ("\n" if out else "")


def file_digests(paths: List[Path]) -> List[Dict[str, object]]:
    """``{path, sha256, bytes}`` per existing file — config/model identity."""
    out: List[Dict[str, object]] = []
    for path in paths:
        try:
            raw = Path(path).read_bytes()
        except OSError:
            continue
        out.append({
            "path": redact_text(str(path)),
            "sha256": hashlib.sha256(raw).hexdigest(),
            "bytes": len(raw),
        })
    return out


def _json_member(payload: object) -> bytes:
    return (json.dumps(redact(payload), indent=1, sort_keys=True) + "\n").encode()


def collect_members(
    state_dir: Union[str, Path] = DEFAULT_STATE_DIR,
    snapshot: Optional[Union[str, Path]] = None,
    tail: int = DEFAULT_TAIL,
    fetch: Optional[Callable[[str], object]] = None,
) -> Dict[str, bytes]:
    """Every bundle member except the manifest, already redacted.

    *fetch* maps a route name from :data:`DAEMON_ROUTES` to its parsed
    JSON payload (the CLI builds one over ``--url``); fetch failures
    skip that member rather than failing the bundle.
    """
    state = Path(state_dir)
    members: Dict[str, bytes] = {"platform.json": _json_member(platform_info())}

    # The flight recorder: the live in-process one wins (a daemon or an
    # instrumented run bundling itself), else the last saved dump.
    from repro.obs.flight import get_flight

    recorder = get_flight()
    if recorder is not None:
        members["flight.json"] = _json_member(recorder.to_dict())
    else:
        try:
            saved = json.loads((state / "flight.json").read_text())
            members["flight.json"] = _json_member(saved)
        except (OSError, ValueError):
            pass

    ledger = tail_lines(state / "ledger.jsonl", tail)
    if ledger:
        members["ledger_tail.jsonl"] = _redact_jsonl(ledger).encode()
    quarantine = tail_lines(state / "quarantine.jsonl", tail)
    if quarantine:
        members["quarantine_tail.jsonl"] = _redact_jsonl(quarantine).encode()

    try:
        profile = json.loads((state / "profile.json").read_text())
        members["profile.json"] = _json_member(profile)
    except (OSError, ValueError):
        pass
    try:
        rules = (state / "alerts.toml").read_text()
        members["alerts.toml"] = redact_text(rules).encode()
    except OSError:
        pass

    digest_sources = [state / "alerts.toml"]
    if snapshot is not None:
        digest_sources.insert(0, Path(snapshot))
    digests = file_digests(digest_sources)
    if digests:
        members["digests.json"] = _json_member({"files": digests})

    if fetch is not None:
        for route in DAEMON_ROUTES:
            try:
                payload = fetch(route)
            except Exception:  # a dead daemon must not kill the bundle
                continue
            members[f"{route}.json"] = _json_member(payload)
    return members


# -- bundle build / check --------------------------------------------------------


def _manifest(members: Dict[str, bytes]) -> Dict[str, object]:
    return {
        "bundle_version": BUNDLE_VERSION,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool": "repro doctor",
        "platform": platform_info(),
        "members": {
            name: {
                "sha256": hashlib.sha256(blob).hexdigest(),
                "bytes": len(blob),
            }
            for name, blob in sorted(members.items())
        },
    }


def build_bundle(
    out_path: Union[str, Path] = DEFAULT_BUNDLE_PATH,
    state_dir: Union[str, Path] = DEFAULT_STATE_DIR,
    snapshot: Optional[Union[str, Path]] = None,
    tail: int = DEFAULT_TAIL,
    fetch: Optional[Callable[[str], object]] = None,
) -> Tuple[Path, Dict[str, object]]:
    """Assemble the bundle; returns ``(path, manifest)``.

    The tarball is written atomically (tmp + replace) so a crash mid-
    bundle never leaves a truncated archive at the target path.
    """
    members = collect_members(state_dir=state_dir, snapshot=snapshot,
                              tail=tail, fetch=fetch)
    manifest = _manifest(members)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    with tarfile.open(tmp, "w:gz") as archive:
        ordered = [("manifest.json", _json_member(manifest))]
        ordered.extend(sorted(members.items()))
        for name, blob in ordered:
            info = tarfile.TarInfo(name=name)
            info.size = len(blob)
            info.mtime = int(time.time())
            archive.addfile(info, io.BytesIO(blob))
    tmp.replace(out)
    return out, manifest


def check_bundle(path: Union[str, Path]) -> Dict[str, object]:
    """Validate a bundle's manifest; raises :class:`DoctorError` on any
    mismatch (missing member, digest drift, unlisted member, unknown
    version).  Members are read in memory — nothing is extracted to
    disk, so checking an untrusted bundle is safe.
    """
    bundle = Path(path)
    blobs: Dict[str, bytes] = {}
    try:
        # Decompress the whole stream up front: gzip checks its CRC and
        # length trailer only at end of stream, which a tar reader that
        # stops at the end-of-archive marker never reaches.  A flipped
        # byte can surface anywhere in here, as any of these errors.
        data = gzip.decompress(bundle.read_bytes())
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:") as archive:
            for member in archive.getmembers():
                if not member.isfile():
                    raise DoctorError(
                        f"bundle member {member.name!r} is not a regular file"
                    )
                handle = archive.extractfile(member)
                blobs[member.name] = handle.read() if handle is not None else b""
    except (OSError, EOFError, zlib.error, tarfile.TarError) as exc:
        raise DoctorError(f"cannot open bundle {bundle}: {exc}") from exc
    raw_manifest = blobs.pop("manifest.json", None)
    if raw_manifest is None:
        raise DoctorError("bundle has no manifest.json")
    try:
        manifest = json.loads(raw_manifest)
    except ValueError as exc:
        raise DoctorError(f"manifest.json is not valid JSON: {exc}")
    version = manifest.get("bundle_version")
    if version != BUNDLE_VERSION:
        raise DoctorError(f"unknown bundle_version {version!r} "
                          f"(this tool understands {BUNDLE_VERSION})")
    listed = manifest.get("members")
    if not isinstance(listed, dict):
        raise DoctorError("manifest.json has no 'members' table")
    for name, meta in sorted(listed.items()):
        blob = blobs.pop(name, None)
        if blob is None:
            raise DoctorError(f"member {name!r} listed in manifest but "
                              "missing from bundle")
        digest = hashlib.sha256(blob).hexdigest()
        if digest != meta.get("sha256"):
            raise DoctorError(f"member {name!r} digest mismatch "
                              f"(manifest {meta.get('sha256')}, got {digest})")
        if len(blob) != meta.get("bytes"):
            raise DoctorError(f"member {name!r} size mismatch")
    if blobs:
        extra = ", ".join(sorted(blobs))
        raise DoctorError(f"bundle contains members not in manifest: {extra}")
    return {
        "path": str(bundle),
        "bundle_version": version,
        "created_at": manifest.get("created_at", ""),
        "members": sorted(listed),
        "verified": len(listed),
    }
