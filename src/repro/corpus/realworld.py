"""The ten real-world misconfiguration cases of paper Table 9.

The paper reproduces ServerFault-reported failures on a testing image and
checks whether EnCore flags the root-cause entry.  Each
:class:`RealWorldCase` here reconstructs one row of Table 9: a mutation
applying the documented misconfiguration to a clean image, the root-cause
attribute (for rank lookup in the report), the information class the
paper says is required (Env / Corr / Env + Corr), and the paper's
reported rank string.

Case #8 (MySQL ``max_heap_table_size`` = system memory) is the one the
paper *misses* because dormant EC2 training images carry no hardware
information; we reproduce the miss by using a heap size that occurs
(rarely) in training, so no value/type/correlation signal exists without
a hardware-aware rule.

Case #4's AppArmor denial is modelled through its filesystem-visible
effect (the relocated datadir is not writable by the ``mysql`` user);
DESIGN.md documents the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.corpus.generator import _extract_value
from repro.sysmodel.image import SystemImage


@dataclass(frozen=True)
class RealWorldCase:
    """One Table 9 row."""

    case_id: int
    software: str
    description: str
    info: str  # "Env", "Corr", or "Env + Corr"
    target_attribute: str
    paper_rank: str
    expected_detected: bool
    apply: Callable[[SystemImage], None]

    def inject(self, image: SystemImage) -> SystemImage:
        """Apply the misconfiguration to a copy of *image*."""
        broken = image.copy(image_id=f"{image.image_id}-case{self.case_id}")
        self.apply(broken)
        return broken


def _apache_user(image: SystemImage) -> str:
    return _extract_value(image.config_file("apache").text, "User") or "apache"


def _docroot(image: SystemImage) -> str:
    return _extract_value(image.config_file("apache").text, "DocumentRoot") or "/var/www/html"


def _set_value(image: SystemImage, app: str, raw_name: str, value: str) -> None:
    if image.set_config_value(app, raw_name, value) is None:
        raise ValueError(f"{raw_name} not present in {app} config of {image.image_id}")


def _ensure_mysqld_entry(image: SystemImage, key: str, value: str) -> None:
    """Insert ``key = value`` into the [mysqld] section if absent."""
    config = image.config_file("mysql")
    if _extract_value(config.text, key) is not None:
        _set_value(image, "mysql", key, value)
        return
    lines = config.text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "[mysqld]":
            lines.insert(i + 1, f"{key} = {value}")
            break
    else:
        lines.extend(["[mysqld]", f"{key} = {value}"])
    config.text = "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# The ten cases.
# --------------------------------------------------------------------------

def _case1_docroot_without_directory(image: SystemImage) -> None:
    """#1 Apache: DocumentRoot moved, but the <Directory> protection block
    still names the old path — the site loses its intended protection."""
    new_root = "/srv/site/public"
    user = _apache_user(image)
    image.fs.add_dir(new_root, owner=user, group=user)
    image.fs.add_file(f"{new_root}/index.html", owner=user, group=user)
    # Replace only the DocumentRoot directive; <Directory old> stays.
    _set_value(image, "apache", "DocumentRoot", new_root)


def _case2_extension_dir_is_file(image: SystemImage) -> None:
    """#2 PHP: extension_dir points at a regular file, not the directory —
    database modules silently fail to load."""
    _set_value(image, "php", "extension_dir", "/etc/php.ini")


def _case3_datadir_wrong_owner(image: SystemImage) -> None:
    """#3 MySQL: datadir exists but is owned by root — file creation
    errors at runtime (Figure 1b)."""
    datadir = _extract_value(image.config_file("mysql").text, "datadir")
    assert datadir is not None
    image.fs.chown(datadir, owner="root", group="root")


def _case4_apparmor_denied_datadir(image: SystemImage) -> None:
    """#4 MySQL: datadir relocated without updating the AppArmor profile;
    the effective result is that mysql cannot write the new location
    (modelled via ownership/permissions — see module docstring)."""
    new_dir = "/data/mysql"
    image.fs.add_dir(new_dir, owner="root", group="root", mode=0o755)
    _set_value(image, "mysql", "datadir", new_dir)


def _case5_extension_dir_wrong_location(image: SystemImage) -> None:
    """#5 PHP: extension_dir set to a location that does not exist —
    modules are not loaded (Figure 1a)."""
    _set_value(image, "php", "extension_dir", "/usr/lib/php5/20121212")


def _case6_symlink_with_followsymlinks_off(image: SystemImage) -> None:
    """#6 Apache: the document root gains a symlink while FollowSymLinks
    is off — parts of the site become unavailable."""
    docroot = _docroot(image)
    image.fs.add_symlink(f"{docroot}/current", f"{docroot}/index.html")
    image.set_config_value("apache", "Options", "None")


def _case7_docroot_permission(image: SystemImage) -> None:
    """#7 Apache: upload area re-owned away from the Apache user —
    visitors can no longer upload files."""
    docroot = _docroot(image)
    image.fs.chown(docroot, owner="root", group="root")
    image.fs.chmod(docroot, 0o755)


def _case8_heap_equals_memory(image: SystemImage) -> None:
    """#8 MySQL: max_heap_table_size set to the whole system memory; the
    allocation cannot succeed.  2G is a legitimate-looking value seen in
    training, so without hardware information nothing flags it — the
    paper's only miss."""
    _set_value(image, "mysql", "max_heap_table_size", "2G")
    # Keep the coupled tmp_table_size consistent so no *other* rule fires.
    if _extract_value(image.config_file("mysql").text, "tmp_table_size"):
        _set_value(image, "mysql", "tmp_table_size", "2G")


def _case9_log_permission(image: SystemImage) -> None:
    """#9 MySQL: slow-query logging enabled and pointed at a file the
    mysql user cannot write — logging silently does not happen."""
    log_path = "/var/log/mysql/slow.log"
    _ensure_mysqld_entry(image, "slow_query_log", "1")
    _ensure_mysqld_entry(image, "slow_query_log_file", log_path)
    image.fs.add_file(log_path, owner="root", group="root", mode=0o600)


def _case10_upload_size_inversion(image: SystemImage) -> None:
    """#10 PHP: upload_max_filesize raised above post_max_size — uploads
    of large files fail although the per-file limit permits them."""
    _set_value(image, "php", "upload_max_filesize", "64M")
    _set_value(image, "php", "post_max_size", "8M")


def real_world_cases() -> List[RealWorldCase]:
    """All ten Table 9 rows, in paper order."""
    return [
        RealWorldCase(
            1, "apache",
            "Website not granted desired protection because DocumentRoot "
            "does not have a related Directory section",
            "Corr", "apache:DocumentRoot", "1(5)", True,
            _case1_docroot_without_directory,
        ),
        RealWorldCase(
            2, "php",
            "Does not connect to database due to extension_dir pointing "
            "to a file instead of the directory",
            "Env", "php:extension_dir.type", "1(1)", True,
            _case2_extension_dir_is_file,
        ),
        RealWorldCase(
            3, "mysql",
            "File creation error due to datadir's wrong owner",
            "Env + Corr", "mysql:mysqld/datadir", "1(1)", True,
            _case3_datadir_wrong_owner,
        ),
        RealWorldCase(
            4, "mysql",
            "Data writing error due to undesired protection from AppArmor",
            "Env", "mysql:mysqld/datadir", "1(2)", True,
            _case4_apparmor_denied_datadir,
        ),
        RealWorldCase(
            5, "php",
            "Modules not loaded because extension_dir is set to a wrong "
            "location",
            "Env", "php:extension_dir", "1(1)", True,
            _case5_extension_dir_wrong_location,
        ),
        RealWorldCase(
            6, "apache",
            "Website unavailability because directory contains symbolic "
            "links when FollowSymLinks is off",
            "Env + Corr", "apache:DocumentRoot.hasSymLink", "1(3)", True,
            _case6_symlink_with_followsymlinks_off,
        ),
        RealWorldCase(
            7, "apache",
            "Website visitors are unable to upload files due to the wrong "
            "permission set to the Apache user",
            "Env + Corr", "apache:DocumentRoot", "1(1)", True,
            _case7_docroot_permission,
        ),
        RealWorldCase(
            8, "mysql",
            "Out of memory error due to too large table size allowed in "
            "configuration",
            "Env + Corr", "mysql:mysqld/max_heap_table_size", "-", False,
            _case8_heap_equals_memory,
        ),
        RealWorldCase(
            9, "mysql",
            "Logging is not performed even with relevant entry set "
            "correctly due to wrong permission",
            "Env + Corr", "mysql:mysqld/slow_query_log_file", "1(1)", True,
            _case9_log_permission,
        ),
        RealWorldCase(
            10, "php",
            "Failure when uploading large file due to the wrong setting of "
            "file size limit",
            "Corr", "php:upload_max_filesize", "2(2)", True,
            _case10_upload_size_inversion,
        ),
    ]
