"""EC2-like system-image generator.

Produces deterministic, coherent :class:`~repro.sysmodel.image.SystemImage`
objects standing in for the paper's crawled Amazon EC2 public images.  The
generator reproduces the statistical properties the EnCore pipeline relies
on (§7.3):

* **template-image bias** — "EC2 images are often used as general template
  images ... many of the images' configurations are set as default", so
  each entry's first catalog choice is emitted with high probability;
* **coherent environments** — data directories exist and are owned by the
  daemon user, the PHP extension dir is a directory containing modules,
  ``LoadModule`` paths resolve under ``ServerRoot``, log files are owned
  by the logging daemon and not world-readable;
* **coupled values** — the size/number orderings the paper's concrete
  rules capture (``upload_max_filesize < post_max_size``, the Apache MPM
  ladder, MySQL cache limits) hold across (almost) all images;
* **dormant-image hardware** — the hardware spec is unavailable, exactly
  like crawled AMIs (§7.1.2, the missed Problem #8).

``generate_wild`` additionally plants latent misconfigurations of the
three Table 10 categories and returns the ground-truth plant records, so
the Table 10 benchmark can score rediscovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.types import ConfigType, parse_size_bytes
from repro.corpus.catalog import CatalogEntry, app_catalog
from repro.sysmodel.accounts import Group
from repro.sysmodel.hardware import HardwareSpec
from repro.sysmodel.image import ConfigFile, SystemImage
from repro.sysmodel.osinfo import OSInfo, SELinuxStatus

#: (dist_name, version, weight) mix typical of 2013-era EC2 images.
DEFAULT_DISTROS: Tuple[Tuple[str, str, float], ...] = (
    ("amzn", "2013.03", 0.35),
    ("ubuntu", "12.04", 0.30),
    ("centos", "6.3", 0.25),
    ("debian", "6.0", 0.10),
)

CONFIG_PATHS = {
    "apache": "/etc/httpd/conf/httpd.conf",
    "mysql": "/etc/my.cnf",
    "php": "/etc/php.ini",
    "sshd": "/etc/ssh/sshd_config",
}

_SIZE_SUFFIXES = [(1 << 40, "T"), (1 << 30, "G"), (1 << 20, "M"), (1 << 10, "K")]


def format_size(num_bytes: int) -> str:
    """Bytes → the shortest exact K/M/G/T literal (``67108864`` → ``64M``)."""
    for unit, suffix in _SIZE_SUFFIXES:
        if num_bytes >= unit and num_bytes % unit == 0:
            return f"{num_bytes // unit}{suffix}"
    return str(num_bytes)


def _scale_literal(value: str, factor: int):
    """Scale a numeric or size literal by *factor*; None when not scalable."""
    import re as _re
    match = _re.match(r"^(\d+)([KMGT])?$", value.strip(), _re.IGNORECASE)
    if not match:
        return None
    number = int(match.group(1))
    if number == 0:
        return None
    return f"{number * factor}{match.group(2) or ''}"


@dataclass(frozen=True)
class PlantedIssue:
    """Ground truth for one latent misconfiguration planted by
    :meth:`Ec2CorpusGenerator.generate_wild` (Table 10 categories)."""

    image_id: str
    category: str  # "FilePath" | "Permission" | "ValueCompare"
    app: str
    attribute: str
    description: str


@dataclass
class GenerationProfile:
    """Knobs distinguishing corpora (EC2 vs private cloud).

    ``customization_level`` scales how often entries deviate from the
    distribution default: 0 = pristine templates, 1 = heavy production
    customisation.  ``noise_rate`` is the probability that a *coupled*
    invariant (e.g. a size ordering) is left unenforced in one image —
    kept below 1 - confidence-threshold so rules still pass filtering.
    """

    distros: Tuple[Tuple[str, str, float], ...] = DEFAULT_DISTROS
    hardware_available: bool = False
    running: bool = False
    customization_level: float = 0.35
    noise_rate: float = 0.03
    #: Probability that a path-valued entry gets a per-image custom
    #: location (deploy-specific directories).  This is what defeats
    #: plain value comparison on paths: "the value ... often varies
    #: across a set of samples" (paper §1).
    path_variation: float = 0.35
    #: Probability that a numeric/size tunable is scaled away from its
    #: catalog choice (per-deployment tuning), diversifying the value
    #: distributions the way production corpora do.
    value_variation: float = 0.45
    image_prefix: str = "ami"

    def __post_init__(self) -> None:
        if not 0 <= self.customization_level <= 1:
            raise ValueError("customization_level must be in [0,1]")
        if not 0 <= self.noise_rate < 0.1:
            raise ValueError("noise_rate must stay below the confidence slack (0.1)")


class Ec2CorpusGenerator:
    """Deterministic generator of EC2-like training images."""

    def __init__(
        self,
        seed: int = 0,
        apps: Sequence[str] = ("apache", "mysql", "php"),
        profile: Optional[GenerationProfile] = None,
    ) -> None:
        self.seed = seed
        self.apps = tuple(apps)
        self.profile = profile if profile is not None else GenerationProfile()
        unknown = [a for a in self.apps if a not in CONFIG_PATHS]
        if unknown:
            raise ValueError(f"unknown app(s): {unknown}")

    # -- public API -----------------------------------------------------------------

    def generate(self, count: int) -> List[SystemImage]:
        """*count* coherent images, deterministic in (seed, count)."""
        return [self.generate_one(i) for i in range(count)]

    def generate_one(self, index: int) -> SystemImage:
        """One image; independent RNG stream per (seed, index)."""
        rng = random.Random(f"{self.seed}:{index}")
        image_id = f"{self.profile.image_prefix}-{self.seed:02d}{index:04d}"
        image = self._base_image(image_id, rng)
        for app in self.apps:
            self._install_app(image, app, rng)
        return image

    def generate_wild(
        self,
        count: int,
        planted: Optional[Dict[str, int]] = None,
        affected_images: Optional[int] = None,
    ) -> Tuple[List[SystemImage], List[PlantedIssue]]:
        """Images with latent misconfigurations planted.

        *planted* maps Table 10 category → number of issues; defaults to
        the paper's EC2 row (FilePath 3, Permission 10, ValueCompare 24).
        *affected_images* bounds how many distinct images carry issues
        (the paper found 37 issues concentrated in 25 of 120 images).
        """
        if planted is None:
            planted = {"FilePath": 3, "Permission": 10, "ValueCompare": 24}
        images = self.generate(count)
        total = sum(planted.values())
        if affected_images is None:
            affected_images = max(1, min(count, int(round(total * 0.67))))
        rng = random.Random(f"{self.seed}:wild")
        hosts = rng.sample(range(count), min(affected_images, count))
        issues: List[PlantedIssue] = []
        slots: List[str] = [
            category for category, n in sorted(planted.items()) for _ in range(n)
        ]
        rng.shuffle(slots)
        for i, category in enumerate(slots):
            image = images[hosts[i % len(hosts)]]
            issue = self._plant(image, category, rng)
            if issue is not None:
                issues.append(issue)
        return images, issues

    # -- base image -------------------------------------------------------------------

    def _pick_distro(self, rng: random.Random) -> Tuple[str, str]:
        total = sum(w for _, _, w in self.profile.distros)
        roll = rng.random() * total
        for name, version, weight in self.profile.distros:
            roll -= weight
            if roll <= 0:
                return name, version
        return self.profile.distros[-1][:2]

    def _base_image(self, image_id: str, rng: random.Random) -> SystemImage:
        dist, version = self._pick_distro(rng)
        os_info = OSInfo(
            dist_name=dist,
            version=version,
            selinux=(
                SELinuxStatus.ENFORCING
                if dist in ("centos", "amzn") and rng.random() < 0.4
                else SELinuxStatus.DISABLED
                if dist in ("centos", "amzn")
                else SELinuxStatus.ABSENT
            ),
            fs_type="ext4" if rng.random() < 0.8 else "ext3",
            hostname=f"ip-10-0-{rng.randrange(256)}-{rng.randrange(256)}",
            ip_address=f"10.0.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            apparmor_enabled=(dist in ("ubuntu", "debian") and rng.random() < 0.5),
        )
        hardware = (
            HardwareSpec(
                cpu_threads=rng.choice([1, 2, 4, 8]),
                cpu_freq_mhz=rng.choice([2000, 2400, 2600, 3000]),
                memory_bytes=rng.choice([1, 2, 4, 8, 16]) << 30,
                disk_bytes=rng.choice([8, 20, 50, 100]) << 30,
            )
            if self.profile.hardware_available
            else HardwareSpec.unavailable()
        )
        image = SystemImage(
            image_id,
            hardware=hardware,
            os_info=os_info,
            running=self.profile.running,
            env_vars={"PATH": "/usr/local/bin:/usr/bin:/bin", "LANG": "en_US.UTF-8"}
            if self.profile.running
            else {},
        )
        fs = image.fs
        for path in ("/etc", "/bin", "/sbin", "/usr/bin", "/usr/sbin",
                     "/usr/lib", "/usr/share", "/var/log", "/var/run",
                     "/var/lib", "/var/cache", "/home", "/root", "/var/www"):
            fs.add_dir(path)
        fs.add_dir("/tmp", mode=0o777)
        fs.add_dir("/var/tmp", mode=0o777)
        for path in ("/etc/passwd", "/etc/group", "/etc/services",
                     "/etc/mime.types", "/etc/issue.net", "/etc/hosts"):
            fs.add_file(path)
        return image

    # -- app installation ---------------------------------------------------------------

    def _install_app(self, image: SystemImage, app: str, rng: random.Random) -> None:
        values = self._sample_values(app, rng)
        self._apply_coherence(image, app, values, rng)
        self._materialize(image, app, values, rng)
        text = self._render(app, values)
        image.add_config_file(ConfigFile(app, CONFIG_PATHS[app], text))

    def _sample_values(self, app: str, rng: random.Random) -> Dict[str, object]:
        """Entry name → sampled value (or list of values for LoadModule)."""
        values: Dict[str, object] = {}
        for entry in app_catalog(app):
            if not entry.core and rng.random() >= entry.prob:
                continue
            values[entry.name] = self._sample_choice(entry, rng)
        return values

    def _sample_choice(self, entry: CatalogEntry, rng: random.Random) -> object:
        if entry.app == "apache" and entry.name == "LoadModule":
            k = rng.randint(1, len(entry.choices))
            return rng.sample(list(entry.choices), k)
        bias = entry.default_bias
        # Production-style corpora customise more (lower effective bias).
        bias = bias * (1 - 0.3 * self.profile.customization_level)
        if len(entry.choices) == 1 or rng.random() < bias:
            value = entry.choices[0]
        else:
            value = rng.choice(entry.choices[1:])
        # Deploy-specific path customisation: many distinct path values
        # across a corpus, each coherent within its own image.
        if (
            entry.ctype is ConfigType.FILE_PATH
            and entry.setup != "none"
            and rng.random() < self.profile.path_variation
        ):
            value = f"{value}-{rng.randrange(40)}"
        # Per-deployment tuning of numeric/size knobs (scaled by small
        # powers of two, as admins do) — keeps value comparison honest.
        elif (
            entry.ctype in (ConfigType.NUMBER, ConfigType.SIZE)
            and len(entry.choices) > 1
            and rng.random() < self.profile.value_variation
        ):
            value = _scale_literal(value, rng.choice((2, 4, 16, 64))) or value
        return value

    # -- value coupling (the correlations EnCore should learn) ---------------------------

    def _apply_coherence(
        self, image: SystemImage, app: str, values: Dict[str, object],
        rng: random.Random,
    ) -> None:
        noisy = rng.random() < self.profile.noise_rate
        if noisy:
            return  # this image keeps whatever it sampled (rule noise)
        if app == "php":
            self._order_sizes(values, ["upload_max_filesize", "post_max_size",
                                       "memory_limit"])
            self._order_numbers(values, ["max_execution_time", "max_input_time"])
            # PHP's mysql client points at the server's socket/port.
            mysql_values = getattr(image, "_mysql_values", None)
            if mysql_values:
                if "mysql.default_socket" in values and "mysqld/socket" in mysql_values:
                    values["mysql.default_socket"] = mysql_values["mysqld/socket"]
                if "mysql.default_port" in values and "mysqld/port" in mysql_values:
                    values["mysql.default_port"] = mysql_values["mysqld/port"]
        elif app == "apache":
            self._order_numbers(values, ["MinSpareServers", "MaxSpareServers",
                                         "MaxClients", "ServerLimit"])
            self._order_numbers(values, ["KeepAliveTimeout", "Timeout"])
            self._order_numbers(values, ["CacheMinFileSize", "CacheMaxFileSize"])
        elif app == "mysql":
            self._order_sizes(values, ["query_cache_limit", "query_cache_size"],
                              prefix="mysqld/")
            self._order_sizes(values, ["net_buffer_length", "max_allowed_packet"],
                              prefix="mysqld/")
            # Distribution templates ship the two heap-table knobs equal.
            if (
                "mysqld/tmp_table_size" in values
                and "mysqld/max_heap_table_size" in values
                and rng.random() < 0.9
            ):
                values["mysqld/tmp_table_size"] = values["mysqld/max_heap_table_size"]
            # Client settings mirror the server's.
            for client, server in (("client/port", "mysqld/port"),
                                   ("client/socket", "mysqld/socket")):
                if client in values and server in values:
                    values[client] = values[server]
            for safe, server in (("mysqld_safe/log_error", "mysqld/log_error"),
                                 ("mysqld_safe/pid_file", "mysqld/pid_file")):
                if safe in values and server in values:
                    values[safe] = values[server]
            image._mysql_values = dict(values)  # noqa: SLF001 — generator-private
        elif app == "sshd":
            self._order_numbers(values, ["ClientAliveInterval"])  # no-op guard

    @staticmethod
    def _order_sizes(values: Dict[str, object], names: List[str], prefix: str = "") -> None:
        keys = [prefix + n for n in names if prefix + n in values]
        if len(keys) < 2:
            return
        parsed = [(parse_size_bytes(str(values[k])) or 0, str(values[k])) for k in keys]
        parsed.sort(key=lambda p: p[0])
        for key, (_, literal) in zip(keys, parsed):
            values[key] = literal

    @staticmethod
    def _order_numbers(values: Dict[str, object], names: List[str]) -> None:
        keys = [n for n in names if n in values]
        if len(keys) < 2:
            return
        nums = sorted(int(str(values[k])) for k in keys)
        # Strictly increasing: the coupled invariants use strict <, and
        # doubled ties keep the ladder unambiguous across the corpus.
        for i in range(1, len(nums)):
            if nums[i] <= nums[i - 1]:
                nums[i] = max(nums[i - 1] * 2, nums[i - 1] + 1)
        for key, num in zip(keys, nums):
            values[key] = str(num)

    # -- environment materialisation ------------------------------------------------------

    _APP_UIDS = {"apache": 48, "www-data": 33, "httpd": 490, "mysql": 27,
                 "sshd": 74, "nobody": 65534, "deploy": 1001, "admin": 1002}

    def _daemon_user(self, app: str, values: Dict[str, object]) -> str:
        if app == "apache":
            return str(values.get("User", "apache"))
        if app == "mysql":
            return str(values.get("mysqld/user", "mysql"))
        return {"php": "apache", "sshd": "root"}.get(app, "root")

    def _ensure_user(self, image: SystemImage, name: str) -> None:
        uid = self._APP_UIDS.get(name, 900 + (hash(name) % 90))
        image.accounts.ensure_service_account(name, uid)

    def _materialize(
        self, image: SystemImage, app: str, values: Dict[str, object],
        rng: random.Random,
    ) -> None:
        user = self._daemon_user(app, values)
        self._ensure_user(image, user)
        entries = {e.name: e for e in app_catalog(app)}
        docroot = str(values.get("DocumentRoot", "/var/www/html"))
        serverroot = str(values.get("ServerRoot", "/etc/httpd"))
        for name, value in values.items():
            entry = entries.get(name)
            if entry is None or entry.setup == "none":
                continue
            for single in (value if isinstance(value, list) else [value]):
                self._setup_one(image, entry, str(single), user, docroot,
                                serverroot, rng)

    def _setup_one(
        self, image: SystemImage, entry: CatalogEntry, value: str,
        user: str, docroot: str, serverroot: str, rng: random.Random,
    ) -> None:
        fs = image.fs
        setup = entry.setup
        if setup == "dir":
            fs.add_dir(value)
        elif setup == "file":
            fs.add_file(value)
        elif setup == "secretfile":
            fs.add_file(value, mode=0o600)
        elif setup == "logfile":
            # Daemon-owned, group-readable, not world-readable: the best
            # practice whose violation is the MySQL-log case of §7.1.3.
            fs.add_file(value, owner=user, group=user, mode=0o640)
        elif setup == "daemon_dir":
            fs.add_dir(value, owner=user, group=user, mode=0o700)
            fs.add_file(f"{value}/ibdata1", owner=user, group=user, mode=0o660)
        elif setup == "user":
            self._ensure_user(image, value)
        elif setup == "group":
            if not image.accounts.has_group(value):
                gid = self._APP_UIDS.get(value, 900 + (hash(value) % 90))
                image.accounts.add_group(Group(value, gid))
        elif setup == "webroot":
            fs.add_dir(value, owner=user, group=user)
            fs.add_file(f"{value}/index.html", owner=user, group=user)
        elif setup == "webfile":
            fs.add_file(f"{docroot}/{value}", owner=user, group=user)
        elif setup == "weberror":
            partial = value.split(None, 1)[-1]
            fs.add_file(f"{docroot}/{partial}", owner=user, group=user)
        elif setup == "extdir":
            fs.add_dir(value)
            for module in ("mysql.so", "gd.so", "curl.so"):
                fs.add_file(f"{value}/{module}")
        elif setup == "module":
            fs.add_file(f"{serverroot}/{value}")
        else:
            raise ValueError(f"unknown setup tag {setup!r} on {entry.name}")

    # -- config rendering ------------------------------------------------------------------

    def _render(self, app: str, values: Dict[str, object]) -> str:
        renderer = {
            "apache": self._render_apache,
            "mysql": self._render_mysql,
            "php": self._render_php,
            "sshd": self._render_sshd,
        }[app]
        return renderer(values)

    @staticmethod
    def _render_apache(values: Dict[str, object]) -> str:
        lines = ["# Generated httpd.conf"]
        sections: Dict[str, List[str]] = {}
        docroot = str(values.get("DocumentRoot", "/var/www/html"))
        for name in sorted(values):
            value = values[name]
            if name == "LoadModule":
                for module_path in value:  # type: ignore[union-attr]
                    stem = module_path.rsplit("/", 1)[-1]
                    stem = stem[4:-3] if stem.startswith("mod_") else stem
                    lines.append(f"LoadModule {stem}_module {module_path}")
                continue
            if "/" in name:
                section, directive = name.split("/", 1)
                sections.setdefault(section, []).append(f"    {directive} {value}")
                continue
            if name == "ScriptAlias":
                lines.append(f"ScriptAlias /cgi-bin {value}")
            elif name == "Alias":
                lines.append(f"Alias /icons {value}")
            elif name == "ErrorDocument":
                lines.append(f"ErrorDocument {value}")
            else:
                lines.append(f"{name} {value}")
        if "Directory" in sections:
            lines.append(f"<Directory {docroot}>")
            lines.extend(sections["Directory"])
            lines.append("</Directory>")
        if "VirtualHost" in sections:
            lines.append("<VirtualHost *:80>")
            lines.extend(sections["VirtualHost"])
            lines.append("</VirtualHost>")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_mysql(values: Dict[str, object]) -> str:
        sections: Dict[str, List[str]] = {}
        for name in sorted(values):
            section, key = name.split("/", 1)
            sections.setdefault(section, []).append(f"{key} = {values[name]}")
        lines = ["# Generated my.cnf"]
        for section in ("client", "mysqld", "mysqld_safe", "mysqldump"):
            if section in sections:
                lines.append(f"[{section}]")
                lines.extend(sections[section])
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_php(values: Dict[str, object]) -> str:
        lines = ["; Generated php.ini", "[PHP]"]
        for name in sorted(values):
            lines.append(f"{name} = {values[name]}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_sshd(values: Dict[str, object]) -> str:
        lines = ["# Generated sshd_config"]
        for name in sorted(values):
            lines.append(f"{name} {values[name]}")
        return "\n".join(lines) + "\n"

    # -- latent-issue planting (Table 10) ----------------------------------------------------

    def _plant(
        self, image: SystemImage, category: str, rng: random.Random
    ) -> Optional[PlantedIssue]:
        planters = {
            "FilePath": self._plant_filepath,
            "Permission": self._plant_permission,
            "ValueCompare": self._plant_valuecompare,
        }
        try:
            planter = planters[category]
        except KeyError:
            raise ValueError(f"unknown Table 10 category {category!r}") from None
        return planter(image, rng)

    def _plant_filepath(self, image: SystemImage, rng: random.Random) -> Optional[PlantedIssue]:
        """Point a FilePath entry at a missing/mistyped location."""
        candidates = []
        if image.has_app("php"):
            candidates.append(("php", "extension_dir"))
        if image.has_app("apache"):
            candidates.append(("apache", "ErrorLog"))
        if image.has_app("mysql"):
            candidates.append(("mysql", "tmpdir"))
        if not candidates:
            return None
        app, raw = rng.choice(candidates)
        old = image.set_config_value(app, raw, "/opt/missing/location")
        if old is None:
            return None
        return PlantedIssue(image.image_id, "FilePath", app, raw,
                            f"{raw} points at non-existent /opt/missing/location "
                            f"(was {old})")

    def _plant_permission(self, image: SystemImage, rng: random.Random) -> Optional[PlantedIssue]:
        """Make a sensitive file world-readable (the MySQL-log case)."""
        targets = []
        if image.has_app("mysql"):
            config = image.config_file("mysql")
            path = _extract_value(config.text, "log_error")
            if path:
                targets.append(("mysql", "mysqld/log_error", path))
        if image.has_app("sshd"):
            config = image.config_file("sshd")
            path = _extract_value(config.text, "HostKey")
            if path:
                targets.append(("sshd", "HostKey", path))
        if image.has_app("apache"):
            config = image.config_file("apache")
            path = _extract_value(config.text, "SSLCertificateKeyFile")
            if path:
                targets.append(("apache", "SSLCertificateKeyFile", path))
        if not targets:
            return None
        app, attribute, path = rng.choice(targets)
        if not image.fs.exists(path):
            return None
        image.fs.chmod(path, 0o644)
        image.fs.chown(path, owner="root", group="root")
        return PlantedIssue(image.image_id, "Permission", app, attribute,
                            f"{path} made world-readable (0644, root-owned)")

    def _plant_valuecompare(self, image: SystemImage, rng: random.Random) -> Optional[PlantedIssue]:
        """Break a value-ordering invariant (the PHP upload case)."""
        candidates = []
        if image.has_app("php"):
            candidates.append(("php", "upload_max_filesize", "256M"))
        if image.has_app("apache"):
            candidates.append(("apache", "MinSpareServers", "999"))
        if image.has_app("mysql"):
            candidates.append(("mysql", "query_cache_limit", "512M"))
        if not candidates:
            return None
        app, raw, bad = rng.choice(candidates)
        old = image.set_config_value(app, raw, bad)
        if old is None:
            return None
        return PlantedIssue(image.image_id, "ValueCompare", app, raw,
                            f"{raw} set to {bad} (was {old}), breaking ordering")


def _extract_value(text: str, raw_name: str) -> Optional[str]:
    """First value of *raw_name* in a rendered config text."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(raw_name):
            rest = stripped[len(raw_name):].lstrip(" =\t")
            if rest:
                return rest.split()[0] if " " in rest else rest
    return None

