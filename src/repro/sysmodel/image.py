"""The :class:`SystemImage` — one configured system, viewed as data.

An image bundles the configuration files (text + path + owning application)
with everything the data collector gathers about the execution environment.
This is the unit of both training ("a set of configured systems", paper
§3) and checking ("the target system").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sysmodel.accounts import AccountDatabase
from repro.sysmodel.filesystem import FileSystem
from repro.sysmodel.hardware import HardwareSpec
from repro.sysmodel.osinfo import OSInfo
from repro.sysmodel.services import ServiceRegistry


@dataclass(slots=True)
class ConfigFile:
    """One configuration file inside an image.

    ``app`` names the owning application (``apache``/``mysql``/``php``/
    ``sshd``/…) and selects the parser; ``path`` is the in-image location;
    ``text`` is the raw file content.
    """

    app: str
    path: str
    text: str

    def __post_init__(self) -> None:
        if not self.app:
            raise ValueError("config file needs an owning app")
        if not self.path.startswith("/"):
            raise ValueError(f"config file path must be absolute: {self.path!r}")


class SystemImage:
    """A configured system: configuration files plus environment data.

    Images are identified by ``image_id`` (e.g. ``"ami-0042"``).  The
    ``running`` flag controls whether environment variables are available
    (paper Table 7: "only available when collecting data from running
    instances").
    """

    def __init__(
        self,
        image_id: str,
        fs: Optional[FileSystem] = None,
        accounts: Optional[AccountDatabase] = None,
        services: Optional[ServiceRegistry] = None,
        hardware: Optional[HardwareSpec] = None,
        os_info: Optional[OSInfo] = None,
        env_vars: Optional[Dict[str, str]] = None,
        running: bool = False,
    ) -> None:
        if not image_id:
            raise ValueError("image_id must be non-empty")
        self.image_id = image_id
        self.fs = fs if fs is not None else FileSystem()
        self.accounts = accounts if accounts is not None else AccountDatabase.with_defaults()
        self.services = services if services is not None else ServiceRegistry()
        self.hardware = hardware if hardware is not None else HardwareSpec.unavailable()
        self.os_info = os_info if os_info is not None else OSInfo()
        self.env_vars: Dict[str, str] = dict(env_vars or {})
        self.running = running
        self._config_files: List[ConfigFile] = []

    def __repr__(self) -> str:
        apps = ",".join(sorted(self.apps())) or "-"
        return f"SystemImage({self.image_id!r}, apps=[{apps}], files={len(self.fs)})"

    # -- configuration files -------------------------------------------------

    def add_config_file(self, config: ConfigFile) -> ConfigFile:
        """Register a configuration file and materialise it in the fs."""
        self._config_files.append(config)
        if not self.fs.exists(config.path):
            self.fs.add_file(config.path, size=len(config.text))
        return self._config_files[-1]

    def config_files(self, app: Optional[str] = None) -> List[ConfigFile]:
        """All config files, optionally restricted to one application."""
        if app is None:
            return list(self._config_files)
        return [c for c in self._config_files if c.app == app]

    def config_file(self, app: str) -> ConfigFile:
        """The single config file of *app* (raises when absent/ambiguous)."""
        matches = self.config_files(app)
        if not matches:
            raise KeyError(f"image {self.image_id} has no config for {app!r}")
        if len(matches) > 1:
            raise KeyError(f"image {self.image_id} has {len(matches)} configs for {app!r}")
        return matches[0]

    def replace_config_text(self, app: str, text: str) -> ConfigFile:
        """Swap the text of *app*'s config file (error-injection helper)."""
        config = self.config_file(app)
        config.text = text
        return config

    def set_config_value(self, app: str, raw_name: str, value: str) -> Optional[str]:
        """Set *raw_name* in *app*'s config; the old value, or ``None``.

        The first line whose stripped text starts with *raw_name* (as a
        whole directive name) is rewritten, whatever section it sits in.
        ``None`` means no such line, and the text is left unchanged.
        Raises :class:`KeyError` like :meth:`config_file`.
        """
        config = self.config_file(app)
        lines = config.text.splitlines()
        for i, line in enumerate(lines):
            stripped = line.strip()
            tail = stripped[len(raw_name):]
            if not stripped.startswith(raw_name) or tail[:1] not in ("", " ", "=", "\t"):
                continue  # another directive, or a longer name with this prefix
            separator = " = " if "=" in tail else " "
            indent = line[: len(line) - len(line.lstrip())]
            lines[i] = f"{indent}{raw_name}{separator}{value}"
            newline = "\n" if config.text.endswith("\n") else ""
            config.text = "\n".join(lines) + newline
            return tail.lstrip(" =\t")
        return None

    def apps(self) -> List[str]:
        """Distinct application names configured in this image."""
        return sorted({c.app for c in self._config_files})

    def has_app(self, app: str) -> bool:
        return any(c.app == app for c in self._config_files)

    # -- environment ----------------------------------------------------------

    def env_var(self, name: str) -> Optional[str]:
        """An environment variable value; ``None`` for dormant images."""
        if not self.running:
            return None
        return self.env_vars.get(name)

    def copy(self, image_id: Optional[str] = None) -> "SystemImage":
        """Independent copy, optionally renamed (used before injection)."""
        clone = SystemImage(
            image_id or self.image_id,
            fs=self.fs.copy(),
            accounts=self.accounts.copy(),
            services=self.services.copy(),
            hardware=self.hardware,
            os_info=self.os_info,
            env_vars=dict(self.env_vars),
            running=self.running,
        )
        for config in self._config_files:
            clone._config_files.append(ConfigFile(config.app, config.path, config.text))
        return clone
