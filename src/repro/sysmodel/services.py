"""The ``/etc/services`` port registry.

Used by the semantic step of type inference to validate ``PortNumber``
entries (paper Table 4), and exposed to customization code as
``Service.Ports`` / ``Service.PortServMap`` (Table 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Service:
    """One ``/etc/services`` row."""

    name: str
    port: int
    protocol: str = "tcp"

    def __post_init__(self) -> None:
        if not 0 < self.port <= 65535:
            raise ValueError(f"port out of range for {self.name}: {self.port}")
        if self.protocol not in ("tcp", "udp"):
            raise ValueError(f"unknown protocol {self.protocol!r}")


#: The well-known rows every generated image carries.
DEFAULT_SERVICES: Tuple[Service, ...] = (
    Service("ssh", 22),
    Service("smtp", 25),
    Service("domain", 53),
    Service("domain", 53, "udp"),
    Service("http", 80),
    Service("pop3", 110),
    Service("ntp", 123, "udp"),
    Service("imap", 143),
    Service("https", 443),
    Service("submission", 587),
    Service("rsync", 873),
    Service("imaps", 993),
    Service("pop3s", 995),
    Service("mysql", 3306),
    Service("postgresql", 5432),
    Service("redis", 6379),
    Service("http-alt", 8080),
    Service("memcache", 11211),
)


class ServiceRegistry:
    """Queryable port/name mapping of a system image."""

    def __init__(self, services: Iterable[Service] = DEFAULT_SERVICES) -> None:
        self._services: List[Service] = list(services)
        self._ports = {s.port for s in self._services}

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self):
        return iter(self._services)

    def add(self, service: Service) -> Service:
        self._services.append(service)
        self._ports.add(service.port)
        return service

    def ports(self) -> List[int]:
        """Sorted distinct registered ports — the paper's ``Service.Ports``."""
        return sorted({s.port for s in self._services})

    def port_service_map(self) -> Dict[int, List[str]]:
        """Port → service names — the paper's ``Service.PortServMap``."""
        out: Dict[int, List[str]] = {}
        for service in self._services:
            names = out.setdefault(service.port, [])
            if service.name not in names:
                names.append(service.name)
        return out

    def is_registered(self, port: int) -> bool:
        return port in self._ports

    def lookup(self, port: int) -> Optional[str]:
        """First service name registered on *port*, or ``None``."""
        for service in self._services:
            if service.port == port:
                return service.name
        return None

    def copy(self) -> "ServiceRegistry":
        return ServiceRegistry(self._services)
