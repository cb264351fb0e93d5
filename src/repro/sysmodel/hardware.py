"""Hardware specification of a system image.

The paper (Table 5b, Table 7) collects CPU thread count and frequency,
memory size and available disk space from ``/proc/*``.  Crucially (paper
§7.1.2, Problem #8), hardware information is *absent* for dormant EC2
images — they are instantiated with arbitrary hardware later — which is why
EnCore missed the ``max_heap_table_size`` case.  We model that with
``available=False``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class HardwareSpec:
    """CPU / memory / disk specification, possibly unavailable.

    Sizes are in bytes.  ``cpu_freq_mhz`` is per-core nominal frequency.
    """

    cpu_threads: int = 1
    cpu_freq_mhz: int = 2400
    memory_bytes: int = 1 << 30
    disk_bytes: int = 8 << 30
    #: False for dormant images (e.g. crawled EC2 AMIs) whose hardware is
    #: only fixed at instantiation time.
    available: bool = True

    def __post_init__(self) -> None:
        if self.cpu_threads < 1:
            raise ValueError("cpu_threads must be >= 1")
        if self.cpu_freq_mhz < 1:
            raise ValueError("cpu_freq_mhz must be >= 1")
        if self.memory_bytes < 0 or self.disk_bytes < 0:
            raise ValueError("sizes must be non-negative")

    @classmethod
    def unavailable(cls) -> "HardwareSpec":
        """The dormant-image case: no hardware information collected."""
        return cls(available=False)
