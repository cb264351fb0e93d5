"""Data collector (paper §3, first pipeline stage).

"The data collector gathers the necessary information from the training
set (a set of configured systems).  Its output is the raw data including
all files relevant for analysis, as well as additional environment
information in text format."

Against our :class:`~repro.sysmodel.image.SystemImage` substrate the
collector extracts the configuration file texts and an environment dump.
The text-format contract matters: the assembler must be able to work from
a :class:`RawCollection` alone, which is what makes learned models
re-usable across systems ("the checking and the learning are cleanly
separated", §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import image_from_dict, image_to_dict


@dataclass
class RawCollection:
    """The collector's output for one system.

    ``config_files`` carries (app, path, text) triples; ``environment`` is
    the serialised environment dump (same schema as a snapshot, minus the
    config files, so privacy-scrubbing hooks have one place to act).
    """

    image_id: str
    config_files: List[Tuple[str, str, str]]
    environment: Dict[str, object]

    def restore_image(self) -> SystemImage:
        """Rebuild a queryable image from the raw collection."""
        data = dict(self.environment)
        data["config_files"] = [
            {"app": app, "path": path, "text": text}
            for app, path, text in self.config_files
        ]
        return image_from_dict(data)


class DataCollector:
    """Collects raw data from system images.

    ``scrub_env_vars`` drops environment variables from the dump — the
    paper notes privacy techniques (FTN) can be applied if needed; this is
    the hook.  ``collect_hardware=False`` models crawling dormant images
    whose hardware is only fixed at instantiation (paper §7.1.2).
    """

    def __init__(self, scrub_env_vars: bool = False, collect_hardware: bool = True) -> None:
        self.scrub_env_vars = scrub_env_vars
        self.collect_hardware = collect_hardware

    def collect(self, image: SystemImage) -> RawCollection:
        """Gather config texts + environment dump from one image."""
        environment = image_to_dict(image)
        config_files = [
            (c["app"], c["path"], c["text"])
            for c in environment.pop("config_files")
        ]
        if self.scrub_env_vars:
            environment["env_vars"] = {}
        if not self.collect_hardware:
            environment["hardware"] = {
                "cpu_threads": 1, "cpu_freq_mhz": 1,
                "memory_bytes": 0, "disk_bytes": 0, "available": False,
            }
        return RawCollection(image.image_id, config_files, environment)
