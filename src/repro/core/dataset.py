"""Assembled datasets: the csv-like table of paper §4.1.

"The assembler stores and organizes all the data in a .csv file.  Each
column represents a structured configuration entry generated by the
parser, and each row represents the values of all the entries in a
system."  :class:`AssembledSystem` is a row; :class:`Dataset` is the
table, with per-attribute type and value statistics that the rule
inferencer and detector consume.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.types import ConfigType, TypedValue
from repro.mining.entropy import entropy_from_counts
from repro.sysmodel.image import SystemImage


class AssembledSystem:
    """One row: attribute name → typed value, plus the source image.

    Attribute names are fully qualified: original entries as
    ``"<app>:<entry>"`` (e.g. ``"mysql:mysqld/datadir"``), augmented
    attributes with a dot-suffix (``"mysql:mysqld/datadir.owner"``), and
    system-wide environment attributes under the ``env:`` prefix
    (``"env:OS.DistName"``).  The paper treats all three uniformly as
    "attributes"; so do we.

    The backing :class:`SystemImage` stays attached because template
    validation methods perform environment checks (e.g. ownership lookups)
    beyond what the augmented columns carry.
    """

    def __init__(self, image: SystemImage, environment_available: bool = True) -> None:
        self.image = image
        #: False when assembled without environment integration (the
        #: plain-baseline mode): environment-validating templates and
        #: checks must then treat the system as opaque.
        self.environment_available = environment_available
        self._values: Dict[str, TypedValue] = {}
        #: Extra occurrence values for multi-valued attributes (template
        #: ``[A] = [B]`` needs "at least one instance" semantics).
        self._multi: Dict[str, List[TypedValue]] = {}
        #: Attributes produced by environment augmentation (dot-suffix
        #: columns) rather than parsed from a config file.  PHP entry names
        #: legitimately contain dots, so this is tracked explicitly.
        self._augmented: set = set()
        #: ``attributes()`` result, sorted once and dropped by ``set``.
        self._sorted: Optional[List[str]] = None
        #: User → ``groups_of`` of the image's accounts, filled on demand.
        self._groups: Dict[str, List[str]] = {}

    @classmethod
    def revive(
        cls,
        image: SystemImage,
        environment_available: bool,
        values: Dict[str, TypedValue],
        multi: Dict[str, List[TypedValue]],
        augmented: set,
        names: List[str],
    ) -> "AssembledSystem":
        """A row from storage already in this class's shape: *values*
        maps each attribute to its first occurrence in insertion order,
        *multi* a repeated attribute to all its occurrences, and *names*
        is the sorted attribute list.  The row takes the containers over.
        This is the row-layout decoder's path
        (:mod:`repro.engine.artifacts`); everything else uses :meth:`set`.
        """
        system = cls(image, environment_available)
        system._values = values
        system._multi = multi
        system._augmented = augmented
        system._sorted = names
        return system

    @property
    def image_id(self) -> str:
        return self.image.image_id

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._values

    def __len__(self) -> int:
        return len(self._values)

    def set(
        self, attribute: str, typed: TypedValue, augmented: bool = False
    ) -> None:
        """Record one typed cell; repeats accumulate as occurrences.

        Cells are immutable, so one :class:`TypedValue` may back any
        number of cells, in this row or in others."""
        if attribute in self._values:
            self._multi.setdefault(attribute, [self._values[attribute]]).append(typed)
        else:
            self._values[attribute] = typed
            self._sorted = None
        if augmented:
            self._augmented.add(attribute)

    def is_augmented(self, attribute: str) -> bool:
        """Was the attribute generated by environment augmentation?"""
        return attribute in self._augmented

    def groups_of(self, user: str) -> List[str]:
        """The image's ``accounts.groups_of(user)``, computed once per user
        for this row.  The list is shared: read it and never mutate it."""
        groups = self._groups.get(user)
        if groups is None:
            groups = self._groups[user] = self.image.accounts.groups_of(user)
        return groups

    def get(self, attribute: str) -> Optional[TypedValue]:
        return self._values.get(attribute)

    def value(self, attribute: str) -> Optional[str]:
        typed = self._values.get(attribute)
        return typed.value if typed is not None else None

    def values_of(self, attribute: str) -> List[TypedValue]:
        """All occurrences of a (possibly repeated) attribute.

        A repeated attribute's list is the row's own storage, like
        :attr:`cells`: read it and never mutate it."""
        multi = self._multi.get(attribute)
        if multi is not None:
            return multi
        typed = self._values.get(attribute)
        return [typed] if typed is not None else []

    def is_repeated(self, attribute: str) -> bool:
        """Does the attribute occur more than once in this row?"""
        return attribute in self._multi

    @property
    def cells(self) -> Mapping[str, TypedValue]:
        """Attribute → first occurrence, without copying: the row's own
        storage, so read it and never mutate it."""
        return self._values

    def attributes(self) -> List[str]:
        """Attribute names, sorted.  The list is cached and shared between
        callers: iterate it, never mutate it."""
        if self._sorted is None:
            self._sorted = sorted(self._values)
        return self._sorted

    def as_row(self) -> Dict[str, str]:
        """Plain attribute → raw value dict (one csv row)."""
        return {attr: tv.value for attr, tv in self._values.items()}

    def occurrence_count(self) -> int:
        """Total attribute occurrences, counting repeats — the paper's
        "the mining algorithms treat each occurrence of an entry as a
        different attribute" measure (Table 2 'Original'/'Augmented')."""
        return len(self._values) + sum(
            len(occurrences) - 1 for occurrences in self._multi.values()
        )


@dataclass(frozen=True)
class AttributeStats:
    """Training statistics of one attribute column."""

    attribute: str
    type: ConfigType
    present_count: int
    value_counts: Tuple[Tuple[str, int], ...]
    entropy: float
    #: Fraction of training samples whose per-value inference agrees with
    #: the column's majority type.  Low agreement marks ambiguously-typed
    #: columns (the 0/1 Boolean-vs-Number confusions of Table 11); the
    #: detector only enforces types on confident columns.
    type_agreement: float = 1.0

    @property
    def cardinality(self) -> int:
        return len(self.value_counts)

    @cached_property
    def _seen_values(self) -> FrozenSet[str]:
        return frozenset(v for v, _ in self.value_counts)

    def seen(self, value: str) -> bool:
        return value in self._seen_values

    def inverse_change_frequency(self) -> float:
        """1 / cardinality — the ranking heuristic of §6 (check 4)."""
        return 1.0 / self.cardinality if self.cardinality else 0.0

    def is_free_varying(self) -> bool:
        """Does this column take a new value on a large share of systems?

        File paths, host names and digests "vary substantially across the
        training set and hence cannot be meaningfully considered as an
        anomaly" (§1) — value-comparison checks skip such columns.
        """
        return self.cardinality > max(8, self.present_count // 6)


class PartialDataset:
    """Mergeable accumulation of assembled systems and their statistics.

    The combine is *associative* and order-preserving: ``a.merge(b)``
    concatenates the system rows and adds the per-attribute value/type
    counters, so folding any chunking of a corpus left-to-right yields the
    same partial — the invariant that lets corpus assembly shard across
    worker processes (``repro.engine.sharding``) while guaranteeing the
    finalized :class:`Dataset` is identical to a serial pass.
    """

    def __init__(self) -> None:
        self.systems: List[AssembledSystem] = []
        #: attribute → Counter of first-occurrence values (one per system).
        self.value_counts: Dict[str, Counter] = {}
        #: attribute → Counter of per-system inferred types.
        self.type_counts: Dict[str, Counter] = {}
        self.multi_valued: set = set()
        self.augmented: set = set()

    @classmethod
    def from_systems(cls, systems: Iterable[AssembledSystem]) -> "PartialDataset":
        partial = cls()
        for system in systems:
            partial.add(system)
        return partial

    def add(self, system: AssembledSystem) -> None:
        """Fold one assembled system into the accumulated statistics."""
        self.systems.append(system)
        value_counts = self.value_counts
        type_counts = self.type_counts
        for attribute, typed in system.cells.items():
            values = value_counts.get(attribute)
            if values is None:
                values = value_counts[attribute] = Counter()
                types = type_counts[attribute] = Counter()
            else:
                types = type_counts[attribute]
            values[typed.value] += 1
            types[typed.type] += 1
        self.multi_valued.update(system._multi)
        self.augmented.update(system._augmented)

    def merge(self, other: "PartialDataset") -> "PartialDataset":
        """Associative combine; returns a new partial, operands untouched."""
        merged = PartialDataset()
        merged.systems = self.systems + other.systems
        merged.value_counts = {a: Counter(c) for a, c in self.value_counts.items()}
        merged.type_counts = {a: Counter(c) for a, c in self.type_counts.items()}
        for attribute, counter in other.value_counts.items():
            merged.value_counts.setdefault(attribute, Counter()).update(counter)
        for attribute, counter in other.type_counts.items():
            merged.type_counts.setdefault(attribute, Counter()).update(counter)
        merged.multi_valued = self.multi_valued | other.multi_valued
        merged.augmented = self.augmented | other.augmented
        return merged

    def __len__(self) -> int:
        return len(self.systems)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialDataset):
            return NotImplemented
        return (
            [s.image_id for s in self.systems] == [s.image_id for s in other.systems]
            and self.value_counts == other.value_counts
            and self.type_counts == other.type_counts
            and self.multi_valued == other.multi_valued
            and self.augmented == other.augmented
        )

    def finalize(self) -> "Dataset":
        """Seal the accumulation into an immutable-statistics dataset."""
        return Dataset.from_partial(self)


class Dataset:
    """The assembled training table with per-attribute statistics."""

    def __init__(self, systems: Iterable[AssembledSystem]) -> None:
        self._init_from_partial(PartialDataset.from_systems(systems))

    @classmethod
    def from_partial(cls, partial: PartialDataset) -> "Dataset":
        """Build without re-scanning rows (the sharded-assembly path)."""
        dataset = cls.__new__(cls)
        dataset._init_from_partial(partial)
        return dataset

    def _init_from_partial(self, partial: PartialDataset) -> None:
        self.systems: List[AssembledSystem] = list(partial.systems)
        self._partial = partial
        self._multi_valued: set = set(partial.multi_valued)
        self._augmented: set = set(partial.augmented)
        # attribute → presence bitmask: bit *i* is set when ``systems[i]``
        # has the attribute.  Rule inference intersects two masks to visit
        # only the rows where a candidate pair can apply.
        presence: Dict[str, int] = {}
        # attribute → first-occurrence value → [row mask, first typed
        # cell]: rule inference evaluates value-only templates once per
        # distinct value pair instead of once per row.
        groups: Dict[str, Dict[str, list]] = {}
        for index, system in enumerate(self.systems):
            bit = 1 << index
            for attribute, typed in system.cells.items():
                column = groups.get(attribute)
                if column is None:
                    presence[attribute] = bit
                    groups[attribute] = {typed.value: [bit, typed]}
                    continue
                presence[attribute] |= bit
                group = column.get(typed.value)
                if group is None:
                    column[typed.value] = [bit, typed]
                else:
                    group[0] |= bit
        self._presence = presence
        self._groups = groups
        self._stats: Dict[str, AttributeStats] = {}
        for attribute, counts in partial.value_counts.items():
            type_counter = partial.type_counts[attribute]
            config_type = self._majority_type(type_counter)
            present = sum(counts.values())
            self._stats[attribute] = AttributeStats(
                attribute=attribute,
                type=config_type,
                present_count=present,
                value_counts=tuple(sorted(counts.items())),
                entropy=entropy_from_counts(counts),
                type_agreement=type_counter[config_type] / present,
            )

    def merge(self, other: "Dataset") -> "Dataset":
        """A new dataset extending this one with *other*'s systems.

        Statistics are combined counter-wise (never recomputed from rows),
        so incremental training (:meth:`repro.core.pipeline.EnCore.train_more`)
        costs only the new shard's assembly.
        """
        return Dataset.from_partial(self._partial.merge(other._partial))

    def fingerprint(self) -> str:
        """Stable content hash of the statistics surface.

        Two datasets assembled from the same images — serially, sharded, or
        via any merge tree — have equal fingerprints; the CLI's parallel
        consistency check diffs exactly this.
        """
        payload = {
            "systems": [s.image_id for s in self.systems],
            "multi_valued": sorted(self._multi_valued),
            "augmented": sorted(self._augmented),
            "stats": [
                {
                    "attribute": s.attribute,
                    "type": s.type.value,
                    "present_count": s.present_count,
                    "value_counts": [[v, n] for v, n in s.value_counts],
                    "entropy": s.entropy.hex(),
                    "type_agreement": s.type_agreement.hex(),
                }
                for _, s in sorted(self._stats.items())
            ],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @staticmethod
    def _majority_type(counter: Counter) -> ConfigType:
        """Aggregate per-sample inferences into one column type.

        Plain majority vote; ties break toward non-trivial types (a path
        that exists in half the images and is typo'd in the rest is still
        a FilePath column), then lexicographically for determinism.  A
        strict majority requirement keeps one stray sample (e.g. the one
        image whose cache size happens to look like a port number) from
        retyping the whole column — which previously flooded the detector
        with false type violations.
        """
        best = sorted(
            counter.items(),
            key=lambda kv: (-kv[1], kv[0].is_trivial, kv[0].value),
        )[0][0]
        return best

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self) -> Iterator[AssembledSystem]:
        return iter(self.systems)

    def attributes(self) -> List[str]:
        return sorted(self._stats)

    def attributes_of_type(self, config_type: ConfigType) -> List[str]:
        """Eligible attributes for a template slot (§5.1 type selection)."""
        return [a for a, s in sorted(self._stats.items()) if s.type is config_type]

    def stats(self, attribute: str) -> Optional[AttributeStats]:
        return self._stats.get(attribute)

    def presence(self, attribute: str) -> int:
        """Bitmask of the rows holding *attribute* (bit *i* ↔ ``systems[i]``)."""
        return self._presence.get(attribute, 0)

    def value_groups(self, attribute: str) -> Mapping[str, list]:
        """First-occurrence value → ``[row mask, first typed cell]`` for
        *attribute*; the masks partition :meth:`presence`.  Shared
        storage: read it and never mutate it."""
        return self._groups.get(attribute, {})

    def type_of(self, attribute: str) -> Optional[ConfigType]:
        stats = self._stats.get(attribute)
        return stats.type if stats is not None else None

    def is_multi_valued(self, attribute: str) -> bool:
        """Does the attribute repeat (multiple occurrences) in any system?"""
        return attribute in self._multi_valued

    def is_augmented(self, attribute: str) -> bool:
        """Is the attribute an augmentation product (or an env column)?"""
        return attribute in self._augmented or attribute.startswith("env:")

    def entry_names(self) -> Dict[str, List[str]]:
        """App → sorted original (non-augmented, non-env) entry names.

        This is the universe for the detector's entry-name-violation check.
        """
        out: Dict[str, set] = {}
        for attribute in self._stats:
            if self.is_augmented(attribute):
                continue
            app, _, name = attribute.partition(":")
            out.setdefault(app, set()).add(name)
        return {app: sorted(names) for app, names in out.items()}

    def rows(self) -> List[Dict[str, str]]:
        """All rows as plain dicts (input to the mining substrate)."""
        return [system.as_row() for system in self.systems]
