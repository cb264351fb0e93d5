"""Data assembler (paper §4 and Figure 3).

Parses raw configuration files into uniform key-value pairs, infers the
semantic type of every entry, augments typed entries with environment
attributes, and appends system-wide environment columns.  The output is an
:class:`~repro.core.dataset.AssembledSystem` per image and a
:class:`~repro.core.dataset.Dataset` per training set.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.augment import Augmenter
from repro.core.dataset import AssembledSystem, Dataset, PartialDataset
from repro.core.resilience import (
    DEFAULT_MAX_ERROR_RATE,
    DROP_COUNTERS,
    ErrorPolicy,
    Quarantine,
    enforce_error_budget,
    record_from_exception,
)
from repro.core.types import ConfigType, TypedValue, TypeInferencer, TypeRegistry
from repro.obs.metrics import get_registry
from repro.obs.tracing import span
from repro.parsers.registry import ParserRegistry, default_registry
from repro.sysmodel.filesystem import DirectoryIndex
from repro.sysmodel.image import SystemImage

#: One value's cells: its typed cell and its augmented ``(suffix, cell)``
#: pairs, in the augmenter's order.
_Cells = Tuple[TypedValue, Sequence[Tuple[str, TypedValue]]]


class DataAssembler:
    """Parse → type-infer → augment, per Figure 3 of the paper.

    ``augment_environment=False`` disables all environment integration,
    producing the table the plain value-comparison baseline sees (Table 8's
    "Baseline" row) and the "Original" column of Table 2.

    ``error_policy`` controls per-image fault isolation on the corpus
    paths (:meth:`assemble_rows`, :meth:`assemble_corpus`): under
    ``strict`` (the constructor default, preserving historical
    behaviour) the first bad image fails the run;
    under ``quarantine`` or ``skip`` the bad image is dropped — with or
    without an auditable :class:`~repro.core.resilience.QuarantineRecord`
    — and assembly continues with the survivors.  :class:`EnCore`
    instances default to ``quarantine`` via
    :class:`~repro.core.pipeline.EnCoreConfig`.
    """

    def __init__(
        self,
        parsers: Optional[ParserRegistry] = None,
        type_registry: Optional[TypeRegistry] = None,
        augmenter: Optional[Augmenter] = None,
        augment_environment: bool = True,
        error_policy: Union[str, ErrorPolicy] = ErrorPolicy.STRICT,
        max_error_rate: float = DEFAULT_MAX_ERROR_RATE,
    ) -> None:
        self.parsers = parsers if parsers is not None else default_registry()
        self.inferencer = TypeInferencer(type_registry)
        self.augmenter = augmenter if augmenter is not None else Augmenter()
        self.augment_environment = augment_environment
        self.error_policy = ErrorPolicy.parse(error_policy)
        self.max_error_rate = max_error_rate
        #: Records of every image dropped by a non-strict policy.
        self.quarantine = Quarantine()
        #: Test-only fault hook (see :mod:`repro.testing.faults`), called
        #: with each image before assembly on the isolated corpus paths.
        self.fault_hook: Optional[Callable[[SystemImage], None]] = None
        #: Stage marker maintained by :meth:`assemble` so quarantine
        #: records can name the failing stage and source file.
        self._stage = ""
        self._source = ""
        #: Optional content-addressed result cache
        #: (:class:`~repro.engine.cache.ResultCache`); ``cache_salt`` is
        #: the config-digest half of every key, and ``cache_store_only``
        #: skips lookups (worker shards whose coordinator already
        #: resolved the hits) while still filling the cache.
        self.cache = None
        self.cache_salt = ""
        self.cache_store_only = False

    # -- single system ----------------------------------------------------------

    def assemble(self, image: SystemImage) -> AssembledSystem:
        """Assemble one image into a typed, augmented attribute row.

        With a :attr:`cache` attached, an unchanged (config, image) pair
        returns the cached row and skips parse → type → augment
        entirely; the per-system counters are replayed so cached runs
        report the same ``assemble.*`` totals as cold ones.  Cached
        rows are shared objects — safe, because assembled rows are
        append-only and nothing mutates them after assembly.
        """
        system = self.cached_assembled(image)
        if system is not None:
            return system
        system = AssembledSystem(
            image, environment_available=self.augment_environment
        )
        # Raw value → its typed cell and augmented (suffix, cell) pairs:
        # an image repeats values across entries, and each distinct one is
        # typed and augmented once.  The memo and the directory index live
        # for this call only; nothing is kept on the image.
        memo: Dict[str, _Cells] = {}
        directories = DirectoryIndex(image.fs)
        parsed_entries = 0
        for config in image.config_files():
            self._stage, self._source = "parse", config.path
            entries = self.parsers.parse(config.app, config.text, config.path)
            parsed_entries += len(entries)
            self._stage = "augment"
            for entry in entries:
                cells = memo.get(entry.value)
                if cells is None:
                    cells = memo[entry.value] = self._cells(
                        entry.value, image, directories
                    )
                typed, augmented = cells
                attribute = entry.qualified_name
                system.set(attribute, typed)
                for suffix, cell in augmented:
                    system.set(f"{attribute}.{suffix}", cell, augmented=True)
        self._stage, self._source = "environment", ""
        if self.augment_environment:
            for name, attr in Augmenter.environment_attributes(image).items():
                system.set(
                    f"env:{name}", TypedValue(attr.value, attr.type), augmented=True
                )
        if self.cache is not None:
            self.cache.store(self._cache_key(image), system, parsed_entries)
        self._record_assembled(system, parsed_entries)
        return system

    def _cache_key(self, image: SystemImage) -> str:
        from repro.engine.cache import cache_key

        return cache_key(self.cache_salt, image)

    def _record_assembled(self, system: AssembledSystem, parsed_entries: int) -> None:
        # Occurrence accounting is the live Table 2: "Original" is what the
        # parsers produced, the rest came from environment integration.
        registry = get_registry()
        registry.counter("assemble.systems.total").inc()
        registry.counter("assemble.attributes.original").inc(parsed_entries)
        registry.counter("assemble.attributes.augmented").inc(
            system.occurrence_count() - parsed_entries
        )

    def cached_assembled(self, image: SystemImage) -> Optional[AssembledSystem]:
        """A cache hit's row (counters replayed), or ``None`` on a miss.

        The lookup half of :meth:`assemble`, and the sharded
        coordinator's pre-pass: hits resolve here without
        touching the pool; misses (``None``) are shipped to workers.
        """
        if self.cache is None or self.cache_store_only:
            return None
        hit = self.cache.lookup(self._cache_key(image), image)
        if hit is None:
            return None
        system, parsed_entries = hit
        self._record_assembled(system, parsed_entries)
        return system

    def _cells(
        self, value: str, image: SystemImage, directories: DirectoryIndex
    ) -> _Cells:
        """One value's typed cell and augmented ``(suffix, cell)`` pairs."""
        env = image if self.augment_environment else None
        config_type = self.inferencer.infer(value, env)
        typed = TypedValue(value, config_type)
        if not self.augment_environment:
            return typed, ()
        # A value that *looks* like a path but fails semantic verification
        # is demoted to String for typing purposes — yet "the path does
        # not exist" is itself environment information (Figure 1a).
        # Augment it as a FilePath so the ``.type = missing`` column
        # carries that fact to the detectors.
        augment_type = config_type
        if config_type.is_trivial and self.inferencer.may_be_file_path(value):
            syntactic = self.inferencer.infer_syntactic_only(value)
            if syntactic is ConfigType.FILE_PATH:
                augment_type = syntactic
        augmented = self.augmenter.augment(value, augment_type, image, directories)
        return typed, [
            (suffix, TypedValue(cell_value, cell_type))
            for suffix, cell_value, cell_type in augmented
        ]

    # -- corpora ---------------------------------------------------------------

    def assemble_rows(
        self, images: Iterable[SystemImage], shard_index: int = -1
    ) -> Iterator[AssembledSystem]:
        """The assembled rows of *images* under the error policy, in input
        order; a dropped image yields nothing.

        The one guarded row loop of training, run by the serial corpus
        path, by each assembly shard worker (which ships the rows as
        they are) and by the shard executor's inline fallback.  Its
        twin for checking is :meth:`EnCore.check_rows`.
        """
        for image in images:
            self._stage, self._source = "", ""
            try:
                if self.fault_hook is not None:
                    self.fault_hook(image)
                system = self.assemble(image)
            except Exception as exc:
                if self.error_policy is ErrorPolicy.STRICT:
                    raise
                record = record_from_exception(
                    image.image_id, exc,
                    stage=self._stage, source_path=self._source,
                    shard_index=shard_index,
                )
                self.quarantine.drop(
                    record, self.error_policy, DROP_COUNTERS["assemble"]
                )
                continue
            yield system

    def assemble_corpus(
        self,
        images: Iterable[SystemImage],
        rows: Optional[Iterable[AssembledSystem]] = None,
    ) -> Dataset:
        """Assemble a full training set into a :class:`Dataset`.

        *rows* are the assembled rows of *images* when something else
        produced them (the sharded executor: cache hits and shard
        results, in input order); by default :meth:`assemble_rows` makes
        them here.  Either way they are folded in input order through
        one :class:`PartialDataset`, so every route yields the same
        dataset.

        Under a non-strict policy this is also an error-budget boundary:
        a corpus whose drop rate exceeds :attr:`max_error_rate` raises
        :class:`~repro.core.resilience.ErrorBudgetExceeded` rather than
        silently training on a sliver of the fleet.
        """
        images = list(images)
        with span("assemble.corpus") as s:
            dropped_before = self.quarantine.dropped
            partial = PartialDataset()
            for system in self.assemble_rows(images) if rows is None else rows:
                partial.add(system)
            dataset = partial.finalize()
            enforce_error_budget(
                self.quarantine.dropped - dropped_before, len(images),
                self.max_error_rate, self.error_policy,
            )
            s.annotate(systems=len(dataset), attributes=len(dataset.attributes()))
        return dataset


def attribute_counts(image: SystemImage, assembler: Optional[DataAssembler] = None) -> dict:
    """Original vs augmented attribute-occurrence counts for one image.

    Reproduces the per-app methodology behind Table 2: "Original" counts
    parsed entry occurrences; "Augmented" counts occurrences after
    environment integration.  (The "Binomial" column comes from
    :func:`repro.mining.itemsets.discretize_binomial` over a corpus.)
    """
    plain = DataAssembler(augment_environment=False)
    rich = assembler if assembler is not None else DataAssembler()
    return {
        "original": plain.assemble(image).occurrence_count(),
        "augmented": rich.assemble(image).occurrence_count(),
    }
