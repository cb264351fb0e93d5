"""The columnar assembled-row layout shared by shard results and the cache.

A row must come back exactly as it was assembled — cells in insertion
order, every occurrence, the augmented set — whichever hop it took, and
a row whose bytes were damaged must read as a counted cache miss, never
as an exception or a wrong row.
"""

import hashlib
import random
import struct

import pytest

from repro.core.assembler import DataAssembler
from repro.core.dataset import AssembledSystem
from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine import codec
from repro.engine.artifacts import (
    ShardResult,
    assembled_system_from_dict,
    assembled_system_to_dict,
    image_payload,
)
from repro.engine.cache import ResultCache, cache_key, frame_entry
from repro.engine.codec import CodecError
from repro.obs.metrics import MetricsRegistry, use_registry


def _assembled(seed, count=12):
    images = Ec2CorpusGenerator(seed=seed).generate(count)
    rows = [EnCore().assembler.assemble(image) for image in images]
    # One row without environment integration (the plain baseline).
    rows.append(DataAssembler(augment_environment=False).assemble(images[0]))
    return rows


def _assert_same_row(restored, system):
    assert restored.image is system.image
    assert restored.environment_available == system.environment_available
    # Cells in insertion order, with equal first occurrences.
    assert list(restored.cells.items()) == list(system.cells.items())
    assert restored.attributes() == system.attributes()
    for attribute in system.attributes():
        assert restored.values_of(attribute) == system.values_of(attribute)
        assert restored.is_repeated(attribute) == system.is_repeated(attribute)
        assert restored.is_augmented(attribute) == system.is_augmented(attribute)
    assert restored.occurrence_count() == system.occurrence_count()


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


@pytest.fixture(scope="module", params=[3, 11])
def rows(request):
    return _assembled(request.param)


@pytest.fixture
def entry(tmp_path):
    """A stored cache entry: ``(cache, key, image, path, system)``."""
    image = Ec2CorpusGenerator(seed=3).generate_one(1)
    system = EnCore().assembler.assemble(image)
    cache = ResultCache(tmp_path / "cache")
    key = cache_key("cfg", image)
    cache.store(key, system, 17)
    path = tmp_path / "cache" / key[:2] / f"{key}.encb"
    assert path.exists()
    return cache, key, image, path, system


def _occurrences(system):
    return [
        typed
        for attribute in system.attributes()
        for typed in system.values_of(attribute)
    ]


class TestRoundTrip:
    def test_through_shard_result(self, rows):
        # Insertion order differs from sorted order, so keeping it is a test.
        assert any(list(system.cells) != system.attributes() for system in rows)
        wire = ShardResult("assemble", rows).to_bytes()
        restored = ShardResult.from_bytes(
            wire, {system.image_id: system.image for system in rows}
        )
        assert len(restored.items) == len(rows)
        for back, system in zip(restored.items, rows):
            _assert_same_row(back, system)

    def test_through_the_disk_cache(self, rows, tmp_path, registry):
        cache = ResultCache(tmp_path / "cache")
        keys = [f"{index:02d}" + "0" * 62 for index in range(len(rows))]
        for key, system in zip(keys, rows):
            cache.store(key, system, 5)
        fresh = ResultCache(tmp_path / "cache")  # disk layer only
        for key, system in zip(keys, rows):
            restored, parsed_entries = fresh.lookup(key, system.image)
            assert parsed_entries == 5
            _assert_same_row(restored, system)
        assert registry.total("cache.corrupt.total") == 0

    def test_repeated_values_share_one_typed_value(self, rows):
        for system in rows:
            restored = assembled_system_from_dict(
                assembled_system_to_dict(system, include_image=False),
                image=system.image,
            )
            occurrences = _occurrences(restored)
            distinct = {(typed.value, typed.type) for typed in occurrences}
            assert len(distinct) < len(occurrences)
            assert len({id(typed) for typed in occurrences}) == len(distinct)

    def test_empty_row(self):
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        empty = AssembledSystem(image)
        restored = assembled_system_from_dict(
            assembled_system_to_dict(empty, include_image=False), image=image
        )
        assert len(restored) == 0 and restored.occurrence_count() == 0


def _row(entry):
    return assembled_system_to_dict(entry[4], include_image=False)


def _bad_layouts(row):
    """``(label, row)`` pairs, each breaking one rule of the layout."""
    def edited(**fields):
        return dict(row, **fields)

    cells = struct.unpack(f"<{len(row['cells']) // 4}I", row["cells"])
    n_values = len(row["value_lengths"]) // 4
    counts = list(struct.unpack(f"<{len(row['counts']) // 4}I", row["counts"]))
    order = list(struct.unpack(f"<{len(row['order']) // 4}I", row["order"]))

    def pack(items):
        return struct.pack(f"<{len(items)}I", *items)

    yield "value index out of range", edited(cells=pack([n_values, *cells[1:]]))
    yield "type index out of range", edited(
        value_types=bytes([len(row["types"])]) + row["value_types"][1:]
    )
    yield "counts exceed the cells", edited(counts=pack([counts[0] + 1, *counts[1:]]))
    yield "counts fall short", edited(cells=row["cells"] + pack([0]))
    yield "a zero count", edited(
        counts=pack([0, counts[1] + counts[0], *counts[2:]])
    )
    yield "unknown type name", edited(types=["NotAType", *row["types"][1:]])
    yield "cells not whole items", edited(cells=row["cells"] + b"\x00")
    yield "counts not whole items", edited(counts=row["counts"][:-1])
    yield "order repeats a name", edited(order=pack([order[1], *order[1:]]))
    yield "order too short", edited(order=pack(order[:-1]))
    yield "flag not 0 or 1", edited(augmented=b"\x02" + row["augmented"][1:])
    lengths = struct.unpack(f"<{len(row['name_lengths']) // 4}I", row["name_lengths"])
    ends = [sum(lengths[:i + 1]) for i in range(len(lengths))]
    names = [row["names"][end - size:end] for size, end in zip(lengths, ends)]
    yield "names out of order", edited(
        names="".join(reversed(names)), name_lengths=pack(lengths[::-1])
    )
    yield "name lengths overrun", edited(
        name_lengths=pack([len(row["names"]) + 1])
    )
    yield "values as a list", edited(values=[row["values"]])
    yield "missing column", {k: v for k, v in row.items() if k != "cells"}
    yield "environment flag not a bool", edited(environment_available=1)


class TestLayoutChecks:
    def test_decoder_raises_codec_error(self, entry):
        _, _, image, _, _ = entry
        for label, bad in _bad_layouts(_row(entry)):
            with pytest.raises(CodecError):
                assembled_system_from_dict(bad, image=image)

    def test_each_broken_layout_is_a_counted_miss(self, entry, registry):
        cache, key, image, path, _ = entry
        broken = list(_bad_layouts(_row(entry)))
        for count, (label, bad) in enumerate(broken, start=1):
            # A valid checksum over a broken row: the layout check catches it.
            path.write_bytes(frame_entry({"parsed_entries": 17, "system": bad}))
            fresh = ResultCache(cache.root)
            assert fresh.lookup(key, image) is None, label
            assert registry.total("cache.corrupt.total") == count, label
            assert not path.exists(), label

    def test_seeded_truncations_and_flips_are_counted_misses(
        self, entry, registry
    ):
        cache, key, image, path, _ = entry
        raw = path.read_bytes()
        rng = random.Random(27)
        damaged = []
        for _ in range(40):
            damaged.append(raw[:rng.randrange(len(raw))])
        for _ in range(80):
            flipped = bytearray(raw)
            for _ in range(rng.randint(1, 3)):
                flipped[rng.randrange(len(raw))] ^= rng.randint(1, 255)
            damaged.append(bytes(flipped))
        for count, data in enumerate(damaged, start=1):
            path.write_bytes(data)
            assert ResultCache(cache.root).lookup(key, image) is None
            assert registry.total("cache.corrupt.total") == count
            assert not path.exists()
        assert registry.total("cache.hit.total") == 0


class TestOlderEntries:
    @staticmethod
    def _older_layout(system, parsed_entries):
        """A disk entry as the per-attribute map layout wrote it."""
        return codec.encode({
            "parsed_entries": parsed_entries,
            "system": {
                "environment_available": system.environment_available,
                "attributes": [
                    {
                        "name": attribute,
                        "augmented": system.is_augmented(attribute),
                        "occurrences": [
                            {"value": typed.value, "type": typed.type.value}
                            for typed in system.values_of(attribute)
                        ],
                    }
                    for attribute in system.attributes()
                ],
                "image_id": system.image_id,
            },
        })

    def test_older_layout_at_a_new_key_is_a_counted_miss(self, entry, registry):
        cache, key, image, path, system = entry
        path.write_bytes(self._older_layout(system, 17))
        assert ResultCache(cache.root).lookup(key, image) is None
        assert registry.total("cache.corrupt.total") == 1
        assert registry.total("cache.miss.total") == 1
        assert not path.exists()

    def test_key_never_names_an_older_entry(self):
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        older = hashlib.sha256(
            f"{codec.CODEC_VERSION}:cfg:"
            f"{hashlib.sha256(image_payload(image)).hexdigest()}".encode()
        ).hexdigest()
        assert cache_key("cfg", image) != older
