"""Tests for the data plane: codec, warm worker pool, result cache.

Covers the three layers of ``docs/architecture.md`` § Data plane and
the contracts they promise each other:

* the codec round-trips every value the pipeline ships and fails with a
  *typed* error (never a stray ``struct.error``) on truncated, corrupt,
  or future-versioned bytes, so poisoned artifacts quarantine instead of
  crashing runs;
* the warm pool spawns once per process, is reused across runs, and
  respawns after poisoning — with the config/model payloads encoded
  once per pool lifetime (the hoist regression guard);
* the result cache returns byte-identical results warm vs cold, counts
  hits/misses/evictions, and invalidates exactly the touched image.
"""

from __future__ import annotations

import math
import random
import string
import struct

import pytest

from repro.core.persistence import SnapshotCorruptError, load_snapshot
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.core.resilience import classify_stage
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine import codec
from repro.engine.artifacts import image_payload
from repro.engine.cache import ResultCache, cache_key
from repro.engine.codec import CodecError
from repro.engine.pool import (
    WarmPool,
    get_warm_pool,
    shutdown_warm_pool,
    warm_pool_stats,
)
from repro.engine.sharding import decode_task_images
from repro.obs.metrics import MetricsRegistry, use_registry


@pytest.fixture()
def registry():
    """A fresh metrics registry scoped to the test (override, not swap)."""
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


@pytest.fixture()
def fresh_pool():
    """No shared warm pool before or after the test."""
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


def assert_same(a, b):
    """Structural equality that distinguishes ``True`` from ``1``."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a.keys()) == list(b.keys())  # order preserved
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, float):
        assert struct.pack(">d", a) == struct.pack(">d", b)
    else:
        assert a == b


def random_value(rng: random.Random, depth: int = 0):
    """One random value from the codec's domain (JSON + bytes)."""
    leaf = depth >= 3
    kind = rng.randrange(7 if leaf else 9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        # Span fixint, int8..64 and bigint encodings.
        return rng.choice([
            rng.randrange(-32, 128),
            rng.randrange(-(2 ** 15), 2 ** 15),
            rng.randrange(-(2 ** 63), 2 ** 63),
            rng.randrange(-(2 ** 100), 2 ** 100),
        ])
    if kind == 3:
        return rng.uniform(-1e6, 1e6)
    if kind == 4:
        n = rng.randrange(0, 300)
        return "".join(rng.choices(string.printable + "éλ☃", k=n))
    if kind == 5:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
    if kind == 6:
        # Repeated strings exercise the back-reference table.
        return rng.choice(["shared-label", "mysqld/datadir", "pp"])
    if kind == 7:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(0, 6))]
    return {
        f"k{idx}-{rng.randrange(10)}": random_value(rng, depth + 1)
        for idx in range(rng.randrange(0, 6))
    }


class TestCodecRoundTrip:
    def test_randomized_round_trips(self):
        rng = random.Random(1729)
        for _ in range(200):
            value = random_value(rng)
            assert_same(codec.decode(codec.encode(value)), value)

    def test_scalar_edge_cases(self):
        for value in (None, True, False, 0, -1, 127, 128, -33,
                      2 ** 63 - 1, -(2 ** 63), 2 ** 200, -(2 ** 200),
                      "", "é" * 300, b"", b"\x00" * 70000, [], {},
                      list(range(20)), {"k": "v"}):
            assert_same(codec.decode(codec.encode(value)), value)

    def test_floats_bit_exact(self):
        values = [0.0, -0.0, 0.1, 1e-300, 1e300, 2.0 ** -1074,
                  math.pi, float("inf"), float("-inf")]
        decoded = codec.decode(codec.encode(values))
        for original, got in zip(values, decoded):
            assert struct.pack(">d", got) == struct.pack(">d", original)
        assert math.isnan(codec.decode(codec.encode(float("nan"))))

    def test_dict_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(codec.decode(codec.encode(value))) == ["z", "a", "m"]

    def test_string_table_compacts_repeats(self):
        label = "a-reasonably-long-attribute-name"
        payload = codec.encode([label] * 64)
        assert len(payload) < 64 * len(label)
        assert codec.decode(payload) == [label] * 64

    def test_bool_int_distinction_survives(self):
        decoded = codec.decode(codec.encode([True, 1, False, 0]))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_is_encoded_and_digest(self):
        payload = codec.encode({"x": 1})
        assert codec.is_encoded(payload)
        assert not codec.is_encoded(b"{\"x\": 1}")
        assert not codec.is_encoded(b"EN")
        assert len(codec.digest(payload)) == 64
        assert codec.digest(payload) == codec.digest(bytes(payload))


class TestCodecErrors:
    SAMPLE = {"images": [b"\x01\x02", "id-1"], "n": 3,
              "nested": {"f": 2.5, "flag": True}}

    def test_every_truncation_raises_codec_error(self):
        payload = codec.encode(self.SAMPLE)
        for cut in range(len(payload)):
            with pytest.raises(CodecError):
                codec.decode(payload[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(codec.encode(self.SAMPLE) + b"\x00")

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="magic"):
            codec.decode(b"NOPE" + codec.encode(1)[4:])

    def test_future_version_fails_forward_compatibly(self):
        payload = bytearray(codec.encode(self.SAMPLE))
        future = max(codec.SUPPORTED_VERSIONS) + 1
        payload[len(codec.MAGIC)] = future
        with pytest.raises(CodecError) as exc_info:
            codec.decode(bytes(payload))
        message = str(exc_info.value)
        assert str(future) in message
        assert str(codec.CODEC_VERSION) in message

    def test_garbage_fuzz_always_raises_typed_error(self):
        rng = random.Random(42)
        header = codec.MAGIC + bytes([codec.CODEC_VERSION])
        for _ in range(300):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(0, 40)))
            body = header + blob if rng.random() < 0.5 else blob
            try:
                codec.decode(body)
            except CodecError:
                pass  # the only acceptable failure type

    def test_unencodable_values_rejected(self):
        for value in (object(), {1: "non-string key"}, {"s": {1, 2}},
                      complex(1, 2)):
            with pytest.raises(CodecError):
                codec.encode(value)

    def test_codec_error_is_value_error_and_maps_to_codec_stage(self):
        error = CodecError("boom")
        assert isinstance(error, ValueError)
        assert classify_stage(error) == "codec"


class TestCodecQuarantineRouting:
    def _payload(self, good_image):
        return {
            "image_ids": [good_image.image_id, "poisoned-img"],
            "images": [image_payload(good_image), b"ENCB\x01garbage!"],
        }

    def test_corrupt_image_payload_quarantines_exactly_itself(self, registry):
        encore = EnCore(EnCoreConfig(error_policy="quarantine"))
        good = Ec2CorpusGenerator(seed=5).generate_one(1)
        images = decode_task_images(
            self._payload(good), encore.assembler, shard_index=3
        )
        assert [image.image_id for image in images] == [good.image_id]
        (record,) = encore.assembler.quarantine.records
        assert record.image_id == "poisoned-img"
        assert record.stage == "codec"
        assert record.shard_index == 3
        assert registry.total("quarantine.images.total") == 1

    def test_codec_valid_non_image_quarantines_exactly_itself(self, registry):
        encore = EnCore(EnCoreConfig(error_policy="quarantine"))
        good = Ec2CorpusGenerator(seed=5).generate_one(1)
        payload = self._payload(good)
        payload["images"][1] = codec.encode({"version": 1, "image_id": "x"})
        images = decode_task_images(payload, encore.assembler, shard_index=3)
        assert [image.image_id for image in images] == [good.image_id]
        (record,) = encore.assembler.quarantine.records
        assert record.image_id == "poisoned-img"
        assert record.stage == "codec"
        assert record.error == "ImageCorruptError"

    def test_strict_policy_propagates_codec_error(self, registry):
        encore = EnCore(EnCoreConfig(error_policy="strict"))
        good = Ec2CorpusGenerator(seed=5).generate_one(1)
        with pytest.raises(CodecError):
            decode_task_images(self._payload(good), encore.assembler, 0)


class TestWarmPool:
    def test_second_acquisition_reuses(self, registry):
        pool = WarmPool(1)
        try:
            first = pool.executor()
            assert pool.executor() is first
            assert pool.stats() == {"workers": 1, "alive": True, "spawns": 1}
            assert registry.total("pool.spawn.total") == 1
            assert registry.total("pool.reuse.total") == 1
        finally:
            pool.shutdown()

    def test_poison_respawns_next_acquisition(self, registry):
        pool = WarmPool(1)
        try:
            first = pool.executor()
            pool.poison()
            assert not pool.alive
            second = pool.executor()
            assert second is not first
            assert pool.spawns == 2
            assert registry.total("pool.respawn.total") == 1
        finally:
            pool.shutdown()

    def test_submit_survives_pool_shut_down_behind_our_back(self, registry):
        pool = WarmPool(1)
        try:
            pool.executor().shutdown(wait=True)
            assert pool.submit(abs, -3).result(timeout=60) == 3
            assert pool.spawns == 2
        finally:
            pool.shutdown()

    def test_ensure_workers_grows(self):
        pool = WarmPool(1)
        try:
            pool.executor()
            pool.ensure_workers(2)
            assert pool.workers == 2
            assert not pool.alive  # live pool was poisoned for regrowth
            pool.executor()
            assert pool.spawns == 2
        finally:
            pool.shutdown()

    def test_shared_pool_is_a_growing_singleton(self, registry, fresh_pool):
        assert warm_pool_stats() == {
            "workers": 0, "alive": False, "spawns": 0,
        }
        pool = get_warm_pool(1)
        assert get_warm_pool(2) is pool
        assert pool.workers == 2
        # warm_pool_stats never forks workers just to be inspected.
        assert warm_pool_stats()["spawns"] == 0

    def test_pool_reused_across_train_and_check(self, registry, fresh_pool):
        images = Ec2CorpusGenerator(seed=7).generate(8)
        encore = EnCore()
        encore.train(images, workers=2)
        encore.check_many(images[:4], workers=2)
        encore.train(images, workers=2)
        assert registry.total("pool.spawn.total") == 1
        assert registry.total("pool.reuse.total") >= 2


class TestEncodeHoist:
    """Satellite regression guard: one encode per pool lifetime."""

    def test_config_encoded_once_across_runs(self, registry, fresh_pool):
        images = Ec2CorpusGenerator(seed=7).generate(8)
        encore = EnCore()
        encore.train(images, workers=2)
        encore.train(images, workers=2)
        assert registry.total("codec.config.encodes.total") == 1

    def test_model_encoded_once_across_checks(self, registry, fresh_pool):
        images = Ec2CorpusGenerator(seed=7).generate(8)
        encore = EnCore()
        encore.train(images, workers=2)
        encore.check_many(images, workers=2)
        encore.check_many(images, workers=2)
        assert registry.total("codec.model.encodes.total") == 1


class TestResultCache:
    def test_key_depends_on_config_and_content(self):
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        touched = image.copy(image.image_id)
        touched.fs.add_file("/etc/touched", owner="root", group="root",
                            mode=0o644)
        assert cache_key("cfg-a", image) == cache_key("cfg-a", image)
        assert cache_key("cfg-a", image) != cache_key("cfg-b", image)
        assert cache_key("cfg-a", image) != cache_key("cfg-a", touched)

    def test_memory_layer_hit_miss_metrics(self, registry):
        cache = ResultCache()
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        key = cache_key("cfg", image)
        assert cache.lookup(key, image) is None
        cache.store(key, "assembled-sentinel", 7)
        assert cache.lookup(key, image) == ("assembled-sentinel", 7)
        assert registry.total("cache.miss.total") == 1
        assert registry.total("cache.hit.total") == 1

    def test_lru_evicts_and_counts(self, registry):
        cache = ResultCache(memory_entries=2)
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        for n in range(3):
            cache.store(f"key-{n}", f"sys-{n}", n)
        assert cache.stats()["memory_entries"] == 2
        assert registry.total("cache.evict.total") == 1
        assert cache.lookup("key-0", image) is None  # oldest evicted

    def test_disk_layer_revives_across_instances(self, tmp_path, registry):
        root = tmp_path / "cache"
        encore = EnCore()
        encore.set_cache(ResultCache(root))
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        encore.train([image])
        key = encore.assembler._cache_key(image)
        entry = root / key[:2] / f"{key}.encb"
        assert entry.exists()
        assert codec.is_encoded(entry.read_bytes())

        fresh = ResultCache(root)  # empty memory layer, same disk
        revived = fresh.lookup(key, image)
        assert revived is not None
        system, parsed_entries = revived
        assert parsed_entries > 0
        assert system.image is image  # rows re-attached to our object
        # Promoted into memory: a second lookup needs no disk read.
        assert fresh.stats()["memory_entries"] == 1

    def test_corrupt_disk_entry_reads_as_miss(self, tmp_path, registry):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        image = Ec2CorpusGenerator(seed=3).generate_one(1)
        key = cache_key("cfg", image)
        entry = root / key[:2] / f"{key}.encb"
        entry.parent.mkdir(parents=True)
        entry.write_bytes(codec.MAGIC + bytes([codec.CODEC_VERSION]) + b"\xc1")
        assert cache.lookup(key, image) is None
        assert registry.total("cache.corrupt.total") == 1
        assert not entry.exists()  # corrupt entry removed


class TestCachedRuns:
    @pytest.fixture(scope="class")
    def corpus(self):
        return Ec2CorpusGenerator(seed=11).generate(12)

    def test_warm_run_identical_and_all_hits(self, tmp_path, corpus,
                                             fresh_pool):
        rules = EnCore().train(corpus).rules.to_json()
        root = tmp_path / "cache"

        with use_registry(MetricsRegistry()) as cold_registry:
            cold = EnCore()
            cold.set_cache(ResultCache(root))
            cold_rules = cold.train(corpus).rules.to_json()
            assert cold_registry.total("cache.miss.total") == len(corpus)
            assert cold_registry.total("cache.hit.total") == 0

        with use_registry(MetricsRegistry()) as warm_registry:
            warm = EnCore()
            warm.set_cache(ResultCache(root))
            warm_rules = warm.train(corpus).rules.to_json()
            assert warm_registry.total("cache.hit.total") == len(corpus)
            assert warm_registry.total("cache.miss.total") == 0

        assert rules == cold_rules == warm_rules

    def test_sharded_warm_run_hits_in_coordinator(self, tmp_path, corpus,
                                                  fresh_pool):
        rules = EnCore().train(corpus).rules.to_json()
        root = tmp_path / "cache"
        primer = EnCore()
        primer.set_cache(ResultCache(root))
        primer.train(corpus)

        with use_registry(MetricsRegistry()) as registry:
            warm = EnCore()
            warm.set_cache(ResultCache(root))
            warm_rules = warm.train(corpus, workers=2).rules.to_json()
            assert registry.total("cache.hit.total") == len(corpus)
            # Every hit resolved in the coordinator pre-pass — nothing
            # was worth shipping to a worker.
            assert registry.total("assemble.shards.total") == 0
        assert warm_rules == rules

    def test_touched_image_invalidates_exactly_itself(self, tmp_path, corpus,
                                                      fresh_pool):
        root = tmp_path / "cache"
        primer = EnCore()
        primer.set_cache(ResultCache(root))
        primer.train(corpus)

        touched = corpus[0].copy(corpus[0].image_id)
        touched.fs.add_file("/etc/touched.conf", owner="root", group="root",
                            mode=0o644)
        with use_registry(MetricsRegistry()) as registry:
            rerun = EnCore()
            rerun.set_cache(ResultCache(root))
            rerun.train([touched] + list(corpus[1:]))
            assert registry.total("cache.miss.total") == 1
            assert registry.total("cache.hit.total") == len(corpus) - 1

    def test_check_path_hits_on_recheck(self, tmp_path, corpus):
        encore = EnCore()
        encore.train(corpus)
        encore.set_cache(ResultCache(tmp_path / "cache"))
        target = Ec2CorpusGenerator(seed=11).generate_one(999)

        with use_registry(MetricsRegistry()) as first:
            cold_report = encore.check(target)
            assert first.total("cache.miss.total") == 1
        with use_registry(MetricsRegistry()) as second:
            warm_report = encore.check(target)
            assert second.total("cache.hit.total") == 1
            assert second.total("cache.miss.total") == 0
        assert cold_report.to_dict() == warm_report.to_dict()


class TestBinarySnapshots:
    def test_encb_round_trips_and_matches_json(self, tmp_path, trained_encore):
        binary_path = tmp_path / "model.encb"
        json_path = tmp_path / "model.json"
        trained_encore.save_model(binary_path)
        trained_encore.save_model(json_path)
        assert codec.is_encoded(binary_path.read_bytes())
        assert not codec.is_encoded(json_path.read_bytes())
        from_binary = load_snapshot(binary_path)
        from_json = load_snapshot(json_path)
        assert from_binary.rules.to_json() == from_json.rules.to_json()
        assert from_binary.dataset_fingerprint == from_json.dataset_fingerprint

    def test_corrupt_binary_snapshot_raises_typed_error(self, tmp_path,
                                                        trained_encore):
        path = tmp_path / "model.encb"
        trained_encore.save_model(path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(SnapshotCorruptError):
            load_snapshot(path)

    def test_serve_loads_binary_snapshot_and_reports_data_plane(
        self, tmp_path, trained_encore, held_out_image
    ):
        from repro.serve.server import DetectionServer, ServeConfig

        snapshot = tmp_path / "model.encb"
        trained_encore.save_model(snapshot)
        config = ServeConfig(snapshot=snapshot, port=0,
                             cache_dir=tmp_path / "cache")
        server = DetectionServer(config)
        try:
            status = server.statusz()
            plane = status["data_plane"]
            assert plane["pool"]["spawns"] == 0  # never inspect-forked
            assert plane["cache"]["root"] == str(tmp_path / "cache")
            assert plane["cache"]["hits"] == 0
        finally:
            server.server_close()
