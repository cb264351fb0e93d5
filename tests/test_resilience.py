"""Chaos and resilience tests: error policies, quarantine, shard recovery.

The invariant under test everywhere: a corpus with k poisoned images,
trained under the ``quarantine`` policy, completes with exactly k
quarantine records and a rule set byte-identical to training on the
clean subset alone — at any worker count, whether the poison manifests
as a parse error inside a worker or as a crashed worker process.
"""

import json

import pytest

from repro.cli import main
from repro.core import resilience
from repro.core.pipeline import EnCore, EnCoreConfig
from repro.core.resilience import (
    ErrorBudgetExceeded,
    ErrorPolicy,
    FaultInjected,
    Quarantine,
    QuarantineLog,
    QuarantineRecord,
    RetryPolicy,
    enforce_error_budget,
    record_from_exception,
)
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine.sharding import RECOVERABLE
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.parsers.base import ConfigParseError
from repro.testing.faults import FaultPlan, poison_corpus, poison_snapshot_dir


@pytest.fixture(scope="module")
def corpus():
    """30 multi-app images (read-only)."""
    return Ec2CorpusGenerator(seed=31).generate(30)


@pytest.fixture(scope="module")
def poisoned_setup(corpus):
    """(poisoned corpus, poisoned ids, clean subset, clean-trained baseline)."""
    poisoned, ids = poison_corpus(corpus, 3, seed=5)
    clean = [image for image in corpus if image.image_id not in ids]
    baseline = EnCore(EnCoreConfig(error_policy="strict"))
    baseline.train(clean)
    return poisoned, ids, clean, baseline


@pytest.fixture()
def fresh_registry():
    parent = get_registry()
    set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(parent)


def _noop_sleep(_seconds):
    return None


def fast_retry(**kwargs):
    kwargs.setdefault("sleep", _noop_sleep)
    return RetryPolicy(**kwargs)


class TestErrorPolicy:
    def test_parse_values(self):
        assert ErrorPolicy.parse("strict") is ErrorPolicy.STRICT
        assert ErrorPolicy.parse("quarantine") is ErrorPolicy.QUARANTINE
        assert ErrorPolicy.parse(ErrorPolicy.SKIP) is ErrorPolicy.SKIP

    def test_parse_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="strict, quarantine, skip"):
            ErrorPolicy.parse("lenient")

    def test_config_default_is_quarantine(self):
        assert EnCoreConfig().error_policy == "quarantine"

    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            EnCoreConfig(error_policy="yolo")

    def test_config_rejects_bad_error_rate(self):
        with pytest.raises(ValueError):
            EnCoreConfig(max_error_rate=1.5)
        with pytest.raises(ValueError):
            EnCoreConfig(max_error_rate=-0.1)

    def test_config_round_trips_policy(self):
        config = EnCoreConfig(error_policy="skip", max_error_rate=0.25)
        restored = EnCoreConfig.from_dict(config.to_dict())
        assert restored.error_policy == "skip"
        assert restored.max_error_rate == 0.25


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=10.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_delay_is_capped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=2.5)
        assert policy.delay(5) == 2.5

    def test_injectable_sleeper(self):
        slept = []
        policy = RetryPolicy(backoff_base=0.5, sleep=slept.append)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert slept == [0.5, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)


class TestQuarantineRecords:
    def test_record_round_trip(self):
        record = QuarantineRecord(
            image_id="ami-1", stage="parse", error="ConfigParseError",
            message="line 3: bad", source_path="/etc/my.cnf", line=3,
            shard_index=2,
        )
        assert QuarantineRecord.from_dict(record.to_dict()) == record

    def test_record_from_parse_error_recovers_line(self):
        exc = ConfigParseError("line 42: unbalanced </X>")
        record = record_from_exception("ami-9", exc, source_path="/etc/httpd.conf")
        assert record.stage == "parse"
        assert record.line == 42
        assert record.error == "ConfigParseError"
        assert QuarantineRecord.from_dict(record.to_dict()) == record

    def test_record_from_fault_is_worker_stage(self):
        record = record_from_exception("ami-9", FaultInjected("ami-9"))
        assert record.stage == "worker"

    def test_record_joins_active_trace(self):
        from repro.obs.tracing import TraceContext, Tracer, use_tracer

        tracer = Tracer(context=TraceContext.root("q-trace"))
        with use_tracer(tracer), tracer.span("assemble.image"):
            record = record_from_exception("ami-9", ConfigParseError("x"))
        assert record.trace_id == "q-trace"
        assert record.to_dict()["trace_id"] == "q-trace"
        # Outside any trace the field stays empty and off the wire.
        bare = record_from_exception("ami-9", ConfigParseError("x"))
        assert bare.trace_id == ""
        assert "trace_id" not in bare.to_dict()

    def test_quarantine_accounting(self):
        quarantine = Quarantine()
        quarantine.add(record_from_exception("a", ConfigParseError("x")))
        quarantine.add(None, keep=False)  # skip-policy drop: counted, no record
        assert len(quarantine) == 1
        assert quarantine.dropped == 2
        assert quarantine.image_ids() == ["a"]
        assert quarantine.counts_by_stage() == {"parse": 1}

    def test_extend_dicts_folds_shard_records(self):
        quarantine = Quarantine()
        shard = Quarantine()
        shard.add(record_from_exception("b", ConfigParseError("y")))
        shard.add(None, keep=False)
        quarantine.extend_dicts(shard.to_dicts(), dropped=shard.dropped)
        assert quarantine.image_ids() == ["b"]
        assert quarantine.dropped == 2

    def test_render_limits_output(self):
        quarantine = Quarantine()
        for i in range(25):
            quarantine.add(record_from_exception(f"img-{i}", ConfigParseError("z")))
        rendered = quarantine.render(limit=20)
        assert "quarantined 25 image(s)" in rendered
        assert "... 5 more" in rendered


class TestErrorBudget:
    def test_under_budget_passes(self):
        enforce_error_budget(1, 10, 0.10)  # exactly at the ceiling

    def test_over_budget_raises(self):
        with pytest.raises(ErrorBudgetExceeded, match="error budget exceeded"):
            enforce_error_budget(2, 10, 0.10)

    def test_strict_is_noop(self):
        enforce_error_budget(5, 10, 0.10, policy="strict")

    def test_nothing_dropped_is_noop(self):
        enforce_error_budget(0, 10, 0.0)

    def test_exception_carries_rate(self):
        with pytest.raises(ErrorBudgetExceeded) as info:
            enforce_error_budget(3, 10, 0.10)
        assert info.value.dropped == 3
        assert info.value.total == 10
        assert info.value.rate == pytest.approx(0.3)


class TestAssemblerPolicies:
    def test_strict_preserves_fail_fast(self, poisoned_setup):
        poisoned, _, _, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="strict"))
        with pytest.raises(ConfigParseError):
            encore.train(poisoned)
        assert not encore.quarantine.records

    def test_quarantine_drops_only_the_poisoned(self, poisoned_setup):
        poisoned, ids, clean, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="quarantine", max_error_rate=0.5))
        model = encore.train(poisoned)
        assert sorted(encore.quarantine.image_ids()) == sorted(ids)
        assert len(model.dataset) == len(clean)
        record = encore.quarantine.records[0]
        assert record.stage == "parse"
        assert record.error == "ConfigParseError"
        assert record.source_path
        assert record.line > 0

    def test_skip_drops_silently(self, poisoned_setup):
        poisoned, ids, clean, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="skip", max_error_rate=0.5))
        model = encore.train(poisoned)
        assert not encore.quarantine.records
        assert encore.quarantine.dropped == len(ids)
        assert len(model.dataset) == len(clean)

    def test_budget_breach_aborts_serial(self, poisoned_setup):
        poisoned, _, _, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="quarantine", max_error_rate=0.05))
        with pytest.raises(ErrorBudgetExceeded):
            encore.train(poisoned)

    def test_budget_breach_aborts_sharded(self, poisoned_setup):
        poisoned, _, _, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="quarantine", max_error_rate=0.05))
        with pytest.raises(ErrorBudgetExceeded):
            encore.train(poisoned, workers=2)


class TestChaosInvariant:
    """The acceptance criterion: k poisoned -> k records, clean-subset rules."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_poisoned_equals_clean_subset(self, poisoned_setup, fresh_registry,
                                          workers):
        poisoned, ids, _, baseline = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="quarantine", max_error_rate=0.5))
        model = encore.train(poisoned, workers=workers)
        assert len(encore.quarantine.records) == len(ids)
        assert sorted(encore.quarantine.image_ids()) == sorted(ids)
        assert model.ruleset_digest() == baseline.model.ruleset_digest()
        assert model.dataset.fingerprint() == baseline.model.dataset.fingerprint()
        assert fresh_registry.total("quarantine.images.total") == len(ids)

    def test_strict_fail_fast_survives_sharding(self, poisoned_setup):
        poisoned, _, _, _ = poisoned_setup
        encore = EnCore(EnCoreConfig(error_policy="strict"))
        with pytest.raises(ConfigParseError):
            encore.train(poisoned, workers=2)


@pytest.fixture(scope="module")
def corpus_model(corpus):
    """A model trained serially on the whole corpus (read-only)."""
    encore = EnCore(EnCoreConfig(error_policy="strict"))
    encore.train(corpus)
    return encore


def _encore_for(job, model_source, **config):
    """A fresh EnCore for *job*; check jobs carry *model_source*'s model."""
    from repro.core.persistence import model_to_dict

    encore = EnCore(EnCoreConfig(**config))
    if job == "check":
        encore.load_model_data(
            json.loads(json.dumps(model_to_dict(model_source.model)))
        )
    return encore


def _run_job(job, encore, images, **kwargs):
    """Train on or check *images*; returns what two runs must agree on."""
    if job == "train":
        return encore.train(images, **kwargs).ruleset_digest()
    return [report.to_dict() for report in encore.check_stream(images, **kwargs)]


def _checker_with(policy, baseline):
    """A fresh EnCore under *policy*, carrying the baseline's model."""
    return _encore_for("check", baseline, error_policy=policy)


class TestWorkerCrashRecovery:
    """One retry → bisect → quarantine policy, driven through ``train``.

    :class:`TestCheckWorkerCrashRecovery` re-runs every test here through
    ``check_stream``: the contract is the same for both jobs — output
    equal to a serial run over the clean subset, exactly the victim
    quarantined with stage ``worker``.
    """

    job = "train"
    #: Counter a worker crash pinned on one image bumps, per job.
    quarantine_counter = "quarantine.images.total"

    def _baseline(self, images, corpus_model):
        strict = _encore_for(self.job, corpus_model, error_policy="strict")
        return _run_job(self.job, strict, images)

    def test_crash_once_recovers_by_retry(self, corpus, corpus_model,
                                          fresh_registry, tmp_path):
        baseline = self._baseline(corpus, corpus_model)
        encore = _encore_for(self.job, corpus_model, error_policy="quarantine")
        encore.retry_policy = fast_retry()
        encore.fault_plan = FaultPlan.crash_once(tmp_path, corpus[5].image_id)
        output = _run_job(self.job, encore, corpus, workers=2)
        # the crash burned out on its first firing: nothing quarantined
        assert not encore.quarantine.records
        assert output == baseline
        assert fresh_registry.total("retry.shards.failed") >= 1
        assert fresh_registry.total("retry.attempts.total") >= 1
        assert fresh_registry.total("retry.recovered.total") >= 1

    def test_crash_always_bisects_to_the_image(self, corpus, corpus_model,
                                               fresh_registry, tmp_path):
        victim = corpus[5].image_id
        clean = [image for image in corpus if image.image_id != victim]
        baseline = self._baseline(clean, corpus_model)
        encore = _encore_for(self.job, corpus_model, error_policy="quarantine")
        encore.retry_policy = fast_retry(max_attempts=2)
        encore.fault_plan = FaultPlan.crash_always(tmp_path, victim)
        output = _run_job(self.job, encore, corpus, workers=2)
        # exactly the poisoned image is quarantined, as a worker fault
        assert encore.quarantine.image_ids() == [victim]
        assert encore.quarantine.records[0].stage == "worker"
        assert output == baseline
        assert fresh_registry.total("retry.bisections.total") >= 1
        assert fresh_registry.total(self.quarantine_counter) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_always_under_skip_keeps_no_record(
        self, corpus, corpus_model, fresh_registry, tmp_path, workers
    ):
        """Skip drops a crashing image counted but unrecorded, whether the
        serial loop or bisection pins it."""
        victim = corpus[5].image_id
        clean = [image for image in corpus if image.image_id != victim]
        baseline = self._baseline(clean, corpus_model)
        encore = _encore_for(self.job, corpus_model, error_policy="skip")
        encore.retry_policy = fast_retry(max_attempts=2)
        encore.fault_plan = FaultPlan.crash_always(tmp_path, victim)
        output = _run_job(self.job, encore, corpus, workers=workers)
        assert encore.quarantine.dropped == 1
        assert not encore.quarantine.records
        assert output == baseline
        assert fresh_registry.total(self.quarantine_counter) == 1
        counter = fresh_registry.counter(self.quarantine_counter, stage="worker")
        assert counter.value == 1

    def test_crash_always_under_strict_propagates(self, corpus, corpus_model,
                                                  tmp_path):
        encore = _encore_for(self.job, corpus_model, error_policy="strict")
        encore.retry_policy = fast_retry(max_attempts=2)
        encore.fault_plan = FaultPlan.crash_always(tmp_path, corpus[5].image_id)
        with pytest.raises(RECOVERABLE):
            _run_job(self.job, encore, corpus, workers=2)

    def test_serial_fault_is_contained_in_process(self, corpus, corpus_model,
                                                  tmp_path):
        """On the serial path the same plan raises instead of killing us."""
        victim = corpus[5].image_id
        clean = [image for image in corpus if image.image_id != victim]
        baseline = self._baseline(clean, corpus_model)
        encore = _encore_for(self.job, corpus_model, error_policy="quarantine")
        encore.fault_plan = FaultPlan.crash_always(tmp_path, victim)
        output = _run_job(self.job, encore, corpus, workers=1)
        assert encore.quarantine.image_ids() == [victim]
        assert encore.quarantine.records[0].stage == "worker"
        assert output == baseline

    def test_hang_recovers_via_shard_timeout(self, corpus, corpus_model,
                                             fresh_registry, tmp_path):
        victim = corpus[2].image_id
        subset = corpus[:8]
        clean = [image for image in subset if image.image_id != victim]
        baseline = self._baseline(clean, corpus_model)
        encore = _encore_for(self.job, corpus_model, error_policy="quarantine",
                             max_error_rate=0.2)
        encore.retry_policy = fast_retry(max_attempts=1)
        encore.shard_timeout = 1.5
        plan = FaultPlan.hang_always(tmp_path, victim, hang_seconds=30.0)
        encore.fault_plan = plan
        try:
            output = _run_job(self.job, encore, subset, workers=2, chunk_size=4)
        finally:
            plan.stop_hangs()
        assert encore.quarantine.image_ids() == [victim]
        assert encore.quarantine.records[0].stage == "worker"
        assert output == baseline


class TestCheckWorkerCrashRecovery(TestWorkerCrashRecovery):
    job = "check"
    quarantine_counter = "quarantine.targets.total"


class TestCheckQuarantine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_poisoned_target_is_quarantined(self, poisoned_setup, workers):
        poisoned, ids, clean, baseline = poisoned_setup
        checker = _checker_with("quarantine", baseline)
        reports = list(checker.check_stream(poisoned, workers=workers))
        assert len(reports) == len(clean)
        assert sorted(checker.quarantine.image_ids()) == sorted(ids)

    def test_check_drop_logs_image_quarantined(self, poisoned_setup,
                                               monkeypatch):
        poisoned, ids, _, baseline = poisoned_setup
        logged = []

        class Recorder:
            def warning(self, event, **fields):
                logged.append((event, fields["image"]))

        monkeypatch.setattr(resilience, "log", Recorder())
        checker = _checker_with("quarantine", baseline)
        list(checker.check_stream(poisoned, workers=1))
        assert sorted(image for event, image in logged
                      if event == "image.quarantined") == sorted(ids)

    def test_check_shard_record_carries_its_shard_index(self, poisoned_setup):
        poisoned, ids, _, baseline = poisoned_setup
        checker = _checker_with("quarantine", baseline)
        list(checker.check_stream(poisoned, workers=2, chunk_size=10))
        shard_of = {image.image_id: i // 10 for i, image in enumerate(poisoned)}
        assert sorted(
            (record.image_id, record.shard_index)
            for record in checker.quarantine.records
        ) == sorted((image_id, shard_of[image_id]) for image_id in ids)

    def test_strict_check_stream_raises(self, poisoned_setup):
        poisoned, _, _, baseline = poisoned_setup
        strict = _checker_with("strict", baseline)
        with pytest.raises(ConfigParseError):
            list(strict.check_stream(poisoned, workers=1))

    def test_single_target_check_stays_fail_fast(self, poisoned_setup):
        poisoned, ids, _, baseline = poisoned_setup
        bad = next(image for image in poisoned if image.image_id in ids)
        with pytest.raises(ConfigParseError):
            _checker_with("quarantine", baseline).check(bad)


class TestCLIResilience:
    @pytest.fixture(scope="class")
    def cli_corpus(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("chaos-corpus")
        assert main(["generate", "--out", str(out), "--count", "12",
                     "--seed", "7"]) == 0
        return out

    def test_quarantine_run_exits_3(self, cli_corpus, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for path in cli_corpus.glob("*.json"):
            (corpus_dir / path.name).write_text(path.read_text())
        poisoned = poison_snapshot_dir(corpus_dir, count=1, seed=3)
        ledger = tmp_path / "ledger.jsonl"
        qlog = tmp_path / "quarantine.jsonl"
        rc = main([
            "train", "--training", str(corpus_dir),
            "--error-policy", "quarantine",
            "--ledger", str(ledger), "--quarantine", str(qlog),
        ])
        assert rc == 3
        err = capsys.readouterr().err
        assert "quarantined 1 image(s)" in err
        # the quarantine log holds exactly the poisoned image
        records = [json.loads(line) for line in qlog.read_text().splitlines()]
        assert [r["image_id"] for r in records] == [poisoned[0][0]]
        # the ledger entry records the drop as run metadata
        entries = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert entries[-1]["quarantine"]["total"] == 1
        # and `repro quarantine show` lists the run
        assert main(["quarantine", "show", "--quarantine", str(qlog)]) == 0
        out = capsys.readouterr().out
        assert poisoned[0][0] in out

    def test_strict_cli_fails_fast(self, cli_corpus, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for path in cli_corpus.glob("*.json"):
            (corpus_dir / path.name).write_text(path.read_text())
        poison_snapshot_dir(corpus_dir, count=1, seed=3)
        with pytest.raises(ConfigParseError):
            main(["train", "--training", str(corpus_dir),
                  "--error-policy", "strict", "--no-ledger"])

    def test_budget_breach_exits_1(self, cli_corpus, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for path in cli_corpus.glob("*.json"):
            (corpus_dir / path.name).write_text(path.read_text())
        poison_snapshot_dir(corpus_dir, count=3, seed=3)
        rc = main([
            "train", "--training", str(corpus_dir),
            "--error-policy", "quarantine", "--max-error-rate", "0.10",
            "--no-ledger",
        ])
        assert rc == 1
        assert "error budget exceeded" in capsys.readouterr().err

    def test_skip_policy_exits_0(self, cli_corpus, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for path in cli_corpus.glob("*.json"):
            (corpus_dir / path.name).write_text(path.read_text())
        poison_snapshot_dir(corpus_dir, count=1, seed=3)
        rc = main([
            "train", "--training", str(corpus_dir),
            "--error-policy", "skip", "--no-ledger",
        ])
        assert rc == 0
        assert "skipped 1 unassemblable image(s)" in capsys.readouterr().err

    def test_empty_quarantine_show(self, tmp_path, capsys):
        qlog = tmp_path / "empty.jsonl"
        assert main(["quarantine", "show", "--quarantine", str(qlog)]) == 0
        assert "is empty" in capsys.readouterr().out


class TestQuarantineLogFile:
    def test_append_and_last_run(self, tmp_path):
        qlog = QuarantineLog(tmp_path / "q.jsonl")
        first = [QuarantineRecord("a", "parse", "ConfigParseError")]
        second = [QuarantineRecord("b", "worker", "BrokenProcessPool"),
                  QuarantineRecord("c", "parse", "ConfigParseError")]
        assert qlog.append(first, run_id="run1", command="train") == 1
        assert qlog.append(second, run_id="run2", command="check") == 2
        assert len(qlog.entries()) == 3
        last = qlog.last_run()
        assert [r["image_id"] for r in last] == ["b", "c"]
        assert all(r["run_id"] == "run2" for r in last)

    def test_truncated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "q.jsonl"
        qlog = QuarantineLog(path)
        qlog.append([QuarantineRecord("a", "parse", "E")], run_id="r")
        with path.open("a") as handle:
            handle.write('{"image_id": "tru')  # crash mid-write
        assert [r["image_id"] for r in qlog.entries()] == ["a"]

    def test_missing_file_is_empty(self, tmp_path):
        assert QuarantineLog(tmp_path / "nope.jsonl").entries() == []
        assert QuarantineLog(tmp_path / "nope.jsonl").last_run() == []

    def test_malformed_lines_are_skipped_and_counted(self, tmp_path, capsys):
        path = tmp_path / "q.jsonl"
        qlog = QuarantineLog(path)
        qlog.append([QuarantineRecord("a", "parse", "E")], run_id="r")
        with path.open("a") as handle:
            handle.write('{"line": "abc"}\n{"line": null}\n[1]\n')
            handle.write('{}\n{"image_id": 7, "line": 2.9}\n')
            handle.write('{"image_id": "b"}\n')  # no stage
            handle.write('{"image_id": "b", "stage": "parse", "line": 2.9}\n')
            handle.write('{"image_id": "b", "stage": "parse", "line": true}\n')
            handle.write('{"image_id": "tru')  # crash mid-write
        assert [r["image_id"] for r in qlog.entries()] == ["a"]
        assert qlog.skipped == 9
        assert main(["quarantine", "show", "--all",
                     "--quarantine", str(path)]) == 0
        captured = capsys.readouterr()
        assert "skipped 9 unreadable line(s)" in captured.err
        assert "a  parse" in captured.out

    def test_show_survives_a_log_of_only_bad_lines(self, tmp_path, capsys):
        path = tmp_path / "q.jsonl"
        path.write_text('{"line": "abc"}\n{"line": null}\n[1]\n{"image_id": "tr')
        assert main(["quarantine", "show", "--quarantine", str(path)]) == 0
        assert "skipped 4 unreadable line(s)" in capsys.readouterr().err
