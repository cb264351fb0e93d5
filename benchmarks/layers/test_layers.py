"""Self-tests of the layer benchmark's harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/layers -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
from loadgen import OpenLoop, percentile, poisson_schedule
from trace import CORE_LAYERS, SERVE_LAYERS, SERVE_ROOT, LayerTracer, resolve

HERE = Path(__file__).resolve().parent


class VirtualClock:
    """Per-thread virtual time: work advances it, nothing else does."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


def make_tree(clock: VirtualClock):
    class Inner:
        def leaf(self):
            clock.advance(0.1)

    class Middle:
        def step(self):
            clock.advance(0.2)
            Inner().leaf()

        @staticmethod
        def helper():
            clock.advance(0.05)

    class Outer:
        headers = {"X-Request-Id": "req-1"}

        def run(self):
            clock.advance(1.0)
            Middle().step()
            Middle().step()
            Middle.helper()
            clock.advance(0.5)

    return Outer, Middle, Inner


def test_self_time_on_nested_tree_across_two_threads():
    clock = VirtualClock()
    Outer, Middle, Inner = make_tree(clock)
    tracer = LayerTracer(clock=clock)
    tracer.wrap(Outer, "run", "outer", root=True)
    tracer.wrap(Middle, "step", "middle")
    tracer.wrap(Middle, "helper", "helper")
    tracer.wrap(Inner, "leaf", "inner")
    with tracer:
        threads = [threading.Thread(target=Outer().run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    table = tracer.snapshot()
    assert table["calls"] == {"outer": 2, "middle": 4, "helper": 2, "inner": 4}
    assert table["self_s"]["outer"] == pytest.approx(2 * 1.5)
    assert table["self_s"]["middle"] == pytest.approx(2 * 0.4)
    assert table["self_s"]["helper"] == pytest.approx(2 * 0.05)
    assert table["self_s"]["inner"] == pytest.approx(2 * 0.2)
    # Self times add up to the outermost call's wall time, per thread.
    assert sum(table["self_s"].values()) == pytest.approx(2 * 2.15)
    # Request rows hold the root and its direct children only, inclusive.
    assert len(table["requests"]) == 2
    for row in table["requests"]:
        assert row["id"] == "req-1"
        assert row["outer"] == pytest.approx(2150.0)
        assert row["middle"] == pytest.approx(600.0)
        assert row["helper"] == pytest.approx(50.0)
        assert "inner" not in row


def test_wrapper_cost_is_priced_and_the_probe_unwrapped():
    tracer = LayerTracer()
    cost = tracer.call_cost_s(calls=20_000, repeats=3)
    # A few perf_counter reads and dict updates: well under 50 µs a call.
    assert 0 < cost < 50e-6
    assert tracer.snapshot()["calls"] == {}
    assert run.trace_overhead({"calls": {"a": 600, "b": 400}}, 1e-6, 1.001) == pytest.approx(0.001)


def test_traced_run_restores_the_original_objects():
    from repro.core.pipeline import EnCore
    from repro.corpus.generator import Ec2CorpusGenerator

    specs = CORE_LAYERS + SERVE_LAYERS
    originals = {(o, n): vars(resolve(o))[n] for o, n, _ in specs}
    images = Ec2CorpusGenerator(1).generate(8)
    tracer = LayerTracer().install(CORE_LAYERS)
    try:
        encore = EnCore()
        encore.train(images)
        report = encore.check(images[0])
        report.to_dict()
    finally:
        tracer.restore()
    table = tracer.snapshot()
    assert table["calls"]["parsers"] > 0
    assert table["calls"]["core.detector.rank"] == 1
    serve = LayerTracer().install(SERVE_LAYERS, root_layer=SERVE_ROOT)
    serve.restore()
    for (owner, name), original in originals.items():
        assert vars(resolve(owner))[name] is original, f"{owner}.{name}"


class FakeClock:
    """Virtual time shared by the loop and a fake service."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_open_loop_times_from_due_time_and_reports_lateness():
    clock = FakeClock()

    def send(slot, index):
        clock.now += 0.25  # every request takes 250 ms
        return True, index

    outcomes = OpenLoop([0.0, 0.1, 0.2, 1.0], send, threads=1,
                        clock=clock, sleep=clock.sleep).run(join_timeout=10)
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
    assert [round(o.late, 6) for o in outcomes] == [0.0, 0.15, 0.3, 0.0]
    # A stall makes later requests wait, and their latency counts it.
    assert [round(o.latency, 6) for o in outcomes] == [0.25, 0.4, 0.55, 0.25]


def test_poisson_schedule_is_seeded_and_keeps_its_rate():
    schedule = poisson_schedule(12.0, 2000, seed=3)
    assert schedule == poisson_schedule(12.0, 2000, seed=3)
    assert schedule != poisson_schedule(12.0, 2000, seed=4)
    assert schedule[0] == 0.0 and schedule == sorted(schedule)
    assert len(schedule) / schedule[-1] == pytest.approx(12.0, rel=0.1)


def test_open_loop_counts_exceptions_as_failed_requests():
    clock = FakeClock()

    def send(slot, index):
        if index == 1:
            raise ConnectionResetError("peer went away")
        return True, None

    outcomes = OpenLoop([0.0, 0.1, 0.2], send, threads=1, clock=clock,
                        sleep=clock.sleep).run(join_timeout=10)
    assert [o.ok for o in outcomes] == [True, False, True]
    assert "ConnectionResetError" in outcomes[1].info


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(101)), 0.5) == 50
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    # 92 samples leave 10 above p90 (ranks 82..91); 91 leave only 9.
    assert percentile(list(range(92)), 0.9) == pytest.approx(81.9)
    with pytest.raises(ValueError):
        percentile(list(range(91)), 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)
    with pytest.raises(ValueError):
        percentile(list(range(181)), 0.95)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_benchmark_json_names_what_the_runner_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert bench["paths"] == ["benchmarks/layers"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_smoke_runs_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1",
         "--trace", trace],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()[-len(run.WORKLOADS):]
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    for line in lines:
        result = json.loads(line)
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
