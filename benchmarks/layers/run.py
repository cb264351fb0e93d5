"""Layer-budget benchmark: train, check and serve, end to end and by layer.

Usage (from the repository root)::

    python3 benchmarks/layers/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/layers/run.py --runs N [--workload W] [--out FILE]

One run measures one workload.  It prints every metric as
``workload metric value unit`` and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run.  A failed output check makes the run exit non-zero.
``--runs N`` repeats each workload over N seeds and prints each metric's
median, quartiles and spread against its bound in ``BENCHMARK.json``.

End-to-end times are CPU seconds.  On a shared VM the hypervisor's steal
time stretches wall time by a share that changes from minute to minute;
the kernel leaves steal out of a process's CPU time.

All inputs are generated from the seed into a work directory under
``.bench_work/`` and removed afterwards; the program sees only files.
This script itself is stdlib-only: everything that imports the program
runs in ``child.py`` processes or in the ``repro serve`` daemon.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from loadgen import CheckClient, OpenLoop, percentile, poisson_schedule

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("train-cold", "retrain-cached", "check-fleet", "serve-open")
#: Client threads and connections: the box's core count (2).
CLIENT_THREADS = 2
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and sample counts for one benchmark scale."""

    train_images: int
    targets: int
    serve_targets: int
    setup_reps: int
    train_min_ops: int
    check_min_ops: int
    pin_count: int
    serve_rate: float
    serve_min_requests: int
    serve_trace_requests: int
    serve_compare: int


FULL = Sizes(
    train_images=200, targets=1000, serve_targets=200, setup_reps=3,
    train_min_ops=2, check_min_ops=500, pin_count=500,
    serve_rate=12.0, serve_min_requests=120, serve_trace_requests=200,
    serve_compare=50,
)
#: Tiny sizes for the harness self-test; pins do not apply.
QUICK = replace(
    FULL, train_images=24, targets=60, serve_targets=60, setup_reps=2,
    train_min_ops=1, check_min_ops=100, pin_count=0,
    serve_rate=40.0, serve_min_requests=40, serve_compare=20,
)

#: The 11 predefined templates, replayed one by one in the train-cold trace.
TEMPLATES = (
    "equal_same_type", "one_instance_equal", "extended_boolean", "ip_subnet",
    "concat_path", "substring", "user_in_group", "not_accessible",
    "ownership", "less_number", "less_size",
)
#: Layers with a call count and self time, then layers with self time only.
COUNTED_LAYERS = ("parsers", "core.types", "core.augment", "core.assembler")
SELF_LAYERS = (
    "engine.cache", "engine.sharding", "core.dataset", "core.inference",
    "core.pipeline.model_build", "core.detector", "core.detector.entry_names",
    "core.detector.correlations", "core.detector.types",
    "core.detector.suspicious", "core.detector.rank", "obs.drift",
    "core.report.encode",
)
#: Per-request serve rows (inclusive ms of calls directly under do_POST).
SERVE_ROWS = ("request", "decode", "admission", "lease", "check", "encode",
              "ledger", "telemetry", "other", "wire")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    names = []
    for layer in COUNTED_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    names += [(f"{layer}.self_s", "s") for layer in SELF_LAYERS]
    names += [
        ("engine.cache.lookups", "count"), ("engine.cache.hit_ratio", "ratio"),
        ("core.inference.pairs", "count"), ("core.inference.rules_kept", "count"),
        ("core.inference.kept_ratio", "ratio"), ("core.detector.warnings", "count"),
        ("core.persistence.load_s", "s"),
    ]
    for name in TEMPLATES:
        names += [(f"core.inference.template.{name}.s", "s"),
                  (f"core.inference.template.{name}.pairs", "count")]
    for row in SERVE_ROWS:
        names += [(f"serve.{row}.ms_p50", "ms"), (f"serve.{row}.ms_p95", "ms")]
    names += [("serve.client.latency_ms_p50", "ms"), ("serve.client.latency_ms_p95", "ms"),
              ("serve.client.late_ms_max", "ms")]
    names += [(f"serve.requests.{k}", "count") for k in ("sent", "ok", "failed", "shed")]
    names += [("wall_s", "s"), ("remainder_s", "s"), ("remainder_frac", "ratio"),
              ("trace_overhead_frac", "ratio")]
    return names


PER_LAYER = per_layer_names()


class RunError(Exception):
    """The benchmark could not run (not an output mismatch)."""


@dataclass
class Result:
    """What one workload run produced."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


# -- processes ---------------------------------------------------------------------


def run_process(argv: Sequence[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` that ends the process with SIGTERM, then SIGKILL.

    On a timeout or any exception here (including the SIGTERM this
    script turns into ``SystemExit``) the process is asked to stop, so
    it can stop what it started in turn, and is always waited for.
    """
    with subprocess.Popen(argv, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            proc.terminate()
            try:
                proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def children_cpu_s() -> float:
    """CPU seconds of every child process this script has reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Context:
    """One run's work directory, seed, sizes and child-process helpers."""

    def __init__(self, work: Path, seed: int, seconds: float, sizes: Sizes) -> None:
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        (work / "tmp").mkdir(parents=True)
        # A fixed hash seed gives every process the same set and dict
        # layouts; a random one per process moved the serve daemon's CPU
        # per request by about 5% on its own.
        self.env = dict(os.environ, TMPDIR=str(work / "tmp"), PYTHONUNBUFFERED="1",
                        PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self._outputs = 0

    def child(self, command: str, *args: object) -> dict:
        """Run one ``child.py`` command in a fresh process; its JSON result."""
        self._outputs += 1
        out = self.work / f"out-{self._outputs}.json"
        argv = [sys.executable, str(HERE / "child.py"), command,
                "--work", str(self.work), "--out", str(out), *map(str, args)]
        proc = run_process(argv, CHILD_TIMEOUT_S, env=self.env, cwd=self.work,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RunError(f"child {command} failed:\n{proc.stderr[-4000:]}")
        return json.loads(out.read_text())


class Daemon:
    """A ``repro serve`` subprocess on a free port, always reaped."""

    def __init__(self, ctx: Context, trace_out: Optional[Path] = None) -> None:
        serve_args = ["--snapshot", str(ctx.work / "model.json"), "--port", "0"]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out),
                    *serve_args]
        started = time.perf_counter()
        self._stderr = open(ctx.work / "serve.stderr", "ab")
        try:
            self.proc = subprocess.Popen(argv, cwd=ctx.work, env=ctx.env,
                                         stdout=subprocess.PIPE, stderr=self._stderr)
        except OSError:
            self._stderr.close()
            raise
        try:
            self.port = self._read_port(deadline=started + 60.0)
            self._wait_ready(deadline=started + 60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RunError("serve daemon did not report its port")
            readable, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RunError("serve daemon closed stdout before its port")
                line += chunk
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            raise RunError(f"unexpected serve banner: {line!r}")
        return int(match.group(1))

    def _wait_ready(self, deadline: float) -> None:
        url = f"http://127.0.0.1:{self.port}/readyz"
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.01)
        raise RunError("serve daemon never became ready")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M)
        if match is None:
            raise RunError("no VmHWM for the serve daemon")
        return int(match.group(1)) / 1024.0

    def cpu_s(self) -> float:
        """utime + stime of the live daemon, all threads (10 ms ticks)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after a timeout; always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


# -- helpers -----------------------------------------------------------------------


def canonical_digest(data: object) -> str:
    """Same canonical form as child.py's report digests."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_pins(sizes: Sizes) -> Dict[str, Dict[str, str]]:
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins["sizes"]
    if (pinned["train_images"], pinned["targets"], pinned["pin_count"]) != (
            sizes.train_images, sizes.targets, sizes.pin_count):
        return {}
    return pins["seeds"]


def pin_checks(ctx: Context, key: str, value: str) -> List[Tuple[str, bool, str]]:
    expected = load_pins(ctx.sizes).get(str(ctx.seed), {}).get(key)
    if expected is None:
        return []
    return [(f"pinned {key}", value == expected, f"{value[:16]} vs {expected[:16]}")]


def ms(seconds: float) -> float:
    return seconds * 1000.0


def unattributed(wall_s: float, op_table: dict) -> float:
    """Wall time of the timed operations not covered by any layer's self time."""
    return wall_s - sum(op_table["self_s"].values())


def trace_overhead(op_table: dict, call_cost_s: float, wall_s: float) -> float:
    """Traced wall time over untraced, minus 1.

    The untraced time is the traced time less what the wrappers added:
    their calls times the cost of one wrapped call.  Comparing a traced
    run with an untraced one instead would measure the machine's drift
    in speed, which is larger than the wrappers' cost.
    """
    added = sum(op_table["calls"].values()) * call_cost_s
    return added / (wall_s - added)


def layer_metrics(tables: Sequence[dict], wall_s: float, remainder_s: float,
                  overhead: float) -> Dict[str, float]:
    """Per-layer values from tracer snapshots (zero where a layer never ran).

    The rows sum *tables*, which may include set-up outside the timed
    operations; *wall_s* and *remainder_s* cover the timed operations only.
    """
    calls: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for table in tables:
        for key, value in table["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in table["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in table["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    out = {name: 0.0 for name, _ in PER_LAYER}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = float(calls.get(layer, 0))
    for layer in COUNTED_LAYERS + SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    lookups = calls.get("engine.cache", 0)
    out["engine.cache.lookups"] = float(lookups)
    hits = counters.get("engine.cache.hits", 0.0)
    out["engine.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    pairs = counters.get("core.inference.pairs", 0.0)
    out["core.inference.pairs"] = pairs
    out["core.inference.rules_kept"] = counters.get("core.inference.rules_kept", 0.0)
    out["core.inference.kept_ratio"] = out["core.inference.rules_kept"] / pairs if pairs else 0.0
    out["core.detector.warnings"] = counters.get("core.detector.warnings", 0.0)
    loads = calls.get("core.persistence", 0)
    out["core.persistence.load_s"] = self_s.get("core.persistence", 0.0) / loads if loads else 0.0
    out["wall_s"] = wall_s
    out["remainder_s"] = remainder_s
    out["remainder_frac"] = remainder_s / wall_s if wall_s else 0.0
    out["trace_overhead_frac"] = overhead
    return out


# -- workloads ---------------------------------------------------------------------


def run_train(ctx: Context, trace: bool, cached: bool) -> Result:
    """train-cold (serial, no cache) or retrain-cached (2 workers, disk hits)."""
    sizes = ctx.sizes
    prep = ctx.child("prepare", "--seed", ctx.seed, "--train-images", sizes.train_images,
                     *(["--cache"] if cached else []))
    mode = ["--workers", 2, "--cache"] if cached else []
    checks: List[Tuple[str, bool, str]] = []
    if trace:
        runs = [ctx.child("train", *mode, "--trace", *([] if cached else ["--replay"]))]
    else:
        runs = []
        start = time.perf_counter()
        while True:
            reps = sizes.setup_reps if not runs else 1
            began = time.perf_counter()
            runs.append(ctx.child("train", *mode, "--setup-reps", reps))
            took = time.perf_counter() - began
            # Start another train only if it should end inside the window.
            if len(runs) >= sizes.train_min_ops and (
                    time.perf_counter() - start + took > ctx.seconds):
                break
    digests = {run["ruleset_sha256"] for run in runs}
    checks.append(("ruleset identical across runs", len(digests) == 1, str(len(digests))))
    digest = runs[0]["ruleset_sha256"]
    if cached:
        checks.append(("cached ruleset equals cold ruleset",
                       digest == prep["ruleset_sha256"], digest[:16]))
    checks += pin_checks(ctx, "ruleset_sha256", digest)
    attempted = sum(run["images"] for run in runs)
    failed = sum(run["quarantined"] for run in runs)
    if trace:
        traced = runs[0]
        wall_s = traced["train_s"]
        values = layer_metrics([traced["trace"]], wall_s,
                               unattributed(wall_s, traced["trace"]),
                               trace_overhead(traced["trace"], traced["call_cost_s"], wall_s))
        if not cached:
            replay = traced["replay"]
            checks.append(("template replay pairs sum to the full run", replay["pairs_match"], ""))
            checks.append(("template replay rules union equals the ruleset",
                           replay["rules_match"], ""))
            checks.append(("replayed templates are the known 11",
                           sorted(replay["templates"]) == sorted(TEMPLATES), ""))
            for name, row in replay["templates"].items():
                values[f"core.inference.template.{name}.s"] = row["s"]
                values[f"core.inference.template.{name}.pairs"] = float(row["pairs"])
        return Result(with_units(values, PER_LAYER), attempted, failed, checks)
    metrics = {
        "setup_s": statistics.median(s for run in runs for s in run["setup_cpu_s"]),
        "cpu_ms_per_op": ms(statistics.mean(run["train_cpu_s"] for run in runs)),
        "peak_rss_mb": max(run["rss_mb"] for run in runs),
    }
    return Result(with_units(metrics, END_TO_END), attempted, failed, checks)


def run_check(ctx: Context, trace: bool) -> Result:
    """check-fleet: load the model, then check targets one by one."""
    sizes = ctx.sizes
    prep = ctx.child("prepare", "--seed", ctx.seed, "--train-images", sizes.train_images,
                     "--targets", sizes.targets, "--model")
    run = ctx.child("check", "--seconds", ctx.seconds, "--min-ops", sizes.check_min_ops,
                    "--pin-count", sizes.pin_count, "--setup-reps", sizes.setup_reps,
                    *(["--trace"] if trace else []))
    checks = [
        ("reports follow target order", run["mismatched"] == 0, str(run["mismatched"])),
        ("warnings found", run["warnings"] > 0, str(run["warnings"])),
    ]
    checks += pin_checks(ctx, "ruleset_sha256", prep["ruleset_sha256"])
    if sizes.pin_count and run["count"] >= sizes.pin_count:
        checks += pin_checks(ctx, "reports_sha256", run["reports_sha256"])
    failed = run["quarantined"] + run["mismatched"]
    if trace:
        wall_s = sum(run["op_s"])
        values = layer_metrics([run["setup_trace"], run["trace"]], wall_s,
                               unattributed(wall_s, run["trace"]),
                               trace_overhead(run["trace"], run["call_cost_s"], wall_s))
        return Result(with_units(values, PER_LAYER), run["count"], failed, checks)
    metrics = {
        "setup_s": statistics.median(run["setup_cpu_s"]),
        "cpu_ms_per_op": ms(statistics.mean(run["op_cpu_s"])),
        "peak_rss_mb": run["rss_mb"],
    }
    return Result(with_units(metrics, END_TO_END), run["count"], failed, checks)


def drive(ctx: Context, daemon: Daemon, bodies: List[bytes], count: int,
          label: str) -> Tuple[list, float]:
    """One open-loop step of *count* requests; (outcomes, daemon CPU seconds)."""
    schedule = poisson_schedule(ctx.sizes.serve_rate, count, ctx.seed)
    ids = [f"{label}-{ctx.seed}-{i}" for i in range(count)]
    client = CheckClient(daemon.port, bodies, CLIENT_THREADS, ids,
                         keep_reports=ctx.sizes.serve_compare)
    try:
        cpu_start = daemon.cpu_s()
        outcomes = OpenLoop(schedule, client.send, threads=CLIENT_THREADS).run(
            join_timeout=schedule[-1] + 120.0)
        return outcomes, daemon.cpu_s() - cpu_start
    finally:
        client.close()


def serve_checks(outcomes: list, expected: List[str]) -> List[Tuple[str, bool, str]]:
    compared = [o for o in outcomes if o.index < len(expected)]
    same = sum(1 for o in compared
               if o.ok and canonical_digest(o.info) == expected[o.index])
    return [(f"first {len(expected)} responses equal in-process reports",
             same == len(expected), f"{same}/{len(expected)}")]


def run_serve(ctx: Context, trace: bool) -> Result:
    """serve-open: open-loop Poisson requests against ``repro serve``."""
    sizes = ctx.sizes
    prep = ctx.child("prepare", "--seed", ctx.seed, "--train-images", sizes.train_images,
                     "--targets", sizes.serve_targets, "--model")
    expected = ctx.child("expect", "--count", sizes.serve_compare)["digests"]
    bodies = [b'{"image": ' + path.read_bytes() + b"}"
              for path in sorted((ctx.work / "targets").glob("*.json"))]
    checks = pin_checks(ctx, "ruleset_sha256", prep["ruleset_sha256"])
    if trace:
        return serve_trace(ctx, bodies, expected, checks)
    # Set-up: the whole life of a daemon that serves nothing (start-up,
    # the /readyz probes, shutdown), read once it has been reaped.
    setup: List[float] = []
    for _ in range(sizes.setup_reps):
        before = children_cpu_s()
        Daemon(ctx).stop()
        setup.append(children_cpu_s() - before)
    count = max(sizes.serve_min_requests, round(sizes.serve_rate * ctx.seconds))
    daemon = Daemon(ctx)
    try:
        outcomes, cpu = drive(ctx, daemon, bodies, count, "run")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    checks += serve_checks(outcomes, expected)
    failed = sum(1 for o in outcomes if not o.ok)
    metrics = {
        "setup_s": statistics.median(setup),
        "cpu_ms_per_op": ms(cpu / len(outcomes)),
        "peak_rss_mb": rss,
    }
    return Result(with_units(metrics, END_TO_END), len(outcomes), failed, checks)


def serve_trace(ctx: Context, bodies: List[bytes], expected: List[str],
                checks: List[Tuple[str, bool, str]]) -> Result:
    """An untraced reference step, then the same step on a traced daemon."""
    count = ctx.sizes.serve_trace_requests
    daemon = Daemon(ctx)
    try:
        reference, _ = drive(ctx, daemon, bodies, count, "ref")
    finally:
        daemon.stop()
    trace_out = ctx.work / "serve-trace.json"
    daemon = Daemon(ctx, trace_out=trace_out)
    try:
        outcomes, _ = drive(ctx, daemon, bodies, count, "trace")
    finally:
        daemon.stop()
    tables = json.loads(trace_out.read_text())
    checks = checks + serve_checks(outcomes, expected)
    ok = [o for o in outcomes if o.ok]
    rows = {row["id"]: row for row in tables["requests"]}
    joined = [(o, rows[f"trace-{ctx.seed}-{o.index}"]) for o in ok
              if f"trace-{ctx.seed}-{o.index}" in rows]
    checks.append(("every traced request has a server row",
                   len(joined) == len(ok), f"{len(joined)}/{len(ok)}"))
    columns: Dict[str, List[float]] = {name: [] for name in SERVE_ROWS}
    for o, row in joined:
        request = row["serve.request"]
        named = 0.0
        for name in SERVE_ROWS[1:-2]:
            value = row.get(f"serve.{name}", 0.0)
            columns[name].append(value)
            named += value
        columns["request"].append(request)
        # do_POST's own time is the part no serve row names.
        columns["other"].append(request - named)
        # What the client waited beyond do_POST: transport and TCP timers.
        columns["wire"].append(ms(o.done - o.sent) - request)
    wall_s = sum(columns["request"]) / 1000.0
    values = layer_metrics([tables], wall_s, sum(columns["other"]) / 1000.0,
                           trace_overhead(tables, tables["call_cost_s"], wall_s))
    for name, column in columns.items():
        values[f"serve.{name}.ms_p50"] = percentile(column, 0.5)
        values[f"serve.{name}.ms_p95"] = percentile(column, 0.95)
    # What a caller waits, from the untraced step: latency from due time.
    latencies = [ms(o.latency) for o in reference if o.ok]
    values["serve.client.latency_ms_p50"] = percentile(latencies, 0.5)
    values["serve.client.latency_ms_p95"] = percentile(latencies, 0.95)
    values["serve.client.late_ms_max"] = ms(max(o.late for o in outcomes))
    values["serve.requests.sent"] = float(len(outcomes))
    values["serve.requests.ok"] = float(len(ok))
    values["serve.requests.failed"] = float(len(outcomes) - len(ok))
    values["serve.requests.shed"] = float(sum(1 for o in outcomes if o.info == 429))
    failed = sum(1 for o in outcomes + reference if not o.ok)
    return Result(with_units(values, PER_LAYER), len(outcomes) + len(reference),
                  failed, checks)


def with_units(values: Dict[str, float],
               names: Sequence[Tuple[str, str]]) -> Dict[str, Tuple[float, str]]:
    return {name: (float(values[name]), unit) for name, unit in names}


RUNNERS: Dict[str, Callable[[Context, bool], Result]] = {
    "train-cold": lambda ctx, trace: run_train(ctx, trace, cached=False),
    "retrain-cached": lambda ctx, trace: run_train(ctx, trace, cached=True),
    "check-fleet": run_check,
    "serve-open": run_serve,
}


def run_one(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> Result:
    work_root = ROOT / ".bench_work"
    work = work_root / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return RUNNERS[workload](Context(work, seed, seconds, sizes), trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def report(workload: str, result: Result) -> str:
    for name, (value, unit) in result.metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    for name, ok, detail in result.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })


# -- stability tooling -------------------------------------------------------------


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def stability(args, workloads: Sequence[str]) -> int:
    bounds = {m["name"]: m for m in load_bench()["end_to_end"]}
    runs: Dict[str, Dict[str, List[float]]] = {}
    all_correct = True
    for workload in workloads:
        runs[workload] = {}
        for k in range(args.runs):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                    "--trace", "0", *(["--quick"] if args.quick else [])]
            try:
                proc = run_process(argv, 600, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
            except subprocess.TimeoutExpired:
                all_correct = False
                print(f"{workload} seed {args.seed + k}: timed out", file=sys.stderr)
                continue
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line) if line.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                all_correct = False
                print(f"{workload} seed {args.seed + k}: run failed\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                runs[workload].setdefault(name, []).append(metric["value"])
    print(f"{'workload':<15} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    steady = True
    for workload, metrics in runs.items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            median, q1, q3, rel = spread(values)
            bound = bounds[name]["bound"]
            ok = name == "setup_s" or rel <= bound / 3
            steady = steady and ok
            print(f"{workload:<15} {name:<16} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{rel:>7.3f} {bound:>6.2f}  {'ok' if ok else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seconds": args.seconds,
            "seeds": [args.seed + k for k in range(args.runs)],
            "runs": runs,
        }, indent=1) + "\n")
    return 0 if all_correct and steady else 1


# -- main --------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=0, metavar="N",
                        help="stability mode: N seeds per workload")
    parser.add_argument("--out", metavar="FILE", help="stability mode: write the runs")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the harness self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every started process and the
    # work directory are cleaned up on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.runs:
        return stability(args, workloads)
    sizes = QUICK if args.quick else FULL
    lines, correct = [], True
    for workload in workloads:
        try:
            result = run_one(workload, args.seed, args.seconds, bool(args.trace), sizes)
        except (RunError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        lines.append(report(workload, result))
        correct = correct and result.correct
    for line in lines:
        print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
