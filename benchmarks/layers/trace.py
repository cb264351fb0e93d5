"""Outside-in layer tracing: wrap public callables, account self time.

The benchmark never edits the program under test.  Instead it replaces
selected callables (methods, static/class methods, module functions)
with timing wrappers for the length of a traced run and puts the
original objects back afterwards.  Each wrapper pushes a frame on a
per-thread stack, so a layer's *self* time is its wall time minus the
time spent in wrapped callables it called: nested layers never count
twice, and the self times of one thread add up to the wall time of its
outermost wrapped call.

Per-pair callables such as ``RuleTemplate.validate`` are deliberately
not wrapped: millions of calls would distort the very numbers the trace
is meant to explain.

A *root* callable (the serve daemon's ``ServeHandler.do_POST``) also
collects one row per request: the inclusive duration of each wrapped
call made directly under it, keyed by the request's ``X-Request-Id``.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (owner "module:Class" or "module", attribute, layer) for the train and
#: check paths.  Layer names are the names of the modules that own them.
CORE_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.parsers.registry:ParserRegistry", "parse", "parsers"),
    ("repro.core.types:TypeInferencer", "infer", "core.types"),
    ("repro.core.types:TypeInferencer", "infer_syntactic_only", "core.types"),
    ("repro.core.types:TypeInferencer", "verify", "core.types"),
    ("repro.core.augment:Augmenter", "augment", "core.augment"),
    ("repro.core.augment:Augmenter", "environment_attributes", "core.augment"),
    ("repro.core.assembler:DataAssembler", "assemble", "core.assembler"),
    ("repro.engine.cache:ResultCache", "lookup", "engine.cache"),
    ("repro.engine.cache:ResultCache", "store", "engine.cache"),
    ("repro.engine.sharding:ShardedAssembler", "assemble", "engine.sharding"),
    ("repro.core.dataset:PartialDataset", "add", "core.dataset"),
    ("repro.core.dataset:PartialDataset", "finalize", "core.dataset"),
    ("repro.core.dataset:Dataset", "merge", "core.dataset"),
    ("repro.core.inference:RuleInferencer", "infer", "core.inference"),
    ("repro.core.detector:AnomalyDetector", "__init__", "core.pipeline.model_build"),
    ("repro.obs.model:DriftMonitor", "from_model", "core.pipeline.model_build"),
    ("repro.core.pipeline:EnCore", "load_model", "core.persistence"),
    ("repro.core.pipeline:EnCore", "load_model_data", "core.persistence"),
    ("repro.core.detector:AnomalyDetector", "detect", "core.detector"),
    ("repro.core.detector:AnomalyDetector", "check_entry_names",
     "core.detector.entry_names"),
    ("repro.core.detector:AnomalyDetector", "check_correlations",
     "core.detector.correlations"),
    ("repro.core.detector:AnomalyDetector", "check_types", "core.detector.types"),
    ("repro.core.detector:AnomalyDetector", "check_suspicious_values",
     "core.detector.suspicious"),
    ("repro.core.detector:AnomalyDetector", "rank", "core.detector.rank"),
    ("repro.obs.model:DriftMonitor", "observe", "obs.drift"),
    ("repro.core.report:Report", "to_dict", "core.report.encode"),
)

#: The serve daemon's request path.  ``Report.to_dict`` is the response
#: encode there, so it moves from ``core.report.encode`` to ``serve.encode``.
SERVE_ROOT = "serve.request"
SERVE_LAYERS: Tuple[Tuple[str, str, str], ...] = tuple(
    spec for spec in CORE_LAYERS if spec[2] != "core.report.encode"
) + (
    ("repro.serve.handlers:ServeHandler", "do_POST", SERVE_ROOT),
    ("repro.serve.handlers:ServeHandler", "_read_body", "serve.decode"),
    ("repro.serve.handlers", "image_from_dict", "serve.decode"),
    ("repro.serve.admission:AdmissionController", "try_acquire", "serve.admission"),
    ("repro.serve.admission:AdmissionController", "release", "serve.admission"),
    ("repro.serve.server:ModelPool", "acquire", "serve.lease"),
    ("repro.serve.server:ModelPool", "release", "serve.lease"),
    ("repro.core.pipeline:EnCore", "check", "serve.check"),
    ("repro.core.report:Report", "to_dict", "serve.encode"),
    ("repro.serve.handlers:ServeHandler", "_send_json", "serve.encode"),
    ("repro.serve.server:DetectionServer", "record_request_entry", "serve.ledger"),
    ("repro.serve.server:DetectionServer", "fold_request_metrics", "serve.telemetry"),
    ("repro.obs.tracing:TraceExemplars", "offer", "serve.telemetry"),
)

#: Counters read off a wrapped call's result: layer → function of the
#: result returning ``{counter: increment}``.
RESULT_COUNTERS: Dict[str, Callable[[object], Dict[str, float]]] = {
    "engine.cache": lambda result: {"hits": float(result is not None)},
    "core.inference": lambda result: {
        "pairs": float(result.candidate_pairs),
        "rules_kept": float(len(result.rules)),
    },
    "core.detector": lambda result: {"warnings": float(len(result))},
}


def resolve(owner: str) -> object:
    """The class or module an owner spec names."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class LayerTracer:
    """Self-time accounting over wrapped callables, across threads.

    Each thread accumulates into its own state, so the per-call path
    takes no lock; :meth:`snapshot` folds the threads together and is
    meant to be called once the traced work has finished.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Per-thread ``[seconds in wrapped children, request rows,
        #: {layer: [calls, self seconds]}]``; rows is a dict only while a
        #: root call runs directly above.
        self._states: List[list] = []
        self._counters: Dict[str, float] = defaultdict(float)
        #: One dict per finished root call: ``id``, the root's own ms under
        #: its layer name, and the inclusive ms of each layer called
        #: directly under the root.
        self._requests: List[Dict[str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self, specs: Sequence[Tuple[str, str, str]],
                root_layer: Optional[str] = None) -> "LayerTracer":
        for owner_spec, name, layer in specs:
            self.wrap(resolve(owner_spec), name, layer,
                      counters=RESULT_COUNTERS.get(layer),
                      root=layer == root_layer)
        return self

    def wrap(self, owner: object, name: str, layer: str,
             counters: Optional[Callable[[object], Dict[str, float]]] = None,
             root: bool = False) -> None:
        """Replace ``owner.name`` with a timing wrapper (kept for restore)."""
        if name not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {name!r} itself")
        raw = vars(owner)[name]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if kind is not None else raw
        wrapper = self._wrapper(func, layer, counters, root)
        setattr(owner, name, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, name, raw))

    def restore(self) -> None:
        """Put every original attribute object back, newest first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- accounting --------------------------------------------------------------

    def _new_state(self) -> list:
        state = self._local.state = [0.0, None, {}]
        with self._lock:
            self._states.append(state)
        return state

    def _wrapper(self, func, layer, counters, root):
        clock = self._clock
        local = self._local
        tracer = self

        # The hot path: every wrapped call of the traced run goes through
        # here, so it touches one thread-local and no lock.
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._new_state()
            outer_children, outer_rows = state[0], state[1]
            state[0] = 0.0
            state[1] = {} if root else None
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children, rows = state[0], state[1]
                state[0] = outer_children + elapsed
                state[1] = outer_rows
                if outer_rows is not None:
                    outer_rows[layer] = outer_rows.get(layer, 0.0) + elapsed
                totals = state[2].get(layer)
                if totals is None:
                    totals = state[2][layer] = [0, 0.0]
                totals[0] += 1
                totals[1] += elapsed - children
                if root:
                    tracer._finish_request(layer, args, elapsed, rows)
            if counters is not None:
                increments = counters(result)
                with tracer._lock:
                    for key, value in increments.items():
                        tracer._counters[f"{layer}.{key}"] += value
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        traced.__qualname__ = getattr(func, "__qualname__", traced.__name__)
        traced.__doc__ = func.__doc__
        return traced

    def call_cost_s(self, calls: int = 100_000, repeats: int = 5) -> float:
        """Seconds one wrapped call adds to a plain call, best of *repeats*.

        Timed on a method called with two positional arguments, like the
        hot wrapped calls (``TypeInferencer.infer(value, image)``), in the
        calling process, so it prices the wrapper at the machine's speed
        of the moment.  Plain and wrapped loops run back to back, which
        keeps a drift in machine speed out of their difference.
        """

        class Probe:
            def call(self, a, b):
                return a

        probe = Probe()

        def best() -> float:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    probe.call(1, 2)
                times.append(time.perf_counter() - start)
            return min(times)

        plain = best()
        cost_tracer = LayerTracer(self._clock)
        cost_tracer.wrap(Probe, "call", "probe")
        try:
            wrapped = best()
        finally:
            cost_tracer.restore()
        return max(wrapped - plain, 0.0) / calls

    def _finish_request(self, layer, args, elapsed, rows) -> None:
        # ``args[0]`` is the request handler; its headers carry the id.
        headers = getattr(args[0], "headers", None) if args else None
        request_id = headers.get("X-Request-Id", "") if headers is not None else ""
        row: Dict[str, object] = {"id": request_id, layer: elapsed * 1000.0}
        for child, seconds in rows.items():
            row[child] = seconds * 1000.0
        with self._lock:
            self._requests.append(row)

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data copy of every table (JSON-ready), threads folded."""
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        with self._lock:
            for state in self._states:
                for layer, (count, seconds) in state[2].items():
                    calls[layer] += count
                    self_s[layer] += seconds
            return {
                "calls": dict(calls),
                "self_s": dict(self_s),
                "counters": dict(self._counters),
                "requests": [dict(r) for r in self._requests],
            }
