"""``repro serve``: the always-on, observable detection service.

The paper separates learning from checking so "the learned rules can be
reused to check different systems" (§3); this package is the reuse made
operational — a daemon that loads one model snapshot and answers
check / explain / suggest requests over HTTP, with request tracing, SLO
metrics, admission control and hot model reload.  See
``docs/serving.md`` for the API and the operational runbook.

Layout:

* :mod:`repro.serve.server`    — :class:`DetectionServer` (the threaded
  HTTP server), :class:`ModelPool` (one shared EnCore per model generation),
  :class:`ServeConfig`;
* :mod:`repro.serve.handlers`  — :class:`ServeHandler` (routing, trace
  ids, per-request metric capture, the access log);
* :mod:`repro.serve.admission` — :class:`AdmissionController` (bounded
  in-flight + queue, 429 shedding);
* :mod:`repro.serve.reload`    — :class:`SnapshotWatcher` (SIGHUP /
  mtime-poll hot reload).
"""

from repro.serve.admission import AdmissionController
from repro.serve.reload import SnapshotWatcher, snapshot_mtime
from repro.serve.server import (
    ApiError,
    DetectionServer,
    ModelPool,
    POST_ROUTES,
    SERVE_LATENCY_BUCKETS,
    ServeConfig,
    new_request_id,
)

__all__ = [
    "AdmissionController",
    "ApiError",
    "DetectionServer",
    "ModelPool",
    "POST_ROUTES",
    "SERVE_LATENCY_BUCKETS",
    "ServeConfig",
    "SnapshotWatcher",
    "new_request_id",
    "snapshot_mtime",
]
