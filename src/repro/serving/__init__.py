"""Planning-as-a-service: the multi-tenant optimizer serving layer.

The paper argues query and resource optimization belong together
*inside the shared cloud*, where the optimizer is a long-lived service
fielding concurrent requests from many tenants -- not a library call.
This package is that serving layer over the reproduction's
:class:`~repro.api.RaqoSession`:

- :mod:`repro.serving.service` -- the :class:`OptimizerService`
  frontend: bounded admission queue with a typed :class:`Overloaded`
  backpressure error, worker pool over planner clones, request
  batching with single-flight coalescing, deterministic tracing.
- :mod:`repro.serving.cache` -- the :class:`ShardedPlanCache`:
  lock-striped, cross-tenant, LRU-evicting, with exactly reconciling
  hit/miss/insert/eviction counters on the session's telemetry plane.
- :mod:`repro.serving.replay` -- deterministic Poisson/bursty traffic
  traces and the :func:`replay` harness reporting QPS and p50/p95/p99
  planning latency (the ``BENCH_serving.json`` numbers).

See ``docs/serving.md`` for the architecture and the determinism
guarantee.
"""

from repro.serving.cache import ShardedPlanCache
from repro.serving.replay import (
    ARRIVAL_KINDS,
    ReplayConfig,
    ReplayReport,
    build_requests,
    replay,
)
from repro.serving.service import (
    OptimizerService,
    Overloaded,
    PlanRequest,
    PlanResponse,
    ServiceConfig,
)

__all__ = [
    "ARRIVAL_KINDS",
    "OptimizerService",
    "Overloaded",
    "PlanRequest",
    "PlanResponse",
    "ReplayConfig",
    "ReplayReport",
    "ServiceConfig",
    "ShardedPlanCache",
    "build_requests",
    "replay",
]
