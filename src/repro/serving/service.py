"""The multi-tenant optimizer service: planning-as-a-service.

The paper's setting is a shared cloud where the optimizer is a
long-lived *service* fielding concurrent planning requests, not a
library call.  :class:`OptimizerService` wraps one
:class:`~repro.api.RaqoSession` behind a bounded admission queue and a
pool of worker threads, each planning on its own
:meth:`~repro.core.raqo.RaqoPlanner.clone` (no shared mutable planner
state), with three serving-grade behaviours layered on top:

- **Request batching.**  Workers drain up to ``max_batch`` queued
  requests at once and coalesce duplicates, so a burst of identical
  requests costs one optimizer run; each planned query then flows
  through the lattice-batched ``RaqoCoster.cost_batch`` kernel (the
  service refuses planners with batched costing disabled only in
  spirit -- it simply inherits the session's planner configuration,
  whose default *is* batched).
- **Sharded cross-tenant caching.**  Finished plans land in a
  :class:`~repro.serving.cache.ShardedPlanCache`; repeats -- from any
  tenant -- are served without planning.  A single-flight registry
  guarantees each cache key is planned at most once per residency, even
  when many workers miss simultaneously.
- **Admission control and backpressure.**  The queue is bounded;
  :meth:`submit` on a full queue raises a typed :class:`Overloaded`
  synchronously, and the rejected request is never partially planned.
  ``max_inflight`` independently caps concurrent optimizer runs.

Determinism: with the cache warm-path sized so nothing is evicted (and
no requests rejected), a given seed and request trace produce identical
plans and a byte-identical canonical span tree at any worker count --
request spans are keyed by request id and plan spans by cache key, both
parented explicitly on the service root span, exactly the discipline
:mod:`repro.workloads.runner` uses for parallel workloads.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from queue import Empty, Full, Queue
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.catalog.queries import Query
from repro.core.pareto import PlanObjective
from repro.core.raqo import RaqoPlanner
from repro.obs.slo import SloPolicy, SloTracker
from repro.obs.telemetry import TelemetryPlane
from repro.obs.tracing import SpanHandle, Tracer
from repro.obs.windows import WindowedCounter, WindowedHistogram
from repro.planner.cost_interface import PlanningResult
from repro.serving.cache import ShardedPlanCache

if TYPE_CHECKING:
    from repro.api import QueryLike, RaqoSession

__all__ = [
    "OptimizerService",
    "Overloaded",
    "PlanRequest",
    "PlanResponse",
    "ServiceConfig",
]


class Overloaded(RuntimeError):
    """Typed backpressure signal: the admission queue is full.

    Raised synchronously by :meth:`OptimizerService.submit`; the
    rejected request was never admitted, so no planning work -- partial
    or otherwise -- happens on its behalf.
    """

    def __init__(self, queue_depth: int, max_queue: int) -> None:
        super().__init__(
            f"optimizer service overloaded: admission queue at "
            f"{queue_depth}/{max_queue}"
        )
        self.queue_depth = queue_depth
        self.max_queue = max_queue


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`OptimizerService`.

    ``max_inflight`` of 0 means "same as ``workers``" (the pool itself
    is then the only concurrency bound).
    """

    workers: int = 2
    max_queue: int = 128
    max_inflight: int = 0
    max_batch: int = 8
    cache_enabled: bool = True
    cache_shards: int = 8
    cache_shard_capacity: int = 64
    label: str = "serving"
    #: Plan for this :class:`~repro.core.pareto.PlanObjective` instead
    #: of the session's.  The objective is part of the cache-key
    #: fingerprint, so services (tenants) with different objectives
    #: never share a cached plan.
    objective: Optional[PlanObjective] = None
    #: Per-tenant latency SLO to track (burn-rate alerts land in the
    #: session's event log); ``None`` disables SLO accounting.
    slo: Optional[SloPolicy] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}"
            )
        if self.max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )

    @property
    def effective_max_inflight(self) -> int:
        """The concurrent-planning cap actually enforced."""
        return self.max_inflight or self.workers


@dataclass(frozen=True)
class PlanRequest:
    """One tenant's planning request.

    ``arrival_s`` is the request's position on the trace timeline (used
    by the replay harness for pacing); it does not affect planning.
    """

    request_id: int
    query: "QueryLike"
    tenant: str = "default"
    arrival_s: float = 0.0


@dataclass(frozen=True)
class PlanResponse:
    """The service's answer: the plan plus serving metadata."""

    request: PlanRequest
    result: PlanningResult
    #: True when the plan came out of the cross-tenant cache.
    cache_hit: bool
    #: True when this request piggybacked on another request's
    #: optimizer run (batch dedup or single-flight coalescing).
    coalesced: bool
    #: Size of the drained batch this request was served from.
    batch_size: int
    #: Wall-clock time from admission to response.
    latency_ms: float
    #: Wall-clock time spent queued before a worker picked it up.
    queue_ms: float


@dataclass
class _Ticket:
    """A queued request plus its completion future and timestamps."""

    request: PlanRequest
    query: Query
    key: str
    future: "Future[PlanResponse]"
    enqueued_at: float
    dequeued_at: float = 0.0
    batch_size: int = 0
    coalesced: bool = False


@dataclass
class _Inflight:
    """Single-flight registry entry: the owner plans, waiters attach."""

    waiters: List[_Ticket] = field(default_factory=list)


class _TenantSeries:
    """One tenant's ``serving.tenant.*`` instruments, held by a service.

    Each series is registered on the plane on its first use for the
    tenant -- a tenant that never hits the cache exports no
    ``cache_hits`` series -- and read from here after that, so serving
    a request makes no plane lookups.  Threads resolving one series at
    once all get the same instrument: the plane's get-or-create locks.
    """

    __slots__ = ("_telemetry", "_labels", "_counters", "_latency_ms")

    def __init__(self, telemetry: TelemetryPlane, tenant: str) -> None:
        self._telemetry = telemetry
        self._labels = [("tenant", tenant)]
        self._counters: Dict[str, WindowedCounter] = {}
        self._latency_ms: Optional[WindowedHistogram] = None

    def counter(self, name: str) -> WindowedCounter:
        """The tenant's ``serving.tenant.<name>`` counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._telemetry.windowed_counter(
                f"serving.tenant.{name}", self._labels
            )
            self._counters[name] = counter
        return counter

    def latency_ms(self) -> WindowedHistogram:
        """The tenant's ``serving.tenant.latency_ms`` histogram."""
        if self._latency_ms is None:
            self._latency_ms = self._telemetry.windowed_histogram(
                "serving.tenant.latency_ms", self._labels
            )
        return self._latency_ms


#: Worker shutdown sentinel (one per worker, enqueued by ``stop``).
_SENTINEL: object = object()


class OptimizerService:
    """A long-lived, concurrent planning frontend over one session.

    Construction registers the service's and the cache's series on the
    session's :class:`~repro.obs.telemetry.TelemetryPlane`; requests may be
    submitted before :meth:`start` (they queue up -- and overflow the
    admission bound -- exactly as they would against a stalled worker
    pool), but nothing is planned until the workers run.  Use as a
    context manager for start/stop symmetry::

        service = session.serve(workers=4)
        with service:
            response = service.plan("Q3", tenant="analytics")
    """

    def __init__(
        self,
        session: "RaqoSession",
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.session = session
        self.config = config if config is not None else ServiceConfig()
        #: The session's telemetry plane: the service lands its
        #: counters and latency histograms, per-tenant series,
        #: admission/rejection/coalesce events, and SLO burn alerts on
        #: it.
        self.telemetry = session.telemetry
        counter = self.telemetry.windowed_counter
        histogram = self.telemetry.windowed_histogram
        self._admitted = counter("serving.admitted")
        self._rejected = counter("serving.rejected")
        self._completed = counter("serving.completed")
        self._errors = counter("serving.errors")
        self._coalesced = counter("serving.coalesced")
        self._latency_ms = histogram("serving.latency_ms")
        self._queue_ms = histogram("serving.queue_ms")
        self._batch_size = histogram("serving.batch_size")
        self.slo: Optional[SloTracker] = (
            self.telemetry.slo_tracker(self.config.slo)
            if self.config.slo is not None
            else None
        )
        self.cache: Optional[ShardedPlanCache] = (
            ShardedPlanCache(
                shards=self.config.cache_shards,
                shard_capacity=self.config.cache_shard_capacity,
                telemetry=self.telemetry,
            )
            if self.config.cache_enabled
            else None
        )
        self._queue: "Queue[object]" = Queue(
            maxsize=self.config.max_queue
        )
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantSeries] = {}
        #: ``cache_key`` memo, bounded by the plan cache's capacity: a
        #: query that fell out of the cache may also cost one more
        #: fingerprint.  Read without the lock, filled under it.
        self._keys: Dict[Query, str] = {}
        self._keys_bound = (
            self.config.cache_shards * self.config.cache_shard_capacity
        )
        self._inflight: Dict[str, _Inflight] = {}
        self._plan_epochs: Dict[str, int] = {}
        self._planning_now = 0
        self._planning_high_water = 0
        self._inflight_sem = threading.Semaphore(
            self.config.effective_max_inflight
        )
        self._request_ids = itertools.count()
        self._threads: List[threading.Thread] = []
        self._started = False
        self._stopped = False
        self._root_span: Optional[SpanHandle] = None
        #: Workers plan on clones of this template -- the session
        #: planner, re-targeted when the service declares its own
        #: objective.
        self._planner_template: RaqoPlanner = (
            session.planner
            if self.config.objective is None
            else session.planner.with_objective(self.config.objective)
        )
        self._config_fingerprint = self._fingerprint()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "OptimizerService":
        """Spin up the worker pool (idempotent until :meth:`stop`)."""
        if self._stopped:
            raise RuntimeError("service already stopped")
        if self._started:
            return self
        self._started = True
        tracer = self._tracer
        if tracer.active:
            self._root_span = tracer.span(
                "serving", kind="planner", key=self.config.label
            )
            self._root_span.__enter__()
            # Pool sizing is a deployment knob, not part of the
            # deterministic trace: wall_-prefixed attributes show up in
            # Chrome traces but not in the canonical span tree, which
            # must be byte-identical across worker counts.
            self._root_span.set_attributes(
                {
                    "label": self.config.label,
                    "cache_enabled": self.config.cache_enabled,
                    "wall_workers": self.config.workers,
                    "wall_max_inflight": (
                        self.config.effective_max_inflight
                    ),
                }
            )
        for index in range(self.config.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"raqo-serving-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Drain queued requests, stop the workers, close the trace."""
        with self._lock:
            # Same lock as submit(): once ``_stopped`` is visible here,
            # no new ticket can enter the queue, so everything below
            # the sentinels is already enqueued.
            if self._stopped:
                return
            self._stopped = True
        if self._started:
            for _ in self._threads:
                # Sentinels land behind every queued request (FIFO), so
                # the pool drains the backlog before shutting down.
                self._queue.put(_SENTINEL)
            for thread in self._threads:
                thread.join()
        else:
            # Never started: no pool will ever drain the backlog, so
            # fail every queued ticket's future instead of leaving its
            # caller blocked forever.
            while True:
                try:
                    item = self._queue.get_nowait()
                except Empty:
                    break
                assert isinstance(item, _Ticket)
                item.future.set_exception(
                    RuntimeError(
                        "optimizer service stopped before start"
                    )
                )
        if self._root_span is not None:
            # Rejection counts depend on wall-clock queue pressure, so
            # they also stay out of the canonical tree.
            self._root_span.set_attributes(
                {
                    "wall_completed": self._completed.total,
                    "wall_rejected": self._rejected.total,
                }
            )
            self._root_span.__exit__(None, None, None)
            self._root_span = None

    def __enter__(self) -> "OptimizerService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- submission --------------------------------------------------------

    def submit(self, request: PlanRequest) -> "Future[PlanResponse]":
        """Admit one request; returns its completion future.

        Raises :class:`Overloaded` synchronously when the admission
        queue is full -- backpressure, not buffering -- and ``KeyError``
        for unknown query names (also before admission, so malformed
        requests never consume queue space).
        """
        query = self.session.resolve_query(request.query)
        ticket = _Ticket(
            request=request,
            query=query,
            key=self.cache_key(query),
            future=Future(),
            enqueued_at=time.perf_counter(),
        )
        # The stopped check and the enqueue are one atomic step:
        # stop() flips ``_stopped`` under the same lock before it
        # enqueues the shutdown sentinels, so a ticket can never land
        # behind the sentinels (where no worker would ever complete
        # its future and the caller would hang).
        with self._lock:
            if self._stopped:
                raise RuntimeError("service already stopped")
            try:
                self._queue.put_nowait(ticket)
            except Full:
                now = self.telemetry.wall_now()
                self._rejected.inc(ts_s=now)
                self._tenant(request.tenant).counter("rejected").inc(
                    ts_s=now
                )
                self.telemetry.events.emit(
                    "rejection",
                    now,
                    tenant=request.tenant,
                    attributes={
                        "request_id": request.request_id,
                        "queue_depth": self._queue.qsize(),
                        "max_queue": self.config.max_queue,
                    },
                )
                raise Overloaded(
                    queue_depth=self._queue.qsize(),
                    max_queue=self.config.max_queue,
                ) from None
        now = self.telemetry.wall_at(ticket.enqueued_at)
        self._admitted.inc(ts_s=now)
        self._tenant(request.tenant).counter("admitted").inc(ts_s=now)
        self.telemetry.events.emit(
            "admission",
            now,
            tenant=request.tenant,
            attributes={"request_id": request.request_id},
        )
        return ticket.future

    def plan(
        self, query: "QueryLike", tenant: str = "default"
    ) -> PlanResponse:
        """Blocking convenience wrapper: submit one request, wait."""
        request = PlanRequest(
            request_id=next(self._request_ids),
            query=query,
            tenant=tenant,
        )
        return self.submit(request).result()

    async def plan_async(self, request: PlanRequest) -> PlanResponse:
        """The asyncio frontend: await one request's response."""
        return await asyncio.wrap_future(self.submit(request))

    # -- observability -----------------------------------------------------

    @property
    def planning_high_water(self) -> int:
        """Peak concurrent optimizer runs observed so far."""
        with self._lock:
            return self._planning_high_water

    def exposition(self) -> str:
        """The session's current Prometheus text exposition.

        What a scrape of ``repro serve --metrics-addr`` returns: every
        series on the session's telemetry plane, per-tenant SLO burn
        rates, and drift state.
        """
        return self.session.exposition()

    def cache_key(self, query: Query) -> str:
        """The cross-tenant cache key: query structure + planner config.

        The key binds the query's *structure* (tables and scan filters,
        via a stable content hash), not just its name: names collide
        easily across tenants -- every generated workload calls its
        queries ``q000..qNNN`` -- and a name-only key would silently
        serve one tenant's plan for another tenant's different query.

        Deliberately excludes the tenant -- a plan depends on what is
        asked and how the session plans, never on who asks; that is what
        makes the cache *cross*-tenant.

        Memoized per query: equal queries share one entry, and the memo
        holds at most as many keys as the plan cache holds plans,
        dropping its oldest first.
        """
        key = self._keys.get(query)
        if key is not None:
            return key
        with self._lock:
            key = self._keys.get(query)
            if key is None:
                key = (
                    f"{query.name}"
                    f"|{self._query_fingerprint(query)}"
                    f"|{self._config_fingerprint}"
                )
                if len(self._keys) >= self._keys_bound:
                    del self._keys[next(iter(self._keys))]
                self._keys[query] = key
        return key

    @staticmethod
    def _query_fingerprint(query: Query) -> str:
        """A stable hash of what the optimizer actually sees.

        ``Query`` normalizes its filters (sorted tuple) at construction,
        so structurally equal queries fingerprint identically; blake2s
        (unlike salted ``hash()``) is stable across processes, keeping
        cache keys -- and the span paths derived from them -- a pure
        function of the trace.
        """
        payload = repr((query.tables, query.filters)).encode("utf-8")
        return hashlib.blake2s(payload, digest_size=8).hexdigest()

    def _fingerprint(self) -> str:
        planner = self._planner_template
        cluster = planner.cluster
        return (
            f"{planner.query_planner.__class__.__name__}"
            f"|{planner.resource_aware:d}"
            f"|{cluster.max_containers}x{cluster.max_container_gb}"
            f"|{planner.objective.fingerprint()}"
        )

    @property
    def _tracer(self) -> Tracer:
        return self.session.tracer

    def _tenant(self, tenant: str) -> _TenantSeries:
        series = self._tenants.get(tenant)
        if series is None:
            series = self._tenants.setdefault(
                tenant, _TenantSeries(self.telemetry, tenant)
            )
        return series

    # -- the worker pool ---------------------------------------------------

    def _worker_loop(self) -> None:
        planner = self._planner_template.clone()
        while True:
            head = self._queue.get()
            if head is _SENTINEL:
                return
            assert isinstance(head, _Ticket)
            batch = [head]
            while len(batch) < self.config.max_batch:
                try:
                    item = self._queue.get_nowait()
                except Empty:
                    break
                if item is _SENTINEL:
                    # Not ours to consume mid-batch: hand the shutdown
                    # signal back for whichever worker drains next.
                    self._queue.put(item)
                    break
                assert isinstance(item, _Ticket)
                batch.append(item)
            self._handle_batch(planner, batch)

    def _handle_batch(
        self, planner: RaqoPlanner, batch: List[_Ticket]
    ) -> None:
        """Serve one drained batch: dedup by key, then plan or hit."""
        now = time.perf_counter()
        for ticket in batch:
            ticket.dequeued_at = now
            ticket.batch_size = len(batch)
        self._batch_size.observe(
            float(len(batch)), ts_s=self.telemetry.wall_at(now)
        )
        groups: "OrderedDict[str, List[_Ticket]]" = OrderedDict()
        for ticket in batch:
            groups.setdefault(ticket.key, []).append(ticket)
        for key, tickets in groups.items():
            # Within-batch duplicates ride the first ticket's run.
            extras = tickets[1:]
            for extra in extras:
                extra.coalesced = True
            if extras:
                self._coalesced.inc(
                    len(extras), ts_s=self.telemetry.wall_now()
                )
                self._emit_coalesce(key, extras, kind="batch")
            self._serve_group(planner, key, tickets)

    def _emit_coalesce(
        self, key: str, tickets: Sequence[_Ticket], kind: str
    ) -> None:
        """One ``coalesce`` event per piggybacked group of requests."""
        self.telemetry.events.emit(
            "coalesce",
            self.telemetry.wall_now(),
            tenant=tickets[0].request.tenant,
            attributes={
                "cache_key": key,
                "kind": kind,
                "count": len(tickets),
            },
        )

    def _serve_group(
        self, planner: RaqoPlanner, key: str, tickets: List[_Ticket]
    ) -> None:
        cached = (
            self.cache.lookup(key) if self.cache is not None else None
        )
        if cached is not None:
            assert isinstance(cached, PlanningResult)
            self._respond(tickets, cached, cache_hit=True)
            return
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                # Another worker is already planning this key: attach.
                # Count only tickets not already counted as within-batch
                # duplicates, so ``serving.coalesced`` equals exactly
                # the number of responses with ``coalesced=True``.
                newly = [
                    ticket for ticket in tickets if not ticket.coalesced
                ]
                for ticket in tickets:
                    ticket.coalesced = True
                entry.waiters.extend(tickets)
                if newly:
                    self._coalesced.inc(
                        len(newly), ts_s=self.telemetry.wall_now()
                    )
                    self._emit_coalesce(key, newly, kind="inflight")
                return
            # Double-check under the lock: the owner that just finished
            # inserts into the cache *before* deregistering, so a miss
            # recorded above may already be serveable here.  peek() keeps
            # the hit/miss accounting at exactly one count per lookup.
            late = (
                self.cache.peek(key) if self.cache is not None else None
            )
            if late is not None:
                assert isinstance(late, PlanningResult)
                self._respond(tickets, late, cache_hit=True)
                return
            self._inflight[key] = _Inflight(waiters=list(tickets))
        self._plan_key(planner, key, tickets[0])

    def _plan_key(
        self, planner: RaqoPlanner, key: str, ticket: _Ticket
    ) -> None:
        """Run the optimizer once for ``key`` and fan the result out."""
        with self._inflight_sem:
            with self._lock:
                self._planning_now += 1
                self._planning_high_water = max(
                    self._planning_high_water, self._planning_now
                )
                epoch = self._plan_epochs.get(key, 0)
                self._plan_epochs[key] = epoch + 1
            try:
                result = self._optimize(planner, key, epoch, ticket)
            except BaseException as exc:
                with self._lock:
                    self._planning_now -= 1
                    entry = self._inflight.pop(key)
                for waiter in entry.waiters:
                    waiter.future.set_exception(exc)
                self._errors.inc(
                    len(entry.waiters), ts_s=self.telemetry.wall_now()
                )
                return
            with self._lock:
                self._planning_now -= 1
        if self.cache is not None:
            # Insert before deregistering: between the two, late misses
            # either see the cache entry or the in-flight entry, so a
            # key is never planned twice while it stays resident.
            self.cache.insert(key, result)
        with self._lock:
            entry = self._inflight.pop(key)
        self.session._record_planning(result)
        self._respond(entry.waiters, result, cache_hit=False)

    def _optimize(
        self, planner: RaqoPlanner, key: str, epoch: int, ticket: _Ticket
    ) -> PlanningResult:
        """One traced optimizer run, keyed deterministically.

        The span path depends on the cache key and its planning epoch
        (0 unless the key was evicted and re-planned), never on which
        worker ran it, so same-trace runs at different worker counts
        serialize to byte-identical canonical span trees.
        """
        tracer = self._tracer
        if not tracer.active:
            return planner.optimize(ticket.query)
        with tracer.span(
            "plan_once",
            kind="planner",
            parent=self._root_span,
            key=f"{key}#{epoch}",
        ) as span:
            span.set_attributes(
                {"cache_key": key, "query": ticket.query.name}
            )
            return planner.optimize(ticket.query)

    def _respond(
        self,
        tickets: Sequence[_Ticket],
        result: PlanningResult,
        *,
        cache_hit: bool,
    ) -> None:
        done = time.perf_counter()
        now = self.telemetry.wall_at(done)
        tracer = self._tracer
        for ticket in tickets:
            latency_ms = (done - ticket.enqueued_at) * 1000.0
            queue_ms = (
                (ticket.dequeued_at - ticket.enqueued_at) * 1000.0
                if ticket.dequeued_at
                else 0.0
            )
            if tracer.active:
                self._emit_request_span(
                    ticket, cache_hit, latency_ms, queue_ms
                )
            self._latency_ms.observe(latency_ms, ts_s=now)
            self._queue_ms.observe(queue_ms, ts_s=now)
            self._completed.inc(ts_s=now)
            tenant = ticket.request.tenant
            series = self._tenant(tenant)
            series.latency_ms().observe(latency_ms, ts_s=now)
            series.counter("completed").inc(ts_s=now)
            if cache_hit:
                series.counter("cache_hits").inc(ts_s=now)
            if self.slo is not None:
                self.slo.record(tenant, latency_ms, ts_s=now)
            ticket.future.set_result(
                PlanResponse(
                    request=ticket.request,
                    result=result,
                    cache_hit=cache_hit,
                    coalesced=ticket.coalesced,
                    batch_size=ticket.batch_size,
                    latency_ms=latency_ms,
                    queue_ms=queue_ms,
                )
            )

    def _emit_request_span(
        self,
        ticket: _Ticket,
        cache_hit: bool,
        latency_ms: float,
        queue_ms: float,
    ) -> None:
        """One span per served request, keyed by request id.

        Scheduling-dependent facts (hit vs coalesced, latency, batch
        size) ride on ``wall_``-prefixed attributes, which the canonical
        span tree excludes -- the tree stays identical across worker
        counts while the Chrome trace still shows the full story.
        """
        with self._tracer.span(
            "request",
            kind="planner",
            parent=self._root_span,
            key=str(ticket.request.request_id),
        ) as span:
            span.set_attributes(
                {
                    "request_id": ticket.request.request_id,
                    "tenant": ticket.request.tenant,
                    "query": ticket.query.name,
                    "wall_cache_hit": cache_hit,
                    "wall_coalesced": ticket.coalesced,
                    "wall_batch_size": ticket.batch_size,
                    "wall_latency_ms": latency_ms,
                    "wall_queue_ms": queue_ms,
                }
            )
