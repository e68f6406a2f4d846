"""Deterministic discrete-event query serving over a :class:`ShardManager`.

:class:`QueryService` models one serving node on the simulated clock:
requests arrive (open loop from a :class:`~repro.serving.driver.WorkloadDriver`,
or interactively via :meth:`submit`), pass per-tenant token-bucket
admission, wait in a bounded queue, and are dispatched deadline-first in
batches that ride one amortized PIM wave per shard. Time comes entirely
from the simulator — NVSim wave latency plus Quartz CPU time — so two
runs of the same request trace produce bit-identical responses.

Backpressure policies when the queue is full:

* ``reject``      — shed the arriving request;
* ``drop_oldest`` — shed the oldest queued request, admit the new one;
* ``degrade``     — admit the request flagged for approximate service
  (lower-bound scores only, no exact refinement), trading accuracy for
  a much cheaper dispatch instead of shedding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultError, ServingError, WatchdogTimeoutError
from repro.serving.sharding import KNNAnswer, ShardManager
from repro.serving.slo import SLOTracker
from repro.telemetry import get_recorder

QUEUE_POLICIES = ("reject", "drop_oldest", "degrade")

REQUEST_KINDS = ("knn", "assign")


@dataclass(frozen=True)
class TenantSpec:
    """Admission/SLO contract of one tenant.

    ``rate_qps``/``burst`` parameterize the token bucket (``None`` rate
    admits everything); ``deadline_ns`` is the relative per-request
    deadline stamped at arrival when the request carries none;
    ``workload`` names the :mod:`repro.data.workloads` query class the
    driver draws for this tenant.
    """

    name: str
    rate_qps: float | None = None
    burst: int = 8
    deadline_ns: float | None = None
    workload: str = "near"
    k: int = 10
    weight: float = 1.0


@dataclass
class Request:
    """One query in flight through the service."""

    request_id: str
    tenant: str
    query: np.ndarray
    k: int = 10
    kind: str = "knn"
    arrival_ns: float = 0.0
    deadline_ns: float | None = None
    degraded: bool = False
    admit_seq: int = -1
    #: Trace identity minted at admission when telemetry is enabled.
    ctx: object | None = None


#: Critical-path segments in causal order; they partition a request's
#: arrival-to-completion latency (sums match ``latency_ns`` to float
#: rounding, well inside 1 simulated ns).
SEGMENT_ORDER = (
    "queue_ns",        # admitted, waiting for EDF dispatch
    "coscheduled_ns",  # batch service time spent before this request's
                       # own dispatch (assists behind the knn wave)
    "retry_ns",        # failed attempts/backoff/shard queueing before
                       # the tail wave fired
    "wave_ns",         # the tail shard's PIM wave (incl. ADC readout)
    "host_ns",         # the tail shard's host-side candidate work
    "degraded_ns",     # host recompute of replica-less chunks
    "gather_ns",       # coordinator merge
)


@dataclass
class Response:
    """Terminal record of one request: an answer or a shed."""

    request_id: str
    tenant: str
    kind: str
    ok: bool
    arrival_ns: float
    completion_ns: float
    shed_reason: str | None = None
    dispatch_ns: float | None = None
    indices: np.ndarray | None = None
    scores: np.ndarray | None = None
    approximate: bool = False
    degraded: bool = False
    batch_size: int = 0
    #: Trace id (telemetry runs only) linking to the exported tree.
    trace_id: str | None = None
    #: Critical-path attribution keyed by :data:`SEGMENT_ORDER`.
    segments: dict | None = None

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion simulated latency."""
        return self.completion_ns - self.arrival_ns


class _TokenBucket:
    """Per-tenant admission: ``rate_qps`` tokens/s, ``burst`` capacity."""

    def __init__(self, rate_qps: float, burst: int) -> None:
        if rate_qps <= 0:
            raise ServingError("admission rate must be positive")
        if burst < 1:
            raise ServingError("burst must be >= 1")
        self.rate_per_ns = rate_qps / 1e9
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ns = 0.0

    def try_take(self, now_ns: float) -> bool:
        self.tokens = min(
            self.burst, self.tokens + (now_ns - self.last_ns) * self.rate_per_ns
        )
        self.last_ns = now_ns
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class QueryService:
    """Single-node serving loop: admission, bounded queue, EDF batches.

    Parameters
    ----------
    manager:
        The sharded store answering the queries.
    tenants:
        Known tenants; when given, unknown tenants are refused with
        :class:`~repro.errors.ServingError` and per-tenant admission
        applies. ``None`` leaves admission open.
    max_batch:
        Most requests one dispatch may carry (one batched wave/shard).
    batch_window_ns:
        How long an under-full batch may wait for company once the
        server is free; 0 dispatches immediately (work-conserving).
    queue_capacity:
        Bound on the admitted-but-undispatched queue.
    policy:
        Overflow behaviour: ``reject``, ``drop_oldest`` or ``degrade``.
    default_deadline_ns:
        Relative deadline stamped on requests that carry none (and whose
        tenant specifies none); ``None`` disables deadline shedding.
    repair:
        Optional :class:`~repro.repair.controller.RepairController`.
        When attached, the service hands it every idle window (between
        the server going free and the next arrival) so scrubbing, spare
        remaps and re-replication interleave with EDF dispatch without
        stealing foreground service time; :meth:`drain` finishes with a
        :meth:`heal` pass restoring every chunk's replica target.
    monitor:
        Optional :class:`~repro.observability.BurnRateMonitor` fed every
        terminal response; emits structured SLO alerts on the recorder.
    brownout:
        Optional :class:`~repro.observability.BrownoutController`
        (requires ``monitor``). While its watched burn-rate alerts
        fire, admitted requests are served from the approximate tier
        and queue overflow degrades instead of shedding — the service
        browns out rather than turning traffic away.
    live_report:
        Optional :class:`~repro.observability.LiveReport` printing a
        periodic console dashboard on simulated time.
    """

    def __init__(
        self,
        manager: ShardManager,
        tenants: list[TenantSpec] | None = None,
        *,
        max_batch: int = 8,
        batch_window_ns: float = 0.0,
        queue_capacity: int = 64,
        policy: str = "reject",
        default_deadline_ns: float | None = None,
        tracker: SLOTracker | None = None,
        repair=None,
        monitor=None,
        brownout=None,
        live_report=None,
    ) -> None:
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if batch_window_ns < 0:
            raise ServingError("batch_window_ns must be >= 0")
        if queue_capacity < 1:
            raise ServingError("queue_capacity must be >= 1")
        if policy not in QUEUE_POLICIES:
            raise ServingError(
                f"unknown policy {policy!r}; one of {QUEUE_POLICIES}"
            )
        self.manager = manager
        self.max_batch = max_batch
        self.batch_window_ns = float(batch_window_ns)
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.default_deadline_ns = default_deadline_ns
        self.tracker = tracker if tracker is not None else SLOTracker()
        self.repair = repair
        #: Optional :class:`~repro.observability.BurnRateMonitor`.
        self.monitor = monitor
        if brownout is not None and monitor is None:
            raise ServingError(
                "brownout control needs the burn-rate monitor that "
                "drives it (pass monitor= as well)"
            )
        if brownout is not None and brownout.monitor is not monitor:
            raise ServingError(
                "the brownout controller must watch this service's "
                "monitor"
            )
        #: Optional :class:`~repro.observability.BrownoutController`.
        self.brownout = brownout
        #: Optional :class:`~repro.observability.LiveReport` dashboard.
        self.live_report = live_report
        if live_report is not None:
            live_report.bind(self)
        if repair is not None and repair.manager is not manager:
            raise ServingError(
                "the repair controller must share this service's manager"
            )
        self.tenants: dict[str, TenantSpec] | None = (
            {t.name: t for t in tenants} if tenants is not None else None
        )
        self._buckets: dict[str, _TokenBucket] = {}
        if self.tenants:
            for spec in self.tenants.values():
                if spec.rate_qps is not None:
                    self._buckets[spec.name] = _TokenBucket(
                        spec.rate_qps, spec.burst
                    )
        self.now_ns = 0.0
        self.server_free_ns = 0.0
        self._queue: list[Request] = []
        self._admitted = 0
        self.responses: list[Response] = []

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Feed one arrival; arrivals must be in non-decreasing time."""
        if request.arrival_ns < self.now_ns:
            raise ServingError(
                "arrivals must be submitted in simulated-time order"
            )
        if request.kind not in REQUEST_KINDS:
            raise ServingError(
                f"unknown request kind {request.kind!r}; "
                f"one of {REQUEST_KINDS}"
            )
        self._dispatch_until(request.arrival_ns)
        self._repair_tick(request.arrival_ns)
        self.now_ns = max(self.now_ns, request.arrival_ns)
        self._admit(request)

    def run(self, requests) -> list[Response]:
        """Serve a whole request trace; returns terminal responses.

        Responses come back in completion order (sheds at their shed
        time) — the order is part of the deterministic contract.
        """
        ordered = sorted(
            requests, key=lambda r: (r.arrival_ns, r.request_id)
        )
        for request in ordered:
            self.submit(request)
        return self.drain()

    def drain(self) -> list[Response]:
        """Dispatch everything still queued; returns all responses.

        Guarded against non-termination: every dispatch must shrink the
        queue, so a dispatch that makes no progress (a bug, or a fault
        path that re-queues) trips the watchdog instead of hanging.
        """
        while self._queue:
            depth = len(self._queue)
            self._dispatch(self._next_dispatch_ns(more_arrivals=False))
            if len(self._queue) >= depth:
                raise WatchdogTimeoutError(
                    f"drain made no progress ({depth} requests stuck "
                    f"at t={self.now_ns:.0f}ns)"
                )
        self.heal()
        return self.responses

    # ------------------------------------------------------------------
    # repair interleaving
    # ------------------------------------------------------------------
    def _repair_tick(self, until_ns: float) -> None:
        """Hand the repair loop the idle window ending at ``until_ns``.

        The window opens when the server goes free and closes at the
        next arrival; repair work is background work, so it only ever
        spends time the dispatcher was not going to use.
        """
        if self.repair is None:
            return
        start = max(self.server_free_ns, self.now_ns)
        if until_ns <= start:
            return
        self.repair.advance(start, until_ns)
        self._drain_repair()

    def heal(self) -> None:
        """Finish outstanding repair work (post-drain redundancy pass)."""
        if self.repair is None:
            return
        self.repair.heal(max(self.server_free_ns, self.now_ns))
        self._drain_repair()

    def _drain_repair(self) -> None:
        for event in self.repair.drain_events():
            self.tracker.record_repair(event)
        for sample in self.manager.health.drain_recoveries():
            self.tracker.record_recovery(sample)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, request: Request) -> None:
        spec = None
        if self.tenants is not None:
            spec = self.tenants.get(request.tenant)
            if spec is None:
                raise ServingError(f"unknown tenant {request.tenant!r}")
        if request.deadline_ns is None:
            relative = (
                spec.deadline_ns
                if spec is not None and spec.deadline_ns is not None
                else self.default_deadline_ns
            )
            if relative is not None:
                request.deadline_ns = request.arrival_ns + relative
        tele = get_recorder()
        if tele.enabled and request.ctx is None:
            request.ctx = tele.new_trace(
                request_id=request.request_id,
                tenant=request.tenant,
                deadline_ns=request.deadline_ns,
            )
        try:
            queries = self.manager.check_queries(request.query)
            if request.kind == "knn":
                # kNN requests are stacked into one batch at dispatch,
                # so each must hold exactly one query vector
                if queries.shape[0] != 1:
                    raise ServingError("a knn request holds one query")
                request.query = queries[0]
        except ServingError:
            # one malformed request must not take the trace down with it
            self._shed(request, "invalid_query")
            return
        bucket = self._buckets.get(request.tenant)
        if bucket is not None and not bucket.try_take(self.now_ns):
            # per-tenant rate limits are contracts, not overload
            # protection — the brownout never overrides them
            self._shed(request, "admission")
            return
        browned = (
            self.brownout is not None
            and self.brownout.active(self.now_ns)
        )
        if browned and not request.degraded:
            request.degraded = True
            self.brownout.note_degraded()
        if len(self._queue) >= self.queue_capacity:
            if browned:
                # brownout: overflow joins the degraded tier instead
                # of shedding, whatever the configured policy
                self.brownout.note_rescued()
            elif self.policy == "reject":
                self._shed(request, "queue_full")
                return
            elif self.policy == "drop_oldest":
                oldest = min(
                    self._queue,
                    key=lambda r: (r.arrival_ns, r.admit_seq),
                )
                self._queue.remove(oldest)
                self._shed(oldest, "queue_full")
            else:  # degrade: admit beyond capacity, serve approximately
                request.degraded = True
        request.admit_seq = self._admitted
        self._admitted += 1
        self._queue.append(request)
        if tele.enabled:
            tele.metrics.counter("serving.admitted").add(1)
            tele.metrics.gauge("serving.queue_depth").set(len(self._queue))

    def _shed(self, request: Request, reason: str) -> None:
        response = Response(
            request_id=request.request_id,
            tenant=request.tenant,
            kind=request.kind,
            ok=False,
            arrival_ns=request.arrival_ns,
            completion_ns=self.now_ns,
            shed_reason=reason,
        )
        tele = get_recorder()
        if tele.enabled and request.ctx is not None:
            response.trace_id = request.ctx.trace_id
            response.segments = {"queue_ns": response.latency_ns}
            self._emit_request_tree(tele, request, response, None)
        self.responses.append(response)
        self.tracker.observe(response)
        self._observe_terminal(request, response)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _next_dispatch_ns(self, more_arrivals: bool) -> float:
        head = self._queue[0]
        ready = head.arrival_ns
        if (
            more_arrivals
            and len(self._queue) < self.max_batch
            and self.batch_window_ns > 0
        ):
            ready += self.batch_window_ns
        return max(ready, self.server_free_ns, self.now_ns)

    def _dispatch_until(self, t_ns: float) -> None:
        while self._queue:
            t_dispatch = self._next_dispatch_ns(more_arrivals=True)
            if t_dispatch > t_ns:
                break
            self._dispatch(t_dispatch)

    def _dispatch(self, t_dispatch: float) -> None:
        self.now_ns = max(self.now_ns, t_dispatch)
        # earliest-deadline-first, FIFO among equals — deterministic
        self._queue.sort(
            key=lambda r: (
                r.deadline_ns if r.deadline_ns is not None else float("inf"),
                r.admit_seq,
            )
        )
        batch = self._queue[: self.max_batch]
        del self._queue[: len(batch)]
        live: list[Request] = []
        for request in batch:
            if (
                request.deadline_ns is not None
                and request.deadline_ns < self.now_ns
            ):
                self._shed(request, "deadline")
            else:
                live.append(request)
        if not live:
            return
        tele = get_recorder()
        # the dispatch and everything under it (scatter, waves, recovery
        # markers, gather) joins the first live request's trace; the
        # other requests' trees reference the same work via their
        # synthesized per-shard wave spans
        ctx = None
        if tele.enabled:
            for request in live:
                if request.ctx is not None:
                    ctx = request.ctx
                    break
        with tele.trace(ctx):
            with tele.span(
                "serving.dispatch", "serving",
                requests=len(live), t_dispatch_ns=self.now_ns,
            ):
                service_ns = self._serve(live)
        if not np.isfinite(service_ns):
            raise WatchdogTimeoutError(
                f"dispatch at t={self.now_ns:.0f}ns produced a "
                f"non-finite service time ({service_ns}); a shard hung "
                "without a dispatch timeout"
            )
        self.server_free_ns = self.now_ns + service_ns
        if tele.enabled:
            tele.metrics.histogram("serving.batch_size").observe(len(live))
            tele.metrics.gauge("serving.queue_depth").set(len(self._queue))

    def _serve(self, batch: list[Request]) -> float:
        """Answer one dispatched batch; returns its service time.

        A :class:`~repro.errors.FaultError` the recovery machinery could
        not absorb (e.g. every replica of a chunk dead with degraded
        recompute disabled) sheds the affected requests under the
        fault's reason code instead of crashing the event loop — except
        ``TimeoutError``-family faults (a hung shard with the watchdog
        disabled), which are configuration-level and re-raise.
        """
        knn = [r for r in batch if r.kind == "knn"]
        assists = [r for r in batch if r.kind == "assign"]
        service_ns = 0.0
        if knn:
            try:
                answers, timing = self.manager.knn_batch(
                    np.stack([r.query for r in knn]),
                    [r.k for r in knn],
                    [r.degraded for r in knn],
                    now_ns=self.now_ns,
                )
            except FaultError as exc:
                if isinstance(exc, TimeoutError):
                    raise
                for request in knn:
                    self._shed(request, exc.reason)
            else:
                self._account_dispatch(timing)
                before_ns = service_ns
                service_ns += timing.service_ns
                for request, answer in zip(knn, answers):
                    self._complete(
                        request, answer, len(batch), service_ns,
                        timing, before_ns,
                    )
        for request in assists:
            before_ns = service_ns
            try:
                answer, timing = self.manager.assign(
                    request.query, now_ns=self.now_ns + service_ns
                )
            except FaultError as exc:
                if isinstance(exc, TimeoutError):
                    raise
                self._shed(request, exc.reason)
                continue
            self._account_dispatch(timing)
            service_ns += timing.service_ns
            self._complete_assign(
                request, answer, len(batch), service_ns, timing, before_ns
            )
        return service_ns

    def _account_dispatch(self, timing) -> None:
        """Feed one dispatch's recovery counters and MTTR into the SLOs."""
        self.tracker.record_dispatch(timing)
        for sample in self.manager.health.drain_recoveries():
            self.tracker.record_recovery(sample)

    def _complete(
        self,
        request: Request,
        answer: KNNAnswer,
        batch_size: int,
        service_ns: float,
        timing,
        before_ns: float,
    ) -> None:
        response = Response(
            request_id=request.request_id,
            tenant=request.tenant,
            kind=request.kind,
            ok=True,
            arrival_ns=request.arrival_ns,
            dispatch_ns=self.now_ns,
            completion_ns=self.now_ns + service_ns,
            indices=answer.indices,
            scores=answer.scores,
            approximate=answer.approximate,
            degraded=answer.degraded,
            batch_size=batch_size,
        )
        self._finalize(request, response, timing, before_ns)

    def _complete_assign(
        self,
        request: Request,
        answer,
        batch_size: int,
        service_ns: float,
        timing,
        before_ns: float,
    ) -> None:
        response = Response(
            request_id=request.request_id,
            tenant=request.tenant,
            kind=request.kind,
            ok=True,
            arrival_ns=request.arrival_ns,
            dispatch_ns=self.now_ns,
            completion_ns=self.now_ns + service_ns,
            indices=answer.assignments,
            scores=answer.distances,
            degraded=answer.degraded,
            batch_size=batch_size,
        )
        self._finalize(request, response, timing, before_ns)

    def _finalize(
        self, request: Request, response: Response, timing, before_ns: float
    ) -> None:
        """Attach trace data, record the response, feed the monitors."""
        tele = get_recorder()
        if tele.enabled and request.ctx is not None:
            path = timing.critical_path()
            response.trace_id = request.ctx.trace_id
            response.segments = {
                "queue_ns": response.dispatch_ns - response.arrival_ns,
                "coscheduled_ns": before_ns,
                "retry_ns": path["retry_ns"],
                "wave_ns": path["wave_ns"],
                "host_ns": path["host_ns"],
                "degraded_ns": path["degraded_ns"],
                "gather_ns": path["gather_ns"],
            }
            self._emit_request_tree(
                tele, request, response, timing, critical_shard=path["shard"]
            )
        self.responses.append(response)
        self.tracker.observe(response)
        self._observe_terminal(request, response)

    def _emit_request_tree(
        self, tele, request: Request, response: Response, timing,
        critical_shard=None,
    ) -> None:
        """Emit the request's span tree on the event-loop timeline.

        One root span covers arrival -> completion; each non-empty
        critical-path segment is a child chained end-to-start under it;
        every successful wave of the dispatch appears as a per-shard
        child on its actual interval (so retry/failover/hedge winners
        and the gather are all visible per request). The shared live
        dispatch spans (scatter, pim waves, recovery markers) join the
        batch's first request via the installed trace context.
        """
        ctx = request.ctx
        tele.record_span(
            "request", "request",
            response.arrival_ns, response.completion_ns,
            trace_id=ctx.trace_id, span_id=ctx.span_id, track="requests",
            request_id=request.request_id,
            tenant=request.tenant,
            kind=request.kind,
            ok=response.ok,
            shed_reason=response.shed_reason,
            deadline_ns=request.deadline_ns,
            batch_size=response.batch_size,
            critical_shard=critical_shard,
        )
        t = response.arrival_ns
        for key in SEGMENT_ORDER:
            dur = (response.segments or {}).get(key, 0.0)
            if dur <= 0:
                continue
            tele.record_span(
                "request." + key[:-3], "request", t, t + dur,
                trace_id=ctx.trace_id, parent_id=ctx.span_id,
                track="requests", depth=1, segment=key,
            )
            t += dur
        if timing is not None and response.dispatch_ns is not None:
            base = response.dispatch_ns + (
                (response.segments or {}).get("coscheduled_ns", 0.0)
            )
            for comp in timing.wave_components:
                tele.record_span(
                    "request.shard_wave", "request",
                    base + comp["start_ns"], base + comp["end_ns"],
                    trace_id=ctx.trace_id, parent_id=ctx.span_id,
                    track="requests", depth=1,
                    shard=comp["shard"], chunks=comp["chunks"],
                    pim_ns=comp["pim_ns"], cpu_ns=comp["cpu_ns"],
                    hedged=comp["hedged"],
                )

    def _observe_terminal(self, request: Request, response: Response) -> None:
        if self.monitor is not None:
            self.monitor.observe(response, deadline_ns=request.deadline_ns)
        if self.live_report is not None:
            self.live_report.maybe_report(
                max(self.now_ns, response.completion_ns)
            )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """SLO summary over everything served so far.

        Includes the per-shard health snapshot (breaker windows,
        dead/quarantine timestamps) and — when a repair controller is
        attached — its repair report, so one dict answers both "how did
        serving go" and "what did the self-healing loop do about it".
        """
        horizon = max(self.server_free_ns, self.now_ns)
        if self.repair is not None:
            self._drain_repair()
        result = self.tracker.summary(
            horizon_ns=horizon,
            shard_busy_ns=self.manager.shard_busy_ns(),
        )
        result["health"] = self.manager.health.snapshot(horizon)
        result["durability"] = self.manager.spread_report()
        if self.repair is not None:
            result["repair"] = self.repair.report()
        if self.monitor is not None:
            result["alerts"] = [dict(a) for a in self.monitor.alerts]
            result["burn"] = self.monitor.snapshot(horizon)
        if self.brownout is not None:
            result["brownout"] = self.brownout.snapshot()
        return result
