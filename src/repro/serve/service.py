"""The multi-query service: many sessions, one repository, shared work.

The paper frames ALi for the single scientist at a console; a facility
serves *many* scientists against one archive. :class:`QueryService` is that
deployment shape: one shared :class:`~repro.db.database.Database` (metadata
loaded once), one shared :class:`~repro.core.cache.IngestionCache`, and one
:class:`~repro.serve.scheduler.MountScheduler` — while every query still
runs the full two-stage pipeline with its own
:class:`~repro.core.executor.TwoStageExecutor` (the executor carries
per-query mutable state, so the service creates one per execution and plugs
the shared machinery in through the executor's service seams).

A query's life in the service:

1. **Admission** — the tenant's policy is consulted *before* any work:
   queue-depth shedding (too many in-flight queries for this tenant) and
   byte-ledger shedding (the tenant already consumed its total mount-byte
   allowance) both raise :class:`~repro.db.errors.QueryShedError`
   synchronously, on the submitting thread.
2. **Stage 1** — the query's own executor runs the metadata stage and
   reaches the stage-1/stage-2 breakpoint with its files of interest.
3. **Scheduling** — instead of a private one-client scheduler, the
   executor's :class:`~repro.core.mountpool.MountPool` is a client of the
   service's shared :class:`~repro.core.mountpool.MountScheduler`: the
   query's mount branches are registered with it (hull-merged with
   every other waiting query touching the same files) and the query parks
   until its files complete — each extraction feeding *every* waiter.
4. **Charging** — the query's governor is charged at consume time for the
   bytes it uses (same ledger as standalone), and the governor's
   ``on_charge`` hook feeds the tenant's running byte ledger.

Tenant isolation is deliberate where it matters and shared where that is
the point: every tenant gets its **own**
:class:`~repro.core.governor.CircuitBreaker` (one tenant hammering a broken
file trips only its own breaker; another tenant's queries still mount the
files *they* need), while the cache and scheduler are shared (their
concurrency story: cache stores are first-wins idempotent, scheduler tasks
single-flight per file). A shared extraction that genuinely fails surfaces
the same typed error to every query waiting on that file — each query then
applies its own ``on_mount_error`` policy and records the failure in its
own tenant's breaker.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

from .. import _sync
from ..core.advisor import WorkloadPredictor
from ..core.cache import WHOLE_FILE, CachePolicy, CacheStats, IngestionCache
from ..core.executor import TwoStageExecutor, TwoStageResult
from ..core.governor import CancellationToken, CircuitBreaker, QueryBudget
from ..core.mounting import (
    FAIL_FAST,
    ON_ERROR_POLICIES,
    ExtractResult,
    MountService,
)
from ..db.interval import overlaps
from ..db.database import Database
from ..db.errors import QueryShedError
from ..ingest.formats import MountRequest, RecordSpan
from ..ingest.lazy import lazy_ingest_metadata
from ..ingest.schema import FILE_TABLE, RECORD_TABLE, BindingSet, RepositoryBinding
from ..mseed.repository import FileRepository
from .scheduler import MountKey, MountScheduler, SchedulerPolicy, SchedulerStats


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission control, built from the PR-5 governance pieces.

    ``query_budget`` is the per-query ceiling (every query this tenant
    submits runs under it unless the call passes its own);
    ``max_total_mount_bytes`` is the *tenant* ceiling — a running ledger
    across all of the tenant's queries, fed by each query's governor, that
    sheds new admissions once exhausted. ``max_queue_depth`` bounds the
    tenant's in-flight queries (submitted, not yet finished); exceeding it
    sheds instead of queueing, keeping one greedy tenant from occupying
    the service. ``on_mount_error`` is the tenant's degradation policy
    (:data:`~repro.core.mounting.FAIL_FAST` or
    :data:`~repro.core.mounting.SKIP_AND_REPORT`).
    """

    max_queue_depth: Optional[int] = None
    query_budget: Optional[QueryBudget] = None
    max_total_mount_bytes: Optional[int] = None
    on_mount_error: str = FAIL_FAST

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if (
            self.max_total_mount_bytes is not None
            and self.max_total_mount_bytes < 0
        ):
            raise ValueError("max_total_mount_bytes must be >= 0")
        if self.on_mount_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_mount_error must be one of {ON_ERROR_POLICIES}, "
                f"got {self.on_mount_error!r}"
            )


@dataclass
class TenantState:
    """One tenant's live accounting; mutated only under the service lock
    (except the breaker, which locks itself)."""

    name: str
    policy: TenantPolicy
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    in_flight: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    bytes_charged: int = 0
    records_charged: int = 0
    # Per-tenant workload predictor (locks itself): each tenant's query
    # stream has its own sliding/zooming shape; mixing tenants' windows
    # would predict nobody's next query.
    predictor: WorkloadPredictor = field(default_factory=WorkloadPredictor)


@dataclass(frozen=True)
class TenantSnapshot:
    """Point-in-time copy of one tenant's counters (safe to hand out)."""

    name: str
    in_flight: int
    admitted: int
    completed: int
    failed: int
    shed: int
    bytes_charged: int
    records_charged: int


@dataclass(frozen=True)
class ServiceStats:
    """One service lifetime's shared-work and admission story.

    ``scheduler`` carries the sharing win (``shared_grants`` /
    ``bytes_shared``) and the fairness counters (``starved_grants``,
    ``max_wait_seconds``); ``tenants`` the per-tenant admission ledgers;
    ``total_mount_bytes`` the bytes actually pulled off disk service-wide —
    the number the bench compares against N independent sessions.
    """

    scheduler: SchedulerStats
    cache: CacheStats
    tenants: tuple[TenantSnapshot, ...]
    total_mount_bytes: int
    queries_completed: int
    queries_failed: int
    queries_shed: int

    def describe(self) -> str:
        lines = [
            f"queries: {self.queries_completed} completed, "
            f"{self.queries_failed} failed, {self.queries_shed} shed",
            f"mount bytes (actual disk): {self.total_mount_bytes}",
            f"shared grants: {self.scheduler.shared_grants} "
            f"(bytes re-served: {self.scheduler.bytes_shared})",
            f"starved grants: {self.scheduler.starved_grants}, "
            f"max wait: {self.scheduler.max_wait_seconds:.3f}s",
            f"cache: {self.cache.hits} hits, {self.cache.misses} misses "
            f"({self.cache.hit_rate():.1%} hit rate), "
            f"{self.cache.duplicate_stores} duplicate stores",
        ]
        for tenant in self.tenants:
            lines.append(
                f"tenant {tenant.name!r}: {tenant.completed} ok, "
                f"{tenant.failed} failed, {tenant.shed} shed, "
                f"{tenant.bytes_charged} bytes charged"
            )
        return "\n".join(lines)


@_sync.guarded
class QueryService:
    """Admits concurrent queries against one shared repository + database.

    ``db`` may be passed pre-loaded (metadata already ingested); otherwise
    the service builds one and runs
    :func:`~repro.ingest.lazy.lazy_ingest_metadata` once — the catalog is
    read-only afterwards, which is what makes concurrent executions against
    the one database safe. The default cache policy is UNBOUNDED, not the
    paper's DISCARD: retaining mounted data across queries is half the
    service's sharing story (the scheduler is the other half, for queries
    *in flight* together).

    ``mount_workers`` sizes the shared scheduler's extraction pool —
    service-wide, not per query (per-query executors run their plan on the
    submitting thread and consume from the shared scheduler).
    """

    def __init__(
        self,
        repository: FileRepository,
        db: Optional[Database] = None,
        cache: Optional[IngestionCache] = None,
        default_policy: Optional[TenantPolicy] = None,
        scheduler_policy: Optional[SchedulerPolicy] = None,
        mount_workers: int = 2,
        max_concurrent_queries: int = 8,
        selective_mounts: bool = True,
        verify_plans: Optional[bool] = None,
        prefetch: bool = False,
    ) -> None:
        if max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be >= 1")
        self.repository = repository
        if db is None:
            db = Database()
            lazy_ingest_metadata(db, repository)
        self.db = db
        self.cache = (
            cache
            if cache is not None
            else IngestionCache(policy=CachePolicy.UNBOUNDED)
        )
        self._binding = RepositoryBinding(repository)
        self.bindings = BindingSet.single(self._binding)
        self.default_policy = default_policy or TenantPolicy()
        self.selective_mounts = selective_mounts
        self.verify_plans = verify_plans
        self.max_concurrent_queries = max_concurrent_queries
        # The shared extraction path: a MountService with NO governor and NO
        # breaker. Scheduled extractions are charged to each consuming
        # query's governor by its scheduler client (once per file it uses),
        # and failures are judged by each waiter's own tenant breaker — the
        # shared service only extracts, retries transients, and counts
        # service-wide bytes.
        self._shared_mounts = MountService(
            self.bindings,
            self.cache,
            buffers=db.buffers,
            selective=selective_mounts,
        )
        self._shared_mounts.record_map_provider = self._record_map
        # Predictive prefetch: after each completed query, the tenant's
        # predictor extrapolates the next window and the overlapping files
        # are registered as scheduler *hints* — waiter-less tasks run only
        # when no real query is waiting; their results land in the shared
        # cache via _store_hint.
        self.prefetch = prefetch
        self.scheduler = MountScheduler(
            self._shared_extract,
            policy=scheduler_policy,
            workers=mount_workers,
            on_hint_result=self._store_hint,
        )
        self._lock = _sync.create_lock("QueryService._lock")
        self._tenants: dict[str, TenantState] = {}  # guarded-by: _lock
        # Coverage-fallback extractions, query-side.
        self._inline_bytes = 0  # guarded-by: _lock
        self._completed = 0  # guarded-by: _lock
        self._failed = 0  # guarded-by: _lock
        self._record_spans: dict[str, tuple[RecordSpan, ...]] = {}  # guarded-by: _record_lock
        self._record_spans_source: Optional[object] = None  # guarded-by: _record_lock
        self._file_span_map: dict[str, tuple[int, int]] = {}  # guarded-by: _record_lock
        self._file_span_source: Optional[object] = None  # guarded-by: _record_lock
        self._record_lock = _sync.create_lock("QueryService._record_lock")
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Start the shared scheduler workers (idempotent)."""
        self.scheduler.start()
        return self

    def close(self) -> None:
        """Drain submitted queries, then stop the scheduler."""
        with self._lock:
            self._closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        self.scheduler.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- tenants -------------------------------------------------------------

    def register_tenant(
        self, name: str, policy: Optional[TenantPolicy] = None
    ) -> TenantState:
        """Create (or fetch) a tenant; an explicit ``policy`` overrides the
        service default but never an existing registration."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = TenantState(
                    name=name, policy=policy or self.default_policy
                )
                self._tenants[name] = state
            return state

    def _admit(self, state: TenantState) -> None:
        """Admission control on the submitting thread; sheds synchronously."""
        policy = state.policy
        with self._lock:
            if self._closed:
                raise QueryShedError("service is closed", tenant=state.name)
            if (
                policy.max_queue_depth is not None
                and state.in_flight >= policy.max_queue_depth
            ):
                state.shed += 1
                raise QueryShedError(
                    f"queue depth {state.in_flight} at limit "
                    f"{policy.max_queue_depth}",
                    tenant=state.name,
                )
            if (
                policy.max_total_mount_bytes is not None
                and state.bytes_charged >= policy.max_total_mount_bytes
            ):
                state.shed += 1
                raise QueryShedError(
                    f"tenant mount-byte allowance exhausted "
                    f"({state.bytes_charged} >= "
                    f"{policy.max_total_mount_bytes})",
                    tenant=state.name,
                )
            state.in_flight += 1
            state.admitted += 1

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        tenant: str = "default",
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> TwoStageResult:
        """Admit and run one query on the calling thread."""
        state = self.register_tenant(tenant)
        self._admit(state)
        return self._run_admitted(state, sql, budget, cancellation)

    def submit(
        self,
        sql: str,
        tenant: str = "default",
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> "Future[TwoStageResult]":
        """Admit now (sheds raise here, synchronously), run on the service's
        worker pool; the returned future resolves to the
        :class:`~repro.core.executor.TwoStageResult` or the query's error."""
        state = self.register_tenant(tenant)
        self._admit(state)
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrent_queries,
                    thread_name_prefix="serve-query",
                )
            pool = self._pool
        return pool.submit(
            self._run_admitted, state, sql, budget, cancellation
        )

    def client(self, tenant: str = "default") -> "TenantClient":
        """A session-compatible engine bound to one tenant."""
        self.register_tenant(tenant)
        return TenantClient(self, tenant)

    def _run_admitted(
        self,
        state: TenantState,
        sql: str,
        budget: Optional[QueryBudget],
        cancellation: Optional[CancellationToken],
    ) -> TwoStageResult:
        executor: Optional[TwoStageExecutor] = None
        try:
            executor = self._make_executor(state)
            result = executor.execute(
                sql, budget=budget, cancellation=cancellation
            )
        except BaseException:
            with self._lock:
                state.failed += 1
                self._failed += 1
            raise
        else:
            with self._lock:
                state.completed += 1
                self._completed += 1
            if self.prefetch:
                # After the answer is already delivered-able: feed the
                # tenant's predictor and register hints. Purely additive —
                # a wrong prediction costs idle-worker bytes, never answers.
                self._prefetch_for(state, executor)
            return result
        finally:
            with self._lock:
                state.in_flight -= 1
                # Coverage fallbacks extracted on the query's own thread are
                # real disk work the shared stats never saw; fold them in so
                # total_mount_bytes stays the true service-wide disk story.
                if executor is not None:
                    self._inline_bytes += executor.mounts.stats.bytes_read

    def _make_executor(self, state: TenantState) -> TwoStageExecutor:
        """One query's executor: private pipeline, shared backends.

        The executor is per-execution throwaway state; everything expensive
        or shared — database, cache, record maps, scheduler — is plugged in
        from the service. The executor makes each execution's mount pool a
        client of the shared scheduler bound to that execution's governor,
        so consumed shared results charge this query's budget exactly as
        standalone extraction would.
        """
        executor = TwoStageExecutor(
            self.db,
            self.bindings,
            cache=self.cache,
            mount_workers=1,
            on_mount_error=state.policy.on_mount_error,
            budget=state.policy.query_budget,
            breaker=state.breaker,
            selective_mounts=self.selective_mounts,
            verify_plans=self.verify_plans,
        )
        executor.mounts.record_map_provider = self._record_map

        def charge(bytes_read: int, records_decoded: int) -> None:
            with self._lock:
                state.bytes_charged += bytes_read
                state.records_charged += records_decoded

        executor.charge_hook = charge
        executor.scheduler = self.scheduler
        return executor

    # -- predictive prefetch ---------------------------------------------------

    def _prefetch_for(
        self, state: TenantState, executor: TwoStageExecutor
    ) -> int:
        """Extrapolate the tenant's next window; hint the overlapping files.

        Skips files the tenant's breaker distrusts and intervals the shared
        cache already covers; everything else becomes a waiter-less hint
        task the scheduler runs only when no real query waits. Returns the
        number of hints accepted (for tests and ops).
        """
        predicted = state.predictor.observe_and_predict(
            executor.last_query_interval
        )
        if predicted is None:
            return 0
        table = self._binding.actual_table
        hints: list[tuple[str, str, Optional[MountRequest]]] = []
        for uri, span in self._file_spans().items():
            if not overlaps(predicted.interval, span[0], span[1]):
                continue
            if state.breaker.likely_blocked(uri):
                continue
            if self.cache.contains(uri, predicted.interval):
                continue
            records = (
                self._record_map(uri, table) if self.selective_mounts else None
            )
            request = (
                MountRequest(interval=predicted.interval, records=records)
                if self.selective_mounts
                else None
            )
            hints.append((table, uri, request))
        if not hints:
            return 0
        return self.scheduler.hint(hints)

    def _file_spans(self) -> dict[str, tuple[int, int]]:
        """Service-wide memo of uri → (start, end) from the ``F`` table,
        batch-keyed like the record-map memo (rebuilt on metadata loads)."""
        if not self.db.catalog.has_table(FILE_TABLE):
            return {}
        batch = self.db.catalog.table(FILE_TABLE).batch
        with self._record_lock:
            if self._file_span_source is not batch:
                required = ("uri", "start_time", "end_time")
                if any(name not in batch.names for name in required):
                    return {}
                self._file_span_map = {
                    u: (int(s), int(e))
                    for u, s, e in zip(
                        batch.column("uri").to_pylist(),
                        batch.column("start_time").to_pylist(),
                        batch.column("end_time").to_pylist(),
                    )
                }
                self._file_span_source = batch
            return self._file_span_map

    def _store_hint(
        self,
        key: MountKey,
        request: Optional[MountRequest],
        result: ExtractResult,
    ) -> None:
        """Retain one completed hint extraction in the shared cache.

        The scheduler's extract function does not store (query-side takes
        store after consumption); hints have no consumer, so without this
        the speculative work would evaporate. A ``bytes_read == 0`` result
        was served *from* the cache — nothing new to store.
        """
        if result.bytes_read == 0 and result.io_seconds == 0.0:
            return
        _table_name, uri = key
        self.cache.store(
            uri, result.batch, result.coverage, signature=result.signature
        )

    # -- shared extraction ---------------------------------------------------

    def _shared_extract(
        self, uri: str, table_name: str, request: Optional[MountRequest]
    ) -> ExtractResult:
        """The scheduler's extraction function: cache first, then disk.

        A query's plan chooses mount vs cache-scan at *its* rewrite time;
        under concurrency another query's store often lands between one
        query's rewrite and its take. Re-checking the cache here — at the
        moment the work would actually run — is rule (1)'s cache preference
        applied late-bound, and it is what makes the service's byte savings
        robust to arrival order instead of depending on queries registering
        within one extraction's window. A cache-served result reports
        ``bytes_read=0``: no disk work happened, so neither the service
        total nor any consuming query's budget is charged for it.
        """
        interval = WHOLE_FILE if request is None else request.interval
        signature = (
            self._shared_mounts._current_signature(uri, table_name)
            if self._shared_mounts.validate_staleness
            else None
        )
        cached = self.cache.lookup(uri, interval, signature=signature)
        if cached is not None:
            return ExtractResult(
                batch=cached, io_seconds=0.0, coverage=interval
            )
        return self._shared_mounts._extract(uri, table_name, request)

    # -- shared record maps --------------------------------------------------

    def _record_map(
        self, uri: str, table_name: str
    ) -> Optional[tuple[RecordSpan, ...]]:
        """Service-wide memo of the ``R`` byte maps selective mounts seek by.

        The per-query executor builds this from the R table on first use;
        at N queries that is N identical rebuilds, so the service interposes
        one locked, batch-keyed copy shared by every query *and* by the
        shared extraction path. Rebuilt only if R's batch object changes
        (metadata loads replace it; the catalog is otherwise read-only).
        """
        if not self.db.catalog.has_table(RECORD_TABLE):
            return None
        batch = self.db.catalog.table(RECORD_TABLE).batch
        with self._record_lock:
            if self._record_spans_source is not batch:
                required = (
                    "uri", "record_id", "start_time", "end_time",
                    "byte_offset", "byte_length",
                )
                if any(name not in batch.names for name in required):
                    return None
                by_uri: dict[str, list[RecordSpan]] = {}
                for u, rid, st, et, off, ln in zip(
                    batch.column("uri").to_pylist(),
                    batch.column("record_id").to_pylist(),
                    batch.column("start_time").to_pylist(),
                    batch.column("end_time").to_pylist(),
                    batch.column("byte_offset").to_pylist(),
                    batch.column("byte_length").to_pylist(),
                ):
                    by_uri.setdefault(u, []).append(
                        RecordSpan(
                            record_id=int(rid),
                            byte_offset=int(off),
                            byte_length=int(ln),
                            start_time=int(st),
                            end_time=int(et),
                        )
                    )
                self._record_spans = {
                    u: tuple(sorted(spans, key=lambda s: s.record_id))
                    for u, spans in by_uri.items()
                }
                self._record_spans_source = batch
            return self._record_spans.get(uri)

    # -- introspection -------------------------------------------------------

    @property
    def total_mount_bytes(self) -> int:
        """Bytes actually pulled off disk, service-wide: every scheduled and
        unscheduled shared extraction plus every query-side coverage
        fallback. The N-independent-sessions comparison number."""
        with self._lock:
            return self._shared_mounts.stats.bytes_read + self._inline_bytes

    def stats(self) -> ServiceStats:
        with self._lock:
            tenants = tuple(
                TenantSnapshot(
                    name=t.name,
                    in_flight=t.in_flight,
                    admitted=t.admitted,
                    completed=t.completed,
                    failed=t.failed,
                    shed=t.shed,
                    bytes_charged=t.bytes_charged,
                    records_charged=t.records_charged,
                )
                for t in self._tenants.values()
            )
            shed = sum(t.shed for t in tenants)
            total_bytes = (
                self._shared_mounts.stats.bytes_read + self._inline_bytes
            )
            completed, failed = self._completed, self._failed
        return ServiceStats(
            scheduler=replace(self.scheduler.stats),
            cache=replace(self.cache.stats),
            tenants=tenants,
            total_mount_bytes=total_bytes,
            queries_completed=completed,
            queries_failed=failed,
            queries_shed=shed,
        )


@dataclass
class TenantClient:
    """One tenant's handle on the service — duck-compatible with the
    engines :class:`~repro.explore.session.ExplorationSession` accepts
    (``execute(sql) -> TwoStageResult`` plus a ``cancel`` passthrough)."""

    service: QueryService
    tenant: str

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> TwoStageResult:
        return self.service.execute(
            sql, tenant=self.tenant, budget=budget, cancellation=cancellation
        )

    def submit(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> "Future[TwoStageResult]":
        return self.service.submit(
            sql, tenant=self.tenant, budget=budget, cancellation=cancellation
        )
