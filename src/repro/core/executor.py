"""The two-stage query executor — the paper's §3 "Physical Query Execution".

One query runs through four physical steps:

1. **compile-time optimization** — the classic pipeline plus metadata-first
   join reordering, then decomposition into ``Qf`` and ``Qs``;
2. **first stage** — execute ``Qf`` (metadata only) and collect the files of
   interest;
3. **run-time optimization** — estimate informativeness, consult the destiny
   policy, and apply rewrite rule (1), turning each actual scan into a union
   of mount / cache-scan access paths;
4. **second stage** — execute the rewritten ``Qs``; mounting happens here,
   transparently to the querying front-end.

The executor also implements the strategy choice §3 raises — bulk execution
(a) versus per-file partial aggregation then merge (b) — and the derived-
metadata fast path of §5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..db.buffer import IoStats
from ..db.database import Database, QueryResult
from ..db.errors import QueryAbortedError
from ..db.plan.logical import (
    Aggregate,
    CacheScan,
    LogicalPlan,
    Mount,
    ResultScan,
    UnionAll,
)
from .. import _sync
from ..db.stats import StatisticsCatalog, collect_statistics
from ..ingest.formats import RecordSpan
from ..ingest.schema import FILE_TABLE, RECORD_TABLE, BindingSet, RepositoryBinding
from .breakpoint import BreakpointInfo
from .cache import INF, IngestionCache
from .decompose import Decomposition, decompose, _replace_subtree
from .executor_util import batch_from_rows
from .governor import (
    CancellationToken,
    CircuitBreaker,
    QueryBudget,
    QueryGovernor,
    TruncationReport,
)
from .informativeness import (
    CostModel,
    DestinyAction,
    DestinyPolicy,
    ProceedAlways,
    estimate_informativeness,
)
from .mounting import (
    FAIL_FAST,
    ON_ERROR_POLICIES,
    SKIP_AND_REPORT,
    MountFailureReport,
    MountService,
    interval_from_predicate,
)
from .mountpool import MountPool, MountPoolTimings, MountScheduler
from .partial import PartialMerger, is_decomposable
from .rules import RewriteReport, apply_ali_rewrite
from .topn import TopNBranchMonitor, branch_hulls, find_top_n_target
from .verify import verify_ali_rewrite, verify_decomposition

BULK = "bulk"  # strategy (a): union everything, operate once
PER_FILE = "per_file"  # strategy (b): operate per file, merge results

_PARTIAL_TAG = "partial_agg"


@dataclass
class StageTimings:
    """Wall-clock CPU per physical step (simulated I/O tracked separately).

    The ``mount_*`` fields describe the stage-2 mount phase as seen by the
    :class:`~repro.core.mountpool.MountPool`: how many files were extracted,
    by how many workers, the serialized cost (sum over files of real extract
    time + simulated disk time) and the critical path (the busiest worker's
    chain). ``mount_speedup`` is the observable effect of ``mount_workers``.

    ``mount_failures`` is the degraded-answer disclosure: under the
    ``SKIP_AND_REPORT`` policy it lists every file the query was answered
    *without* (empty under ``FAIL_FAST``, which raises instead).
    """

    compile_seconds: float = 0.0
    stage1_seconds: float = 0.0
    runtime_opt_seconds: float = 0.0
    stage2_seconds: float = 0.0
    mount_workers: int = 1
    mount_files: int = 0
    mount_serial_seconds: float = 0.0
    mount_wall_seconds: float = 0.0
    mount_worker_seconds: dict[int, float] = field(default_factory=dict)
    mount_failures: MountFailureReport = field(
        default_factory=MountFailureReport
    )
    # Per-lock acquisition/contention/hold-time counters for this execution,
    # exported by the tracing layer. Empty unless REPRO_LOCK_TRACE=1 (the
    # zero-cost default); under a concurrent service the delta attributes
    # *service-wide* lock activity to this execution's window.
    lock_stats: dict[str, _sync.LockStats] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return (
            self.compile_seconds
            + self.stage1_seconds
            + self.runtime_opt_seconds
            + self.stage2_seconds
        )

    @property
    def mount_speedup(self) -> float:
        """serialized mount cost / critical path (1.0 when nothing mounted)."""
        if self.mount_wall_seconds <= 0:
            return 1.0
        return self.mount_serial_seconds / self.mount_wall_seconds

    def record_mounts(self, workers: int, timings: MountPoolTimings) -> None:
        """Fold one mount pool's observations into these timings."""
        self.mount_workers = workers
        self.mount_files += timings.files
        self.mount_serial_seconds += timings.serial_seconds
        self.mount_wall_seconds += timings.wall_seconds
        for worker, busy in timings.worker_seconds.items():
            self.mount_worker_seconds[worker] = (
                self.mount_worker_seconds.get(worker, 0.0) + busy
            )


@dataclass
class TwoStageResult:
    """A query answer plus everything the breakpoint learned.

    ``truncation`` is non-None when an ``on_budget="partial"`` budget
    tripped mid-execution: the rows are the tuples produced before the
    trip, and the report says how much was left on the table.
    """

    result: QueryResult
    breakpoint: BreakpointInfo
    decomposition: Decomposition
    timings: StageTimings = field(default_factory=StageTimings)
    approximate: bool = False
    truncation: Optional[TruncationReport] = None

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        return self.result.rows()

    @property
    def total_seconds(self) -> float:
        return self.result.total_seconds


def _merge_io(parts: list[IoStats]) -> IoStats:
    merged = IoStats()
    for part in parts:
        merged.objects_read += part.objects_read
        merged.bytes_read += part.bytes_read
        merged.simulated_seconds += part.simulated_seconds
        merged.touched |= part.touched
    return merged


class TwoStageExecutor:
    """Runs SQL with two-stage execution and automated lazy ingestion."""

    def __init__(
        self,
        db: Database,
        bindings: BindingSet | RepositoryBinding,
        cache: Optional[IngestionCache] = None,
        destiny: Optional[DestinyPolicy] = None,
        cost_model: Optional[CostModel] = None,
        strategy: str = BULK,
        derived=None,  # Optional[DerivedMetadataStore]
        estimate: bool = True,
        mount_workers: int = 1,
        on_mount_error: str = FAIL_FAST,
        verify_plans: Optional[bool] = None,
        selective_mounts: bool = True,
        budget: Optional[QueryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
        top_n_pushdown: bool = True,
    ) -> None:
        if isinstance(bindings, RepositoryBinding):
            bindings = BindingSet.single(bindings)
        if strategy not in (BULK, PER_FILE):
            raise ValueError(f"unknown strategy {strategy!r}")
        if mount_workers < 1:
            raise ValueError("mount_workers must be >= 1")
        if on_mount_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_mount_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_mount_error!r}"
            )
        self.db = db
        self.bindings = bindings
        # `cache or ...` would discard an *empty* cache (len() == 0 is falsy).
        self.cache = cache if cache is not None else IngestionCache()
        self.mounts = MountService(
            bindings,
            self.cache,
            buffers=db.buffers,
            on_error=on_mount_error,
            selective=selective_mounts,
        )
        # Selective mounts seek by the record byte map the metadata pass
        # recorded in R; the provider serves it per file, rebuilt only when
        # the R table's batch object changes (metadata loads replace it).
        self.mounts.record_map_provider = self._record_map
        self._record_spans: dict[str, tuple[RecordSpan, ...]] = {}
        self._record_spans_source: Optional[object] = None
        # Top-N/LIMIT pushdown: fuse Sort+Limit into TopN at compile time and
        # early-terminate provably non-contributing union branches at run
        # time. Off reproduces the exhaustive sort-then-slice pipeline (the
        # benchmark baseline).
        self.top_n_pushdown = top_n_pushdown
        # Statistics catalog (cost-based join orientation, branch hulls, the
        # mount access-path choice), rebuilt when the F batch it was
        # collected from is replaced by a metadata load.
        self._statistics: Optional[StatisticsCatalog] = None
        self._statistics_source: Optional[object] = None
        self.mounts.file_span_provider = (
            lambda uri: self.statistics().file_span(uri)
        )
        self.destiny = destiny or ProceedAlways()
        self.cost_model = cost_model or CostModel()
        self.strategy = strategy
        self.derived = derived
        self.estimate = estimate
        self.mount_workers = mount_workers
        # None inherits the database's setting (itself REPRO_VERIFY_PLANS-
        # defaulted), so one env var flips the whole pipeline.
        self.verify_plans = (
            db.verify_plans if verify_plans is None else verify_plans
        )
        # Session defaults for governance: `budget` applies to every
        # execute() unless that call passes its own; the breaker is shared
        # by every query this executor runs (that is its whole point).
        self.budget = budget
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.mounts.breaker = self.breaker
        self._governor: Optional[QueryGovernor] = None
        # Service-layer seams. A shared `scheduler` makes each execution's
        # mount pool a client of it instead of a private one-client
        # scheduler — the query service plugs its cross-query scheduler in
        # here, which is how single-flight generalizes beyond one query.
        # `charge_hook(bytes, records)` is handed to each execution's
        # governor as its on_charge callback (per-tenant accounting).
        self.scheduler: Optional[MountScheduler] = None
        self.charge_hook: Optional[Callable[[int, int], None]] = None
        # The last executed query's fused actual-data time interval (None
        # when unbounded or metadata-only) — the workload predictor's input.
        # unguarded-ok: written by the single executing thread between
        # queries; readers (session prefetch hooks) run on that same thread.
        self.last_query_interval: Optional[tuple[int, int]] = None
        if derived is not None:
            self.mounts.add_mount_callback(derived.on_mount)

    @property
    def on_mount_error(self) -> str:
        """The active degradation policy (``"fail"`` or ``"skip"``)."""
        return self.mounts.on_error

    @on_mount_error.setter
    def on_mount_error(self, policy: str) -> None:
        if policy not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_mount_error must be one of {ON_ERROR_POLICIES}, "
                f"got {policy!r}"
            )
        self.mounts.on_error = policy

    # -- compile-time ------------------------------------------------------------

    def _uri_column_of(self, table_name: str) -> str:
        binding = self.bindings.for_table(table_name)
        return binding.uri_column if binding is not None else "uri"

    def statistics(self) -> StatisticsCatalog:
        """The current statistics snapshot, rebuilt on metadata loads.

        Invalidation is keyed on the ``F`` table's batch object: lazy
        metadata ingestion replaces it (together with the other metadata
        batches), so identity tracks "has the metadata changed" without a
        version counter.
        """
        batch = (
            self.db.catalog.table(FILE_TABLE).batch
            if self.db.catalog.has_table(FILE_TABLE)
            else None
        )
        if self._statistics is None or self._statistics_source is not batch:
            self._statistics = collect_statistics(self.db.catalog, FILE_TABLE)
            self._statistics_source = batch
        return self._statistics

    def prepare(self, sql: str) -> Decomposition:
        """Steps 1: parse, bind, optimize metadata-first, decompose."""
        plan = self.db.bind_sql(sql)
        plan = self.db.optimize(
            plan,
            metadata_first=True,
            stats=self.statistics(),
            fuse_topn=self.top_n_pushdown,
        )
        decomposition = decompose(
            plan, self.db.catalog.is_metadata_table, self._uri_column_of
        )
        if self.verify_plans:
            verify_decomposition(
                decomposition, self.db.catalog.is_metadata_table
            )
        return decomposition

    def explain(self, sql: str) -> str:
        """The single optimized plan with the ``Qf`` branch marked."""
        return self.prepare(sql).explain()

    # -- execution ------------------------------------------------------------------

    def make_mount_pool(
        self, token: Optional[CancellationToken] = None
    ) -> MountPool:
        """A fresh per-query mount pool over this executor's mount service.

        :class:`~repro.core.multistage.MultiStageExecutor` reuses this so
        every stage of a multi-stage run shares one pool configuration.
        When a shared ``scheduler`` is installed (the query service does
        this), the pool is its client, charging this query's governor.
        """
        if self.scheduler is not None:
            return self.scheduler.client(token=token, governor=self._governor)
        return MountPool(
            self.mounts._extract,
            max_workers=self.mount_workers,
            fail_fast=self.mounts.on_error != SKIP_AND_REPORT,
            token=token,
        )

    def begin_governed(
        self,
        budget: Optional[QueryBudget],
        cancellation: Optional[CancellationToken],
    ) -> QueryGovernor:
        """Arm a governor for one execution and wire it into the mount path.

        Shared by :meth:`execute` and the multi-stage executor; pair with
        :meth:`end_governed` in a ``finally``.
        """
        governor = QueryGovernor(
            budget if budget is not None else self.budget,
            token=cancellation,
            on_charge=self.charge_hook,
        )
        self._governor = governor
        self.mounts.governor = governor
        self.mounts.cancellation = governor.token
        return governor

    def end_governed(self, governor: QueryGovernor) -> None:
        governor.close()
        self.mounts.governor = None
        self.mounts.cancellation = CancellationToken()
        self._governor = None

    def cancel(self, reason: str = "query cancelled by caller") -> bool:
        """Cancel the in-flight execution, if any; True when one was live.

        Thread-safe: meant to be called from another thread (a UI, a
        watchdog) while :meth:`execute` runs.
        """
        governor = self._governor
        if governor is None:
            return False
        governor.token.cancel(reason)
        return True

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> TwoStageResult:
        """Run one query under the governor.

        ``budget`` overrides the session default for this call;
        ``cancellation`` lets the caller hold the token (to cancel from
        another thread). Exceeding the budget raises
        :class:`~repro.db.errors.QueryBudgetExceeded`, or truncates with a
        report under ``on_budget="partial"``.
        """
        governor = self.begin_governed(budget, cancellation)
        lock_before = _sync.lock_snapshot()
        try:
            outcome = self._execute_governed(sql, governor)
            outcome.timings.lock_stats = _sync.lock_snapshot_delta(lock_before)
            return outcome
        finally:
            self.end_governed(governor)

    def _execute_governed(
        self, sql: str, governor: QueryGovernor
    ) -> TwoStageResult:
        timings = StageTimings()
        self.mounts.reset_failures()  # quarantine is per query
        started = time.perf_counter()
        decomposition = self.prepare(sql)
        timings.compile_seconds = time.perf_counter() - started
        self.last_query_interval = (
            self._query_interval(decomposition)
            if decomposition.qs is not None
            else None
        )

        ctx = self.db.make_context(mounter=self.mounts, governor=governor)
        breakpoint_info = BreakpointInfo()
        io_parts: list[IoStats] = []

        # A metadata-only query is answered entirely by stage 1 — "the first
        # stage of execution is naturally enough" (§3).
        if decomposition.metadata_only:
            result = self.db.execute_plan(decomposition.plan, ctx)
            timings.stage1_seconds = result.elapsed_cpu
            breakpoint_info.stage1_rows = result.num_rows
            breakpoint_info.stage1_seconds = result.elapsed_cpu
            return TwoStageResult(
                result, breakpoint_info, decomposition, timings,
                truncation=governor.truncation_report(),
            )

        # Stage 1: the metadata branch.
        if decomposition.qf is not None:
            stage1 = self.db.execute_plan(decomposition.qf, ctx)
            ctx.results[decomposition.result_tag] = stage1.batch
            timings.stage1_seconds = stage1.elapsed_cpu
            io_parts.append(stage1.io)
            breakpoint_info.stage1_rows = stage1.num_rows
            breakpoint_info.stage1_seconds = stage1.elapsed_cpu

        # Files of interest, per actual-table alias.
        opt_started = time.perf_counter()
        files_by_alias = self._files_of_interest(decomposition, ctx)
        files_by_alias, pruned_by_time = self._prune_by_time(
            decomposition, files_by_alias
        )
        breakpoint_info.files_by_alias = files_by_alias
        breakpoint_info.pruned_by_time = pruned_by_time

        if self.estimate:
            breakpoint_info.estimate = estimate_informativeness(
                self.db,
                breakpoint_info.files_of_interest,
                self._repository_file_count(decomposition),
                self.cache.cached_uris(),
                self.cost_model,
                interval=self._query_interval(decomposition),
            )
            decision = self.destiny.decide(breakpoint_info.estimate)
            breakpoint_info.decision = decision
            if decision.action is DestinyAction.ABORT:
                raise QueryAbortedError(
                    f"query aborted at breakpoint: {decision.reason}",
                    breakpoint_info,
                )
            approximate = False
            if decision.action is DestinyAction.LIMIT:
                assert decision.max_files is not None
                files_by_alias = {
                    alias: files[: decision.max_files]
                    for alias, files in files_by_alias.items()
                }
                breakpoint_info.files_by_alias = files_by_alias
                approximate = True
        else:
            approximate = False

        # Derived-metadata fast path (§5): answer summaries without mounting.
        if self.derived is not None:
            derived_result = self.derived.try_answer(
                decomposition, files_by_alias, ctx, self.db
            )
            if derived_result is not None:
                breakpoint_info.answered_from_derived = True
                timings.runtime_opt_seconds = time.perf_counter() - opt_started
                return TwoStageResult(
                    derived_result, breakpoint_info, decomposition, timings,
                    approximate=approximate,
                    truncation=governor.truncation_report(),
                )

        # Run-time optimization: rewrite rule (1).
        report = RewriteReport()
        assert decomposition.qs is not None
        rewritten = apply_ali_rewrite(
            decomposition.qs,
            files_by_alias,
            self.cache,
            time_column=self.mounts.time_column,
            report=report,
        )
        if self.verify_plans:
            verify_ali_rewrite(decomposition.qs, rewritten)
        breakpoint_info.rewrite = report
        timings.runtime_opt_seconds = time.perf_counter() - opt_started

        # Stage 2: mounts happen here, inside the plan. Both strategies
        # dispatch their mount branches through a MountPool — inline when
        # mount_workers == 1, fanned out to its worker threads otherwise.
        pool = self.make_mount_pool(token=governor.token)
        self.mounts.pool = pool
        termination = None
        if self.top_n_pushdown and self.strategy == BULK:
            termination = self._top_n_termination(rewritten, pool)
        try:
            if termination is not None:
                monitor, prefetch_mounts = termination
                ctx.branch_monitor = monitor
            else:
                monitor = None
                prefetch_mounts = [
                    node for node in rewritten.walk() if isinstance(node, Mount)
                ]
            pool.prefetch(
                [
                    (
                        node.table_name,
                        node.uri,
                        self.mounts.request_for(
                            node.uri, node.table_name, node.alias,
                            node.predicate,
                        ),
                    )
                    for node in prefetch_mounts
                    # Don't spend workers on files the breaker will refuse
                    # at mount time anyway (mount_file stays authoritative).
                    if not self.breaker.likely_blocked(node.uri)
                ]
            )
            if self.strategy == PER_FILE:
                stage2 = self._execute_per_file(rewritten, ctx)
            else:
                stage2 = self.db.execute_plan(rewritten, ctx)
                if monitor is not None and not monitor.safe():
                    # A skip the emitted rows do not justify (operators
                    # between the union and the TopN dropped part of the
                    # answer). Correctness wins: re-run exhaustively —
                    # released branches extract inline on this thread.
                    ctx.branch_monitor = None
                    stage2 = self.db.execute_plan(rewritten, ctx)
        finally:
            ctx.branch_monitor = None
            self.mounts.pool = None
            pool.close()
            timings.record_mounts(self.mount_workers, pool.timings)
            timings.mount_failures = self.mounts.failure_report
        timings.stage2_seconds = stage2.elapsed_cpu
        io_parts.append(stage2.io)

        combined = QueryResult(
            names=stage2.names,
            batch=stage2.batch,
            elapsed_cpu=timings.total_seconds,
            io=_merge_io(io_parts),
            stats=ctx.stats,
        )
        return TwoStageResult(
            combined, breakpoint_info, decomposition, timings,
            approximate=approximate,
            truncation=governor.truncation_report(),
        )

    # -- Top-N early termination -------------------------------------------------

    def _top_n_termination(
        self, rewritten: LogicalPlan, pool: MountPool
    ) -> Optional[tuple[TopNBranchMonitor, list[Mount]]]:
        """Arm branch skipping for one stage-2 execution, when sound.

        Returns the monitor (installed as the context's ``branch_monitor``)
        and the union's Mount branches in consumption-priority order — the
        prefetch order, so workers extract the most promising hulls first
        and the threshold tightens before the losers reach the front of the
        queue. None when the rewritten plan is not the recognized shape.
        """
        target = find_top_n_target(rewritten, self.mounts.time_column)
        if target is None:
            return None
        hulls = branch_hulls(target.union, self.statistics().file_span)
        branches = list(target.union.inputs)

        def on_skip(index: int) -> None:
            branch = branches[index]
            self.mounts.stats.early_terminated_branches += 1
            if isinstance(branch, Mount) and pool.release(
                branch.table_name, branch.uri
            ):
                self.mounts.stats.early_cancelled_mounts += 1

        monitor = TopNBranchMonitor(
            count=target.topn.count,
            ascending=target.ascending,
            key=target.key,
            hulls=hulls,
            on_skip=on_skip,
        )
        order = monitor.schedule(len(branches))
        prefetch_mounts = [
            branches[i] for i in order if isinstance(branches[i], Mount)
        ]
        return monitor, prefetch_mounts

    # -- breakpoint helpers ----------------------------------------------------------

    def _prune_by_time(
        self,
        decomposition: Decomposition,
        files_by_alias: dict[str, list[str]],
    ) -> tuple[dict[str, list[str]], int]:
        """Drop files whose metadata time span cannot satisfy the query's
        sample-time interval.

        A file's samples lie within ``[F.start_time, F.end_time]`` — that is
        what the metadata *means* — so when the actual-data predicate bounds
        ``sample_time`` to an interval disjoint from a file's span, that file
        contributes no rows and need not be mounted. This is metadata
        exploitation beyond the join structure (§5 "extending metadata"),
        and it is what keeps queries that constrain *only* D's time cheap.
        Disable per binding with ``prune_by_time=False``.
        """
        assert decomposition.qs is not None
        pruned_total = 0
        predicates = _actual_scan_predicates(decomposition.qs)
        result: dict[str, list[str]] = {}
        for info in decomposition.actual_scans:
            files = files_by_alias.get(info.alias, [])
            binding = self.bindings.for_table(info.table_name)
            predicate = predicates.get(info.alias)
            if (
                binding is None
                or not binding.prune_by_time
                or predicate is None
                or not files
            ):
                result[info.alias] = files
                continue
            time_key = f"{info.alias}.{binding.time_column}"
            lo, hi = interval_from_predicate(predicate, time_key)
            if lo == -INF and hi == INF:
                result[info.alias] = files
                continue
            spans = self._file_time_spans()
            kept = [
                uri
                for uri in files
                if uri not in spans
                or (spans[uri][0] <= hi and spans[uri][1] >= lo)
            ]
            pruned_total += len(files) - len(kept)
            result[info.alias] = kept
        return result, pruned_total

    def _query_interval(
        self, decomposition: Decomposition
    ) -> Optional[tuple[int, int]]:
        """The sample-time interval the query's actual-data predicate
        implies (None when unbounded) — used to estimate the answer size."""
        assert decomposition.qs is not None
        predicates = _actual_scan_predicates(decomposition.qs)
        for info in decomposition.actual_scans:
            binding = self.bindings.for_table(info.table_name)
            time_column = binding.time_column if binding else "sample_time"
            predicate = predicates.get(info.alias)
            if predicate is None:
                continue
            interval = interval_from_predicate(
                predicate, f"{info.alias}.{time_column}"
            )
            if interval != (-INF, INF):
                return interval
        return None

    def _file_time_spans(self) -> dict[str, tuple[int, int]]:
        """uri → (start_time, end_time) from the loaded ``F`` metadata."""
        return {
            uri: stats.span
            for uri, stats in self.statistics().files.items()
        }

    def _record_map(
        self, uri: str, table_name: str
    ) -> Optional[tuple[RecordSpan, ...]]:
        """One file's record byte map, served from the ``R`` metadata table.

        Returns None when R is absent, lacks the byte columns, or has no
        rows for the file — selective extraction then falls back to its own
        header walk. The map is rebuilt only when R's batch object changes
        (appends replace it), so repeated mounts in one query are O(1).
        """
        if not self.db.catalog.has_table(RECORD_TABLE):
            return None
        batch = self.db.catalog.table(RECORD_TABLE).batch
        if self._record_spans_source is not batch:
            required = (
                "uri", "record_id", "start_time", "end_time",
                "byte_offset", "byte_length",
            )
            if any(name not in batch.names for name in required):
                return None
            uris = batch.column("uri").to_pylist()
            record_ids = batch.column("record_id").to_pylist()
            starts = batch.column("start_time").to_pylist()
            ends = batch.column("end_time").to_pylist()
            offsets = batch.column("byte_offset").to_pylist()
            lengths = batch.column("byte_length").to_pylist()
            by_uri: dict[str, list[RecordSpan]] = {}
            for u, rid, st, et, off, ln in zip(
                uris, record_ids, starts, ends, offsets, lengths
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

    def _repository_file_count(self, decomposition: Decomposition) -> int:
        tables = {info.table_name.lower() for info in decomposition.actual_scans}
        total = 0
        seen = set()
        for table in tables:
            binding = self.bindings.for_table(table)
            if binding is not None and id(binding) not in seen:
                seen.add(id(binding))
                total += len(binding.repository)
        return total

    def _files_of_interest(self, decomposition: Decomposition, ctx) -> dict[str, list[str]]:
        files_by_alias: dict[str, list[str]] = {}
        qf_batch = ctx.results.get(decomposition.result_tag)
        for info in decomposition.actual_scans:
            if info.link_key is not None and qf_batch is not None:
                values = qf_batch.column(info.link_key).to_pylist()
                files_by_alias[info.alias] = list(dict.fromkeys(values))
            else:
                # No metadata constraint: every file is of interest (§4's
                # worst case).
                binding = self.bindings.for_table(info.table_name)
                files_by_alias[info.alias] = (
                    binding.repository.uris() if binding is not None else []
                )
        return files_by_alias

    # -- strategy (b): per-file partials --------------------------------------------

    def _execute_per_file(self, rewritten: LogicalPlan, ctx) -> QueryResult:
        """Run higher operators per sub-table and merge (§3 choice (b)).

        Falls back to bulk execution when the plan shape does not decompose
        (no aggregate, non-decomposable aggregate, or several unions).
        """
        aggregate = next(
            (n for n in rewritten.walk() if isinstance(n, Aggregate)), None
        )
        unions = [n for n in rewritten.walk() if isinstance(n, UnionAll)]
        if (
            aggregate is None
            or len(unions) != 1
            or not is_decomposable(aggregate)
            or not _union_below(aggregate, unions[0])
            or not all(
                isinstance(b, (Mount, CacheScan)) for b in unions[0].inputs
            )
        ):
            return self.db.execute_plan(rewritten, ctx)

        union = unions[0]
        merger = PartialMerger(aggregate)
        for branch in union.inputs:
            child = _replace_subtree(
                aggregate.child, union, UnionAll([branch])
            )
            partial_plan = merger.partial_aggregate_node(child)
            partial = self.db.execute_plan(partial_plan, ctx)
            merger.merge(partial.rows(), partial.names)

        final_batch = batch_from_rows(aggregate.output, merger.finalized_rows())
        ctx.results[_PARTIAL_TAG] = final_batch
        remainder = _replace_subtree(
            rewritten, aggregate, ResultScan(_PARTIAL_TAG, list(aggregate.output))
        )
        return self.db.execute_plan(remainder, ctx)


def _union_below(root: LogicalPlan, union: UnionAll) -> bool:
    return any(node is union for node in root.walk())


def _actual_scan_predicates(qs: LogicalPlan) -> dict[str, object]:
    """alias → the selection predicate sitting directly on its scan.

    Only the fused ``Select(Scan)`` shape matters: that is the predicate
    rule (1) will push into every mount branch, and the one whose time
    bounds can prune files via metadata.
    """
    from ..db.plan.logical import Scan, Select

    predicates: dict[str, object] = {}
    for node in qs.walk():
        if isinstance(node, Select) and isinstance(node.child, Scan):
            predicates[node.child.alias] = node.predicate
    return predicates
