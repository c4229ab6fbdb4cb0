"""The service layer: shared-work scheduling, tenancy, and equivalence.

Four obligations, each with its own cell:

* **Equivalence** — a service answer must be byte-identical to the same
  query in an independent session, across scheduler worker counts and both
  ends of the throughput ↔ fairness knob. Sharing is an optimization, never
  a semantic.
* **Fairness** — the scheduler's aging term must eventually outrank any
  popularity bias: a lone low-overlap query beats a fresh popular task once
  it has waited long enough, even at ``throughput_bias=1.0``.
* **Isolation** — one tenant hammering a broken file trips only its own
  circuit breaker; another tenant's queries stay byte-identical. Admission
  control sheds deterministically on queue depth and on an exhausted
  tenant byte ledger.
* **Ownership** — the shared cache's first-store-wins story holds under a
  thread hammer: one entry, exact byte accounting, every loser counted.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import IngestionCache, TwoStageExecutor
from repro.core.cache import CachePolicy
from repro.core.mounting import ExtractResult
from repro.db import Database
from repro.db.errors import (
    CircuitOpenError,
    DatabaseError,
    FileIngestError,
    QueryShedError,
)
from repro.db.column import Column
from repro.db.table import ColumnBatch
from repro.db.types import DataType
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.ingest.formats import MountRequest
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.serve import (
    MountScheduler,
    QueryService,
    SchedulerPolicy,
    TenantPolicy,
    build_workload,
    run_comparison,
    run_service_load,
    run_standalone_baseline,
)
from repro.testing import (
    RECOVERABLE_KINDS,
    TRANSIENT_OSERROR,
    FaultPlan,
    FaultSpec,
)

SERVE_SEED = 20130610  # same fixed seed discipline as the chaos suite

# tiny_spec scale; records span 20000s so the driver's mid-day windows fall
# in a record whose start_time clears the strict R.start_time > day_start
# predicate (a spec with day-long records would make every answer empty).
SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=2,
    sample_rate=0.05,
    samples_per_record=1000,
)


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_repo")
    generate_repository(root, SPEC)
    return FileRepository(root)


@pytest.fixture(scope="module")
def metadata_db(repo):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return db


def _service(repo, db=None, **kwargs):
    kwargs.setdefault(
        "scheduler_policy", SchedulerPolicy(batch_window_seconds=0.01)
    )
    return QueryService(repo, db=db, **kwargs)


# -- scheduler unit cells (fake clock, no threads) ---------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _batch(name: str, values: list[int]) -> ColumnBatch:
    return ColumnBatch([name], [Column.from_pylist(DataType.INT64, values)])


def _result(tag: str = "x") -> ExtractResult:
    return ExtractResult(
        batch=_batch(tag, [0]), io_seconds=0.0, bytes_read=100
    )


class TestSchedulerUnit:
    def _scheduler(self, extract, bias=1.0, clock=None):
        return MountScheduler(
            extract,
            policy=SchedulerPolicy(
                throughput_bias=bias,
                aging_seconds=0.25,
                batch_window_seconds=0.0,
            ),
            workers=0,
            clock=clock or FakeClock(),
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(throughput_bias=1.5)
        with pytest.raises(ValueError):
            SchedulerPolicy(aging_seconds=0.0)
        with pytest.raises(ValueError):
            SchedulerPolicy(batch_window_seconds=-1.0)

    def test_throughput_bias_prefers_popular_task(self):
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), clock=clock)
        sched.register(1, [("d", "lone.xseed", None)])
        sched.register(2, [("d", "popular.xseed", None)])
        sched.register(3, [("d", "popular.xseed", None)])
        sched.register(4, [("d", "popular.xseed", None)])
        # Same age, three waiters vs one: the biased knob picks popularity.
        assert sched.peek_next() == ("d", "popular.xseed")

    def test_fifo_at_zero_bias(self):
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), bias=0.0, clock=clock)
        sched.register(1, [("d", "first.xseed", None)])
        clock.now = 0.1
        sched.register(2, [("d", "second.xseed", None)])
        sched.register(3, [("d", "second.xseed", None)])
        # Bias 0 ignores the crowd entirely: strict arrival order.
        assert sched.peek_next() == ("d", "first.xseed")

    def test_starvation_aging_beats_full_throughput_bias(self):
        """A lone old task outranks a fresh popular one even at bias=1.0."""
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), bias=1.0, clock=clock)
        sched.register(1, [("d", "lone.xseed", None)])
        # Heavy overlap load arrives much later; the lone task has aged.
        clock.now = 2.0
        for client in (2, 3, 4, 5):
            sched.register(client, [("d", "popular.xseed", None)])
        # lone: 1 waiter + 2.0s/0.25s aging = 9.0; popular: 4 waiters + 0.
        assert sched.peek_next() == ("d", "lone.xseed")
        # And a *fresh* lone task would lose to the same crowd.
        sched.register(6, [("d", "fresh.xseed", None)])
        tasks = sched.register(1, [("d", "lone.xseed", None)])
        result, _ = sched.take(1, tasks[("d", "lone.xseed")])
        assert sched.peek_next() == ("d", "popular.xseed")

    def test_shared_extraction_single_flight(self):
        calls: list[str] = []

        def extract(uri, table, request):
            calls.append(uri)
            return _result()

        sched = self._scheduler(extract)
        tasks_a = sched.register(1, [("d", "shared.xseed", None)])
        tasks_b = sched.register(2, [("d", "shared.xseed", None)])
        result_a, _ = sched.take(1, tasks_a[("d", "shared.xseed")])
        result_b, _ = sched.take(2, tasks_b[("d", "shared.xseed")])
        assert calls == ["shared.xseed"]
        assert result_a is result_b
        assert sched.stats.grants == 2
        assert sched.stats.shared_grants == 1
        assert sched.stats.bytes_shared == 100
        # Fully consumed: the task table must not leak.
        assert sched.pending_tasks() == 0

    def test_pending_requests_hull_merge(self):
        seen: list[MountRequest] = []

        def extract(uri, table, request):
            seen.append(request)
            return _result()

        sched = self._scheduler(extract)
        tasks = sched.register(
            1, [("d", "f.xseed", MountRequest(interval=(100, 200)))]
        )
        sched.register(
            2, [("d", "f.xseed", MountRequest(interval=(150, 400)))]
        )
        sched.take(1, tasks[("d", "f.xseed")])
        assert seen[0].interval == (100, 400)

    def test_failure_delivered_to_every_waiter_then_fresh_task(self):
        calls: list[str] = []

        def extract(uri, table, request):
            calls.append(uri)
            raise FileIngestError("boom", uri=uri)

        sched = self._scheduler(extract)
        tasks_a = sched.register(1, [("d", "bad.xseed", None)])
        tasks_b = sched.register(2, [("d", "bad.xseed", None)])
        with pytest.raises(FileIngestError):
            sched.take(1, tasks_a[("d", "bad.xseed")])
        with pytest.raises(FileIngestError):
            sched.take(2, tasks_b[("d", "bad.xseed")])
        assert calls == ["bad.xseed"]  # one attempt, both waiters told
        # A later query never inherits the stale failure: fresh attempt.
        tasks_c = sched.register(3, [("d", "bad.xseed", None)])
        with pytest.raises(FileIngestError):
            sched.take(3, tasks_c[("d", "bad.xseed")])
        assert calls == ["bad.xseed", "bad.xseed"]
        assert sched.stats.tasks_failed == 2

    def test_withdraw_drops_unconsumed_interest(self):
        sched = self._scheduler(lambda *a: _result())
        tasks = sched.register(1, [("d", "f.xseed", None)])
        sched.withdraw(1, list(tasks.values()))
        assert sched.stats.withdrawn == 1
        assert sched.pending_tasks() == 0


class TestSchedulerLifecycle:
    def test_concurrent_start_spawns_workers_once(self):
        """Regression: start() used to check ``self._threads`` outside the
        lock, so two racing callers could each see the empty list and spawn
        a double complement of workers."""
        workers = 3
        sched = MountScheduler(
            lambda *a: _result(),
            policy=SchedulerPolicy(batch_window_seconds=0.0),
            workers=workers,
        )
        barrier = threading.Barrier(4)

        def start() -> None:
            barrier.wait(2.0)
            sched.start()

        starters = [threading.Thread(target=start) for _ in range(4)]
        for t in starters:
            t.start()
        for t in starters:
            t.join(2.0)
        with sched._lock:
            spawned = list(sched._threads)
        assert len(spawned) == workers
        sched.close()
        assert all(not t.is_alive() for t in spawned)

    def test_close_is_idempotent_and_restartable(self):
        sched = MountScheduler(
            lambda *a: _result(),
            policy=SchedulerPolicy(batch_window_seconds=0.0),
            workers=2,
        )
        sched.start()
        sched.close()
        sched.close()  # second close finds no threads to join
        sched.start()  # restart spawns a fresh complement
        with sched._lock:
            assert len(sched._threads) == 2
        sched.close()


# -- end-to-end equivalence ---------------------------------------------------


class TestServiceEquivalence:
    @pytest.mark.parametrize(
        "workers,bias", [(1, 0.0), (1, 1.0), (4, 0.0), (4, 1.0)]
    )
    def test_answers_byte_identical_across_grid(self, repo, workers, bias):
        service = QueryService(
            repo,
            mount_workers=workers,
            scheduler_policy=SchedulerPolicy(
                throughput_bias=bias, batch_window_seconds=0.01
            ),
        )
        try:
            report = run_comparison(
                repo, SPEC, clients=4, queries_per_client=2, service=service
            )
        finally:
            service.close()
        assert report.identical, report.mismatches
        assert report.service_stats.queries_failed == 0
        # Never worse than independent sessions on aggregate disk bytes.
        assert report.service.mount_bytes <= report.baseline.mount_bytes
        # Every query ended consumed or withdrawn: no leaked scheduler tasks.
        assert service.scheduler.pending_tasks() == 0

    def test_concurrent_load_shares_extractions(self, repo):
        workload = build_workload(SPEC, clients=4, queries_per_client=2)
        service = _service(repo)
        try:
            result = run_service_load(service, workload)
            stats = service.stats()
        finally:
            service.close()
        assert all(o.error is None for o in result.outcomes)
        # 8 queries over 2 distinct files: sharing must have happened via
        # the scheduler, the cache fast path, or both.
        assert (
            stats.scheduler.shared_grants + stats.cache.hits
        ) > 0, stats.describe()

    def test_session_runs_unchanged_over_tenant_client(self, repo):
        from repro.explore import ExplorationSession

        with _service(repo) as service:
            session = ExplorationSession(engine=service.client("sci"))
            value = session.quick_look("ISK", "BHE", SPEC.start_day)
        standalone = ExplorationSession(
            engine=TwoStageExecutor(
                _fresh_db(repo), RepositoryBinding(repo)
            )
        )
        assert value == standalone.quick_look("ISK", "BHE", SPEC.start_day)


class TestServiceTimings:
    def test_mount_timings_name_the_extracting_worker(self, repo, metadata_db):
        """Regression: a service query's timings attributed every file to
        worker 0, so ``mount_speedup`` read 1.0 whatever ``mount_workers``
        was. Each file now names the thread that actually extracted it."""
        sql = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"
        with _service(repo, db=metadata_db, mount_workers=2) as service:
            outcome = service.execute(sql)
        timings = outcome.timings
        assert timings.mount_files == len(repo.uris())
        assert len(timings.mount_worker_seconds) >= 2
        assert timings.mount_speedup > 1.0
        standalone = TwoStageExecutor(_fresh_db(repo), RepositoryBinding(repo))
        assert outcome.rows == standalone.execute(sql).rows


def _fresh_db(repo):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return db


# -- chaos: faults under concurrency, tenant isolation -----------------------


class TestServeChaos:
    def test_recoverable_faults_absorbed_under_load(self, repo):
        workload = build_workload(SPEC, clients=3, queries_per_client=2)
        plan = FaultPlan.seeded(
            SERVE_SEED,
            repo.uris(),
            kinds=RECOVERABLE_KINDS,
            fault_rate=1.0,
            times=1,  # within the shared extractor's retry budget
        )
        assert plan.specs
        service = _service(repo)
        try:
            with plan.install():
                noisy = run_service_load(service, workload)
        finally:
            service.close()
        baseline = run_standalone_baseline(
            _fresh_db(repo), repo, workload
        )
        assert noisy.answers() == baseline.answers()
        assert all(o.error is None for o in noisy.outcomes)

    def test_tenant_breaker_isolation(self, repo, metadata_db):
        """Tenant A hammering a permanently broken file trips only A's
        breaker; tenant B's answers stay byte-identical to standalone."""
        f_rows = metadata_db.execute(
            "SELECT uri, station, channel, start_time FROM F ORDER BY uri"
        ).rows()
        victim_uri, v_station, v_channel, v_start = f_rows[0]
        other = next(
            r for r in f_rows if (r[1], r[2]) != (v_station, v_channel)
        )

        def day_query(station, channel, start_us):
            from repro.serve.driver import _rows_query

            base = int(start_us) + 6 * 3600 * 1_000_000
            return _rows_query(
                station, channel, int(start_us), base, base + 40 * 60 * 1_000_000
            )

        sql_a = day_query(v_station, v_channel, v_start)
        sql_b = day_query(other[1], other[2], other[3])
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim_uri, kind=TRANSIENT_OSERROR, times=-1)]
        )
        service = _service(repo, db=metadata_db)
        try:
            with plan.install():
                # Three failures open tenant A's breaker...
                for _ in range(3):
                    with pytest.raises(FileIngestError):
                        service.execute(sql_a, tenant="noisy")
                # ...after which A is refused outright, without extraction.
                with pytest.raises(CircuitOpenError):
                    service.execute(sql_a, tenant="noisy")
                # Tenant B is untouched: same faults installed, different
                # file, own breaker — byte-identical to standalone.
                served = service.execute(sql_b, tenant="quiet").rows
        finally:
            service.close()
        standalone = (
            TwoStageExecutor(_fresh_db(repo), RepositoryBinding(repo))
            .execute(sql_b)
            .rows
        )
        assert served == standalone
        snapshot = {t.name: t for t in service.stats().tenants}
        assert snapshot["noisy"].failed == 4
        assert snapshot["quiet"].failed == 0


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_queue_depth_shedding(self, repo, metadata_db):
        service = _service(
            repo,
            db=metadata_db,
            default_policy=TenantPolicy(max_queue_depth=0),
        )
        try:
            with pytest.raises(QueryShedError) as excinfo:
                service.execute("SELECT COUNT(*) FROM F", tenant="t0")
        finally:
            service.close()
        assert excinfo.value.tenant == "t0"
        assert isinstance(excinfo.value, DatabaseError)
        snapshot = {t.name: t for t in service.stats().tenants}
        assert snapshot["t0"].shed == 1
        assert snapshot["t0"].admitted == 0

    def test_byte_ledger_shedding(self, repo, metadata_db):
        workload = build_workload(SPEC, clients=1, queries_per_client=1)
        sql = workload[0][0]
        service = _service(
            repo,
            db=metadata_db,
            default_policy=TenantPolicy(max_total_mount_bytes=1),
        )
        try:
            # First query is admitted (ledger empty) and mounts past the
            # allowance; the next admission for the same tenant sheds.
            first = service.execute(sql, tenant="greedy")
            assert first.result.num_rows > 0
            with pytest.raises(QueryShedError):
                service.execute(sql, tenant="greedy")
            # A different tenant has its own ledger and is unaffected.
            other = service.execute(sql, tenant="frugal")
            assert other.rows == first.rows
        finally:
            service.close()
        snapshot = {t.name: t for t in service.stats().tenants}
        assert snapshot["greedy"].bytes_charged > 1
        assert snapshot["greedy"].shed == 1
        assert snapshot["frugal"].shed == 0

    def test_closed_service_sheds(self, repo, metadata_db):
        service = _service(repo, db=metadata_db)
        service.close()
        with pytest.raises(QueryShedError):
            service.execute("SELECT COUNT(*) FROM F")


# -- cache ownership under concurrency ---------------------------------------


class TestCacheOwnership:
    def test_first_store_wins_hammer(self):
        cache = IngestionCache(policy=CachePolicy.UNBOUNDED)
        batch = _batch("v", list(range(64)))
        threads = 16
        barrier = threading.Barrier(threads)

        def store():
            barrier.wait()
            cache.store("contested.xseed", batch)

        workers = [threading.Thread(target=store) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(cache) == 1
        assert cache.stats.insertions == 1
        assert cache.stats.duplicate_stores == threads - 1
        assert cache.stats.current_bytes == batch.nbytes()


class TestSchedulerHints:
    """Speculative prefetch tasks: run only when idle, never delay a real
    query, and their results land in the shared cache via the callback."""

    def _scheduler(self, extract, clock=None, workers=0, on_hint_result=None):
        return MountScheduler(
            extract,
            policy=SchedulerPolicy(
                throughput_bias=1.0,
                aging_seconds=0.25,
                batch_window_seconds=0.0,
            ),
            workers=workers,
            clock=clock or FakeClock(),
            on_hint_result=on_hint_result,
        )

    def test_hint_runs_only_when_no_real_task_pends(self):
        sched = self._scheduler(lambda *a: _result())
        assert sched.hint([("d", "spec.xseed", None)]) == 1
        assert sched.stats.hints_registered == 1
        assert sched.peek_next() == ("d", "spec.xseed")
        # A real query arrives: it outranks the older hint outright.
        sched.register(1, [("d", "real.xseed", None)])
        assert sched.peek_next() == ("d", "real.xseed")

    def test_hint_on_live_key_is_skipped(self):
        sched = self._scheduler(lambda *a: _result())
        sched.register(1, [("d", "busy.xseed", None)])
        assert sched.hint([("d", "busy.xseed", None)]) == 0
        assert sched.stats.hints_registered == 0
        # And a second hint on an already-hinted key is also one task only.
        assert sched.hint([("d", "spec.xseed", None)]) == 1
        assert sched.hint([("d", "spec.xseed", None)]) == 0

    def test_real_client_joins_pending_hint(self):
        """A query landing on a hinted key rides the same task — no second
        extraction, normal take() semantics."""
        calls = []

        def extract(uri, table, request):
            calls.append(uri)
            return _result()

        sched = self._scheduler(extract)
        sched.hint([("d", "shared.xseed", None)])
        joined = sched.register(7, [("d", "shared.xseed", None)])
        task = joined[("d", "shared.xseed")]
        result, _ = sched.take(7, task)
        assert result.batch.num_rows == 1
        assert calls == ["shared.xseed"]
        assert sched.peek_next() is None

    def test_pending_hint_survives_waiter_reaping(self):
        """Withdrawing the joining client must not reap the still-pending
        hint — speculation keeps its slot until a worker runs it."""
        sched = self._scheduler(lambda *a: _result())
        sched.hint([("d", "spec.xseed", None)])
        joined = sched.register(1, [("d", "spec.xseed", None)])
        sched.withdraw(1, list(joined.values()))
        assert sched.peek_next() == ("d", "spec.xseed")
        assert sched.pending_tasks() == 1

    def test_worker_runs_hint_and_stores_via_callback(self):
        stored = []

        def on_hint_result(key, request, result):
            stored.append((key, request, result.bytes_read))

        sched = self._scheduler(
            lambda *a: _result(),
            workers=1,
            on_hint_result=on_hint_result,
        )
        try:
            sched.start()
            assert sched.hint([("d", "spec.xseed", None)]) == 1
            pacer = threading.Event()
            for _ in range(500):
                if sched.stats.hint_extractions == 1:
                    break
                pacer.wait(0.01)
            assert sched.stats.hint_extractions == 1
            assert stored == [(("d", "spec.xseed"), None, 100)]
        finally:
            sched.close()

    def test_hint_callback_failure_is_absorbed(self):
        def exploding(key, request, result):
            raise RuntimeError("cache said no")

        sched = self._scheduler(
            lambda *a: _result(), workers=1, on_hint_result=exploding
        )
        try:
            sched.start()
            sched.hint([("d", "spec.xseed", None)])
            pacer = threading.Event()
            for _ in range(500):
                if sched.stats.hint_extractions == 1:
                    break
                pacer.wait(0.01)
            assert sched.stats.hint_extractions == 1
            # The scheduler still serves real work after the bad callback.
            joined = sched.register(1, [("d", "real.xseed", None)])
            result, _ = sched.take(1, joined[("d", "real.xseed")])
            assert result.batch.num_rows == 1
        finally:
            sched.close()

    def test_hint_after_close_is_refused(self):
        sched = self._scheduler(lambda *a: _result())
        sched.close()
        assert sched.hint([("d", "spec.xseed", None)]) == 0


class TestServicePrefetch:
    def test_answers_identical_with_prefetch_on(self, repo):
        """Prefetch is a performance lever only: the full comparison grid
        must stay byte-identical with speculative mounts in flight."""
        service = QueryService(
            repo,
            prefetch=True,
            mount_workers=2,
            scheduler_policy=SchedulerPolicy(batch_window_seconds=0.01),
        )
        try:
            report = run_comparison(
                repo, SPEC, clients=4, queries_per_client=3, service=service
            )
            stats = service.stats()
        finally:
            service.close()
        assert report.identical, report.mismatches
        assert report.service_stats.queries_failed == 0
        assert service.scheduler.pending_tasks() == 0
        # The per-tenant predictors observed every completed query.
        assert stats.queries_completed == 12
