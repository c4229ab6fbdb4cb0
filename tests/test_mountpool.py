"""Unit tests for the stage-2 mount engine (core/mountpool.py).

These test the pool — one query's client of a private scheduler — against
a synthetic extract function: ordering, single-flight, backpressure, work
stealing, error propagation, cancellation and endpoint round-robin —
without standing up a repository. End-to-end equivalence under ``mount_workers=4``
lives in test_equivalence_property.py; failure injection through a real
executor lives in test_failure_injection.py.
"""

import sys
import threading
import time

import pytest

from repro.core.governor import CancellationToken
from repro.core.mounting import ExtractResult
from repro.core.mountpool import (
    MountPool,
    MountPoolTimings,
    MountScheduler,
    MountTaskTiming,
    SchedulerPolicy,
)
from repro.db import Column, ColumnBatch, DataType
from repro.db.errors import IngestError, QueryCancelledError


def tagged_batch(uri):
    """A one-row batch whose value identifies the uri it came from."""
    return ColumnBatch(
        ["tag"], [Column.from_pylist(DataType.INT64, [hash(uri) % 10**9])]
    )


def tagged_result(uri, io_seconds=0.0):
    return ExtractResult(batch=tagged_batch(uri), io_seconds=io_seconds)


class RecordingExtract:
    """An ExtractFn that records call order, threads, and concurrency."""

    def __init__(self, delay=0.0, fail_uris=(), block_uris=()):
        self.delay = delay
        self.fail_uris = set(fail_uris)
        self.block_uris = set(block_uris)
        self.unblock = threading.Event()
        self.calls = []
        self.threads = {}
        self.requests = {}
        self._lock = threading.Lock()

    def __call__(self, uri, table_name, request=None):
        with self._lock:
            self.calls.append(uri)
            self.threads[uri] = threading.get_ident()
            self.requests[uri] = request
        if uri in self.block_uris:
            assert self.unblock.wait(timeout=10), "extract left blocked"
        if self.delay:
            time.sleep(self.delay)
        if uri in self.fail_uris:
            raise IngestError(f"injected failure for {uri}")
        return tagged_result(uri, 0.008)  # pretend one simulated seek


def keys(n):
    return [("D", f"file-{i:03}.xseed") for i in range(n)]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_results_match_keys_in_plan_order(workers):
    tasks = keys(20)
    extract = RecordingExtract()
    with MountPool(extract, max_workers=workers) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            batch = pool.take(uri, table_name).batch
            assert batch.column("tag").values[0] == hash(uri) % 10**9
    assert sorted(extract.calls) == sorted(uri for _, uri in tasks)
    assert pool.timings.files == 20


def test_serial_fallback_stays_on_consumer_thread():
    tasks = keys(6)
    extract = RecordingExtract()
    with MountPool(extract, max_workers=1) as pool:
        pool.prefetch(tasks)
        assert not pool._scheduler._threads  # no threads were started
        for table_name, uri in tasks:
            pool.take(uri, table_name)
    me = threading.get_ident()
    assert all(ident == me for ident in extract.threads.values())
    # Inline extraction still extracts lazily, in take order.
    assert extract.calls == [uri for _, uri in tasks]


def test_single_flight_extracts_once_serves_every_take():
    (key,) = keys(1)
    table_name, uri = key
    # A self-join takes the same file twice; a second distinct key keeps the
    # pool out of its serial fallback.
    other = ("D", "other.xseed")
    extract = RecordingExtract()
    with MountPool(extract, max_workers=2) as pool:
        pool.prefetch([key, other, key])
        first = pool.take(uri, table_name).batch
        second = pool.take(other[1], other[0]).batch
        third = pool.take(uri, table_name).batch
    assert extract.calls.count(uri) == 1
    assert first.column("tag").values[0] == third.column("tag").values[0]
    assert second.column("tag").values[0] == hash(other[1]) % 10**9


def test_unprefetched_take_extracts_inline():
    extract = RecordingExtract()
    with MountPool(extract, max_workers=4) as pool:
        batch = pool.take("surprise.xseed", "D").batch
    assert batch.num_rows == 1
    assert extract.threads["surprise.xseed"] == threading.get_ident()


def test_backpressure_bounds_unconsumed_batches():
    """At most max_inflight batches are running-or-unconsumed at once."""
    inflight = 3
    produced = []
    consumed = []
    lock = threading.Lock()
    high_water = [0]

    def extract(uri, table_name, request=None):
        with lock:
            produced.append(uri)
            high_water[0] = max(
                high_water[0], len(produced) - len(consumed)
            )
        return tagged_result(uri)

    tasks = keys(24)
    with MountPool(extract, max_workers=4, max_inflight=inflight) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            time.sleep(0.002)  # slow consumer: producers must wait
            pool.take(uri, table_name)
            with lock:
                consumed.append(uri)
    assert high_water[0] <= inflight
    assert len(produced) == len(tasks)


def test_slow_consumer_never_deadlocks():
    """Regression: workers once claimed tasks before backpressure slots, so
    a consumer waiting on a claimed-but-slotless task deadlocked against
    completed batches for later branches holding every slot."""
    tasks = keys(40)
    extract = RecordingExtract()
    with MountPool(extract, max_workers=4, max_inflight=4) as pool:
        pool.prefetch(tasks)
        for table_name, uri in tasks:
            time.sleep(0.001)
            pool.take(uri, table_name)
    assert pool.timings.files == len(tasks)


def test_consumer_steals_when_workers_are_busy():
    """Work conservation: a branch whose task no worker has claimed yet is
    extracted inline instead of waiting behind the blocked workers."""
    blocked = [("D", "slow-a.xseed"), ("D", "slow-b.xseed")]
    wanted = ("D", "wanted.xseed")
    extract = RecordingExtract(block_uris={uri for _, uri in blocked})
    pool = MountPool(extract, max_workers=2)
    try:
        pool.prefetch(blocked + [wanted])
        # Both workers are stuck inside the blocking extracts; the third
        # task is still queued, so the consumer takes it inline.
        deadline = time.monotonic() + 5
        while len(extract.calls) < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        batch = pool.take(wanted[1], wanted[0]).batch
        assert extract.threads[wanted[1]] == threading.get_ident()
        assert batch.num_rows == 1
        extract.unblock.set()
        for table_name, uri in blocked:
            pool.take(uri, table_name)
    finally:
        extract.unblock.set()
        pool.close()


def test_worker_failure_cancels_and_surfaces_uri():
    tasks = keys(12)
    bad_uri = tasks[3][1]
    extract = RecordingExtract(delay=0.002, fail_uris={bad_uri})
    with MountPool(extract, max_workers=4, max_inflight=4) as pool:
        pool.prefetch(tasks)
        with pytest.raises(IngestError) as excinfo:
            for table_name, uri in tasks:
                pool.take(uri, table_name)
        assert excinfo.value.mount_uri == bad_uri
        assert pool.first_error is excinfo.value
        assert pool.failed_uri == bad_uri
        # The pool is poisoned: every later take re-raises the first error.
        with pytest.raises(IngestError):
            pool.take(tasks[-1][1], tasks[-1][0])
    # Cancellation kept the pool from extracting the whole repository.
    assert len(extract.calls) < len(tasks)


@pytest.mark.parametrize("workers", [2, 4])
def test_skip_mode_poisons_only_the_failed_key(workers):
    """With fail_fast=False one bad file must not cancel the rest: every
    other branch completes, and only takes of the failed key raise."""
    tasks = keys(12)
    bad_uri = tasks[3][1]
    extract = RecordingExtract(delay=0.002, fail_uris={bad_uri})
    with MountPool(extract, max_workers=workers, fail_fast=False) as pool:
        pool.prefetch(tasks)
        failures = []
        for table_name, uri in tasks:
            try:
                batch = pool.take(uri, table_name).batch
            except IngestError as exc:
                failures.append((uri, exc))
                continue
            assert batch.column("tag").values[0] == hash(uri) % 10**9
        assert [uri for uri, _ in failures] == [bad_uri]
        assert failures[0][1].mount_uri == bad_uri
        assert pool.first_error is None  # pool never poisoned
    # Every file was attempted — nothing was cancelled.
    assert sorted(extract.calls) == sorted(uri for _, uri in tasks)


def test_skip_mode_serial_fallback():
    tasks = keys(6)
    bad_uri = tasks[2][1]
    extract = RecordingExtract(fail_uris={bad_uri})
    with MountPool(extract, max_workers=1, fail_fast=False) as pool:
        pool.prefetch(tasks)
        outcomes = []
        for table_name, uri in tasks:
            try:
                pool.take(uri, table_name)
                outcomes.append("ok")
            except IngestError:
                outcomes.append("fail")
    assert outcomes == ["ok", "ok", "fail", "ok", "ok", "ok"]


def test_stress_single_flight_and_bound_with_fast_thread_switching():
    """More workers than cores, duplicate keys and a tight in-flight bound,
    with the interpreter switching threads every few microseconds: every
    file is extracted exactly once, every take gets its own file, at most
    the bound (plus the consumer's own steal) extracts at once, and no task
    outlives the pool."""
    plan = keys(120)
    plan += plan[::3]  # a self-join: every third file is taken twice
    running = [0, 0]  # current, high-water
    lock = threading.Lock()
    calls = []

    def extract(uri, table_name, request=None):
        with lock:
            calls.append(uri)
            running[0] += 1
            running[1] = max(running[1], running[0])
        try:
            return tagged_result(uri)
        finally:
            with lock:
                running[0] -= 1

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MountPool(extract, max_workers=8, max_inflight=4) as pool:
            pool.prefetch(plan)
            for table_name, uri in plan:
                batch = pool.take(uri, table_name).batch
                assert batch.column("tag").values[0] == hash(uri) % 10**9
    finally:
        sys.setswitchinterval(previous)
    assert sorted(calls) == sorted(uri for _, uri in keys(120))
    assert running[1] <= 4 + 1
    assert pool._scheduler.pending_tasks() == 0
    assert not pool._scheduler._tasks


def test_federated_prefetch_is_claimed_round_robin():
    """A federated plan lists each endpoint's files contiguously; they are
    claimed alternately across endpoints so no source idles, while takes
    still drain in plan order with every answer unchanged."""
    plan = [
        ("D", f"remote://{endpoint}/file-{i}.xseed")
        for endpoint in ("seis-eu", "seis-us")
        for i in range(3)
    ]
    scheduler = MountScheduler(
        lambda uri, table, request=None: tagged_result(uri),
        policy=SchedulerPolicy(batch_window_seconds=0.0),
        workers=0,
    )
    tasks = scheduler.register(1, plan)
    claimed = []
    while (key := scheduler.peek_next()) is not None:
        claimed.append(key)
        scheduler.take(1, tasks[key])
    assert claimed == [plan[0], plan[3], plan[1], plan[4], plan[2], plan[5]]

    extract = RecordingExtract()
    with MountPool(extract, max_workers=2) as pool:
        pool.prefetch(plan)
        for table_name, uri in plan:
            batch = pool.take(uri, table_name).batch
            assert batch.column("tag").values[0] == hash(uri) % 10**9
    assert sorted(extract.calls) == sorted(uri for _, uri in plan)


def test_cancelled_token_interrupts_takes_without_extracting():
    """A fired token withdraws every outstanding mount: a later take raises
    the typed interruption instead of stealing and extracting the file."""
    token = CancellationToken()
    extract = RecordingExtract()
    tasks = keys(3)
    with MountPool(extract, max_workers=1, token=token) as pool:
        pool.prefetch(tasks)
        token.cancel()
        for table_name, uri in tasks:
            with pytest.raises(QueryCancelledError):
                pool.take(uri, table_name)
    assert extract.calls == []


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        MountPool(lambda u, t, r=None: tagged_result(u), max_workers=0)
    with pytest.raises(ValueError):
        MountPool(lambda u, t, r=None: tagged_result(u), max_inflight=0)


def test_timings_critical_path_math():
    timings = MountPoolTimings(
        tasks=[
            MountTaskTiming("a", "D", worker=0, extract_seconds=0.1, io_seconds=0.1),
            MountTaskTiming("b", "D", worker=0, extract_seconds=0.1, io_seconds=0.1),
            MountTaskTiming("c", "D", worker=1, extract_seconds=0.2, io_seconds=0.1),
        ]
    )
    assert timings.files == 3
    assert timings.serial_seconds == pytest.approx(0.7)
    assert timings.worker_seconds == {0: pytest.approx(0.4), 1: pytest.approx(0.3)}
    assert timings.wall_seconds == pytest.approx(0.4)  # busiest chain
    assert timings.speedup == pytest.approx(0.7 / 0.4)
    assert MountPoolTimings().wall_seconds == 0.0
    assert MountPoolTimings().speedup == 1.0
