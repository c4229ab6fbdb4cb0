"""The stage-2 mount engine: one scheduler, one per-query client.

Rule (1) turns each actual-data ``scan(a)`` into a union over the files of
interest, one ``mount(f)`` per uncached file. Those mounts are independent
of one another (extract + Steim decode + transform touch nothing shared but
the buffer manager and the ingestion cache), which makes the second stage
embarrassingly parallel — OLA-RAW and DiNoDB reach interactive in-situ
speeds exactly this way. A query service goes one step further: many
sessions pause at the stage-1/stage-2 breakpoint with overlapping files of
interest, and each file should be extracted once for *every* waiting query
— LifeRaft's data-driven batching.

Both are one engine:

* :class:`MountScheduler` keeps one ``(table, uri)`` → :class:`_FileTask`
  table. Each task accumulates waiters (one per query touching the file)
  and a hull-merged :class:`~repro.ingest.formats.MountRequest`
  (:func:`merge_requests`), so one extraction covers every waiter's
  interval. Worker threads (named ``mountpool-N``) repeatedly claim the
  highest-priority pending task, extract it and publish the result to all
  of its waiters at once.
* :class:`MountPool` is one query's client: :meth:`~MountPool.prefetch`
  registers the plan's mount branches, :meth:`~MountPool.take` consumes
  them in plan order, :meth:`~MountPool.release` renounces a branch (Top-N
  early termination) and :meth:`~MountPool.close` withdraws whatever the
  plan never consumed. A standalone query builds a pool over a private
  scheduler with one client; :meth:`MountScheduler.client` binds the same
  class to a query service's shared scheduler.

Only the *extraction* (file read, decode, transform to a
:class:`~repro.db.table.ColumnBatch`) runs on workers. Everything stateful —
cache stores, mount callbacks (derived metadata), statistics, predicate
delivery — stays on the consuming thread, in plan order. This keeps the
``PER_FILE`` merge deterministic and leaves single-threaded components
single-threaded.

Scheduling policy
-----------------
:class:`SchedulerPolicy` is the LifeRaft-style throughput ↔ fairness knob.
A pending task's priority is::

    priority = throughput_bias * waiters + age_seconds / aging_seconds

``throughput_bias`` near 1.0 favours *popular* files — one extraction
retires many queries, maximizing aggregate throughput but starving
low-overlap queries while popular work keeps arriving. Bias near 0.0
degenerates to FIFO by age. The additive age term is the starvation-aging
guarantee: it grows without bound regardless of the bias, so every task's
priority eventually exceeds any fixed popularity. With one client every
task has one waiter, so priority is arrival order — the plan order the
standalone pool registers its branches in. Fresh keys are registered
round-robin across their sources' endpoints (:func:`_interleave_endpoints`)
so a federated plan keeps every endpoint moving.

Guarantees
----------
* **Deterministic order** — the consumer drains results in the exact order
  the union branches execute; parallelism never reorders rows.
* **Bounded in flight (backpressure)** — with ``max_inflight`` set (the
  standalone pool uses ``2 × max_workers``), a worker claims a task only
  while running plus done-but-unconsumed tasks stay under the bound, so
  mounting a 5,000-file repository never materializes 5,000 batches. The
  service's shared scheduler is unbounded.
* **Single-flight** — duplicate registrations of one ``(table, uri)``
  (self-joins, two aliases, many queries) extract the file once.
* **Work conservation** — a consumer whose task is still pending claims and
  extracts it inline instead of idling, so slow (or zero) workers degrade
  to serial execution, never to a stall. ``max_workers=1`` starts no thread
  at all, and neither does a query with one file of interest: workers start
  on the first registration of two or more distinct keys.
* **Error semantics** — a failed extraction is published to every waiter
  with the offending file's URI (``exc.mount_uri``). A ``fail_fast`` pool
  (the default) latches the first error, withdraws every outstanding mount
  and re-raises that error on every later take; with ``fail_fast=False``
  (the executor's SKIP_AND_REPORT policy, and every service client) a
  failure poisons only its own key and the mount service quarantines it.

Task states
-----------
``pending → running → done | failed``. Completed tasks are retained only
until their last waiter consumes them; failed tasks are likewise drained
and dropped, so the next registration of the same file gets a fresh
attempt (mirroring the per-query quarantine's "fresh chance next query").

Timing model
------------
Each consumed task records the worker that ran it (``mountpool-N`` is
worker ``N``; the consuming thread is worker ``workers``), its real
extraction seconds, and the simulated disk seconds the buffer manager
charged for the file (see ``db/buffer.py``). :class:`MountPoolTimings`
exposes the serialized total and the critical path (the busiest worker's
chain): with independent disks/workers the mount phase's modeled wall time
is the critical path, which is what ``benchmarks/bench_parallel_mount.py``
reports as the parallel speedup.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .. import _sync
from ..db.interval import hull
from ..ingest.formats import MountRequest
from .governor import CancellationToken, QueryGovernor

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import cycle)
    from .mounting import ExtractResult

# extract(uri, table_name, request) -> ExtractResult. A None request means
# "mount the whole file"; a request narrows extraction to the records
# overlapping its interval (selective mounting).
ExtractFn = Callable[[str, str, Optional[MountRequest]], "ExtractResult"]

MountKey = tuple[str, str]  # (table_name, uri)

# One prefetch task: a key, optionally with the branch's mount request.
MountTask = "MountKey | tuple[str, str, Optional[MountRequest]]"

# Task lifecycle states (see module docstring).
TASK_PENDING = "pending"
TASK_RUNNING = "running"
TASK_DONE = "done"
TASK_FAILED = "failed"

_WAIT_POLL_SECONDS = 0.05  # waiter wake-up interval for cancellation checks
_IDLE_WAIT_SECONDS = 0.1  # worker wake-up interval when nothing is eligible


def merge_requests(
    a: Optional[MountRequest], b: Optional[MountRequest]
) -> Optional[MountRequest]:
    """The single request serving two takers of one key (single-flight).

    ``None`` (whole file) absorbs everything; otherwise the merged request
    covers both intervals, so each taker's coverage check passes.
    """
    if a is None or b is None:
        return None
    return MountRequest(
        interval=hull(a.interval, b.interval),
        records=a.records if a.records is not None else b.records,
    )


def _interleave_endpoints(keys: Sequence[MountKey]) -> list[MountKey]:
    """Round-robin fresh tasks across their sources' endpoints.

    A federated plan lists each repository's files contiguously; queueing
    them in that order would park every worker on the first (possibly slow
    or dying) endpoint while the other sources sit idle. Interleaving keeps
    all endpoints moving; consumption order — and therefore the answer — is
    untouched, because ``take`` drains results in plan order regardless of
    claim order. Local files form one group, so a local plan keeps its
    order.
    """
    from ..remote.uris import endpoint_of  # deferred: pulls in repro.remote

    groups: dict[Optional[str], list[MountKey]] = {}
    for key in keys:
        groups.setdefault(endpoint_of(key[1]), []).append(key)
    if len(groups) < 2:
        return list(keys)
    out: list[MountKey] = []
    for batch in itertools.zip_longest(*groups.values()):
        out.extend(key for key in batch if key is not None)
    return out


def _merged_specs(tasks: Sequence) -> dict[MountKey, Optional[MountRequest]]:
    """``(table_name, uri[, request])`` specs → key → hull-merged request,
    in first-appearance order."""
    requests: dict[MountKey, Optional[MountRequest]] = {}
    for spec in tasks:
        key: MountKey = (spec[0], spec[1])
        request = spec[2] if len(spec) > 2 else None
        requests[key] = (
            merge_requests(requests[key], request) if key in requests else request
        )
    return requests


def _annotate(exc: BaseException, uri: str) -> None:
    """Name the offending file on an extraction error (``exc.mount_uri``).

    FileIngestError pre-sets mount_uri only when it knows its uri;
    getattr-None (not hasattr) so a None placeholder still gets annotated.
    """
    if getattr(exc, "mount_uri", None) is None:
        try:
            exc.mount_uri = uri  # type: ignore[attr-defined]
        except AttributeError:  # pragma: no cover - slotted exception
            pass


@dataclass(frozen=True)
class MountTaskTiming:
    """One file's extraction, attributed to the worker that ran it."""

    uri: str
    table_name: str
    worker: int  # worker thread index; the consuming thread is a worker too
    extract_seconds: float  # real wall time spent extracting/decoding
    io_seconds: float  # simulated disk seconds charged by the buffer manager

    @property
    def seconds(self) -> float:
        return self.extract_seconds + self.io_seconds


@dataclass
class MountPoolTimings:
    """Aggregated per-worker mount timing for one pool lifetime."""

    tasks: list[MountTaskTiming] = field(default_factory=list)

    @property
    def files(self) -> int:
        return len(self.tasks)

    @property
    def serial_seconds(self) -> float:
        """What the mounts would cost end-to-end on one worker."""
        return sum(t.seconds for t in self.tasks)

    @property
    def worker_seconds(self) -> dict[int, float]:
        """worker index → that worker's busy time (its chain of tasks)."""
        busy: dict[int, float] = {}
        for t in self.tasks:
            busy[t.worker] = busy.get(t.worker, 0.0) + t.seconds
        return busy

    @property
    def wall_seconds(self) -> float:
        """The critical path: the busiest worker's chain.

        Under the explicit disk model, concurrent mounts overlap their
        simulated reads, so the phase's modeled wall time is the longest
        per-worker chain rather than the serialized sum.
        """
        busy = self.worker_seconds
        return max(busy.values()) if busy else 0.0

    @property
    def speedup(self) -> float:
        wall = self.wall_seconds
        return self.serial_seconds / wall if wall > 0 else 1.0


@dataclass(frozen=True)
class SchedulerPolicy:
    """The throughput ↔ fairness knob, with starvation aging.

    ``throughput_bias`` ∈ [0, 1] weights a task's waiter count; the age
    term ``age / aging_seconds`` is always added, so aging is unconditional
    (the starvation guarantee) and ``aging_seconds`` sets how long a wait
    counts as much as one extra waiter. ``starvation_threshold_seconds``
    only classifies grants for the ops counters: a grant whose waiter
    waited longer counts as *starved* in :class:`SchedulerStats`.

    ``batch_window_seconds`` is LifeRaft's batching delay: a pending task
    is not eligible to run (by a worker *or* a stealing consumer) until it
    has aged past the window, so queries arriving within a few
    milliseconds of each other hull-merge into one extraction instead of
    the first arriver racing off with its own narrow interval. It buys
    aggregate bytes with per-query latency — every cold file costs the
    window — and is measured against the real clock (an injected test
    clock drives priorities, not the batching wait), so tests using a fake
    clock should set it to 0. A standalone pool has nobody to merge with
    and uses 0.
    """

    throughput_bias: float = 0.7
    aging_seconds: float = 0.25
    starvation_threshold_seconds: float = 2.0
    batch_window_seconds: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.throughput_bias <= 1.0:
            raise ValueError(
                f"throughput_bias must be in [0, 1], got {self.throughput_bias!r}"
            )
        if self.aging_seconds <= 0:
            raise ValueError(
                f"aging_seconds must be positive, got {self.aging_seconds!r}"
            )
        if self.starvation_threshold_seconds <= 0:
            raise ValueError(
                "starvation_threshold_seconds must be positive, "
                f"got {self.starvation_threshold_seconds!r}"
            )
        if self.batch_window_seconds < 0:
            raise ValueError(
                "batch_window_seconds must be >= 0, "
                f"got {self.batch_window_seconds!r}"
            )


# One client has nobody to hull-merge with: no batch window, arrival order.
_PLAN_ORDER = SchedulerPolicy(batch_window_seconds=0.0)


@dataclass
class SchedulerStats:
    """Shared-work accounting for one scheduler lifetime.

    ``grants`` counts results delivered to waiting queries;
    ``shared_grants`` the grants beyond the first per extraction — the
    work-sharing win. ``bytes_shared`` is the byte volume those re-grants
    would have re-extracted in independent sessions. ``starved_grants``
    and ``max_wait_seconds`` are the fairness side of the ops story: a
    rising starved count under a high ``throughput_bias`` is the signal to
    turn the knob down.
    """

    tasks_created: int = 0
    tasks_extracted: int = 0
    tasks_failed: int = 0
    grants: int = 0
    shared_grants: int = 0
    inline_steals: int = 0
    unscheduled_mounts: int = 0  # client fallbacks that bypassed the table
    withdrawn: int = 0  # interests dropped by cancelled/closed queries
    starved_grants: int = 0
    bytes_extracted: int = 0
    bytes_shared: int = 0
    max_wait_seconds: float = 0.0
    hints_registered: int = 0  # speculative prefetch tasks accepted
    hint_extractions: int = 0  # hint tasks actually extracted by a worker


@dataclass
class _FileTask:
    """One file's shared extraction: waiters, merged request, outcome."""

    key: MountKey
    request: Optional[MountRequest]
    seq: int  # arrival order, the deterministic tie-break
    enqueued_at: float  # injected-clock time, drives priority aging
    born_at: float = 0.0  # real (monotonic) time, drives the batch window
    state: str = TASK_PENDING
    waiters: dict[int, float] = field(default_factory=dict)  # client → t
    # Speculative prefetch task: no waiters of its own, runs only when no
    # real task pends, survives waiter-less reaping while pending. A real
    # query registering on the key joins it like any pending task.
    hint: bool = False
    consumers: int = 0
    result: Optional["ExtractResult"] = None
    error: Optional[BaseException] = None
    timing: Optional[MountTaskTiming] = None
    event: threading.Event = field(default_factory=threading.Event)


@_sync.guarded
class MountScheduler:
    """The files-of-interest scheduler behind every stage-2 mount.

    ``extract`` is the extraction function. A query service passes a
    dedicated :class:`~repro.core.mounting.MountService`'s ``_extract``
    *without* a per-query governor: queries are charged at consume time by
    their own :class:`MountPool` client, so every query pays for the bytes
    it uses exactly as it would standalone, even when the extraction ran
    once for eight of them. ``workers=0`` is legal: consumers then run
    every extraction through the steal path. ``max_inflight`` bounds
    running plus done-but-unconsumed tasks (None: unbounded). ``clock`` is
    injectable so the aging math is testable without sleeping.
    """

    def __init__(
        self,
        extract: ExtractFn,
        policy: Optional[SchedulerPolicy] = None,
        workers: int = 2,
        clock: Callable[[], float] = time.monotonic,
        on_hint_result: Optional[
            Callable[[MountKey, Optional[MountRequest], "ExtractResult"], None]
        ] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self._extract = extract
        self.policy = policy or SchedulerPolicy()
        self.workers = workers
        self.max_inflight = max_inflight
        # Called (outside the lock) with each completed hint task's key,
        # request and result — the service stores it into the shared cache.
        # unguarded-ok: set at construction, read-only afterwards.
        self._on_hint_result = on_hint_result
        self._clock = clock
        self._lock = _sync.create_lock("MountScheduler._lock")
        # The wakeup condition *shares* _lock: waiters and mutators
        # serialize on one mutex, so `with self._wakeup:` is `with
        # self._lock:` plus the ability to park.
        self._wakeup = _sync.create_condition(
            "MountScheduler._wakeup", self._lock
        )
        self._tasks: dict[MountKey, _FileTask] = {}  # guarded-by: _lock
        self._seq = itertools.count()  # guarded-by: _lock
        # unguarded-ok: itertools.count.__next__ is atomic in CPython; the
        # id handed out only needs uniqueness, not ordering.
        self._client_ids = itertools.count(1)
        self._threads: list[threading.Thread] = []  # guarded-by: _lock
        self._stop = False  # guarded-by: _lock
        self.stats = SchedulerStats()  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads now (idempotent); otherwise they start
        on the first registration of two or more distinct keys.

        The thread list is created *and registered* under the lock before
        anything starts, so two concurrent ``start()`` calls can never both
        see an empty ``_threads`` and double-spawn the worker fleet.
        """
        with self._lock:
            self._stop = False
            spawned = self._spawn_locked()
        for thread in spawned:
            thread.start()

    def _spawn_locked(self) -> list[threading.Thread]:
        if self._threads or self.workers == 0:
            return []
        spawned = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"mountpool-{index}",
                daemon=True,
            )
            for index in range(self.workers)
        ]
        self._threads.extend(spawned)
        return spawned

    def close(self) -> None:
        """Stop the workers. Pending tasks stay pending; clients still
        blocked on them complete through the steal path, so closing the
        scheduler can slow queries down but never wedge them. Only
        :meth:`start` spawns workers again."""
        with self._wakeup:
            self._stop = True
            self._wakeup.notify_all()
            # Snapshot + clear under the lock; joining happens outside it
            # (a worker may need the lock to observe _stop and exit).
            stopping = list(self._threads)
            self._threads.clear()
        for thread in stopping:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MountScheduler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def client(
        self,
        token: Optional[CancellationToken] = None,
        governor: Optional[QueryGovernor] = None,
    ) -> "MountPool":
        """A fresh per-query client of this scheduler."""
        return MountPool._attached(self, token=token, governor=governor)

    # -- registration / consumption (client-facing) --------------------------

    def register(
        self, client_id: int, tasks: Sequence
    ) -> dict[MountKey, _FileTask]:
        """Register one query's mount branches; returns key → task.

        Joins an existing pending/running/done task when one is live for
        the key (widening a *pending* task's request by hull-merge);
        creates a fresh task otherwise — including when the live task
        already *failed*, so a new query never inherits a stale failure.
        Duplicate keys in ``tasks`` hull-merge into one registration.
        """
        requests = _merged_specs(tasks)
        order = _interleave_endpoints(list(requests))
        joined: dict[MountKey, _FileTask] = {}
        now = self._clock()
        with self._wakeup:
            for key in order:
                task = self._tasks.get(key)
                if task is None or task.state == TASK_FAILED:
                    task = self._new_task_locked(key, requests[key], now)
                elif task.state == TASK_PENDING:
                    task.request = merge_requests(task.request, requests[key])
                # running/done: the request cannot widen any more; the
                # client's coverage check falls back inline if too narrow.
                task.waiters.setdefault(client_id, now)
                joined[key] = task
            spawned = (
                [] if self._stop or len(joined) < 2 else self._spawn_locked()
            )
            self._wakeup.notify_all()
        for thread in spawned:
            thread.start()
        return joined

    def hint(self, tasks: Sequence) -> int:
        """Register speculative prefetch tasks; returns how many were accepted.

        Hints are the predictive-prefetch entry point: waiter-less tasks a
        worker extracts only when no *real* (waiter-having) task is pending,
        so speculation can never delay a query. Keys with a live task are
        skipped (the real task already covers them); a completed hint's
        result is handed to ``on_hint_result`` for cache storage. Task specs
        are the same ``(table_name, uri, request?)`` tuples ``register``
        takes.
        """
        accepted = 0
        now = self._clock()
        with self._wakeup:
            if self._stop:
                return 0
            for key, request in _merged_specs(tasks).items():
                if key not in self._tasks:
                    self._new_task_locked(key, request, now).hint = True
                    self.stats.hints_registered += 1
                    accepted += 1
            if accepted:
                self._wakeup.notify_all()
        return accepted

    def _new_task_locked(
        self, key: MountKey, request: Optional[MountRequest], now: float
    ) -> _FileTask:
        task = _FileTask(
            key=key,
            request=request,
            seq=next(self._seq),
            enqueued_at=now,
            born_at=time.monotonic(),
        )
        self._tasks[key] = task
        self.stats.tasks_created += 1
        return task

    def withdraw(self, client_id: int, tasks: Sequence[_FileTask]) -> int:
        """Drop a client's remaining interest (query done or cancelled).

        A pending task nobody waits for any more is removed outright — no
        worker will waste an extraction on it; a completed one is freed as
        soon as its last interested waiter is gone. Returns how many of
        the withdrawn interests were in still-pending tasks: extractions
        this client provably never waited for.
        """
        pending = 0
        with self._wakeup:
            for task in tasks:
                if task.waiters.pop(client_id, None) is not None:
                    self.stats.withdrawn += 1
                    pending += task.state == TASK_PENDING
                self._reap_locked(task)
        return pending

    def take(
        self,
        client_id: int,
        task: _FileTask,
        token: Optional[CancellationToken] = None,
    ) -> tuple["ExtractResult", MountTaskTiming]:
        """Block until ``task`` completes; return (result, timing).

        Work conservation: a still-pending task is claimed and extracted
        inline on the consuming thread. The wait is cancellation-aware —
        a fired token withdraws this waiter and raises its typed
        interruption, leaving the task to its other waiters.
        """
        claimed = False
        while True:
            with self._lock:
                if task.state != TASK_PENDING:
                    break
                window_left = (
                    task.born_at
                    + self.policy.batch_window_seconds
                    - time.monotonic()
                )
                if window_left <= 0 and not (token is not None and token.fired):
                    task.state = TASK_RUNNING
                    claimed = True
                    self.stats.inline_steals += 1
                    break
            # Cancelled, or inside the batch window: give co-arriving
            # queries their few milliseconds to hull-merge.
            self._raise_if_cancelled(client_id, task, token)
            task.event.wait(min(_WAIT_POLL_SECONDS, max(window_left, 0.001)))
        if claimed:
            self._run_task(task, self.workers)
        while not task.event.wait(_WAIT_POLL_SECONDS):
            self._raise_if_cancelled(client_id, task, token)
        return self._grant(client_id, task)

    def _raise_if_cancelled(
        self,
        client_id: int,
        task: _FileTask,
        token: Optional[CancellationToken],
    ) -> None:
        if token is not None and token.fired:
            self.withdraw(client_id, [task])
            interruption = token.interruption()
            assert interruption is not None
            raise interruption

    def extract_now(
        self, uri: str, table_name: str, request: Optional[MountRequest]
    ) -> tuple["ExtractResult", MountTaskTiming]:
        """One unscheduled extraction on the calling thread.

        The client's fallback for keys it never prefetched (cache-scan
        misses that fell back to mounting). The task bypasses the table —
        callers need the result *now*, on their own thread.
        """
        task = _FileTask(
            key=(table_name, uri), request=request, seq=-1, enqueued_at=0.0
        )
        with self._lock:
            self.stats.unscheduled_mounts += 1
        self._run_task(task, self.workers)
        if task.error is not None:
            raise task.error
        assert task.result is not None and task.timing is not None
        return task.result, task.timing

    # -- scheduling core -----------------------------------------------------

    def _priority(self, task: _FileTask, now: float) -> float:
        """LifeRaft knob: popularity weighted by the bias, plus raw age."""
        age = max(0.0, now - task.enqueued_at)
        return (
            self.policy.throughput_bias * len(task.waiters)
            + age / self.policy.aging_seconds
        )

    def peek_next(self) -> Optional[MountKey]:
        """The key the scheduler would run next (None when nothing pends).

        Exposed for tests and operators: deterministic given the injected
        clock — highest priority wins, earliest arrival breaks ties.
        """
        with self._lock:
            task = self._pick_locked()
            return task.key if task is not None else None

    def _pick_locked(self) -> Optional[_FileTask]:
        """The next task a worker may claim; None while nothing is
        eligible or the in-flight bound is reached."""
        now = self._clock()
        window = self.policy.batch_window_seconds
        mature_before = time.monotonic() - window
        inflight = 0
        best: Optional[_FileTask] = None
        best_rank: tuple[float, float] = (0.0, 0.0)
        best_hint: Optional[_FileTask] = None
        for task in self._tasks.values():
            if task.state != TASK_PENDING:
                inflight += task.state in (TASK_RUNNING, TASK_DONE)
                continue
            if not task.waiters:
                # Waiter-less pending tasks are speculative hints (an
                # abandoned real task would have been reaped): lowest
                # priority class, oldest first, no batch window — nobody is
                # waiting, so there is nothing to hull-merge with.
                if task.hint and (
                    best_hint is None or task.seq < best_hint.seq
                ):
                    best_hint = task
                continue
            if window > 0 and task.born_at > mature_before:
                continue  # still inside its batch window
            rank = (self._priority(task, now), -task.seq)
            if best is None or rank > best_rank:
                best, best_rank = task, rank
        if self.max_inflight is not None and inflight >= self.max_inflight:
            return None
        return best if best is not None else best_hint

    def _worker_loop(self, index: int) -> None:
        while True:
            with self._wakeup:
                task = None
                while not self._stop:
                    task = self._pick_locked()
                    if task is not None:
                        break
                    self._wakeup.wait(_IDLE_WAIT_SECONDS)
                if self._stop:
                    return
                assert task is not None
                task.state = TASK_RUNNING
            self._run_task(task, index)

    def _run_task(self, task: _FileTask, worker: int) -> None:
        """Extract one claimed task and publish the outcome to all waiters."""
        table_name, uri = task.key
        started = time.perf_counter()
        try:
            result = self._extract(uri, table_name, task.request)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            _annotate(exc, uri)
            with self._wakeup:
                task.error = exc
                task.state = TASK_FAILED
                self.stats.tasks_failed += 1
                self._reap_locked(task)
                self._wakeup.notify_all()
            task.event.set()
            return
        timing = MountTaskTiming(
            uri=uri,
            table_name=table_name,
            worker=worker,
            extract_seconds=time.perf_counter() - started,
            io_seconds=result.io_seconds,
        )
        with self._wakeup:
            task.result = result
            task.timing = timing
            task.state = TASK_DONE
            self.stats.tasks_extracted += 1
            self.stats.bytes_extracted += result.bytes_read
            if task.hint:
                self.stats.hint_extractions += 1
            self._reap_locked(task)
            self._wakeup.notify_all()
        task.event.set()
        if task.hint and self._on_hint_result is not None:
            # Outside the lock: the callback stores into the shared cache
            # (which locks itself). A failing store only loses the
            # speculative benefit — it must never take down a worker.
            try:
                self._on_hint_result(task.key, task.request, result)
            except Exception:  # noqa: BLE001 - speculative, best-effort
                pass

    def _grant(
        self, client_id: int, task: _FileTask
    ) -> tuple["ExtractResult", MountTaskTiming]:
        with self._wakeup:
            registered_at = task.waiters.pop(client_id, None)
            waited = (
                self._clock() - registered_at
                if registered_at is not None
                else 0.0
            )
            self.stats.grants += 1
            if task.consumers >= 1:
                self.stats.shared_grants += 1
                if task.result is not None:
                    self.stats.bytes_shared += task.result.bytes_read
            task.consumers += 1
            if waited > self.policy.starvation_threshold_seconds:
                self.stats.starved_grants += 1
            if waited > self.stats.max_wait_seconds:
                self.stats.max_wait_seconds = waited
            self._reap_locked(task)
        if task.error is not None:
            raise task.error
        assert task.result is not None and task.timing is not None
        return task.result, task.timing

    def _reap_locked(self, task: _FileTask) -> None:
        """Drop a finished (or abandoned-pending) task once nobody waits.

        Reaping a completed task frees an in-flight slot, so a bounded
        scheduler wakes its workers.
        """
        if task.waiters:
            return
        if task.hint and task.state == TASK_PENDING:
            return  # hints are waiter-less by design; keep until run
        if task.state == TASK_RUNNING or self._tasks.get(task.key) is not task:
            return
        del self._tasks[task.key]
        if self.max_inflight is not None and task.state == TASK_DONE:
            self._wakeup.notify_all()

    # -- introspection -------------------------------------------------------

    def pending_tasks(self) -> int:
        with self._lock:
            return sum(
                1 for t in self._tasks.values() if t.state == TASK_PENDING
            )


@_sync.guarded
class MountPool:
    """One query's client of a :class:`MountScheduler`.

    ``MountPool(extract, max_workers, ...)`` serves a standalone query: it
    builds and owns a private scheduler with ``max_workers`` threads (none
    at 1, where every extraction runs inline on the consumer thread), no
    batch window and ``max_inflight`` (default ``2 × max_workers``) as its
    backpressure bound; closing the pool closes that scheduler. A query
    service gets its clients from :meth:`MountScheduler.client` instead.
    Either way, create the pool after run-time optimization,
    :meth:`prefetch` the mount branches in plan order, let the plan
    :meth:`take` them in the same order, and :meth:`close` it when the
    query finishes.

    ``timings`` reports the *consumed* extraction costs — what this query's
    mounts cost wherever they ran. A service client also charges its
    query's governor once per consumed extraction, so per-query and
    per-tenant budgets see the bytes a standalone run would.
    """

    def __init__(
        self,
        extract: ExtractFn,
        max_workers: int = 1,
        max_inflight: Optional[int] = None,
        fail_fast: bool = True,
        token: Optional[CancellationToken] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        scheduler = MountScheduler(
            extract,
            policy=_PLAN_ORDER,
            workers=max_workers if max_workers >= 2 else 0,
            max_inflight=max_inflight or 2 * max_workers,
        )
        self._attach(scheduler, owns_scheduler=True, fail_fast=fail_fast,
                     token=token, governor=None)

    @classmethod
    def _attached(
        cls,
        scheduler: MountScheduler,
        token: Optional[CancellationToken],
        governor: Optional[QueryGovernor],
    ) -> "MountPool":
        """A client of a shared scheduler: it never closes the scheduler,
        and a failed file poisons only its own key."""
        pool = cls.__new__(cls)
        pool._attach(scheduler, owns_scheduler=False, fail_fast=False,
                     token=token, governor=governor)
        return pool

    def _attach(
        self,
        scheduler: MountScheduler,
        owns_scheduler: bool,
        fail_fast: bool,
        token: Optional[CancellationToken],
        governor: Optional[QueryGovernor],
    ) -> None:
        """The construction both entry points share."""
        self._scheduler = scheduler
        self._owns_scheduler = owns_scheduler
        self._client_id = next(scheduler._client_ids)
        self.fail_fast = fail_fast
        self._token = token
        self._governor = governor
        self._lock = _sync.create_lock("MountPool._lock")
        with self._lock:  # not __init__ for shared clients: declare locked
            self.timings = MountPoolTimings()  # guarded-by: _lock
            self._tasks: dict[MountKey, _FileTask] = {}  # guarded-by: _lock
            self._pending_takes: dict[MountKey, int] = {}  # guarded-by: _lock
            # Results kept for further takes of one key (self-joins).
            self._held: dict[MountKey, "ExtractResult"] = {}  # guarded-by: _lock
        # unguarded-ok: write-once latch set by the consuming thread before
        # it withdraws everything; take() reads it on that same thread.
        self.first_error: Optional[BaseException] = None
        # unguarded-ok: write-once latch set with first_error.
        self.failed_uri: Optional[str] = None
        # Firing the token withdraws every outstanding mount *from the
        # firing thread*; a consumer blocked in take wakes within one poll.
        if token is not None:
            token.on_cancel(self.cancel_outstanding)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "MountPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Withdraw outstanding mounts; a private scheduler stops too."""
        self.cancel_outstanding()
        if self._owns_scheduler:
            self._scheduler.close()

    def cancel_outstanding(self) -> None:
        """Withdraw every prefetched mount the plan has not consumed yet;
        the scheduler drops pending tasks nobody else waits for."""
        with self._lock:
            leftovers = list(self._tasks.values())
        if leftovers:
            self._scheduler.withdraw(self._client_id, leftovers)

    # -- producing side ------------------------------------------------------

    def prefetch(self, tasks: Sequence) -> None:
        """Register ``(table_name, uri[, request])`` tasks, in plan order.

        Duplicate keys are single-flighted: the file is extracted once,
        under the hull of every taker's request, and served to every take.
        """
        fresh = []
        with self._lock:
            for task in tasks:
                key: MountKey = (task[0], task[1])
                self._pending_takes[key] = self._pending_takes.get(key, 0) + 1
                if key not in self._held:
                    fresh.append(task)
        if fresh:
            joined = self._scheduler.register(self._client_id, fresh)
            with self._lock:
                self._tasks.update(joined)

    # -- consuming side ------------------------------------------------------

    def take(
        self,
        uri: str,
        table_name: str,
        request: Optional[MountRequest] = None,
    ) -> "ExtractResult":
        """The extraction result for one mount branch, in plan order.

        Blocks until the task completes, stealing it if no worker has
        claimed it yet; extracts inline anything never prefetched (e.g. a
        cache-scan fallback, which uses the caller's ``request``). A
        fail-fast pool raises its first error on every take after it.
        """
        if self.first_error is not None:
            raise self.first_error
        key: MountKey = (table_name, uri)
        with self._lock:
            held = self._held.get(key)
            task = self._tasks.get(key)
        if held is not None:
            return self._consume(key, held)
        try:
            if task is None:
                result, timing = self._scheduler.extract_now(
                    uri, table_name, request
                )
            else:
                result, timing = self._scheduler.take(
                    self._client_id, task, token=self._token
                )
        except BaseException as exc:
            if self.fail_fast:
                if self.first_error is None:
                    self.first_error = exc
                    self.failed_uri = uri
                self.cancel_outstanding()
            raise
        self._account(result, timing)
        return self._consume(key, result)

    def release(self, table_name: str, uri: str) -> bool:
        """Renounce one expected take of a key (Top-N early termination).

        The consuming plan has proved it will never ``take`` this branch,
        so one pending take is dropped; at zero this query's interest is
        withdrawn from the task (a pending task nobody else waits on is
        reaped before any worker spends an extraction on it). Returns True
        when the task was still pending — this query never pays for the
        extraction; False when the work already happened or is mid-flight,
        or other takes of the key remain.
        """
        key: MountKey = (table_name, uri)
        with self._lock:
            if key not in self._pending_takes:
                return False  # never prefetched, nothing to renounce
            remaining = self._pending_takes[key] - 1
            if remaining > 0:
                self._pending_takes[key] = remaining
                return False  # single-flight: another take still wants it
            self._pending_takes.pop(key, None)
            held = self._held.pop(key, None) is not None
            task = self._tasks.pop(key, None)
        if held or task is None:
            return False  # already extracted and consumed for this query
        return self._scheduler.withdraw(self._client_id, [task]) == 1

    # -- internals -----------------------------------------------------------

    def _account(self, result: "ExtractResult", timing: MountTaskTiming) -> None:
        """Per-query cost attribution + budget charge, once per extraction."""
        with self._lock:
            self.timings.tasks.append(timing)
        if self._governor is not None:
            # Same ledger a standalone run would build: one charge per file
            # this query consumed, for the bytes the shared extraction
            # actually read. Raise-mode exhaustion propagates from here
            # exactly like a standalone extraction's charge would.
            self._governor.charge_mount(
                result.bytes_read, result.records_decoded
            )

    def _consume(
        self, key: MountKey, result: "ExtractResult"
    ) -> "ExtractResult":
        """Single-flight bookkeeping: keep the batch while further takes of
        the key are expected, forget the key after its last take."""
        with self._lock:
            remaining = self._pending_takes.get(key, 1) - 1
            if remaining > 0:
                self._pending_takes[key] = remaining
                self._held[key] = result
            else:
                self._pending_takes.pop(key, None)
                self._held.pop(key, None)
                self._tasks.pop(key, None)
        return result
