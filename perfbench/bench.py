"""One measured run of one workload, in a fresh interpreter.

``run.py`` starts this module after the archives exist; it prints one JSON
result line. Phases, in order:

1. **setup** (``setup_s``): build the ``Database``, run
   ``lazy_ingest_metadata``, construct the executor or service; this copy
   serves the timed phase;
2. **timed phase**: the workload's queries for ``--seconds`` seconds; each
   answer is reduced to a fingerprint outside the query's own timing. At
   evenly spaced points the timed clock pauses while one more fresh engine
   is set up (another ``setup_s`` sample) and, on the 120-file workloads,
   answers one first query (a ``first_answer_ms`` sample). Spread over the
   run, these samples see the host's slow and fast spells in the same
   proportion as the query latencies do;
3. ``peak_rss_mb`` is read when the clock ends. On the 120-file workloads
   the count metrics (disk, bytes, cache and scheduler counters) cover the
   first ``COUNT_PREFIX`` queries, not the timed phase: the engine's
   residency and caches only fill up, so counts over a timed phase would
   fall whenever the run went faster. A run whose clock ends before the
   prefix is complete keeps querying, untimed, until it is;
4. every fingerprint, timed or not, is checked against the independent
   oracle.

With ``--trace 1`` the same phases run with the layer shims installed and
the per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import repro.ingest.lazy as lazy_module
from repro.core.cache import CachePolicy, IngestionCache
from repro.core.executor import TwoStageExecutor
from repro.db.database import Database
from repro.ingest.schema import RepositoryBinding
from repro.serve.service import QueryService

from . import workloads
from .archives import archive_for, spec_for
from .oracle import Fingerprint, Oracle, answer_fingerprint, first_mismatch
from .tracing import Tracer, shim_overhead_seconds, traced

EXPLORE_CACHE_BYTES = 256 * 1024
# Set-ups per run, the first kept for the timed phase. The 5k metadata load
# takes seconds, the 120-file one tens of milliseconds, so the small archives
# repeat more. The traced run sets up once.
SETUPS = {"explore-5k": 5, "mount-120": 31, "serve-skewed": 31}
# Queries the count metrics cover (serve-skewed: 400 two-client steps). A
# 40 s run reaches them in about half its clock. explore-5k starts every
# session cold, so its counts cover whole sessions and need no prefix.
COUNT_PREFIX = {"mount-120": 400, "serve-skewed": 800}
# Counters read as levels at the end of the prefix, not as differences.
_LEVELS = ("cache_resident_bytes", "max_wait_seconds")


@dataclass
class Answer:
    query: workloads.QuerySpec
    seconds: float
    fingerprint: Optional[Fingerprint]  # None: the query raised
    first_of_session: bool = False


@dataclass
class Outcome:
    """What one workload's timed phase produced."""

    answers: list[Answer] = field(default_factory=list)  # timed
    setup_answers: list[Answer] = field(default_factory=list)  # first answers
    untimed_answers: list[Answer] = field(default_factory=list)  # past the clock
    wall_seconds: float = 0.0
    setup_seconds: list[float] = field(default_factory=list)
    first_answer_seconds: list[float] = field(default_factory=list)
    # Count metrics: counter name -> amount over the first count_queries.
    counts: dict[str, float] = field(default_factory=dict)
    count_queries: int = 0
    mount_serial_seconds: float = 0.0
    mount_wall_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)

    def end_timed_phase(self, wall_seconds: float) -> None:
        self.wall_seconds = wall_seconds
        self.peak_rss_mb = _peak_rss_mb()

    def set_counts(self, queries: int, before: dict, after: dict) -> None:
        self.count_queries = queries
        self.counts = {
            key: value if key in _LEVELS else value - before[key]
            for key, value in after.items()
        }

    @property
    def executed(self) -> int:
        """Queries of the workload run, timed or not (set-up samples aside)."""
        return len(self.answers) + len(self.untimed_answers)


def _peak_rss_mb() -> float:
    """This interpreter's peak resident set.

    ``VmHWM`` belongs to the address space exec created, whereas Linux
    carries ``ru_maxrss`` over from the forking parent — which, on a
    checkout's first run, has just generated the archive.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_query(run: Callable[[str], object], query) -> tuple[Answer, object]:
    started = time.perf_counter()
    try:
        result = run(query.sql)
    except Exception as exc:  # a failed query is counted, not fatal
        return Answer(query, time.perf_counter() - started, None), exc
    elapsed = time.perf_counter() - started
    return Answer(query, elapsed, answer_fingerprint(query.kind, result)), result


def _load_metadata(repository) -> Database:
    db = Database()
    # Looked up on the module so the traced run's shim sees the call.
    lazy_module.lazy_ingest_metadata(db, repository)
    return db


def _set_up(outcome: Outcome, build: Callable[[], object]):
    gc.collect()
    started = time.perf_counter()
    engine = build()
    outcome.setup_seconds.append(time.perf_counter() - started)
    return engine


class SetupSampler:
    """The extra set-up samples, spread evenly over the timed phase.

    :meth:`maybe_sample` is called between queries (or steps, or sessions):
    when a sample is due it builds a fresh engine, lets it answer
    ``first_query(engine, k)`` if given, and discards it. The time this
    takes is added to :attr:`paused`, which the caller subtracts from the
    timed phase's clock. :meth:`finish` takes the samples a short run did
    not reach, so every run takes the same number.
    """

    def __init__(self, outcome: Outcome, count: int, seconds: float,
                 build: Callable[[], object],
                 discard: Callable[[object], None] = lambda engine: None,
                 first_query: Optional[Callable[[object, int], Answer]] = None):
        self.outcome, self.left = outcome, count
        self.build, self.discard, self.first_query = build, discard, first_query
        self.interval = seconds / (count + 1)
        self.paused = 0.0
        self.next_due = time.perf_counter() + self.interval

    def elapsed(self, started: float) -> float:
        """Timed-phase seconds since ``started``, pauses excluded."""
        return time.perf_counter() - started - self.paused

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if self.left and now >= self.next_due:
            self._sample()
            self.paused += time.perf_counter() - now
            self.next_due = time.perf_counter() + self.interval

    def finish(self) -> None:
        while self.left:
            self._sample()

    def _sample(self) -> None:
        self.left -= 1
        engine = _set_up(self.outcome, self.build)
        if self.first_query is not None:
            answer = self.first_query(engine, len(self.outcome.setup_answers))
            self.outcome.setup_answers.append(answer)
            self.outcome.first_answer_seconds.append(answer.seconds)
        self.discard(engine)


def _io_counts(db) -> dict[str, float]:
    io = db.buffers.stats
    return {
        "sim_disk_seconds": io.simulated_seconds,
        "buffer_objects_read": io.objects_read,
    }


def _cache_counts(cache) -> dict[str, float]:
    stats = cache.stats
    return {
        "cache_insertions": stats.insertions,
        "cache_evictions": stats.evictions,
        "cache_resident_bytes": stats.current_bytes,
    }


def _record_result(outcome: Outcome, answer: Answer, result: object,
                   timed: bool = True) -> None:
    (outcome.answers if timed else outcome.untimed_answers).append(answer)
    if answer.fingerprint is None:
        outcome.errors.append(f"{type(result).__name__}: {result}")
        return
    timings = result.timings
    outcome.mount_serial_seconds += timings.mount_serial_seconds
    outcome.mount_wall_seconds += timings.mount_wall_seconds


# -- explore-5k -------------------------------------------------------------------


def run_explore(repository, seed: int, seconds: float, setups: int,
                setup_done: Callable[[], None]) -> Outcome:
    """Sessions of the exploration loop; each a fresh executor and cache."""
    spec = spec_for("explore-5k")
    outcome = Outcome()
    binding = RepositoryBinding(repository)

    def build():
        db = _load_metadata(repository)
        TwoStageExecutor(db, binding, mount_workers=1)
        return db

    db = _set_up(outcome, build)
    setup_done()
    gc.collect()
    io_before = _io_counts(db)
    sessions = {"repo_bytes": 0, "cache_insertions": 0, "cache_evictions": 0}
    resident: list[int] = []
    sampler = SetupSampler(outcome, setups - 1, seconds, build)
    started = time.perf_counter()
    for session in workloads.explore_sessions(spec, seed):
        if outcome.answers and sampler.elapsed(started) >= seconds:
            break
        sampler.maybe_sample()
        # Every session starts cold: the simulated OS page cache is flushed,
        # so a session's disk charges do not depend on the ones before it.
        db.buffers.flush()
        cache = IngestionCache(
            policy=CachePolicy.ADAPTIVE, capacity_bytes=EXPLORE_CACHE_BYTES
        )
        executor = TwoStageExecutor(db, binding, cache=cache, mount_workers=1)
        for position, query in enumerate(session):
            answer, result = _timed_query(executor.execute, query)
            answer.first_of_session = position == 0
            if position == 0:
                outcome.first_answer_seconds.append(answer.seconds)
            _record_result(outcome, answer, result)
        sessions["repo_bytes"] += executor.mounts.stats.bytes_read
        sessions["cache_insertions"] += cache.stats.insertions
        sessions["cache_evictions"] += cache.stats.evictions
        resident.append(cache.stats.current_bytes)
    outcome.end_timed_phase(sampler.elapsed(started))
    before = {**io_before, **dict.fromkeys(sessions, 0)}
    after = {**_io_counts(db), **sessions,
             "cache_resident_bytes": statistics.fmean(resident)}
    outcome.set_counts(len(outcome.answers), before, after)
    sampler.finish()
    return outcome


# -- mount-120 --------------------------------------------------------------------


def run_mount(repository, seed: int, seconds: float, setups: int,
              setup_done: Callable[[], None]) -> Outcome:
    """Query 2 windows on one executor: two mount workers, DISCARD cache."""
    spec = spec_for("mount-120")
    outcome = Outcome()
    binding = RepositoryBinding(repository)

    def build():
        db = _load_metadata(repository)
        return TwoStageExecutor(db, binding, mount_workers=2)

    def first_query(executor, k: int) -> Answer:
        query = workloads.mount_first_query(spec, seed, k)
        return _timed_query(executor.execute, query)[0]

    def read_counts() -> dict[str, float]:
        return {
            **_io_counts(executor.db),
            **_cache_counts(executor.cache),
            "repo_bytes": executor.mounts.stats.bytes_read,
        }

    executor = _set_up(outcome, build)
    setup_done()
    gc.collect()
    before = read_counts()
    prefix = COUNT_PREFIX["mount-120"]
    sampler = SetupSampler(
        outcome, setups - 1, seconds, build, first_query=first_query
    )
    started = time.perf_counter()
    timed = True
    for index, query in enumerate(workloads.mount_queries(spec, seed)):
        if index == prefix:
            outcome.set_counts(prefix, before, read_counts())
        if timed and outcome.answers and sampler.elapsed(started) >= seconds:
            outcome.end_timed_phase(sampler.elapsed(started))
            timed = False
        if not timed and index >= prefix:
            break
        if timed:
            sampler.maybe_sample()
        answer, result = _timed_query(executor.execute, query)
        _record_result(outcome, answer, result, timed)
    sampler.finish()
    return outcome


# -- serve-skewed -----------------------------------------------------------------


SCHEDULER_COUNTS = (
    "tasks_extracted", "grants", "shared_grants", "inline_steals",
    "max_wait_seconds",
)


def run_serve(repository, seed: int, seconds: float, setups: int,
              setup_done: Callable[[], None]) -> Outcome:
    """Two closed-loop clients on one service, both on the same file per step."""
    spec = spec_for("serve-skewed")
    outcome = Outcome()
    first_queries = workloads.serve_first_queries(spec, seed, setups)

    def build():
        db = _load_metadata(repository)
        return QueryService(repository, db=db, mount_workers=2).start()

    def first_query(service, k: int) -> Answer:
        return _timed_query(service.execute, first_queries[k])[0]

    def close(service) -> None:
        service.close()

    service = _set_up(outcome, build)
    setup_done()
    sampler = SetupSampler(outcome, setups - 1, seconds, build, close, first_query)
    try:
        _serve_timed_phase(service, spec, seed, seconds, outcome, sampler)
    finally:
        service.close()
    sampler.finish()
    return outcome


def _serve_timed_phase(service, spec, seed, seconds, outcome, sampler) -> None:
    steps = workloads.serve_steps(spec, seed)
    prefix_steps = COUNT_PREFIX["serve-skewed"] // workloads.CLIENTS
    state = {"step": None, "steps": 0, "timed": True, "stop": False,
             "started": None}
    lock = threading.Lock()

    def read_counts() -> dict[str, float]:
        scheduler = vars(service.scheduler.stats)
        return {
            **_io_counts(service.db),
            **_cache_counts(service.cache),
            "repo_bytes": service.total_mount_bytes,
            **{key: scheduler[key] for key in SCHEDULER_COUNTS},
        }

    def next_step() -> None:  # runs once per barrier release
        # Both clients wait at the barrier: the last step's queries are done.
        now = time.perf_counter()
        if state["started"] is None:
            state["started"] = now
        if state["steps"] == prefix_steps:
            outcome.set_counts(state["steps"] * workloads.CLIENTS, before,
                               read_counts())
        if (state["timed"] and outcome.answers
                and sampler.elapsed(state["started"]) >= seconds):
            outcome.end_timed_phase(sampler.elapsed(state["started"]))
            state["timed"] = False
        if not state["timed"] and state["steps"] >= prefix_steps:
            state["stop"] = True
            return
        if state["timed"]:
            sampler.maybe_sample()
        state["step"] = (next(steps), state["timed"])
        state["steps"] += 1

    barrier = threading.Barrier(workloads.CLIENTS, action=next_step)

    def client(index: int) -> None:
        tenant = f"client{index}"
        try:
            while True:
                barrier.wait()
                if state["stop"]:
                    return
                queries, timed = state["step"]
                answer, result = _timed_query(
                    lambda sql: service.execute(sql, tenant=tenant),
                    queries[index],
                )
                with lock:
                    _record_result(outcome, answer, result, timed)
        except BaseException:
            barrier.abort()  # release the other client instead of hanging
            raise

    gc.collect()
    before = read_counts()
    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(workloads.CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if barrier.broken:
        raise RuntimeError("a serve-skewed client thread failed")


RUNNERS = {
    "explore-5k": run_explore,
    "mount-120": run_mount,
    "serve-skewed": run_serve,
}


# -- metrics ----------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(outcome: Outcome) -> dict:
    ok = [a for a in outcome.answers if a.fingerprint is not None]
    steady = [a.seconds * 1e3 for a in ok if not a.first_of_session]
    counts, n = outcome.counts, max(outcome.count_queries, 1)
    return {
        "setup_s": (statistics.median(outcome.setup_seconds), "s"),
        "first_answer_ms": (
            statistics.median(outcome.first_answer_seconds) * 1e3, "ms"
        ),
        "query_ms_p50": (_percentile(steady, 50), "ms"),
        "query_ms_p90": (_percentile(steady, 90), "ms"),
        "queries_per_s": (len(ok) / outcome.wall_seconds, "1/s"),
        "sim_disk_ms_per_query": (counts["sim_disk_seconds"] * 1e3 / n, "ms"),
        "repo_bytes_per_query": (counts["repo_bytes"] / n, "B"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }


def per_layer(outcome: Outcome, tracer: Tracer, ingest: dict, overhead_s: float) -> dict:
    # Spans cover every query run; the engine's counters cover the prefix.
    n = max(outcome.executed, 1)
    total, self_time, calls = tracer.total, tracer.self_time, tracer.calls
    counters = tracer.counters
    counts = defaultdict(float, outcome.counts)

    def ms(seconds: float) -> tuple[float, str]:
        return (seconds * 1e3 / n, "ms")

    def per_query(count: float) -> tuple[float, str]:
        return (count / n, "count")

    def per_counted_query(key: str) -> tuple[float, str]:
        return (counts[key] / max(outcome.count_queries, 1), "count")

    def ratio(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole else 0.0, "ratio")

    branches = (
        calls["core.cache.scan"] + calls["core.mounting.mount"]
        - counters["mount.cache_fallbacks"]
    )
    scans = calls["core.cache.scan"] - counters["mount.cache_fallbacks"]
    return {
        "ingest.lazy.load_ms": (ingest["load_s"] * 1e3, "ms"),
        "ingest.lazy.files_walked": (ingest["files"], "count"),
        "ingest.lazy.metadata_mb": (ingest["metadata_bytes"] / 1e6, "MB"),
        "mseed.repository.listings_per_query": per_query(
            calls["mseed.repository.list"]
        ),
        "mseed.repository.list_ms_per_query": ms(total["mseed.repository.list"]),
        "db.stats.collects_per_query": per_query(calls["db.stats.collect"]),
        "db.stats.collect_ms_per_query": ms(total["db.stats.collect"]),
        "core.mounting.request_for_ms_per_query": ms(
            total["core.mounting.request_for"]
        ),
        "db.plan.compile_ms_per_query": ms(self_time["db.plan.prepare"]),
        "db.stage1_ms_per_query": ms(total["db.stage1"]),
        "db.stage1_rows_per_query": per_query(counters["stage1.rows"]),
        "core.informativeness.estimate_ms_per_query": ms(
            total["core.informativeness.estimate"]
        ),
        "core.rules.rewrite_ms_per_query": ms(total["core.rules.rewrite"]),
        "core.rules.mount_branches_per_query": per_query(
            counters["rewrite.mount_branches"]
        ),
        "core.rules.cache_branches_per_query": per_query(
            counters["rewrite.cache_branches"]
        ),
        "core.mounting.mounts_per_query": per_query(counters["extract.files"]),
        "core.mounting.mount_ms_per_query": ms(total["core.mounting.mount"]),
        "core.mounting.selective_share": ratio(
            counters["extract.selective"], counters["extract.files"]
        ),
        "core.mounting.records_decoded_per_query": per_query(
            counters["extract.records_decoded"]
        ),
        "core.mounting.records_skipped_per_query": per_query(
            counters["extract.records_skipped"]
        ),
        "core.mounting.rows_kept_ratio": ratio(
            counters["mount.rows_delivered"], counters["mount.rows_mounted"]
        ),
        "core.mounting.retries": (
            calls["core.mounting.extract_once"] - calls["core.mounting.extract"],
            "count",
        ),
        "core.mountpool.take_wait_ms_per_query": ms(
            self_time["core.mountpool.take"]
        ),
        "core.mountpool.worker_busy_ms_per_query": ms(
            tracer.pool_worker_total["core.mounting.extract"]
        ),
        "core.mountpool.speedup": (
            outcome.mount_serial_seconds / outcome.mount_wall_seconds
            if outcome.mount_wall_seconds > 0
            else 1.0,
            "ratio",
        ),
        "ingest.xseed.extract_ms_per_query": ms(total["ingest.xseed.extract"]),
        "mseed.steim.decode_ms_per_query": ms(total["mseed.steim.decode"]),
        "mseed.steim.decodes_per_query": per_query(calls["mseed.steim.decode"]),
        "db.stage2_self_ms_per_query": ms(self_time["db.stage2"]),
        "core.cache.scan_share": ratio(scans, branches),
        "core.cache.insertions_per_query": per_counted_query("cache_insertions"),
        "core.cache.evictions_per_query": per_counted_query("cache_evictions"),
        "core.cache.resident_kb": (counts["cache_resident_bytes"] / 1024, "KiB"),
        "db.buffer.objects_read_per_query": per_counted_query(
            "buffer_objects_read"
        ),
        "serve.scheduler.shared_grant_share": ratio(
            counts["shared_grants"], counts["grants"]
        ),
        "serve.scheduler.extractions_per_query": per_counted_query(
            "tasks_extracted"
        ),
        "serve.scheduler.max_wait_ms": (counts["max_wait_seconds"] * 1e3, "ms"),
        "serve.scheduler.inline_steals": (counts["inline_steals"], "count"),
        "serve.service.take_wait_ms_per_query": ms(total["serve.service.take"]),
        "trace.coverage_pct": (tracer.coverage_pct(), "%"),
        "trace.overhead_pct": (
            100.0 * tracer.span_calls() * overhead_s / total["execute"]
            if total["execute"]
            else 0.0,
            "%",
        ),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, checkout: Path) -> dict:
    repository = archive_for(workload, checkout)
    tracer = Tracer() if trace else None
    ingest: dict = {}

    def setup_done() -> None:
        # The set-up is traced for the ingest layer only; the span table is
        # then cleared so per-query layers count the timed phase alone.
        if tracer is not None:
            ingest["load_s"] = tracer.total["ingest.lazy"]
            ingest["files"] = tracer.counters["ingest.files"]
            ingest["metadata_bytes"] = tracer.counters["ingest.metadata_bytes"]
            tracer.reset()

    setups = 1 if trace else SETUPS[workload]
    with traced(tracer):
        outcome = RUNNERS[workload](repository, seed, seconds, setups, setup_done)
    answers = outcome.setup_answers + outcome.answers + outcome.untimed_answers
    wrong, first = first_mismatch(
        Oracle(repository.root),
        [(a.query, a.fingerprint) for a in answers if a.fingerprint is not None],
    )
    failed = wrong + sum(a.fingerprint is None for a in answers)
    if first is not None:
        print(f"wrong answer: {first}", file=sys.stderr)
    for error in outcome.errors[:3]:
        print(f"query failed: {error}", file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(outcome, tracer, ingest, shim_overhead_seconds())
    else:
        metrics = end_to_end(outcome)
    return {
        "correct": failed == 0,
        "attempted": len(answers),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.checkout)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
