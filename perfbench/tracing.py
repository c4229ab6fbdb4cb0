"""Per-layer timing shims, installed from outside the program.

A shim wraps one public function of a layer: it records a span (name,
duration, the time its child spans covered) on the calling thread and
forwards the call unchanged. Each shim patches the name *where the caller
looks it up* — ``estimate_informativeness`` and ``apply_ali_rewrite`` are
imported into ``repro.core.executor``, so they are patched there; methods
are patched on their class. :func:`traced` installs every shim and restores
every original object on exit, so ``src/`` is never edited and an
untraced run executes the program exactly as shipped.

A span's *self time* is its duration minus the part covered by its direct
child spans on the same thread; spans on worker threads have no parent.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Optional

import repro.core.executor as executor_module
import repro.ingest.lazy as lazy_module
import repro.mseed.record as record_module
from repro.core.executor import TwoStageExecutor
from repro.core.mounting import MountService
from repro.core.mountpool import MountPool
from repro.db.database import Database
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed.repository import FileRepository
from repro.serve.scheduler import SharedPoolClient

ROOT = "execute"


class Tracer:
    """Thread-safe span and counter accumulator."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.total: dict[str, float] = defaultdict(float)
            self.self_time: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counters: dict[str, float] = defaultdict(float)
            # span name -> seconds spent on mount-pool worker threads
            self.pool_worker_total: dict[str, float] = defaultdict(float)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread (None at top)."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(
        self,
        fn: Callable,
        name: Callable[..., str] | str,
        on_return: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``name`` may be computed from the args;
        ``on_return(result, args, kwargs)`` turns the result into counters."""
        tracer = self

        def shim(*args: Any, **kwargs: Any) -> Any:
            span = name if isinstance(name, str) else name(*args, **kwargs)
            stack = tracer._stack()
            frame = [span, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                on_worker = threading.current_thread().name.startswith(
                    "mountpool"
                )
                with tracer._lock:
                    tracer.total[span] += elapsed
                    tracer.self_time[span] += elapsed - frame[1]
                    tracer.calls[span] += 1
                    if on_worker:
                        tracer.pool_worker_total[span] += elapsed
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def coverage_pct(self) -> float:
        """Share of root-span wall time covered by its child spans."""
        total = self.total.get(ROOT, 0.0)
        if total <= 0:
            return 0.0
        return 100.0 * (total - self.self_time[ROOT]) / total

    def span_calls(self) -> int:
        return sum(self.calls.values())


def shim_overhead_seconds(samples: int = 20_000) -> float:
    """Measured cost one shim adds to one call, on the running host, now."""

    def noop() -> None:
        return None

    wrapped = Tracer().wrap(noop, "calibration")
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(samples):
            noop()
        raw = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        shimmed = time.perf_counter() - started
        best = min(best, max(shimmed - raw, 0.0) / samples)
    return best


def _shims(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, factory(original) -> shim) for every layer."""
    local = tracer._local

    def on_prepare(decomposition, args, kwargs) -> None:
        local.decomposition = decomposition

    def stage_name(db, plan, *args, **kwargs) -> str:
        decomposition = getattr(local, "decomposition", None)
        if decomposition is not None and plan is decomposition.qf:
            return "db.stage1"
        return "db.stage2"

    def on_execute_plan(result, args, kwargs) -> None:
        decomposition = getattr(local, "decomposition", None)
        if decomposition is not None and args[1] is decomposition.qf:
            tracer.count("stage1.rows", result.num_rows)

    def on_ingest(report, args, kwargs) -> None:
        tracer.count("ingest.files", report.files)
        tracer.count("ingest.metadata_bytes", report.metadata_bytes)

    def on_rewrite(rewritten, args, kwargs) -> None:
        report = kwargs.get("report")
        if report is not None:
            tracer.count("rewrite.mount_branches", report.mounts)
            tracer.count("rewrite.cache_branches", report.cache_scans)

    def on_extract(result, args, kwargs) -> None:
        tracer.count("extract.files")
        tracer.count("extract.bytes", result.bytes_read)
        tracer.count("extract.records_decoded", result.records_decoded)
        tracer.count("extract.records_skipped", result.records_skipped)
        tracer.count("extract.selective", int(result.selective))

    def on_obtain(result, args, kwargs) -> None:
        tracer.count("mount.rows_mounted", result.batch.num_rows)

    def on_mount(batch, args, kwargs) -> None:
        tracer.count("mount.rows_delivered", batch.num_rows)

    def mount_name(*args, **kwargs) -> str:
        if tracer.parent_name() == "core.cache.scan":
            tracer.count("mount.cache_fallbacks")
        return "core.mounting.mount"

    def span(name, on_return=None):
        return lambda original: tracer.wrap(original, name, on_return)

    return [
        (TwoStageExecutor, "execute", span(ROOT)),
        (TwoStageExecutor, "prepare", span("db.plan.prepare", on_prepare)),
        (Database, "execute_plan", span(stage_name, on_execute_plan)),
        (lazy_module, "lazy_ingest_metadata", span("ingest.lazy", on_ingest)),
        (FileRepository, "uris", span("mseed.repository.list")),
        (executor_module, "collect_statistics", span("db.stats.collect")),
        (
            executor_module,
            "estimate_informativeness",
            span("core.informativeness.estimate"),
        ),
        (executor_module, "apply_ali_rewrite", span("core.rules.rewrite", on_rewrite)),
        (MountService, "request_for", span("core.mounting.request_for")),
        (MountService, "mount_file", span(mount_name, on_mount)),
        (MountService, "cache_scan", span("core.cache.scan")),
        (MountService, "_obtain", span("core.mounting.obtain", on_obtain)),
        (MountService, "_extract", span("core.mounting.extract", on_extract)),
        (MountService, "_extract_once", span("core.mounting.extract_once")),
        (MountPool, "prefetch", span("core.mountpool.prefetch")),
        (MountPool, "take", span("core.mountpool.take")),
        (XSeedExtractor, "mount", span("ingest.xseed.extract")),
        (XSeedExtractor, "mount_selective", span("ingest.xseed.extract")),
        (record_module, "steim_decode", span("mseed.steim.decode")),
        (SharedPoolClient, "take", span("serve.service.take")),
    ]


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) :func:`traced` replaces."""
    return [(owner, attr) for owner, attr, _ in _shims(Tracer())]


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install every shim for the block (no-op when ``tracer`` is None)."""
    if tracer is None:
        yield None
        return
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, factory in _shims(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
