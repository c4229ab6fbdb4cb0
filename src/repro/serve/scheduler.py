"""Cross-query shared-work mount scheduling — LifeRaft's move, generalized.

The service layer needs rule (1)'s per-file single-flight *across*
queries: many concurrent sessions pause at the stage-1/stage-2 breakpoint
with overlapping files of interest, and each file should be extracted once
and its :class:`~repro.core.mounting.ExtractResult` fed to **every**
waiting query. That is LifeRaft's data-driven batching: group queries by
the data they wait on, serve the group with one pass.

It needs no engine of its own. A standalone query's
:class:`~repro.core.mountpool.MountPool` is already a one-client
:class:`~repro.core.mountpool.MountScheduler`; the query service builds
one shared scheduler (unbounded in flight, a non-zero
``batch_window_seconds`` so co-arriving queries hull-merge, priority by
:class:`SchedulerPolicy`'s throughput ↔ fairness knob) and hands each
query's executor a client from :meth:`MountScheduler.client`. That client
is the same :class:`~repro.core.mountpool.MountPool` class, exported here
under its service-side name :data:`SharedPoolClient`; it charges its
query's governor at consume time. See :mod:`repro.core.mountpool` for the
policy, the task states and the guarantees.
"""

from __future__ import annotations

from ..core.mountpool import (
    MountKey,
    MountPool,
    MountScheduler,
    SchedulerPolicy,
    SchedulerStats,
)

SharedPoolClient = MountPool

__all__ = [
    "MountKey",
    "MountScheduler",
    "SchedulerPolicy",
    "SchedulerStats",
    "SharedPoolClient",
]
