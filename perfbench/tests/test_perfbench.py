"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:
``PYTHONPATH=src:. python3 -m pytest -q perfbench/tests``. The first run
generates the two archives under ``.perfbench_archives/`` (about 20 s).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, workloads
from perfbench.archives import archive_for, spec_for
from perfbench.oracle import Oracle, answer_fingerprint, rows_fingerprint
from perfbench.tracing import Tracer, patch_points, traced
from repro.core.executor import TwoStageExecutor
from repro.ingest.schema import RepositoryBinding

CHECKOUT = Path(__file__).resolve().parents[2]


def _noop() -> None:
    return None


@pytest.fixture(scope="module")
def small_archive():
    return archive_for("mount-120", CHECKOUT)


def test_explore_counts_repeat_exactly_for_a_fixed_seed():
    repository = archive_for("explore-5k", CHECKOUT)
    first = bench.run_explore(repository, 11, 0.0, 1, _noop)
    second = bench.run_explore(repository, 11, 0.0, 1, _noop)
    assert len(first.answers) == len(workloads.SESSION_SHAPE)
    assert first.counts["repo_bytes"] > 0
    assert first.counts["sim_disk_seconds"] > 0
    assert first.counts == second.counts
    assert [a.fingerprint for a in first.answers] == [
        a.fingerprint for a in second.answers
    ]


def _explore_shape(seed: int) -> list:
    spec = spec_for("explore-5k")
    return [
        (q.step, q.kind, q.channel is None, q.sample_hi - q.sample_lo)
        for index in range(3)
        for q in workloads.explore_session(spec, seed, index)
    ]


def _mount_shape(seed: int) -> list:
    spec = spec_for("mount-120")
    return [
        (q.kind, q.record_hi - q.record_lo, q.sample_hi - q.sample_lo)
        for q in (workloads.mount_query(spec, seed, i) for i in range(30))
    ]


def _serve_steps(seed: int, count: int = 200) -> list:
    steps = workloads.serve_steps(spec_for("serve-skewed"), seed)
    return [next(steps) for _ in range(count)]


def _serve_shape(seed: int) -> list:
    shape = []
    files = set()
    for outer, inner in _serve_steps(seed):
        key = (outer.station, outer.channel, outer.record_lo)
        assert key == (inner.station, inner.channel, inner.record_lo)
        assert outer.sample_lo <= inner.sample_lo < inner.sample_hi <= outer.sample_hi
        files.add(key)
        shape.append(
            (outer.sample_hi - outer.sample_lo, inner.sample_hi - inner.sample_lo)
        )
    return shape + [len(files)]


def test_another_seed_changes_the_sql_but_not_the_shape():
    spec = spec_for("explore-5k")
    sql = lambda seed: [q.sql for q in workloads.explore_session(spec, seed, 0)]
    assert sql(1) != sql(2)
    assert _explore_shape(1) == _explore_shape(2)

    mount_spec = spec_for("mount-120")
    assert workloads.mount_query(mount_spec, 1, 0).sql != workloads.mount_query(
        mount_spec, 2, 0
    ).sql
    assert _mount_shape(1) == _mount_shape(2)

    assert [s[0].sql for s in _serve_steps(1, 20)] != [
        s[0].sql for s in _serve_steps(2, 20)
    ]
    assert _serve_shape(1) == _serve_shape(2)


def test_same_seed_gives_the_same_sql():
    assert [s[1].sql for s in _serve_steps(5, 50)] == [
        s[1].sql for s in _serve_steps(5, 50)
    ]
    spec = spec_for("mount-120")
    assert workloads.mount_query(spec, 5, 7) == workloads.mount_query(spec, 5, 7)


def test_traced_run_restores_every_patched_function():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in patch_points()]
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            for owner, attr, original in before:
                assert vars(owner)[attr] is not original
            raise RuntimeError("the block fails; shims must still come off")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"


def test_mount_counts_cover_the_prefix_whatever_the_clock(
    small_archive, monkeypatch
):
    monkeypatch.setitem(bench.COUNT_PREFIX, "mount-120", 6)
    cut_short = bench.run_mount(small_archive, 8, 0.0, 1, _noop)
    assert len(cut_short.answers) == 1
    assert len(cut_short.untimed_answers) == 5
    longer = bench.run_mount(small_archive, 8, 1.0, 1, _noop)
    assert longer.executed > 6 and not longer.untimed_answers
    assert cut_short.count_queries == longer.count_queries == 6
    assert cut_short.counts["repo_bytes"] > 0
    # Two mount workers add disk charges in either order: floats may differ
    # in the last bit.
    assert cut_short.counts == pytest.approx(longer.counts, rel=1e-12, abs=0)


def test_traced_spans_nest_and_count(small_archive, monkeypatch):
    monkeypatch.setitem(bench.COUNT_PREFIX, "mount-120", 1)
    tracer = Tracer()
    with traced(tracer):
        outcome = bench.run_mount(small_archive, 3, 0.0, 1, tracer.reset)
    assert len(outcome.answers) == 1
    assert tracer.calls["execute"] == 1
    assert tracer.calls["db.stage1"] == 1 and tracer.calls["db.stage2"] == 1
    assert tracer.counters["extract.files"] > 0
    assert 0 < tracer.coverage_pct() <= 100


def test_oracle_accepts_the_engine_and_rejects_a_perturbed_answer(small_archive):
    spec = spec_for("mount-120")
    db = bench._load_metadata(small_archive)
    executor = TwoStageExecutor(db, RepositoryBinding(small_archive))
    oracle = Oracle(small_archive.root)

    rows_query = workloads.mount_query(spec, 4, 1)
    result = executor.execute(rows_query.sql)
    answer = answer_fingerprint(rows_query.kind, result)
    assert answer[1] > 0
    assert oracle.check(rows_query, answer)
    values = result.result.batch.columns[1].values.copy()
    values[len(values) // 2] += 1.0
    times = result.result.batch.columns[0].values
    assert not oracle.check(rows_query, rows_fingerprint(times, values))
    assert not oracle.check(rows_query, rows_fingerprint(times[1:], values[1:]))

    avg_query = next(workloads.serve_steps(spec, 4))[0]
    result = executor.execute(avg_query.sql)
    answer = answer_fingerprint(avg_query.kind, result)
    assert answer[1] is not None and oracle.check(avg_query, answer)
    assert not oracle.check(avg_query, ("avg", answer[1] * (1 + 1e-6)))


def test_fingerprint_ignores_row_order():
    times = np.arange(10, dtype=np.int64) * 2_000_000
    values = np.linspace(-5, 5, 10)
    order = np.random.default_rng(0).permutation(10)
    assert rows_fingerprint(times, values) == rows_fingerprint(
        times[order], values[order]
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["mount-120", "serve-skewed"])
def test_result_reports_exactly_the_declared_metrics(workload, trace, monkeypatch):
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in declared["workloads"]}
    monkeypatch.setitem(bench.COUNT_PREFIX, workload, 4)
    group = "per_layer" if trace else "end_to_end"
    result = bench.run(workload, 2, 0.0, trace, CHECKOUT)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared[group]}
    units = {m["name"]: m["unit"] for m in declared[group]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
