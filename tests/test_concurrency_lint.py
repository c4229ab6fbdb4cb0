"""The whole-program concurrency analyzer: every rule family fires on a
seeded fixture, every sanctioned convention silences it, and the real tree
is clean.

Fixtures are written to ``tmp_path`` and analyzed whole — the analyzer's
value is cross-method and cross-class reasoning, so most fixtures need two
methods or two classes to trigger anything.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.lint.concurrency import analyze, lock_graph  # noqa: E402


def _analyze_source(tmp_path: Path, source: str) -> list:
    target = tmp_path / "fixture.py"
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([str(tmp_path)])


def _rules(violations: list) -> set[str]:
    return {v.rule for v in violations}


# -- lock-order inversions -----------------------------------------------------


def test_same_class_inversion_detected(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Service:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
        """,
    )
    assert _rules(violations) == {"lock-order-inversion"}
    assert len(violations) == 1  # one cycle, reported once
    assert "cycle" in violations[0].message
    assert "Service._a" in violations[0].message
    assert "Service._b" in violations[0].message


def test_consistent_nesting_is_clean(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Service:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def also_forward(self):
                with self._a:
                    with self._b:
                        pass
        """,
    )
    assert violations == []


def test_cross_class_inversion_via_call_edges(tmp_path):
    """The tentpole capability: neither class nests two ``with`` blocks —
    the cycle only exists across the call edges Coordinator -> Worker and
    Worker -> Coordinator."""
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Coordinator:
            def __init__(self):
                self._lock = threading.Lock()
                self._worker = Worker(self)

            def kick(self):
                with self._lock:
                    self._worker.poke()

            def touch(self):
                with self._lock:
                    pass

        class Worker:
            def __init__(self, owner: Coordinator):
                self._lock = threading.Lock()
                self._owner = owner

            def poke(self):
                with self._lock:
                    pass

            def reverse(self):
                with self._lock:
                    self._owner.touch()
        """,
    )
    assert _rules(violations) == {"lock-order-inversion"}
    assert any(
        "Coordinator._lock" in v.message and "Worker._lock" in v.message
        for v in violations
    )
    # The same fixture's acquisition graph is exported for docs/debugging.
    graph = lock_graph([str(tmp_path)])
    assert "Worker._lock" in graph.get("Coordinator._lock", set())
    assert "Coordinator._lock" in graph.get("Worker._lock", set())


def test_self_deadlock_through_call_chain(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Boxed:
            def __init__(self):
                self._lock = threading.Lock()

            def outer(self):
                with self._lock:
                    self.helper()

            def helper(self):
                with self._lock:
                    pass
        """,
    )
    assert _rules(violations) == {"lock-order-inversion"}
    assert "self-deadlock" in violations[0].message


def test_rlock_reacquire_is_legal(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Boxed:
            def __init__(self):
                self._lock = threading.RLock()

            def outer(self):
                with self._lock:
                    self.helper()

            def helper(self):
                with self._lock:
                    pass
        """,
    )
    assert violations == []


def test_sync_factory_locks_are_resolved(tmp_path):
    # The repro._sync seam constructs every production lock; the analyzer
    # must see through the factory exactly like a threading ctor.
    violations = _analyze_source(
        tmp_path,
        """
        from repro import _sync

        class Service:
            def __init__(self):
                self._a = _sync.create_lock("Service._a")
                self._b = _sync.create_lock("Service._b")

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
        """,
    )
    assert _rules(violations) == {"lock-order-inversion"}


# -- condition discipline ------------------------------------------------------


def test_wait_outside_while_flagged(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Parker:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)

            def park(self):
                with self._cond:
                    if True:
                        self._cond.wait()
        """,
    )
    assert _rules(violations) == {"condition-wait-outside-loop"}


def test_wait_inside_while_is_clean(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Parker:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)
                self._ready = False  # guarded-by: _lock

            def set_ready(self):
                with self._cond:
                    self._ready = True
                    self._cond.notify_all()

            def park(self):
                with self._cond:
                    while not self._ready:
                        self._cond.wait()
        """,
    )
    # Also exercises condition-over-lock aliasing: `with self._cond:`
    # satisfies the `# guarded-by: _lock` declaration, and waiting on the
    # condition built over the held lock is not blocking-under-lock.
    assert violations == []


def test_wait_allow_comment_suppresses(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Parker:
            def __init__(self):
                self._lock = threading.Lock()
                self._cond = threading.Condition(self._lock)

            def park_once(self):
                with self._cond:
                    self._cond.wait(0.1)  # lint: allow-wait-outside-loop
        """,
    )
    assert violations == []


# -- guarded-by discipline -----------------------------------------------------


def test_unguarded_field_requires_annotation(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count = self.count + 1
        """,
    )
    assert _rules(violations) == {"unguarded-field"}
    assert "Counter.count" in violations[0].message


def test_guarded_by_annotation_satisfies(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.count = self.count + 1
        """,
    )
    assert violations == []


def test_unguarded_ok_declaration_exempts_field(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                # unguarded-ok: monotonic flag, torn reads are benign
                self.dirty = False

            def bump(self):
                with self._lock:
                    self.dirty = True

            def peek(self):
                return self.dirty
        """,
    )
    # The declaration-site annotation may live in the comment block directly
    # above the assignment (reasons rarely fit on the line).
    assert violations == []


def test_guard_violation_on_unlocked_access(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.count = self.count + 1

            def peek(self):
                return self.count
        """,
    )
    assert _rules(violations) == {"guard-violation"}
    assert "peek" in violations[0].message


def test_site_level_unguarded_ok_suppresses(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def bump(self):
                with self._lock:
                    self.count = self.count + 1

            def peek(self):
                return self.count  # unguarded-ok: monitoring estimate only
        """,
    )
    assert violations == []


def test_locked_suffix_methods_assume_primary_lock(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}  # guarded-by: _lock

            def put(self, key, value):
                with self._lock:
                    self._items[key] = value
                    self._evict_locked()

            def _evict_locked(self):
                self._items.clear()
        """,
    )
    # _evict_locked mutates the guarded dict (clear() is a mutator) with no
    # lexical `with` — the `_locked` suffix convention carries the guard.
    assert violations == []


def test_container_mutators_count_as_writes(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def put(self, value):
                with self._lock:
                    self._items.append(value)
        """,
    )
    assert _rules(violations) == {"unguarded-field"}


# -- blocking reachable under a lock -------------------------------------------


def test_direct_blocking_under_lock(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading
        import time

        class Sleepy:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    time.sleep(0.1)
        """,
    )
    assert _rules(violations) == {"blocking-under-lock"}


def test_blocking_reachable_through_call_graph(tmp_path):
    """The sleep is one call away from the critical section."""
    violations = _analyze_source(
        tmp_path,
        """
        import threading
        import time

        class Sleepy:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    self.pause()

            def pause(self):
                time.sleep(0.1)
        """,
    )
    assert _rules(violations) == {"blocking-under-lock"}
    assert "call chain" in violations[0].message
    assert "pause" in violations[0].message


def test_blocking_outside_lock_is_clean(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading
        import time

        class Sleepy:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    pass
                time.sleep(0.1)

            def pause(self):
                time.sleep(0.1)
        """,
    )
    assert violations == []


def test_blocking_in_nested_function_not_flagged(tmp_path):
    """A function defined under the lock runs later, when the lock is not
    (necessarily) held: its body is not a critical section."""
    violations = _analyze_source(
        tmp_path,
        """
        import threading
        import time

        class Sleepy:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    def backoff():
                        time.sleep(0.1)
                    self._callback = backoff  # unguarded-ok: test fixture
        """,
    )
    assert violations == []


def test_blocking_allow_comment_on_call_site(tmp_path):
    violations = _analyze_source(
        tmp_path,
        """
        import threading
        import time

        class Sleepy:
            def __init__(self):
                self._lock = threading.Lock()

            def nap(self):
                with self._lock:
                    self.pause()  # lint: allow-blocking-under-lock

            def pause(self):
                time.sleep(0.1)
        """,
    )
    assert violations == []


# -- the real tree --------------------------------------------------------------


def test_src_tree_has_zero_findings():
    violations = analyze([str(REPO_ROOT / "src")])
    assert violations == [], "\n".join(v.render() for v in violations)


def test_src_lock_graph_is_acyclic():
    # Today the graph is empty — no code path in the tree acquires one
    # class-level lock while holding another, the strongest possible
    # ordering discipline. If nesting is ever introduced, this keeps the
    # hierarchy a DAG (Kahn's algorithm).
    graph = lock_graph([str(REPO_ROOT / "src")])
    nodes = set(graph) | {d for ds in graph.values() for d in ds}
    indegree = {n: 0 for n in nodes}
    for dsts in graph.values():
        for d in dsts:
            indegree[d] += 1
    frontier = [n for n, deg in indegree.items() if deg == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for d in graph.get(node, ()):
            indegree[d] -= 1
            if indegree[d] == 0:
                frontier.append(d)
    assert seen == len(nodes)
