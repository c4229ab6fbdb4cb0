"""Whole-program concurrency analysis for ``src/repro``.

Unlike the per-file rules in :mod:`tools.lint.rules`, this analyzer reads
*every* file it is given before reporting anything: it resolves
``threading.Lock``/``RLock``/``Condition`` (and the ``repro._sync``
factory) attributes per class, follows ``self.attr = OtherClass(...)`` and
annotated constructor parameters to build inter-class call edges, and then
checks four properties of the resulting lock web:

``lock-order-inversion``
    The global acquisition graph (lexical ``with`` nesting plus locks a
    callee may transitively acquire while the caller holds one) must be
    acyclic. A cycle is a deadlock waiting for the right interleaving.
    Non-reentrant self-cycles (a plain ``Lock`` re-acquirable via a call
    chain) are reported as self-deadlocks; an ``RLock`` self-edge is legal.

``condition-wait-outside-loop``
    ``Condition.wait()`` must sit inside a ``while`` whose predicate is
    re-checked after wakeup — ``if``-guarded waits miss spurious wakeups
    and notify races. ``wait_for`` loops internally and passes; a wrapper
    that is itself the loop's body can carry
    ``# lint: allow-wait-outside-loop``.

``unguarded-field`` / ``guard-violation``
    Any attribute written while the class's own lock is held is *shared*
    and must carry a declaration-site annotation: ``# guarded-by: <lock>``
    (every access must then hold that lock, or the access line carries
    ``# unguarded-ok: <reason>``) or a declaration-site
    ``# unguarded-ok: <reason>`` (benign race by design: latches,
    monotonic flags, self-synchronizing primitives). Methods whose name
    ends in ``_locked`` are assumed to be called with the class's primary
    lock held — the repo's existing convention.

``blocking-under-lock``
    No call that can block unboundedly (sleeps, subprocesses, file IO via
    ``open``/``open_volume``, ``Future.result``, ``Thread.join``,
    executor shutdown, event/semaphore/token waits) may be *reachable
    through the call graph* while a lock is held. Waiting on a condition
    variable built over the held lock is the designed release-and-park
    pattern and is exempt; a genuinely intended wait can carry
    ``# lint: allow-blocking-under-lock``.

Scope and honesty: attribute analysis is per-class (``self.x`` only —
writes through another object's reference, e.g. ``task.state = ...`` under
the owner's lock, are documented by cross-class
``# guarded-by: Owner._lock`` comments but not machine-checked), calls
resolve one attribute deep (``self.cache.lookup(...)``), and module-level
functions and nested closures (which run on other threads or at other
times) are walked with an empty held set. Those limits are deliberate:
everything reported is derived from code actually present, so a clean run
means something.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .framework import FileContext, Violation, iter_python_files, parse_file

GUARDED_BY_COMMENT = "guarded-by:"
UNGUARDED_OK_COMMENT = "unguarded-ok:"
BLOCK_ALLOW_COMMENT = "lint: allow-blocking-under-lock"
WAIT_ALLOW_COMMENT = "lint: allow-wait-outside-loop"

# Constructors that make a lock-like attribute, by dotted call name.
LOCK_CTORS = {
    "threading.Lock": "lock",
    "Lock": "lock",
    "create_lock": "lock",
    "_sync.create_lock": "lock",
    "threading.RLock": "rlock",
    "RLock": "rlock",
    "create_rlock": "rlock",
    "_sync.create_rlock": "rlock",
    "threading.Condition": "condition",
    "Condition": "condition",
    "create_condition": "condition",
    "_sync.create_condition": "condition",
}

SEMAPHORE_CTORS = {
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "Semaphore",
    "BoundedSemaphore",
}

# Method names that mutate their receiver in place — `self.attr.append(x)`
# is a write to `attr` even though the AST sees only a Load.
MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

# Leaf calls that block (or may block unboundedly), by dotted call name.
BLOCKING_LEAF_CALLS = {
    "time.sleep",
    "sleep",
    "os.system",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "urllib.request.urlopen",
    "urlopen",
    "open",
    "open_volume",
}

# Attribute-call names that block on some waitable object (futures,
# threads, events, executors, cancellation tokens).
BLOCKING_METHOD_NAMES = {"wait", "wait_for", "result", "join", "shutdown"}


@dataclass
class Access:
    attr: str
    is_write: bool
    under: frozenset[str]  # canonical lock attrs lexically held
    lineno: int
    col: int
    allow: bool  # site-level `# unguarded-ok:` on this line


@dataclass
class CallSite:
    target: tuple[str, ...]  # ("self", meth) | ("attr", a, meth)
    under: frozenset[str]
    lineno: int
    col: int
    allow_blocking: bool
    text: str  # rendered call target for reports
    # Description to report as a blocking leaf if the target does not
    # resolve to a known class method (e.g. `.wait()` on a threading.Event
    # attribute): the precise call edge supersedes the textual guess.
    fallback_blocking: Optional[str] = None


@dataclass
class BlockSite:
    """A lexically blocking call. ``under`` may be empty — the site still
    matters for call-graph propagation (a caller may hold a lock)."""

    description: str
    under: frozenset[str]
    lineno: int
    col: int
    allow: bool


@dataclass
class WaitSite:
    cond_attr: str
    lineno: int
    col: int
    in_while: bool
    allow: bool


@dataclass
class MethodInfo:
    name: str
    lineno: int
    accesses: list[Access] = field(default_factory=list)
    acquires: list[tuple[str, frozenset[str], int]] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blockers: list[BlockSite] = field(default_factory=list)
    waits: list[WaitSite] = field(default_factory=list)
    holds_on_entry: frozenset[str] = frozenset()


@dataclass
class ClassInfo:
    name: str
    path: Path
    lineno: int
    locks: dict[str, str] = field(default_factory=dict)  # attr -> kind
    condition_alias: dict[str, str] = field(default_factory=dict)
    semaphores: set[str] = field(default_factory=set)
    attr_types: dict[str, str] = field(default_factory=dict)
    guards: dict[str, tuple[str, str]] = field(default_factory=dict)
    # guards: attr -> ("guarded", lock) | ("unguarded", reason)
    #              | ("cross", "Owner.lock")
    methods: dict[str, MethodInfo] = field(default_factory=dict)

    def canonical(self, lock_attr: str) -> str:
        """Condition attrs alias the lock they were built over."""
        return self.condition_alias.get(lock_attr, lock_attr)

    def lock_node(self, lock_attr: str) -> str:
        return f"{self.name}.{self.canonical(lock_attr)}"

    def primary_lock(self) -> Optional[str]:
        """The lock ``*_locked`` methods are assumed to hold: ``_lock`` if
        present, else the class's only non-condition lock."""
        real = [a for a, k in self.locks.items() if k != "condition"]
        if "_lock" in real:
            return "_lock"
        if len(real) == 1:
            return real[0]
        return None


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.x`` -> ``x``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attr(node: ast.AST) -> Optional[str]:
    """The root ``self`` attribute of a chain: ``self.a.b[c].d`` -> ``a``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        direct = _self_attr(node)
        if direct is not None:
            return direct
        node = node.value
    return None


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """A plain class name from an annotation, unwrapping Optional and
    string quotes."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip().strip("'\"")
        return name.split("[")[0].split(".")[-1] or None
    if isinstance(node, ast.Subscript):
        outer = _dotted(node.value).split(".")[-1]
        if outer == "Optional":
            return _annotation_class(node.slice)
        return None
    dotted = _dotted(node)
    if dotted:
        return dotted.split(".")[-1]
    return None


def _line_has(lines: list[str], lineno: int, needle: str) -> bool:
    index = lineno - 1
    return 0 <= index < len(lines) and needle in lines[index]


def _comment_value(lines: list[str], lineno: int, marker: str) -> Optional[str]:
    """The text after ``marker`` on the declaration line, or in the
    contiguous pure-comment block directly above it (reasons too long for
    one line live there)."""
    index = lineno - 1
    if not (0 <= index < len(lines)):
        return None
    line = lines[index]
    pos = line.find(marker)
    if pos >= 0:
        return line[pos + len(marker):].strip() or "(no detail)"
    above = index - 1
    while above >= 0 and lines[above].lstrip().startswith("#"):
        pos = lines[above].find(marker)
        if pos >= 0:
            return lines[above][pos + len(marker):].strip() or "(no detail)"
        above -= 1
    return None


def _ctor_kind(value: Optional[ast.AST]) -> Optional[str]:
    """Lock kind if ``value`` constructs a lock (directly, via factory, or
    via ``field(default_factory=...)``)."""
    if not isinstance(value, ast.Call):
        return None
    name = _dotted(value.func)
    if name in LOCK_CTORS:
        return LOCK_CTORS[name]
    if name.split(".")[-1] == "field":
        for kw in value.keywords:
            if kw.arg == "default_factory":
                factory = kw.value
                if isinstance(factory, ast.Lambda):
                    return _ctor_kind(factory.body)
                dotted = _dotted(factory)
                if dotted in LOCK_CTORS:
                    return LOCK_CTORS[dotted]
    return None


def _condition_over(value: Optional[ast.AST]) -> Optional[str]:
    """For ``Condition(self._lock)``-style ctors, the lock attr wrapped."""
    if not isinstance(value, ast.Call):
        return None
    if LOCK_CTORS.get(_dotted(value.func)) != "condition":
        return None
    for arg in list(value.args) + [kw.value for kw in value.keywords]:
        attr = _self_attr(arg)
        if attr is not None:
            return attr
    return None


class _ClassCollector:
    """First pass over one class body: locks, attr types, annotations."""

    def __init__(self, ctx: FileContext, node: ast.ClassDef) -> None:
        self.info = ClassInfo(name=node.name, path=ctx.path, lineno=node.lineno)
        self._lines = ctx.source.splitlines()
        self._class_node = node

    def collect(self) -> ClassInfo:
        for stmt in self._class_node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self._note_declaration(
                    stmt.target.id, stmt.value, stmt.annotation, stmt.lineno
                )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_method_decls(stmt)
        return self.info

    def _collect_method_decls(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        params: dict[str, Optional[str]] = {}
        for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
            params[arg.arg] = _annotation_class(arg.annotation)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    value = node.value
                    if isinstance(value, ast.Name) and value.id in params:
                        self._note_declaration(
                            attr, None, None, node.lineno,
                            inferred=params[value.id],
                        )
                    else:
                        self._note_declaration(attr, value, None, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                attr = _self_attr(node.target)
                if attr is not None:
                    self._note_declaration(
                        attr, node.value, node.annotation, node.lineno
                    )

    def _note_declaration(
        self,
        attr: str,
        value: Optional[ast.AST],
        annotation: Optional[ast.AST],
        lineno: int,
        inferred: Optional[str] = None,
    ) -> None:
        info = self.info
        kind = _ctor_kind(value)
        if kind is None and annotation is not None:
            ann = _dotted(annotation).split(".")[-1]
            if ann in ("Lock", "RLock", "Condition"):
                kind = ann.lower()
        if kind is not None:
            info.locks.setdefault(attr, kind)
            if kind == "condition":
                over = _condition_over(value)
                if over is not None:
                    info.condition_alias[attr] = over
        elif isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name in SEMAPHORE_CTORS:
                info.semaphores.add(attr)
            else:
                cls_name = name.split(".")[-1]
                if cls_name and cls_name[0].isupper():
                    info.attr_types.setdefault(attr, cls_name)
        if inferred is not None:
            info.attr_types.setdefault(attr, inferred)
        guard = _comment_value(self._lines, lineno, GUARDED_BY_COMMENT)
        if guard is not None:
            lock = guard.split()[0]
            if "." in lock:
                owner, _, lock_attr = lock.partition(".")
                if owner == info.name:
                    info.guards.setdefault(attr, ("guarded", lock_attr))
                else:
                    info.guards.setdefault(attr, ("cross", lock))
            else:
                info.guards.setdefault(attr, ("guarded", lock))
            return
        reason = _comment_value(self._lines, lineno, UNGUARDED_OK_COMMENT)
        if reason is not None:
            info.guards.setdefault(attr, ("unguarded", reason))


class _MethodVisitor(ast.NodeVisitor):
    """Second pass over one method body, tracking the lexically-held lock
    set through ``with`` blocks."""

    def __init__(
        self, cls: ClassInfo, method: MethodInfo, lines: list[str]
    ) -> None:
        self.cls = cls
        self.method = method
        self.lines = lines
        self.held: frozenset[str] = frozenset(
            cls.canonical(h) for h in method.holds_on_entry
        )
        self.while_depth = 0

    # -- helpers --------------------------------------------------------

    def _note_access(self, attr: str, is_write: bool, node: ast.AST) -> None:
        if attr in self.cls.locks or attr in self.cls.semaphores:
            return
        lineno = getattr(node, "lineno", 0)
        self.method.accesses.append(
            Access(
                attr=attr,
                is_write=is_write,
                under=self.held,
                lineno=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                allow=_line_has(self.lines, lineno, UNGUARDED_OK_COMMENT),
            )
        )

    def _note_blocker(self, description: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 0)
        self.method.blockers.append(
            BlockSite(
                description=description,
                under=self.held,
                lineno=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                allow=_line_has(self.lines, lineno, BLOCK_ALLOW_COMMENT),
            )
        )

    def _handle_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_target(elt)
            return
        if isinstance(target, ast.Starred):
            self._handle_target(target.value)
            return
        attr = _base_self_attr(target)
        if attr is not None:
            self._note_access(attr, True, target)
        if isinstance(target, ast.Subscript):
            self.visit(target.slice)
        elif attr is None:
            self.visit(target)

    # -- structure ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs run at another time (worker closures, callbacks):
        # the enclosing lock is NOT held there. Walked with an empty held
        # set so their accesses/blockers still register.
        inner = _MethodVisitor(self.cls, self.method, self.lines)
        inner.held = frozenset()
        for stmt in node.body:
            inner.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        inner = _MethodVisitor(self.cls, self.method, self.lines)
        inner.held = frozenset()
        inner.visit(node.body)

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.cls.locks:
                canonical = self.cls.canonical(attr)
                self.method.acquires.append(
                    (canonical, self.held, item.context_expr.lineno)
                )
                acquired.append(canonical)
            else:
                self.visit(item.context_expr)
        if acquired:
            saved = self.held
            self.held = self.held | frozenset(acquired)
            for stmt in node.body:
                self.visit(stmt)
            self.held = saved
        else:
            for stmt in node.body:
                self.visit(stmt)

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.while_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.while_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    # -- accesses -------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_target(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._handle_target(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._handle_target(target)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and isinstance(node.ctx, ast.Load):
            self._note_access(attr, False, node)
            return
        self.visit(node.value)

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        lineno = node.lineno
        col = node.col_offset + 1
        allow_blocking = _line_has(self.lines, lineno, BLOCK_ALLOW_COMMENT)
        dotted = _dotted(func)
        visited_receiver = False

        self_meth = _self_attr(func)
        if self_meth is not None:
            # self.method(...)
            self.method.calls.append(
                CallSite(
                    target=("self", self_meth),
                    under=self.held,
                    lineno=lineno,
                    col=col,
                    allow_blocking=allow_blocking,
                    text=f"self.{self_meth}",
                )
            )
            visited_receiver = True
        elif isinstance(func, ast.Attribute):
            recv_attr = _self_attr(func.value)
            if recv_attr is not None:
                visited_receiver = True
                if recv_attr in self.cls.locks:
                    self._handle_lock_method_call(
                        recv_attr, func.attr, node, allow_blocking
                    )
                elif recv_attr in self.cls.semaphores:
                    if func.attr == "acquire":
                        self._note_blocker(
                            f"self.{recv_attr}.acquire() (semaphore wait)",
                            node,
                        )
                else:
                    if func.attr in MUTATOR_METHODS:
                        self._note_access(recv_attr, True, func.value)
                    else:
                        self._note_access(recv_attr, False, func.value)
                    fallback = None
                    if func.attr in BLOCKING_METHOD_NAMES:
                        fallback = f"self.{recv_attr}.{func.attr}() (wait)"
                    self.method.calls.append(
                        CallSite(
                            target=("attr", recv_attr, func.attr),
                            under=self.held,
                            lineno=lineno,
                            col=col,
                            allow_blocking=allow_blocking,
                            text=f"self.{recv_attr}.{func.attr}",
                            fallback_blocking=fallback,
                        )
                    )

        if not visited_receiver and self._is_blocking_leaf(dotted, func):
            self._note_blocker(f"{dotted or '<call>'}()", node)

        if not visited_receiver and isinstance(func, ast.Attribute):
            self.visit(func.value)
        elif not visited_receiver and not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _handle_lock_method_call(
        self, recv_attr: str, meth: str, node: ast.Call, allow_blocking: bool
    ) -> None:
        """A method call on a known lock/condition attribute."""
        canonical = self.cls.canonical(recv_attr)
        if meth in ("wait", "wait_for"):
            if self.cls.locks[recv_attr] == "condition":
                lineno = node.lineno
                self.method.waits.append(
                    WaitSite(
                        cond_attr=recv_attr,
                        lineno=lineno,
                        col=node.col_offset + 1,
                        in_while=self.while_depth > 0 or meth == "wait_for",
                        allow=_line_has(self.lines, lineno, WAIT_ALLOW_COMMENT),
                    )
                )
            # Parking on a condition releases ITS lock but keeps any other
            # held lock — that residue is the blocking exposure. (A plain
            # `self._done_event.wait()`-style wait lands in the attr branch,
            # not here, because events are not lock attrs.)
            residue = self.held - {canonical}
            self.method.blockers.append(
                BlockSite(
                    description=f"self.{recv_attr}.{meth}() (condition wait)",
                    under=residue,
                    lineno=node.lineno,
                    col=node.col_offset + 1,
                    allow=allow_blocking,
                )
            )
        # acquire()/release()/notify()/locked() on a lock attr: manual
        # acquire-release pairs are invisible to the `with`-based region
        # tracking — kept out of the graph deliberately (the codebase uses
        # `with`; locktrace's own internals are the one exception).

    def _is_blocking_leaf(self, dotted: str, func: ast.AST) -> bool:
        if dotted in BLOCKING_LEAF_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_METHOD_NAMES:
            receiver = func.value
            if isinstance(receiver, ast.Constant):
                return False  # "sep".join(...)
            base = _dotted(receiver)
            if func.attr == "join" and (
                base.endswith("path") or base in ("os", "posixpath", "ntpath")
            ):
                return False  # os.path.join and friends
            if _base_self_attr(func) is not None:
                return False  # self-attr chains handled via call edges
            return True
        return False


def _collect_classes(contexts: Sequence[FileContext]) -> dict[str, ClassInfo]:
    classes: dict[str, ClassInfo] = {}
    for ctx in contexts:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                info = _ClassCollector(ctx, node).collect()
                # First definition wins on a name collision (none in-tree).
                if info.name not in classes:
                    classes[info.name] = info
                    _collect_methods(ctx, node, info)
    return classes


def _collect_methods(
    ctx: FileContext, node: ast.ClassDef, info: ClassInfo
) -> None:
    lines = ctx.source.splitlines()
    primary = info.primary_lock()
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        method = MethodInfo(name=stmt.name, lineno=stmt.lineno)
        if stmt.name.endswith("_locked") and primary is not None:
            method.holds_on_entry = frozenset({primary})
        visitor = _MethodVisitor(info, method, lines)
        for body_stmt in stmt.body:
            visitor.visit(body_stmt)
        info.methods[stmt.name] = method


def _resolve_call(
    classes: dict[str, ClassInfo], cls: ClassInfo, site: CallSite
) -> Optional[tuple[ClassInfo, MethodInfo]]:
    if site.target[0] == "self":
        meth = cls.methods.get(site.target[1])
        return (cls, meth) if meth is not None else None
    attr, meth_name = site.target[1], site.target[2]
    type_name = cls.attr_types.get(attr)
    if type_name is None:
        return None
    other = classes.get(type_name)
    if other is None:
        return None
    meth = other.methods.get(meth_name)
    return (other, meth) if meth is not None else None


def _fixpoint_may_acquire(
    classes: dict[str, ClassInfo],
) -> dict[tuple[str, str], set[str]]:
    """For each (class, method): canonical lock nodes it may transitively
    acquire."""
    may: dict[tuple[str, str], set[str]] = {}
    for cls in classes.values():
        for meth in cls.methods.values():
            may[(cls.name, meth.name)] = {
                f"{cls.name}.{lock}" for lock, _, _ in meth.acquires
            }
    changed = True
    while changed:
        changed = False
        for cls in classes.values():
            for meth in cls.methods.values():
                key = (cls.name, meth.name)
                for site in meth.calls:
                    resolved = _resolve_call(classes, cls, site)
                    if resolved is None:
                        continue
                    callee_cls, callee = resolved
                    extra = may[(callee_cls.name, callee.name)] - may[key]
                    if extra:
                        may[key] |= extra
                        changed = True
    return may


def _fixpoint_may_block(
    classes: dict[str, ClassInfo],
) -> dict[tuple[str, str], Optional[str]]:
    """For each (class, method): a witness description if a blocking call
    is reachable from it (lock context is the caller's concern)."""
    may: dict[tuple[str, str], Optional[str]] = {}
    for cls in classes.values():
        for meth in cls.methods.values():
            witness = None
            for blocker in meth.blockers:
                if not blocker.allow:
                    witness = (
                        f"{blocker.description} at "
                        f"{cls.path.name}:{blocker.lineno}"
                    )
                    break
            may[(cls.name, meth.name)] = witness
    changed = True
    while changed:
        changed = False
        for cls in classes.values():
            for meth in cls.methods.values():
                key = (cls.name, meth.name)
                if may[key] is not None:
                    continue
                for site in meth.calls:
                    if site.allow_blocking:
                        continue
                    resolved = _resolve_call(classes, cls, site)
                    if resolved is None:
                        if site.fallback_blocking is not None:
                            may[key] = (
                                f"{site.fallback_blocking} at "
                                f"{cls.path.name}:{site.lineno}"
                            )
                            changed = True
                            break
                        continue
                    callee_cls, callee = resolved
                    inner = may[(callee_cls.name, callee.name)]
                    if inner is not None:
                        may[key] = f"{site.text}() -> {inner}"
                        changed = True
                        break
    return may


@dataclass
class _Edge:
    src: str
    dst: str
    path: Path
    lineno: int
    reason: str


def _build_edges(
    classes: dict[str, ClassInfo],
    may_acquire: dict[tuple[str, str], set[str]],
) -> list[_Edge]:
    edges: list[_Edge] = []
    for cls in classes.values():
        for meth in cls.methods.values():
            entry = {cls.lock_node(h) for h in meth.holds_on_entry}
            for lock, under, lineno in meth.acquires:
                dst = f"{cls.name}.{lock}"
                held = {f"{cls.name}.{h}" for h in under} | entry
                for src in held:
                    edges.append(
                        _Edge(
                            src, dst, cls.path, lineno,
                            f"{cls.name}.{meth.name} nests 'with' blocks",
                        )
                    )
            for site in meth.calls:
                held = {f"{cls.name}.{h}" for h in site.under} | entry
                if not held:
                    continue
                resolved = _resolve_call(classes, cls, site)
                if resolved is None:
                    continue
                callee_cls, callee = resolved
                for dst in may_acquire[(callee_cls.name, callee.name)]:
                    for src in held:
                        edges.append(
                            _Edge(
                                src, dst, cls.path, site.lineno,
                                f"{cls.name}.{meth.name} calls {site.text}() "
                                f"which may acquire {dst}",
                            )
                        )
    return edges


def _find_cycles(
    classes: dict[str, ClassInfo], edges: list[_Edge]
) -> list[Violation]:
    """Self-loops (non-reentrant) and multi-node cycles in the lock graph."""
    violations: list[Violation] = []
    adjacency: dict[str, dict[str, _Edge]] = {}
    rlock_nodes = {
        f"{cls.name}.{attr}"
        for cls in classes.values()
        for attr, kind in cls.locks.items()
        if kind == "rlock"
    }
    seen_self: set[str] = set()
    for edge in edges:
        if edge.src == edge.dst:
            if edge.src in rlock_nodes or edge.src in seen_self:
                continue
            seen_self.add(edge.src)
            violations.append(
                Violation(
                    path=str(edge.path),
                    line=edge.lineno,
                    col=1,
                    rule="lock-order-inversion",
                    message=(
                        f"self-deadlock: non-reentrant lock '{edge.src}' can "
                        f"be re-acquired while already held ({edge.reason})"
                    ),
                )
            )
            continue
        adjacency.setdefault(edge.src, {}).setdefault(edge.dst, edge)

    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    reported: set[frozenset[str]] = set()

    def dfs(node: str, stack: list[str]) -> None:
        color[node] = GREY
        stack.append(node)
        for succ, edge in adjacency.get(node, {}).items():
            state = color.get(succ, WHITE)
            if state == GREY:
                start = stack.index(succ)
                cycle = stack[start:] + [succ]
                key = frozenset(cycle)
                if key not in reported:
                    reported.add(key)
                    violations.append(
                        Violation(
                            path=str(edge.path),
                            line=edge.lineno,
                            col=1,
                            rule="lock-order-inversion",
                            message=(
                                "lock-order inversion cycle: "
                                + " -> ".join(cycle)
                                + f" (closing edge: {edge.reason}); threads "
                                "taking these locks in opposing orders can "
                                "deadlock"
                            ),
                        )
                    )
            elif state == WHITE:
                dfs(succ, stack)
        stack.pop()
        color[node] = BLACK

    for node in list(adjacency):
        if color.get(node, WHITE) == WHITE:
            dfs(node, [])
    return violations


def _check_waits(classes: dict[str, ClassInfo]) -> list[Violation]:
    violations: list[Violation] = []
    for cls in classes.values():
        for meth in cls.methods.values():
            for wait in meth.waits:
                if wait.in_while or wait.allow:
                    continue
                violations.append(
                    Violation(
                        path=str(cls.path),
                        line=wait.lineno,
                        col=wait.col,
                        rule="condition-wait-outside-loop",
                        message=(
                            f"{cls.name}.{meth.name}: Condition.wait() on "
                            f"self.{wait.cond_attr} is not inside a while "
                            "loop re-checking its predicate; spurious "
                            "wakeups and notify races slip through (use "
                            "`while not pred: cond.wait()` or wait_for)"
                        ),
                    )
                )
    return violations


def _check_guards(classes: dict[str, ClassInfo]) -> list[Violation]:
    violations: list[Violation] = []
    for cls in classes.values():
        if not cls.locks:
            continue
        own_locks = {cls.canonical(a) for a in cls.locks}
        # Shared = written at least once with one of the class's own locks
        # held, outside construction.
        shared: dict[str, Access] = {}
        for meth in cls.methods.values():
            if meth.name in ("__init__", "__post_init__"):
                continue
            for access in meth.accesses:
                if access.is_write and access.under & own_locks:
                    shared.setdefault(access.attr, access)
        for attr in sorted(shared):
            first_write = shared[attr]
            guard = cls.guards.get(attr)
            if guard is None:
                violations.append(
                    Violation(
                        path=str(cls.path),
                        line=first_write.lineno,
                        col=first_write.col,
                        rule="unguarded-field",
                        message=(
                            f"{cls.name}.{attr} is written under "
                            f"{'/'.join(sorted(first_write.under))} but its "
                            "declaration carries no '# guarded-by: <lock>' "
                            "or '# unguarded-ok: <reason>' annotation"
                        ),
                    )
                )
                continue
            kind, value = guard
            if kind != "guarded":
                continue  # unguarded-ok / cross-class: declared, exempt
            lock = cls.canonical(value)
            for meth in cls.methods.values():
                if meth.name in ("__init__", "__post_init__"):
                    continue
                entry = {cls.canonical(h) for h in meth.holds_on_entry}
                for access in meth.accesses:
                    if access.attr != attr or access.allow:
                        continue
                    if lock in access.under or lock in entry:
                        continue
                    what = "written" if access.is_write else "read"
                    violations.append(
                        Violation(
                            path=str(cls.path),
                            line=access.lineno,
                            col=access.col,
                            rule="guard-violation",
                            message=(
                                f"{cls.name}.{attr} is declared "
                                f"'# guarded-by: {value}' but is {what} in "
                                f"{meth.name}() without that lock held "
                                "(annotate the site '# unguarded-ok: "
                                "<reason>' if the race is benign)"
                            ),
                        )
                    )
    return violations


def _check_blocking(
    classes: dict[str, ClassInfo],
    may_block: dict[tuple[str, str], Optional[str]],
) -> list[Violation]:
    violations: list[Violation] = []
    for cls in classes.values():
        for meth in cls.methods.values():
            for blocker in meth.blockers:
                if blocker.allow or not blocker.under:
                    continue
                held = ", ".join(
                    sorted(f"{cls.name}.{h}" for h in blocker.under)
                )
                violations.append(
                    Violation(
                        path=str(cls.path),
                        line=blocker.lineno,
                        col=blocker.col,
                        rule="blocking-under-lock",
                        message=(
                            f"{cls.name}.{meth.name}: {blocker.description} "
                            f"while holding {held}; a blocked critical "
                            "section stalls every thread contending for "
                            "that lock"
                        ),
                    )
                )
            entry = meth.holds_on_entry
            for site in meth.calls:
                under = site.under | {cls.canonical(h) for h in entry}
                if not under or site.allow_blocking:
                    continue
                resolved = _resolve_call(classes, cls, site)
                if resolved is None:
                    if site.fallback_blocking is None:
                        continue
                    held = ", ".join(sorted(f"{cls.name}.{h}" for h in under))
                    violations.append(
                        Violation(
                            path=str(cls.path),
                            line=site.lineno,
                            col=site.col,
                            rule="blocking-under-lock",
                            message=(
                                f"{cls.name}.{meth.name}: "
                                f"{site.fallback_blocking} while holding "
                                f"{held}; a blocked critical section stalls "
                                "every thread contending for that lock"
                            ),
                        )
                    )
                    continue
                callee_cls, callee = resolved
                witness = may_block[(callee_cls.name, callee.name)]
                if witness is None:
                    continue
                held = ", ".join(sorted(f"{cls.name}.{h}" for h in under))
                violations.append(
                    Violation(
                        path=str(cls.path),
                        line=site.lineno,
                        col=site.col,
                        rule="blocking-under-lock",
                        message=(
                            f"{cls.name}.{meth.name}: call chain "
                            f"{site.text}() can block ({witness}) while "
                            f"holding {held}"
                        ),
                    )
                )
    return violations


def analyze(paths: Sequence[str]) -> list[Violation]:
    """Run the whole-program concurrency analysis over ``paths``."""
    contexts = [
        ctx
        for ctx in (parse_file(p) for p in iter_python_files(paths))
        if ctx is not None
    ]
    classes = _collect_classes(contexts)
    may_acquire = _fixpoint_may_acquire(classes)
    may_block = _fixpoint_may_block(classes)
    edges = _build_edges(classes, may_acquire)
    violations: list[Violation] = []
    violations.extend(_find_cycles(classes, edges))
    violations.extend(_check_waits(classes))
    violations.extend(_check_guards(classes))
    violations.extend(_check_blocking(classes, may_block))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def lock_graph(paths: Sequence[str]) -> dict[str, set[str]]:
    """The class-level lock acquisition graph (for docs/debugging)."""
    contexts = [
        ctx
        for ctx in (parse_file(p) for p in iter_python_files(paths))
        if ctx is not None
    ]
    classes = _collect_classes(contexts)
    may_acquire = _fixpoint_may_acquire(classes)
    graph: dict[str, set[str]] = {}
    for edge in _build_edges(classes, may_acquire):
        if edge.src != edge.dst:
            graph.setdefault(edge.src, set()).add(edge.dst)
    return graph


__all__ = ["analyze", "lock_graph"]
