"""The reprolint rule set: one checker per standing invariant.

Each rule is a small AST pass over one file (:class:`FileContext`).
Rules are deliberately module-local: the lock-discipline analysis walks
``with`` contexts interprocedurally *within* a module via a least fixed
point over the intramodule call graph, but never across files — the
contracts it encodes (per-session locks, clock seams, boundary
``except``) are all module-scoped by design.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import FileContext, Rule, Violation

# ---------------------------------------------------------------------------
# shared AST helpers


def dotted_name(node: ast.AST) -> str | None:
    """Resolve ``a.b.c`` chains rooted at a Name; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The last component of a Name/Attribute (``self._mask_cache`` → ``_mask_cache``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def call_target(call: ast.Call) -> str | None:
    return terminal_name(call.func)


def contains_literal(node: ast.AST, needle: str) -> bool:
    return any(
        isinstance(sub, ast.Constant) and isinstance(sub.value, str) and needle in sub.value
        for sub in ast.walk(node)
    )


def _is_lockish(expr: ast.expr) -> bool:
    """A ``with`` item that acquires a lock: name or call mentioning 'lock'."""
    node: ast.AST = expr
    if isinstance(node, ast.Call):
        node = node.func
    name = terminal_name(node)
    return name is not None and "lock" in name.lower()


# ---------------------------------------------------------------------------
# rule 1: lock-discipline


#: _ManagedSession fields that make up mutable per-session decision state.
#: ``__init__`` constructs them; everywhere else requires the session lock.
SESSION_STATE_ATTRS = frozenset(
    {
        "last_active",
        "wal_seq",
        "entries_since_snapshot",
        "shows",
        "total_latency_s",
        "log",
        "durable",
    }
)


@dataclass
class _CallSite:
    target: str
    caller: str | None  # bare name of enclosing function, None at module level
    guarded: bool  # lexically inside `with <lock>:`
    node: ast.Call


@dataclass
class _StateWrite:
    attr: str
    caller: str | None
    guarded: bool
    node: ast.AST


@dataclass
class _LockScan:
    calls: list[_CallSite] = field(default_factory=list)
    writes: list[_StateWrite] = field(default_factory=list)
    functions: set[str] = field(default_factory=set)


def _scan_locks(tree: ast.Module) -> _LockScan:
    scan = _LockScan()

    def walk(node: ast.AST, func: str | None, guard: int) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan.functions.add(node.name)
            # Defaults/decorators evaluate in the enclosing scope.
            for dec in node.decorator_list:
                walk(dec, func, guard)
            for child in node.body:
                walk(child, node.name, 0)
            return
        if isinstance(node, ast.Lambda):
            walk(node.body, None, 0)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            lockish = any(_is_lockish(item.context_expr) for item in node.items)
            for item in node.items:
                walk(item.context_expr, func, guard)
            for child in node.body:
                walk(child, func, guard + (1 if lockish else 0))
            return
        if isinstance(node, ast.Call):
            target = call_target(node)
            if target is not None:
                scan.calls.append(_CallSite(target, func, guard > 0, node))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Attribute) and tgt.attr in SESSION_STATE_ATTRS:
                    scan.writes.append(_StateWrite(tgt.attr, func, guard > 0, node))
        for child in ast.iter_child_nodes(node):
            walk(child, func, guard)

    for top in tree.body:
        walk(top, None, 0)
    return scan


def _always_locked_functions(scan: _LockScan) -> set[str]:
    """Least fixed point: functions only ever entered with a lock held.

    A function qualifies if its name ends in ``_locked``, or every
    intramodule call site is either lexically inside ``with <lock>:`` or
    inside a function already known to qualify.  Functions with no
    intramodule callers (public entry points) never qualify; cycles
    without a guarded entry stay out — the conservative direction.
    """
    sites: dict[str, list[_CallSite]] = {}
    for call in scan.calls:
        if call.target in scan.functions:
            sites.setdefault(call.target, []).append(call)
    guarded = {name for name in scan.functions if name.endswith("_locked")}
    changed = True
    while changed:
        changed = False
        for name, calls in sites.items():
            if name in guarded:
                continue
            if all(c.guarded or (c.caller in guarded) for c in calls):
                guarded.add(name)
                changed = True
    return guarded


class LockDisciplineRule(Rule):
    name = "lock-discipline"
    codes = {
        "LCK001": "*_locked helper called from a scope that did not acquire a lock",
        "LCK002": "session-state attribute written outside a lock-guarded scope",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        scan = _scan_locks(ctx.tree)
        guarded_funcs = _always_locked_functions(scan)
        for call in scan.calls:
            if not call.target.endswith("_locked"):
                continue
            if call.guarded or (call.caller in guarded_funcs):
                continue
            yield ctx.violation(
                call.node,
                "LCK001",
                self.name,
                f"`{call.target}` called without an acquired lock in scope"
                " — wrap the call in `with <lock>:` (rule walks callers"
                " within this module)",
            )
        if ctx.rel.startswith(("service/", "cluster/")):
            for write in scan.writes:
                if write.caller == "__init__":
                    continue
                if write.guarded or (write.caller in guarded_funcs):
                    continue
                yield ctx.violation(
                    write.node,
                    "LCK002",
                    self.name,
                    f"write to session-state attribute `{write.attr}` outside"
                    " a lock-guarded scope",
                )


# ---------------------------------------------------------------------------
# rule 2: determinism


DET_SCOPE_PREFIXES = ("exploration/", "procedures/", "store/")
DET_SCOPE_FILES = ("service/manager.py",)

#: Wall-clock calls banned in decision-relevant modules: decisions must
#: flow through the injectable clock seam so replays are bit-exact.
BANNED_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

#: Callables that *are* the seam when bound as a parameter default; the
#: binding itself must carry a pragma documenting its wire meaning.
SEAM_CALLABLES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
    }
)

_RANDOM_PREFIXES = ("random.", "np.random.", "numpy.random.")


class DeterminismRule(Rule):
    name = "determinism"
    codes = {
        "DET001": "direct wall-clock or RNG call in a decision-relevant module",
        "DET002": "wall-clock callable bound as a parameter default (the seam itself)",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not (ctx.rel.startswith(DET_SCOPE_PREFIXES) or ctx.rel in DET_SCOPE_FILES):
            return
        random_names = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "random"
            for alias in node.names
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                if (
                    dotted in BANNED_CLOCK_CALLS
                    or dotted.startswith(_RANDOM_PREFIXES)
                    or dotted in random_names
                ):
                    yield ctx.violation(
                        node,
                        "DET001",
                        self.name,
                        f"direct call to `{dotted}` in a decision-relevant module"
                        " — clocks go through the injectable seam, randomness"
                        " through repro.rng",
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    dotted = dotted_name(default)
                    if dotted in SEAM_CALLABLES:
                        yield ctx.violation(
                            default,
                            "DET002",
                            self.name,
                            f"`{dotted}` bound as a parameter default is an"
                            " injectable-clock seam — pragma it with the"
                            " documented meaning of the timestamps it feeds",
                        )


# ---------------------------------------------------------------------------
# rule 3: boundary discipline


_TRACEBACK_FORMATTERS = frozenset({"format_exc", "format_exception", "format_tb"})


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(sub, ast.Raise) and sub.exc is None
        for stmt in handler.body
        for sub in ast.walk(stmt)
    )


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(terminal_name(e) in ("Exception", "BaseException") for e in exprs)


class BoundaryRule(Rule):
    name = "boundary"
    codes = {
        "EXC001": "broad `except Exception` outside a declared boundary",
        "EXC002": "ReproError raised with a formatted traceback in its payload",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                if _is_broad(node) and not _handler_reraises(node):
                    yield ctx.violation(
                        node,
                        "EXC001",
                        self.name,
                        "broad `except` swallows unknown failures — narrow the"
                        " exception types, or pragma this line if it is a"
                        " declared service/HTTP/router boundary",
                    )
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised = terminal_name(node.exc.func)
                if raised is None or not raised.endswith("Error"):
                    continue
                payload = list(node.exc.args) + [kw.value for kw in node.exc.keywords]
                for arg in payload:
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.Call)
                            and terminal_name(sub.func) in _TRACEBACK_FORMATTERS
                        ):
                            yield ctx.violation(
                                node,
                                "EXC002",
                                self.name,
                                f"`{raised}` payload embeds a formatted traceback"
                                " — error envelopes must not leak stack frames"
                                " onto the wire",
                            )


# ---------------------------------------------------------------------------
# rule 4: ledger append-only


_WRITE_MODE_CHARS = set("wax+")


def _open_mode(call: ast.Call, *, method: bool) -> str | None:
    """The mode string of an ``open``/``Path.open`` call, if constant."""
    args = call.args
    mode_pos = 0 if method else 1
    mode: ast.expr | None = args[mode_pos] if len(args) > mode_pos else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: treat as potential write


class LedgerRule(Rule):
    name = "ledger"
    codes = {
        "LED001": "BENCH_* ledger path opened for writing outside benchmarks/ledger.py",
    }

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.rel == "ledger.py":
            return
        assignments = _local_assignments(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path_expr: ast.AST | None = None
            if isinstance(node.func, ast.Name) and node.func.id == "open" and node.args:
                mode = _open_mode(node, method=False)
                if mode is not None and not (_WRITE_MODE_CHARS & set(mode)):
                    continue
                path_expr = node.args[0]
            elif isinstance(node.func, ast.Attribute):
                if node.func.attr == "open":
                    mode = _open_mode(node, method=True)
                    if mode is not None and not (_WRITE_MODE_CHARS & set(mode)):
                        continue
                    path_expr = node.func.value
                elif node.func.attr in ("write_text", "write_bytes"):
                    path_expr = node.func.value
            if path_expr is not None and _mentions_bench(path_expr, assignments):
                yield ctx.violation(
                    node,
                    "LED001",
                    self.name,
                    "BENCH_* ledger written outside benchmarks/ledger.py — benchmark"
                    " ledgers are append-only via ledger.append_ledger_record",
                )


def _local_assignments(tree: ast.Module) -> dict[str, list[ast.expr]]:
    """name → value expressions it was assigned from, anywhere in the file."""
    out: dict[str, list[ast.expr]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.setdefault(tgt.id, []).append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                out.setdefault(node.target.id, []).append(node.value)
    return out


def _mentions_bench(
    expr: ast.AST, assignments: dict[str, list[ast.expr]], _depth: int = 0
) -> bool:
    if contains_literal(expr, "BENCH_"):
        return True
    if _depth >= 2:
        return False
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name):
            for value in assignments.get(sub.id, []):
                if value is not expr and _mentions_bench(value, assignments, _depth + 1):
                    return True
    return False


RULES: tuple[type[Rule], ...] = (
    LockDisciplineRule,
    DeterminismRule,
    BoundaryRule,
    LedgerRule,
)
