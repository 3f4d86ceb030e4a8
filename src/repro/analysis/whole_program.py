"""Whole-program conformance pass (``repro lint --whole-program``).

Three analyses share one :class:`~repro.analysis.callgraph.Project`:

1. **Protocol conformance** (WIRE0xx, :mod:`repro.analysis.protocol_model`)
   — the wire contract extracted from ``api/protocol.py`` must agree with
   the service dispatch table, the client wrappers, the router intercepts,
   ``ERROR_CODES`` and the HTTP status map.

2. **Cross-module determinism taint** (DET1xx) — the per-file DET rules
   ban ambient time/random *inside* decision-relevant modules; this pass
   generalizes the same least-fixed-point idea across module boundaries.
   A value is *tainted* when it (transitively) contains the result of a
   wall-clock or unseeded-RNG call; tainted values may not reach the
   replay-critical sinks — ``DecisionRecord`` construction (DET101), WAL
   writes (DET102), or wire payloads (DET103).  Resolution is *strict*
   (only provable bindings): an unresolvable call is assumed clean,
   because a cross-module lint that guesses gets pragma'd into silence.
   The documented seams stay legal: everything in ``rng.py`` is the
   deterministic randomness seam and never taints; seeded constructors
   (``default_rng(seed)``) are deterministic by definition.

3. **Static lock-order graph** (LCK101 via :func:`validate_lock_dump`) —
   extracts every ``with <lock>:`` acquisition, propagates held-lock sets
   through a *loose* call graph (dynamic dispatch widens, never narrows),
   and emits the set of acquisition-order edges the program can exhibit.
   CI runs tier-1 under ``REPRO_LOCK_CHECK=1`` with
   ``REPRO_LOCK_CHECK_DUMP`` set and fails if the runtime detector ever
   observed an edge this extraction did not predict — i.e. the static
   graph must stay a superset of reality.  Statically-possible edges the
   suite never exercised are reported as warnings, not failures.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.analysis import protocol_model
from repro.analysis.callgraph import UNRESOLVED, FunctionInfo, ModuleInfo, Project
from repro.analysis.core import Violation
from repro.analysis.rules import BANNED_CLOCK_CALLS, dotted_name, terminal_name

TAINT_RULE = "cross-module-determinism"
LOCK_RULE = "lock-graph"

DET_CODES = {
    "DET101": "ambient time/random flows into DecisionRecord construction",
    "DET102": "ambient time/random flows into a WAL write",
    "DET103": "ambient time/random flows into a wire payload",
}
LCK_CODES = {
    "LCK101": "runtime-observed lock acquisition edge absent from the static lock-order graph",
}

WHOLE_PROGRAM_CODES: dict[str, str] = {
    **protocol_model.WIRE_CODES,
    **DET_CODES,
    **LCK_CODES,
}
WHOLE_PROGRAM_RULES: dict[str, dict[str, str]] = {
    protocol_model.RULE_NAME: protocol_model.WIRE_CODES,
    TAINT_RULE: DET_CODES,
    LOCK_RULE: LCK_CODES,
}

#: The deterministic-randomness seam: nothing defined here taints.
_SEAM_MODULES = frozenset({"rng.py"})

_RANDOM_MODULE_HEADS = ("random.", "np.random.", "numpy.random.")
#: numpy constructors that are deterministic once given a seed argument.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {"default_rng", "SeedSequence", "RandomState", "Generator", "seed"}
)

#: Store/WAL mutation methods (sink receivers must look store-like).
_WAL_METHODS = frozenset(
    {"append", "_append_now", "stage", "register_idem", "compact"}
)
_WAL_RECEIVER_HINTS = ("store", "durable", "wal")

#: Wire-payload constructors (DET103 sinks).
_WIRE_SINKS = frozenset({"Response", "ErrorInfo"})

_BUILTIN_NAMES = frozenset(dir(builtins))


def _is_ambient_source(call: ast.Call) -> bool:
    """Is this call an ambient (non-replayable) time or randomness source?"""
    dotted = dotted_name(call.func)
    if dotted is None:
        return False
    if dotted in BANNED_CLOCK_CALLS:
        return True
    for head in _RANDOM_MODULE_HEADS:
        if dotted.startswith(head):
            tail = dotted[len(head):]
            if tail.split(".")[0] in _SEEDABLE_CONSTRUCTORS:
                # default_rng(seed) is the documented deterministic idiom;
                # only the argless (OS-entropy) form is ambient.
                return not call.args and not call.keywords
            return True
    return False


# ---------------------------------------------------------------------------
# cross-module determinism taint


class _TaintPass:
    """Interprocedural return-taint, then per-function sink checks."""

    def __init__(self, project: Project):
        self.project = project
        self.tainted_returns: set[str] = set()

    def run(self) -> list[Violation]:
        # Least fixed point on "does this function return a tainted value".
        changed = True
        while changed:
            changed = False
            for fn in self.project.functions():
                if fn.key in self.tainted_returns or fn.module in _SEAM_MODULES:
                    continue
                if self._returns_taint(fn):
                    self.tainted_returns.add(fn.key)
                    changed = True
        violations: list[Violation] = []
        for fn in self.project.functions():
            violations.extend(self._check_sinks(fn))
        return violations

    # -- intraprocedural -----------------------------------------------------

    def _tainted_locals(self, fn: FunctionInfo) -> set[str]:
        """Names bound to tainted values anywhere in *fn* (flow-insensitive
        upward closure: two passes reach a fixed point for straight-line
        chains; loops that launder taint through reassignment are rare
        enough to accept)."""
        module = self.project.modules[fn.module]
        tainted: set[str] = set()
        for _ in range(2):
            before = len(tainted)
            for node in ast.walk(fn.node):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets, value = [node.target], node.value
                if value is None:
                    continue
                if self._expr_tainted(value, tainted, module, fn.class_name):
                    for target in targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                tainted.add(sub.id)
            if len(tainted) == before:
                break
        return tainted

    def _expr_tainted(
        self,
        expr: ast.AST,
        tainted: set[str],
        module: ModuleInfo,
        class_name: str | None,
    ) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if _is_ambient_source(node):
                    return True
                for target in self.project.resolve_strict(
                    module, class_name, node.func
                ):
                    if target.key in self.tainted_returns:
                        return True
            elif isinstance(node, ast.Name) and node.id in tainted:
                return True
        return False

    def _returns_taint(self, fn: FunctionInfo) -> bool:
        module = self.project.modules[fn.module]
        tainted = self._tainted_locals(fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if self._expr_tainted(node.value, tainted, module, fn.class_name):
                    return True
        return False

    # -- sinks ---------------------------------------------------------------

    def _check_sinks(self, fn: FunctionInfo) -> list[Violation]:
        module = self.project.modules[fn.module]
        tainted = self._tainted_locals(fn)
        violations: list[Violation] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            code = self._sink_code(node)
            if code is None:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            if any(
                self._expr_tainted(arg, tainted, module, fn.class_name)
                for arg in args
            ):
                violations.append(
                    Violation(
                        str(module.path), node.lineno, node.col_offset,
                        code, TAINT_RULE,
                        f"{DET_CODES[code]} (in {fn.qual}); route it through"
                        " the rng.py seam or an injected clock so replay"
                        " reproduces the same bytes",
                    )
                )
        return violations

    def _sink_code(self, call: ast.Call) -> str | None:
        name = terminal_name(call.func)
        if name == "DecisionRecord":
            return "DET101"
        if name in _WAL_METHODS and isinstance(call.func, ast.Attribute):
            receiver = terminal_name(call.func.value)
            if receiver is not None and any(
                hint in receiver.lower() for hint in _WAL_RECEIVER_HINTS
            ):
                return "DET102"
        if name in _WIRE_SINKS:
            return "DET103"
        if name in ("success", "failure") and isinstance(call.func, ast.Attribute):
            if terminal_name(call.func.value) == "Response":
                return "DET103"
        return None


def taint_violations(project: Project) -> list[Violation]:
    return _TaintPass(project).run()


# ---------------------------------------------------------------------------
# static lock-order graph


@dataclass
class LockModel:
    """Which expressions denote which lock class, per the AST."""

    #: (module rel, attr/name) -> lock classes it may hold
    bindings: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: attr/name -> lock classes, across all modules (fallback)
    global_bindings: dict[str, set[str]] = field(default_factory=dict)
    #: factory function terminal name -> lock classes it returns
    factories: dict[str, set[str]] = field(default_factory=dict)
    #: every lock class name seen at a make_lock/make_rlock site
    classes: set[str] = field(default_factory=set)

    def bind(self, module: str, name: str, lock_class: str) -> None:
        self.bindings.setdefault((module, name), set()).add(lock_class)
        self.global_bindings.setdefault(name, set()).add(lock_class)
        self.classes.add(lock_class)


def _make_lock_classes(node: ast.AST) -> set[str]:
    """Lock class names from any make_lock/make_rlock call under *node*."""
    classes: set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and terminal_name(sub.func) in ("make_lock", "make_rlock")
            and sub.args
            and isinstance(sub.args[0], ast.Constant)
            and isinstance(sub.args[0].value, str)
        ):
            classes.add(sub.args[0].value)
    return classes


def build_lock_model(project: Project) -> LockModel:
    model = LockModel()
    # Pass 1: assignments whose value constructs a lock bind the target
    # name/attr to that class (covers `self._lock = make_rlock(...)` and
    # `lock = d.setdefault(k, make_lock(...))` alike).
    for info in project.modules.values():
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            classes = _make_lock_classes(value)
            if not classes:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = terminal_name(target)
                if name is not None:
                    for cls in classes:
                        model.bind(info.rel, name, cls)
    # Pass 2: lock factories — functions whose name mentions "lock" and
    # which either construct a lock or return a bound lock attribute /
    # another factory's result.  Iterate to a fixed point so factories
    # that delegate (service._pipeline_lock -> manager.session_lock)
    # resolve through the chain.
    changed = True
    while changed:
        changed = False
        for fn in project.functions():
            if "lock" not in fn.name.lower():
                continue
            classes = _make_lock_classes(fn.node)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                retval = node.value
                name = terminal_name(retval)
                if isinstance(retval, ast.Call):
                    if name in model.factories:
                        classes |= model.factories[name]
                elif name is not None:
                    bound = model.bindings.get((fn.module, name))
                    if bound is None:
                        bound = model.global_bindings.get(name)
                    if bound:
                        classes |= bound
            if classes and classes - model.factories.get(fn.name, set()):
                model.factories.setdefault(fn.name, set()).update(classes)
                model.classes.update(classes)
                changed = True
    # Pass 3: locals assigned from factory calls
    # (`lock = self.manager.session_lock(sid)` in service.py).
    for info in project.modules.values():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            factory = terminal_name(node.value.func)
            if factory not in model.factories:
                continue
            for target in node.targets:
                name = terminal_name(target)
                if name is not None:
                    for cls in model.factories[factory]:
                        model.bind(info.rel, name, cls)
    return model


def _lock_classes_for(
    model: LockModel, module_rel: str, expr: ast.expr
) -> set[str]:
    """Lock classes a with-item expression may acquire (empty: not a lock)."""
    if isinstance(expr, ast.Call):
        direct = _make_lock_classes(expr)
        if direct:
            return direct
        factory = terminal_name(expr.func)
        if factory in model.factories:
            return set(model.factories[factory])
        return set()
    name = terminal_name(expr)
    if name is None:
        return set()
    bound = model.bindings.get((module_rel, name))
    if bound:
        return set(bound)
    if "lock" in name.lower():
        # A lock-named attribute we never saw constructed: over-approximate
        # with every class that name binds to anywhere (superset is sound
        # for the cross-validation direction).
        return set(model.global_bindings.get(name, set()))
    return set()


class _LockGraphPass:
    """Held-set propagation: edges = (held lock) × (acquired lock)."""

    def __init__(self, project: Project):
        self.project = project
        self.model = build_lock_model(project)
        #: per-function: (frozen held-at-site, acquired classes)
        self.acquisitions: dict[str, list[tuple[frozenset[str], set[str]]]] = {}
        #: per-function: (frozen held-at-site, loose callee keys)
        self.calls: dict[str, list[tuple[frozenset[str], list[str]]]] = {}
        self.entry_held: dict[str, set[str]] = {}

    def run(self) -> set[tuple[str, str]]:
        for fn in self.project.functions():
            self._collect(fn)
        self._propagate()
        edges: set[tuple[str, str]] = set()
        for key, sites in self.acquisitions.items():
            entry = self.entry_held.get(key, set())
            for held, acquired in sites:
                for src in held | entry:
                    for dst in acquired:
                        if src != dst:
                            # Runtime never records self-edges: same-class
                            # nesting raises instead of adding an edge.
                            edges.add((src, dst))
        return edges

    def _collect(self, fn: FunctionInfo) -> None:
        acq: list[tuple[frozenset[str], set[str]]] = []
        calls: list[tuple[frozenset[str], list[str]]] = []
        module = self.project.modules[fn.module]

        def resolve_call(func_expr: ast.AST) -> list[str]:
            strict = self.project.resolve_strict(module, fn.class_name, func_expr)
            if strict:
                return [t.key for t in strict]
            targets = self.project.resolve_loose(func_expr)
            if UNRESOLVED not in targets:
                return targets
            # A method name no project definition shares is a stdlib/
            # opaque call — it cannot reach repro locks.  A *bare name*
            # with no definition is a variable holding a project
            # callable (`handler(command)`, an injected callback):
            # that keeps the propagate-to-address-taken semantics.
            # Builtins, foreign imports, and `cls(...)` constructor
            # calls are opaque.
            if not isinstance(func_expr, ast.Name):
                return []
            name = func_expr.id
            if name in _BUILTIN_NAMES or name in module.foreign:
                return []
            if name == "cls" and fn.class_name is not None:
                init = f"{fn.module}::{fn.class_name}.__init__"
                return [init] if init in self.project.defs else []
            return targets

        def record_calls(node: ast.AST, held: frozenset[str]) -> None:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    targets = resolve_call(sub.func)
                    if targets:
                        calls.append((held, targets))

        def visit(stmts: list[ast.stmt], held: frozenset[str]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # Nested defs run later, possibly lock-free — analyzed
                    # as separate functions with loose-call entry sets.
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired: set[str] = set()
                    for item in stmt.items:
                        record_calls(item.context_expr, held | frozenset(acquired))
                        acquired |= _lock_classes_for(
                            self.model, fn.module, item.context_expr
                        )
                    if acquired:
                        acq.append((held, acquired))
                    visit(stmt.body, held | frozenset(acquired))
                    continue
                # Record calls in this statement's own expressions, then
                # recurse into compound-statement bodies with the same
                # held set.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        continue
                    if isinstance(child, (ast.expr, ast.keyword, ast.withitem,
                                          ast.excepthandler)):
                        record_calls(child, held)
                for attr in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, attr, None)
                    if isinstance(block, list) and block and isinstance(
                        block[0], ast.stmt
                    ):
                        visit(block, held)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, held)

        visit(fn.node.body, frozenset())
        self.acquisitions[fn.key] = acq
        self.calls[fn.key] = calls

    def _propagate(self) -> None:
        """Least fixed point on entry-held sets over the loose call graph.

        An UNRESOLVED callee is a call through a variable (dict-dispatched
        handler, injected callback): it propagates the caller's held set
        to every *address-taken* function — anything whose reference is
        stored somewhere — which is the superset of what such a call can
        reach at runtime.
        """
        address_taken = self.project.address_taken()
        changed = True
        while changed:
            changed = False
            for key, sites in self.calls.items():
                entry = self.entry_held.get(key, set())
                for held, targets in sites:
                    outgoing = held | entry
                    if not outgoing:
                        continue
                    expanded = (
                        address_taken
                        if UNRESOLVED in targets
                        else [t for t in targets if t in self.acquisitions]
                    )
                    for target in expanded:
                        current = self.entry_held.setdefault(target, set())
                        if not outgoing <= current:
                            current |= outgoing
                            changed = True


def static_lock_edges(project: Project) -> set[tuple[str, str]]:
    """Every acquisition-order edge the program can statically exhibit."""
    return _LockGraphPass(project).run()


def validate_lock_dump(
    project: Project, dump_path: str
) -> tuple[list[Violation], list[str]]:
    """Cross-validate a runtime dump against the static graph.

    Returns ``(violations, warnings)``: a violation (LCK101) for every
    runtime-observed edge the static extraction missed — the hard failure
    — and an informational warning line for every statically-possible
    edge the run never exercised.
    """
    from repro.analysis.runtime import load_order_dump

    observed = load_order_dump(dump_path)
    lock_pass = _LockGraphPass(project)
    static = lock_pass.run()
    # Lock classes outside the analyzed tree (ad-hoc locks fabricated by
    # tests) are out of scope: any lock constructed in the tree is in
    # model.classes, because binding extraction keys off the make_lock
    # name constant.
    known = lock_pass.model.classes
    in_scope = {
        (src, dst) for src, dst in observed if src in known and dst in known
    }
    violations = [
        Violation(
            dump_path, 1, 0, "LCK101", LOCK_RULE,
            f"runtime observed acquisition edge `{src}` → `{dst}` that the"
            " static lock-order graph does not predict — extend the"
            " extraction or remove the undeclared nesting",
        )
        for src, dst in sorted(in_scope - static)
    ]
    warnings = [
        f"observed edge `{src}` → `{dst}` involves lock classes outside"
        " the analyzed tree; skipped"
        for src, dst in sorted(observed - in_scope)
    ] + [
        f"static lock edge `{src}` → `{dst}` never exercised at runtime"
        for src, dst in sorted(static - observed)
    ]
    return violations, warnings


# ---------------------------------------------------------------------------
# orchestration


def run_whole_program(paths: list[str]) -> list[Violation]:
    """WIRE + DET1xx violations for the project rooted at *paths*."""
    project = Project.from_paths(paths)
    violations: list[Violation] = []
    model = protocol_model.extract_model(project)
    if model is not None:
        violations.extend(protocol_model.conformance_violations(model, project))
    violations.extend(taint_violations(project))
    return sorted(violations)
