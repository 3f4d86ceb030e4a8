"""Whole-program conformance pass (``repro lint --whole-program``).

Two analyses share one :class:`~repro.analysis.callgraph.Project`:

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
"""

from __future__ import annotations

import ast

from repro.analysis import protocol_model
from repro.analysis.callgraph import FunctionInfo, ModuleInfo, Project
from repro.analysis.core import Violation
from repro.analysis.rules import BANNED_CLOCK_CALLS, dotted_name, terminal_name

TAINT_RULE = "cross-module-determinism"

DET_CODES = {
    "DET101": "ambient time/random flows into DecisionRecord construction",
    "DET102": "ambient time/random flows into a WAL write",
    "DET103": "ambient time/random flows into a wire payload",
}

WHOLE_PROGRAM_RULES: dict[str, dict[str, str]] = {
    protocol_model.RULE_NAME: protocol_model.WIRE_CODES,
    TAINT_RULE: DET_CODES,
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
