"""Project-wide call graph for the whole-program conformance pass.

The per-file rules (:mod:`repro.analysis.rules`) deliberately stop at
module boundaries; the whole-program pass (:mod:`~repro.analysis.whole_program`)
needs to follow calls *across* them — nondeterminism reaching a
``DecisionRecord`` through a helper in another module, or a lock acquired
three frames below the frame that already holds one.  This module builds
the shared substrate: parse every file once, index the function
definitions, and resolve call expressions to candidate definitions.

Two resolution modes, because the two analyses fail in opposite
directions:

* :meth:`Project.resolve_strict` — only bindings the AST can actually
  prove (same-module functions, ``self.method`` within the enclosing
  class, ``from repro.x import f`` imports, ``module.f`` attribute calls
  on imported modules).  Unresolvable calls resolve to *nothing*.  The
  determinism taint pass uses this: an over-approximation would flag
  clean code, and a lint that cries wolf gets pragma'd into silence.
* :meth:`Project.resolve_loose` — every definition in the project whose
  terminal name matches, and the sentinel :data:`UNRESOLVED` when none
  does.  The static lock-order graph uses this: that graph must be a
  *superset* of every acquisition order the runtime detector can observe
  (missing edges fail CI; surplus edges are merely never-exercised
  warnings), so dynamic dispatch — handler tables, callbacks, duck-typed
  backends — must widen, never narrow.

Like the rest of reprolint this is pure ``ast`` — no imports of the code
under analysis, so it runs against fixture trees and half-broken
checkouts alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.core import iter_python_files, module_relative_path

#: Sentinel returned by loose resolution for calls whose target name
#: matches no definition anywhere in the project (dict-dispatched
#: handlers, injected callbacks).  The lock-graph pass treats it as
#: "could be anything" and propagates held-lock sets to every function.
UNRESOLVED = "<unresolved>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    key: str  # "exploration/engine.py::Engine.show"
    module: str  # module-relative path ("exploration/engine.py")
    qual: str  # "Engine.show" or "helper"
    name: str  # terminal name ("show")
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False, compare=False)


@dataclass
class ModuleInfo:
    """One parsed source file plus its import environment."""

    rel: str
    path: Path
    source: str = field(repr=False)
    tree: ast.Module = field(repr=False)
    #: local name -> (module rel path, symbol name | None for whole-module)
    imports: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    #: local names bound by imports from outside the project (stdlib,
    #: numpy, ...) — calls through them can never reach project code
    foreign: set[str] = field(default_factory=set)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # qual -> info
    classes: set[str] = field(default_factory=set)


def dotted_to_rel(dotted: str, *, package: str = "repro") -> str | None:
    """``repro.a.b`` -> ``a/b.py`` (``None`` for foreign packages)."""
    prefix = package + "."
    if dotted == package:
        return "__init__.py"
    if not dotted.startswith(prefix):
        return None
    return dotted[len(prefix):].replace(".", "/") + ".py"


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Project:
    """Every parsed module of one source tree, with a function index."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.defs: dict[str, FunctionInfo] = {}
        self._by_name: dict[str, list[str]] = {}
        self._class_modules: dict[str, list[str]] = {}
        self._address_taken: list[str] | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_paths(cls, paths: Sequence[str | Path]) -> "Project":
        project = cls()
        for path in iter_python_files([Path(p) for p in paths]):
            project.add_file(path)
        # Imports can only be resolved once every module is registered —
        # `from repro.store import jsonl` needs to know whether jsonl is
        # a sibling file or a symbol, which requires the full tree.
        for info in project.modules.values():
            project._index_imports(info)
        return project

    def add_file(self, path: Path) -> None:
        rel = module_relative_path(path)
        if rel in self.modules:
            return  # first definition wins (one tree per Project by design)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return  # per-file lint reports PARSE001; nothing to index here
        info = ModuleInfo(rel=rel, path=path, source=source, tree=tree)
        self.modules[rel] = info
        self._index_functions(info)
        for cls in info.classes:
            self._class_modules.setdefault(cls, []).append(rel)

    def _index_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = dotted_to_rel(alias.name)
                    if rel is not None:
                        info.imports[alias.asname or alias.name.split(".")[-1]] = (rel, None)
                    else:
                        info.foreign.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
                    info.foreign.update(a.asname or a.name for a in node.names)
                    continue
                if base.endswith("/__init__.py"):
                    pkg_dir = base[: -len("__init__.py")]
                elif base == "__init__.py":
                    pkg_dir = ""
                else:
                    pkg_dir = base[: -len(".py")] + "/"
                for alias in node.names:
                    local = alias.asname or alias.name
                    # `from repro.x import y`: y may be the module x/y.py
                    # or a symbol inside x; prefer whichever exists.
                    submodule = pkg_dir + alias.name + ".py"
                    info.imports[local] = (
                        (submodule, None) if submodule in self.modules
                        else (base, alias.name)
                    )

    def _import_base(self, info: ModuleInfo, node: ast.ImportFrom) -> str | None:
        """Module rel path an ImportFrom pulls names out of."""
        if node.level == 0:
            if node.module is None:
                return None
            rel = dotted_to_rel(node.module)
        else:
            # Relative import: climb from the importing file's directory.
            parts = info.rel.split("/")[:-1]
            for _ in range(node.level - 1):
                if parts:
                    parts.pop()
            if node.module:
                parts.extend(node.module.split("."))
                rel = "/".join(parts) + ".py"
            else:
                rel = "/".join(parts + ["__init__.py"]) if parts else "__init__.py"
        if rel is None:
            return None
        package_init = rel[:-len(".py")] + "/__init__.py"
        if rel not in self.modules and package_init != rel:
            # `from repro.store import x` names the package, not a file.
            return package_init
        return rel

    def _index_functions(self, info: ModuleInfo) -> None:
        def visit(node: ast.AST, class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    info.classes.add(child.name)
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{class_name}.{child.name}" if class_name else child.name
                    fn = FunctionInfo(
                        key=f"{info.rel}::{qual}",
                        module=info.rel,
                        qual=qual,
                        name=child.name,
                        class_name=class_name,
                        node=child,
                    )
                    info.functions.setdefault(qual, fn)
                    self.defs[fn.key] = fn
                    self._by_name.setdefault(child.name, []).append(fn.key)
                    visit(child, class_name)  # nested defs keep the class scope
                else:
                    visit(child, class_name)

        visit(info.tree, None)

    # -- resolution ----------------------------------------------------------

    def functions(self) -> Iterator[FunctionInfo]:
        yield from self.defs.values()

    def resolve_strict(
        self, module: ModuleInfo, class_name: str | None, func_expr: ast.AST
    ) -> list[FunctionInfo]:
        """Definitions *func_expr* provably binds to (empty when unsure)."""
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            local = module.functions.get(name)
            if local is not None:
                return [local]
            imported = module.imports.get(name)
            if imported is not None:
                target_rel, symbol = imported
                target = self.modules.get(target_rel)
                if target is not None and symbol is not None:
                    fn = target.functions.get(symbol)
                    return [fn] if fn is not None else []
            return []
        if isinstance(func_expr, ast.Attribute):
            method = func_expr.attr
            base = func_expr.value
            # self.method() inside a class body
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and class_name is not None
            ):
                fn = module.functions.get(f"{class_name}.{method}")
                return [fn] if fn is not None else []
            # imported_module.func() / repro.x.y.func()
            base_dotted = _dotted(base)
            if base_dotted is not None:
                target_rel = dotted_to_rel(base_dotted)
                if target_rel is None:
                    head = base_dotted.split(".")[0]
                    imported = module.imports.get(head)
                    if imported is not None and imported[1] is None:
                        target_rel = imported[0]
                if target_rel is not None:
                    target = self.modules.get(target_rel)
                    if target is not None:
                        fn = target.functions.get(method)
                        return [fn] if fn is not None else []
            return []
        return []

    def resolve_loose(self, func_expr: ast.AST) -> list[str]:
        """Keys of every same-named definition, or ``[UNRESOLVED]``.

        Deliberately wide: ``backend.handle_dict(...)`` must reach every
        ``handle_dict`` in the project, because at runtime it does.
        """
        name = _terminal(func_expr)
        if name is None:
            return [UNRESOLVED]
        keys = self._by_name.get(name)
        if keys:
            return list(keys)
        if name in self._class_modules:
            # A constructor call: resolve to __init__ where one is
            # defined; a plain dataclass/exception construction runs no
            # project code, so "resolved to nothing" (not UNRESOLVED).
            return [
                key
                for rel in self._class_modules[name]
                if (key := f"{rel}::{name}.__init__") in self.defs
            ]
        return [UNRESOLVED]

    def address_taken(self) -> list[str]:
        """Keys of functions whose *reference* is taken somewhere.

        A Name/Attribute matching a known function name in a non-call
        position — a handler-table value, a ``target=`` argument, an
        injected callback.  This is the candidate set for calls through
        variables (``handler(command)``): tighter than "every function",
        still a superset of anything actually reachable that way.
        """
        if self._address_taken is None:
            keys: set[str] = set()
            for info in self.modules.values():
                call_funcs = {
                    id(node.func)
                    for node in ast.walk(info.tree)
                    if isinstance(node, ast.Call)
                }
                for node in ast.walk(info.tree):
                    if not isinstance(node, (ast.Name, ast.Attribute)):
                        continue
                    if id(node) in call_funcs:
                        continue
                    name = _terminal(node)
                    if name is not None:
                        keys.update(self._by_name.get(name, ()))
            self._address_taken = sorted(keys)
        return self._address_taken

