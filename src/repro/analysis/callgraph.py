"""Project-wide call graph for the whole-program conformance pass.

The per-file rules (:mod:`repro.analysis.rules`) deliberately stop at
module boundaries; the whole-program pass (:mod:`~repro.analysis.whole_program`)
needs to follow calls *across* them — nondeterminism reaching a
``DecisionRecord`` through a helper in another module.  This module
builds the shared substrate: parse every file once, index the function
definitions, and resolve call expressions to the definitions they
provably bind to (:meth:`Project.resolve_strict`: same-module functions,
``self.method`` within the enclosing class, ``from repro.x import f``
imports, ``module.f`` attribute calls on imported modules).
Unresolvable calls resolve to *nothing*: an over-approximation would
flag clean code, and a lint that cries wolf gets pragma'd into silence.

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
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # qual -> info


def dotted_to_rel(dotted: str, *, package: str = "repro") -> str | None:
    """``repro.a.b`` -> ``a/b.py`` (``None`` for foreign packages)."""
    prefix = package + "."
    if dotted == package:
        return "__init__.py"
    if not dotted.startswith(prefix):
        return None
    return dotted[len(prefix):].replace(".", "/") + ".py"


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

    def _index_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = dotted_to_rel(alias.name)
                    if rel is not None:
                        info.imports[alias.asname or alias.name.split(".")[-1]] = (rel, None)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
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
