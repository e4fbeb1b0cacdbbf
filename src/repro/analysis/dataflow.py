"""Interprocedural data-flow framework for the analysis passes.

PR 2's passes were per-function AST pattern matching plus one ad-hoc
reachability walk buried in the purity pass.  This module hoists that
machinery into a shared framework the data-flow passes (taint,
purity, and future ones) build on:

- :class:`FunctionUnit` / :class:`SymbolIndex` — every function,
  method, and closure in the project indexed by qualified name, with
  class membership, closure-visible locals, and re-export aliases
  resolved through package ``__init__`` files;
- :func:`call_targets` — best-effort syntactic resolution of the
  calls inside one function (import aliases, ``self.`` methods,
  same-module classes);
- :class:`CallGraph` — the project call graph (callee and caller
  adjacency) built from the above.

One run builds the index once, on first use, as
:attr:`repro.analysis.core.Project.index`.

Everything is purely syntactic — nothing under analysis is imported —
so a broken tree can still be linted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.core import ImportTable, Project, SourceModule


def scope_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes.

    Starts from the *body* for function nodes: decorators, default
    values, and annotations evaluate at definition time, not when the
    function is called, so they don't belong to its scope.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        todo = list(node.body)
    else:
        todo = list(ast.iter_child_nodes(node))
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(child))


def local_names(fn: ast.AST) -> set[str]:
    """Names bound inside one function scope (params + assignments)."""
    names: set[str] = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in scope_nodes(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
    return names - declared_global


@dataclass
class FunctionUnit:
    """One analyzable function scope (module fn, method, or closure)."""

    qualname: str               # "repro.core.runner.execute_trial"
    module: SourceModule
    node: ast.AST               # FunctionDef / AsyncFunctionDef
    owner_class: str | None     # enclosing class qualname, if a method
    enclosing_locals: frozenset[str]   # closure-visible names
    nested: list[str] = field(default_factory=list)   # nested unit names
    _locals: frozenset | None = field(default=None, repr=False)

    @property
    def locals(self) -> frozenset[str]:
        if self._locals is None:
            self._locals = (frozenset(local_names(self.node))
                            | self.enclosing_locals)
        return self._locals

    @property
    def relname(self) -> str:
        """Qualname relative to the module ("TrialJournal.put")."""
        return self.qualname[len(self.module.name) + 1:]

    @property
    def param_names(self) -> tuple[str, ...]:
        """Positional parameter names, ``self``/``cls`` included."""
        args = self.node.args
        return tuple(a.arg for a in (*args.posonlyargs, *args.args))


@dataclass
class SymbolIndex:
    """Project-wide symbol tables the data-flow walks consult."""

    functions: dict[str, FunctionUnit] = field(default_factory=dict)
    classes: dict[str, list[str]] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    module_globals: dict[str, dict[str, str]] = field(default_factory=dict)
    import_tables: dict[str, ImportTable] = field(default_factory=dict)

    def canonical(self, qualified: str) -> str:
        """Follow ``__init__`` re-export aliases to the defining module."""
        seen = set()
        while qualified in self.aliases and qualified not in seen:
            seen.add(qualified)
            qualified = self.aliases[qualified]
        return qualified


def classify_module_globals(tree: ast.Module) -> dict[str, str]:
    """Module-level bindings → kind ("def", "class", "import", "const",
    "var").  Only "var" reads count as non-spec state."""
    kinds: dict[str, str] = {}

    def bind(name: str, kind: str) -> None:
        # A name both assigned and def'd keeps the strongest kind seen.
        if kinds.get(name) not in ("def", "class", "import"):
            kinds[name] = kind

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kinds[node.name] = "def"
        elif isinstance(node, ast.ClassDef):
            kinds[node.name] = "class"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    kinds[alias.asname or alias.name.split(".")[0]] = "import"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    upper = target.id.lstrip("_")
                    kind = "const" if upper.isupper() or not upper else "var"
                    bind(target.id, kind)
    return kinds


def decorator_names(fn: ast.AST, table: ImportTable) -> set[str]:
    """Resolved + bare names of every decorator on ``fn``."""
    names: set[str] = set()
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = table.resolve(target)
        if resolved:
            names.add(resolved)
        if isinstance(target, ast.Name):
            names.add(target.id)
    return names


def build_index(project: Project) -> SymbolIndex:
    """Symbol tables: functions, classes, re-export aliases, globals."""
    index = SymbolIndex()
    for module in project.modules:
        table = ImportTable().scan(
            module.tree, module.name,
            is_package_init=module.path.stem == "__init__")
        index.import_tables[module.name] = table
        index.module_globals[module.name] = classify_module_globals(
            module.tree)
        for local, qualified in table.names.items():
            index.aliases[f"{module.name}.{local}"] = qualified
        _index_scope(index, module, module.tree, prefix=module.name,
                     owner_class=None, enclosing=frozenset())
    return index


def _index_scope(index: SymbolIndex, module: SourceModule, node: ast.AST,
                 prefix: str, owner_class: str | None,
                 enclosing: frozenset[str]) -> list[str]:
    """Register every function/class under ``node``; returns the unit
    names registered directly at this level."""
    registered: list[str] = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}.{child.name}"
            unit = FunctionUnit(qualname=qualname, module=module,
                                node=child, owner_class=owner_class,
                                enclosing_locals=enclosing)
            index.functions[qualname] = unit
            unit.nested = _index_scope(
                index, module, child, prefix=qualname,
                owner_class=owner_class,
                enclosing=enclosing | frozenset(local_names(child)))
            registered.append(qualname)
        elif isinstance(child, ast.ClassDef):
            class_qual = f"{prefix}.{child.name}"
            methods = _index_scope(index, module, child, prefix=class_qual,
                                   owner_class=class_qual,
                                   enclosing=enclosing)
            index.classes[class_qual] = methods
            registered.append(class_qual)
        elif not isinstance(child, ast.Lambda):
            registered.extend(_index_scope(index, module, child, prefix,
                                           owner_class, enclosing))
    return registered


def call_targets(unit: FunctionUnit, index: SymbolIndex,
                 expand_classes: bool = True) -> list[str]:
    """Project qualnames the calls inside ``unit`` resolve to.

    Resolution is syntactic: import aliases (through ``__init__``
    re-exports), same-module names, ``self.method()`` against the
    owning class, and ``ClassName.method()`` through a same-module
    class.  Instantiating a project class yields either the class
    qualname or (``expand_classes``) all of its methods — coarse, with
    no inheritance resolution, matching how the purity pass has always
    treated constructor calls.
    """
    table = index.import_tables[unit.module.name]
    local = unit.locals
    targets: list[str] = []

    def add_target(qualified: str) -> None:
        qualified = index.canonical(qualified)
        if qualified in index.functions:
            targets.append(qualified)
        elif qualified in index.classes:
            if expand_classes:
                targets.extend(index.classes[qualified])
            else:
                targets.append(qualified)

    for node in scope_nodes(unit.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            # Import bindings land in the import table AND in the
            # local-name set (function-level imports are locals),
            # so resolve through the table before the local check.
            resolved = table.resolve(func)
            if resolved and resolved != func.id:
                add_target(resolved)
            elif func.id not in local:
                add_target(f"{unit.module.name}.{func.id}")
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id == "self"
                    and unit.owner_class is not None):
                add_target(f"{unit.owner_class}.{func.attr}")
                continue
            resolved = table.resolve(func)
            if resolved:
                add_target(resolved)
            # ClassName.method through a same-module class.
            if isinstance(base, ast.Name) and base.id not in local:
                add_target(f"{unit.module.name}.{base.id}.{func.attr}")
    return targets


@dataclass
class CallGraph:
    """Callee/caller adjacency over every :class:`FunctionUnit`."""

    index: SymbolIndex
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reverse: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        index = project.index
        edges: dict[str, tuple[str, ...]] = {}
        reverse: dict[str, list[str]] = {}
        for qualname in sorted(index.functions):
            unit = index.functions[qualname]
            callees = []
            seen: set[str] = set()
            for target in call_targets(unit, index, expand_classes=False):
                if target not in seen:
                    seen.add(target)
                    callees.append(target)
            edges[qualname] = tuple(callees)
            for target in callees:
                reverse.setdefault(target, []).append(qualname)
        return cls(index=index, edges=edges,
                   reverse={k: tuple(v) for k, v in reverse.items()})

    def callees(self, qualname: str) -> tuple[str, ...]:
        return self.edges.get(qualname, ())

    def callers(self, qualname: str) -> tuple[str, ...]:
        return self.reverse.get(qualname, ())

    def topological(self) -> list[str]:
        """Callee-before-caller ordering (cycles broken arbitrarily but
        deterministically); data-flow fixpoints converge fastest when
        summaries are computed in this order."""
        order: list[str] = []
        state: dict[str, int] = {}   # 1 = on stack, 2 = done
        for root in sorted(self.edges):
            if state.get(root):
                continue
            stack: list[tuple[str, Iterator[str]]] = [
                (root, iter(self._function_callees(root)))]
            state[root] = 1
            while stack:
                name, it = stack[-1]
                advanced = False
                for callee in it:
                    if not state.get(callee):
                        state[callee] = 1
                        stack.append(
                            (callee, iter(self._function_callees(callee))))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    state[name] = 2
                    order.append(name)
        return order

    def _function_callees(self, qualname: str) -> list[str]:
        out: list[str] = []
        for target in self.edges.get(qualname, ()):
            if target in self.index.functions:
                out.append(target)
            elif target in self.index.classes:
                out.extend(self.index.classes[target])
        return out
