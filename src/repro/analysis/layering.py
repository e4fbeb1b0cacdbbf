"""Layering pass: enforce the DESIGN.md layer DAG on real imports.

DESIGN.md fixes the architecture as a strict stack::

    sim → hw → guestos → tee → attest/runtimes → workloads
        → obs → core → experiments → (cli / repro package root)

A module may import its own layer and anything *below* it; importing
upward couples a substrate to its orchestration (e.g. ``repro.hw``
reaching into ``repro.core``) and is rejected.  Extra edges beyond the
rank order:

- ``attest`` and ``runtimes`` share a rank but are independent
  siblings: neither may import the other.
- ``experiments`` must not reach into ``hw``/``guestos`` internals —
  harnesses talk to platforms through ``tee``/``core`` only.
- ``obs`` (telemetry) sits between ``workloads`` and ``core``:
  orchestration may import it, while substrates below it emit
  through the duck-typed sink protocol instead of importing it.
- ``analysis`` (this tooling) stays self-contained: it may import
  only ``errors``, so it can lint a tree it cannot import.
- ``errors`` and ``version`` are the shared leaves everyone may
  import.

The pass builds the module-level import graph (static ``import`` /
``from .. import`` statements, including function-local ones), checks
every ``repro``-internal edge, and also detects package-level import
cycles, reporting the full offending chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule, Severity, SourceModule

#: Rank of each top-level sub-package; imports may only point to equal
#: or lower rank (equal only within the same package).
LAYERS: dict[str, int] = {
    "errors": 0,
    "version": 0,
    "sim": 1,
    "hw": 2,
    "guestos": 3,
    "tee": 4,
    "attest": 5,
    "runtimes": 5,
    "workloads": 6,
    "supply": 6,
    "obs": 7,
    "core": 8,
    "experiments": 9,
    "analysis": 10,
    "cli": 11,
    "repro": 12,    # the package root (__init__) sits above everything
}

#: Edges forbidden even though the rank order would allow them.
FORBIDDEN_EDGES: frozenset[tuple[str, str]] = frozenset({
    # Harnesses must not bypass tee/core to poke substrate internals.
    ("experiments", "hw"),
    ("experiments", "guestos"),
})

#: Packages restricted to an explicit import set regardless of rank.
RESTRICTED_IMPORTS: dict[str, frozenset[str]] = {
    # The linter must be able to analyze a broken tree without
    # importing it, so it may depend only on the error hierarchy.
    "analysis": frozenset({"errors", "analysis"}),
}


@dataclass(frozen=True)
class ImportEdge:
    """One static import of a repro module from another."""

    source: str        # importing module ("repro.hw.cpu")
    target: str        # imported module ("repro.core.runner")
    line: int
    col: int


def _dotted_target(module: SourceModule, node: ast.ImportFrom) -> str | None:
    """Absolute dotted module for a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module
    # Resolve relative imports against the module's own dotted name.
    base = module.name.split(".")
    # For a package __init__, the first level strips nothing extra.
    strip = node.level if module.path.stem != "__init__" else node.level - 1
    if strip >= len(base):
        return None
    prefix = base[:len(base) - strip]
    return ".".join(prefix + [node.module]) if node.module else \
        ".".join(prefix)


def _is_type_checking_test(test: ast.expr) -> bool:
    """True for ``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING"
            and isinstance(test.value, ast.Name)
            and test.value.id in ("typing", "t"))


def _runtime_nodes(tree: ast.Module) -> list[ast.AST]:
    """All nodes except those under ``if TYPE_CHECKING:`` guards.

    Type-only imports create no runtime coupling, so the layer DAG
    tolerates them (the standard escape hatch for annotations that
    would otherwise need an upward import).
    """
    nodes: list[ast.AST] = []
    todo: list[ast.AST] = [tree]
    while todo:
        node = todo.pop()
        nodes.append(node)
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            todo.extend(node.orelse)
            continue
        todo.extend(ast.iter_child_nodes(node))
    return nodes


def module_imports(module: SourceModule,
                   known_modules: frozenset[str] = frozenset()
                   ) -> list[ImportEdge]:
    """Every runtime ``repro``-internal import edge in one module.

    ``known_modules`` disambiguates ``from X import y``: when ``X.y``
    is itself a module of the project (``from repro import
    experiments``), the edge targets the submodule, not the package
    ``__init__``.
    """
    edges: dict[ImportEdge, None] = {}   # ordered de-duplication
    for node in _runtime_nodes(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    edges.setdefault(ImportEdge(
                        module.name, alias.name,
                        node.lineno, node.col_offset))
        elif isinstance(node, ast.ImportFrom):
            target = _dotted_target(module, node)
            if not target or target.split(".")[0] != "repro":
                continue
            for alias in node.names:
                sub = f"{target}.{alias.name}"
                edges.setdefault(ImportEdge(
                    module.name,
                    sub if sub in known_modules else target,
                    node.lineno, node.col_offset))
    return list(edges)


def import_graph(project: Project) -> dict[str, list[ImportEdge]]:
    """Module name → outgoing repro-internal edges, whole project."""
    known = frozenset(m.name for m in project.modules)
    return {m.name: module_imports(m, known) for m in project.modules}


def package_of(dotted: str) -> str:
    """Layer key for a dotted repro module name."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return parts[0]
    if len(parts) == 1:
        return "repro"
    return parts[1]


class LayeringRule(Rule):
    """Checks every repro-internal import edge against the layer DAG."""

    id = "layering"
    severity = Severity.ERROR

    def check_project(self, project: Project) -> Iterator[Finding]:
        paths = {m.name: str(m.path) for m in project.modules}
        graph = import_graph(project)
        for source, edges in graph.items():
            for edge in edges:
                finding = self._check_edge(edge, paths)
                if finding is not None:
                    yield finding
        yield from self._check_cycles(graph, paths)

    # -- edge checks --------------------------------------------------

    def _check_edge(self, edge: ImportEdge,
                    paths: dict[str, str]) -> Finding | None:
        src_pkg = package_of(edge.source)
        dst_pkg = package_of(edge.target)
        if src_pkg == dst_pkg:
            return None
        path = paths.get(edge.source, edge.source)
        chain = f"{edge.source} → {edge.target}"
        restricted = RESTRICTED_IMPORTS.get(src_pkg)
        if restricted is not None and dst_pkg not in restricted:
            return self._finding(
                "restricted-import", path, edge,
                f"package '{src_pkg}' may only import "
                f"{{{', '.join(sorted(restricted - {src_pkg}))}}}, "
                f"not '{dst_pkg}' ({chain})")
        if (src_pkg, dst_pkg) in FORBIDDEN_EDGES:
            return self._finding(
                "forbidden-edge", path, edge,
                f"'{src_pkg}' must not reach into '{dst_pkg}' internals "
                f"({chain}); go through the public tee/core surface")
        src_rank = LAYERS.get(src_pkg)
        dst_rank = LAYERS.get(dst_pkg)
        if src_rank is None or dst_rank is None:
            unknown = src_pkg if src_rank is None else dst_pkg
            return self._finding(
                "unknown-layer", path, edge,
                f"package '{unknown}' is not ranked in the layer DAG; "
                f"add it to repro.analysis.layering.LAYERS ({chain})")
        if dst_rank > src_rank:
            return self._finding(
                "upward-import", path, edge,
                f"layer '{src_pkg}' (rank {src_rank}) imports higher "
                f"layer '{dst_pkg}' (rank {dst_rank}): {chain}")
        if dst_rank == src_rank:
            return self._finding(
                "sibling-import", path, edge,
                f"sibling layers '{src_pkg}' and '{dst_pkg}' are "
                f"independent; neither may import the other ({chain})")
        return None

    def _finding(self, subrule: str, path: str, edge: ImportEdge,
                 message: str) -> Finding:
        return Finding(rule=f"layering/{subrule}", severity=self.severity,
                       path=path, line=edge.line, col=edge.col,
                       message=message, symbol=edge.source,
                       module=edge.source)

    # -- cycles -------------------------------------------------------

    def _check_cycles(self, graph: dict[str, list[ImportEdge]],
                      paths: dict[str, str]) -> Iterator[Finding]:
        """Package-level cycle detection with full-chain reporting."""
        pkg_edges: dict[str, dict[str, ImportEdge]] = {}
        for edges in graph.values():
            for edge in edges:
                src, dst = package_of(edge.source), package_of(edge.target)
                if src != dst:
                    pkg_edges.setdefault(src, {}).setdefault(dst, edge)
        seen: set[str] = set()
        stack: list[str] = []
        on_stack: set[str] = set()
        reported: set[frozenset[str]] = set()

        def visit(pkg: str) -> Iterator[Finding]:
            seen.add(pkg)
            stack.append(pkg)
            on_stack.add(pkg)
            for dst, edge in sorted(pkg_edges.get(pkg, {}).items()):
                if dst in on_stack:
                    cycle = stack[stack.index(dst):] + [dst]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        chain = " → ".join(cycle)
                        yield Finding(
                            rule="layering/cycle", severity=self.severity,
                            path=paths.get(edge.source, edge.source),
                            line=edge.line, col=edge.col,
                            message=f"package import cycle: {chain}",
                            symbol=edge.source, module=edge.source)
                elif dst not in seen:
                    yield from visit(dst)
            stack.pop()
            on_stack.discard(pkg)

        for pkg in sorted(pkg_edges):
            if pkg not in seen:
                yield from visit(pkg)
