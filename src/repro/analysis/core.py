"""Lint core: rules, findings, parsed modules.

The design mirrors what small single-purpose linters (pyflakes-style)
converge on: parse every file once into a :class:`SourceModule`, hand
the parsed modules to :class:`Rule` objects, and collect
:class:`Finding` records.  Two rule granularities exist because the
passes need them: per-module rules (determinism) see one file at a
time, project rules (layering, purity) see the whole module set so
they can build import and call graphs.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.analysis.pragmas import PragmaIndex
from repro.errors import ConfBenchError

if TYPE_CHECKING:
    from repro.analysis.dataflow import SymbolIndex


class AnalysisError(ConfBenchError):
    """Errors from the static-analysis framework itself."""


class Severity(str, Enum):
    """How bad a finding is; errors gate CI, warnings inform."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str                   # rule id, e.g. "determinism/wallclock"
    severity: Severity
    path: str                   # path as given to the analyzer
    line: int                   # 1-based source line
    col: int                    # 0-based column
    message: str
    symbol: str = ""            # enclosing function/class, if known
    module: str = ""            # dotted module name ("repro.hw.cpu")

    def fingerprint(self, occurrence: int = 0) -> str:
        """Stable identity for baselines: independent of line numbers
        and of how the source path was spelled on the command line.

        Keyed on (rule, module, symbol, message, occurrence) so that
        unrelated edits shifting lines don't churn the baseline, while
        N identical violations in one function stay distinguishable
        through the occurrence index.
        """
        where = self.module or self.path
        blob = f"{self.rule}\x00{where}\x00{self.symbol}\x00" \
               f"{self.message}\x00{occurrence}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def render(self) -> str:
        """The canonical one-line text form."""
        where = f" [{self.symbol}]" if self.symbol else ""
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.severity.value}: {self.rule}: {self.message}{where}")

    def to_dict(self) -> dict:
        """JSON-ready representation (schema asserted by tests)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
            "module": self.module,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        """Inverse of :meth:`to_dict` (cache deserialization)."""
        return cls(
            rule=payload["rule"],
            severity=Severity(payload["severity"]),
            path=payload["path"],
            line=payload["line"],
            col=payload["col"],
            message=payload["message"],
            symbol=payload.get("symbol", ""),
            module=payload.get("module", ""),
        )


@dataclass
class SourceModule:
    """One parsed Python file plus the metadata rules need."""

    path: Path                  # filesystem location
    name: str                   # dotted module name ("repro.hw.cpu")
    tree: ast.Module
    pragmas: PragmaIndex
    sha: str = ""               # content hash (cache key material)

    @classmethod
    def parse(cls, path: Path) -> "SourceModule":
        text = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        return cls(path=path, name=module_name_for(path), tree=tree,
                   pragmas=PragmaIndex.scan(text),
                   sha=hashlib.sha256(text.encode("utf-8")).hexdigest())


def module_name_for(path: Path) -> str:
    """Derive the dotted module name by walking up ``__init__.py`` dirs.

    Works for any on-disk package layout (including synthetic fixture
    trees in tests) without needing the package importable.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class Project:
    """The full set of modules under analysis."""

    modules: list[SourceModule]

    @cached_property
    def index(self) -> "SymbolIndex":
        """The symbol index, built on first use: the passes of one run
        that need it (purity, taint) share it, and a run that replays
        every project pass from the cache never builds it."""
        from repro.analysis.dataflow import build_index
        return build_index(self)


class Rule:
    """Base class for analysis passes.

    Subclasses set ``id`` (a stable slug; findings may refine it with
    ``id/subrule``) and ``severity``, then override one or both hooks.
    Pragma handling is the driver's job, not the rule's: rules report
    everything they see.
    """

    id: str = "rule"
    severity: Severity = Severity.ERROR

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Per-file pass; default: nothing."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Whole-tree pass; default: nothing."""
        return iter(())


def collect_sources(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    sources: set[Path] = set()
    for path in paths:
        if path.is_dir():
            sources.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            sources.add(path)
        else:
            raise AnalysisError(f"not a Python source or directory: {path}")
    return sorted(sources)


def load_project(paths: Iterable[Path]) -> Project:
    """Parse every source under ``paths`` into a :class:`Project`."""
    files = collect_sources(paths)
    if not files:
        raise AnalysisError("no Python sources found under the given paths")
    return Project(modules=[SourceModule.parse(f) for f in files])


def enclosing_symbol(stack: Sequence[ast.AST]) -> str:
    """Dotted name of the innermost enclosing def/class in a visit stack."""
    names = [node.name for node in stack
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
    return ".".join(names)


def import_from_base(node: ast.ImportFrom, module_name: str,
                     is_package_init: bool) -> str | None:
    """Absolute dotted module a ``from X import ...`` statement names.

    Relative imports resolve against the importer's dotted name; in a
    package ``__init__`` the first level strips nothing.  ``None`` for
    a relative import that climbs above the top-level package.
    """
    if not node.level:
        return node.module
    parts = module_name.split(".") if module_name else []
    strip = node.level - (1 if is_package_init else 0)
    if strip >= len(parts):
        return None
    prefix = parts[:len(parts) - strip]
    return ".".join(prefix + [node.module]) if node.module else \
        ".".join(prefix)


class ImportTable:
    """Best-effort alias resolution for qualified-name matching.

    Records ``import X [as Y]`` and ``from X import y [as z]`` bindings
    so rules can turn a ``Name``/``Attribute`` chain back into the
    dotted name it refers to.  Purely syntactic — nothing is imported.
    """

    def __init__(self) -> None:
        self.modules: dict[str, str] = {}    # local alias -> module path
        self.names: dict[str, str] = {}      # local name -> qualified name

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.modules[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                self.modules[root] = root

    def visit_import_from(self, node: ast.ImportFrom,
                          module_name: str = "",
                          is_package_init: bool = False) -> None:
        base = import_from_base(node, module_name, is_package_init)
        if not base:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            self.names[alias.asname or alias.name] = f"{base}.{alias.name}"

    def scan(self, tree: ast.Module, module_name: str = "",
             is_package_init: bool = False) -> "ImportTable":
        """Collect every import statement in a tree (any nesting)."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                self.visit_import(node)
            elif isinstance(node, ast.ImportFrom):
                self.visit_import_from(node, module_name, is_package_init)
        return self

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted qualified name for a Name/Attribute chain, if known."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.modules:
            return ".".join([self.modules[root], *parts])
        if root in self.names:
            return ".".join([self.names[root], *parts])
        if parts:
            return None
        return root
