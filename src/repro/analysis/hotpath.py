"""Hot-path pass: flag per-op charge loops in the simulation core.

The batched op-stream kernel (:mod:`repro.sim.opstream`) exists so the
hot execution layers — ``repro.tee``, ``repro.guestos``,
``repro.runtimes`` — fold thousands of charges into one ledger merge.
A loop that charges the execution context one operation per iteration
quietly reverts that layer to the slow path: every iteration pays the
dispatch chain, an enum hash and a noise draw, and trials/second
regresses without any test failing.

This pass flags charge-primitive calls (``ctx.charge`` /
``cpu_execute`` / ``sys_*`` / ``session.compute`` and friends)
syntactically inside ``for``/``while`` bodies in those packages.  It
is a heuristic, not a proof — loops with data-dependent per-iteration
state (pipe ping-pong, the ``on_charge`` replay fallback, legacy
per-op engines kept for equivalence testing) are legitimate and carry
``# confbench: allow[hot-path-per-op]`` pragmas.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbol,
)

#: Packages whose loops this pass patrols — the layers between workload
#: emitters and the ledger, where per-op charging multiplies.
HOT_PACKAGES = ("repro.tee", "repro.guestos", "repro.runtimes")

#: Per-op charge primitives on the execution context.
CONTEXT_CHARGE_METHODS = frozenset({
    "charge", "cpu_execute", "mem_alloc",
    "disk_read", "disk_write", "vm_transition",
    "crypto", "charge_network", "startup",
})

#: Per-op operations on the runtime session (each funnels into one or
#: more context charges).
SESSION_CHARGE_METHODS = frozenset({
    "compute", "allocate", "log",
})


def _in_hot_package(name: str) -> bool:
    return any(name == pkg or name.startswith(pkg + ".")
               for pkg in HOT_PACKAGES)


class HotPathRule(Rule):
    """Flags per-item charge loops that bypass the batch kernel."""

    id = "hot-path-per-op"
    severity = Severity.WARNING

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if not _in_hot_package(module.name):
            return
        visitor = _HotPathVisitor(module)
        visitor.visit(module.tree)
        yield from visitor.findings


class _HotPathVisitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self._stack: list[ast.AST] = []
        self._loop_depth = 0

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # a nested def re-enters non-loop context: its body runs when
        # called, not per iteration of an enclosing loop
        self._stack.append(node)
        saved, self._loop_depth = self._loop_depth, 0
        self.generic_visit(node)
        self._loop_depth = saved
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop
    visit_While = _visit_loop

    def visit_Call(self, node: ast.Call) -> None:
        if self._loop_depth > 0 and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if (method in CONTEXT_CHARGE_METHODS
                    or method in SESSION_CHARGE_METHODS
                    or method.startswith("sys_")):
                self.findings.append(Finding(
                    rule="hot-path-per-op",
                    severity=Severity.WARNING,
                    path=str(self.module.path),
                    line=node.lineno,
                    col=node.col_offset,
                    message=(f".{method}() charges per iteration inside a "
                             "loop on the simulation hot path; emit an "
                             "OpBatch / use the batch() recorder so the "
                             "whole loop folds into one ledger merge"),
                    symbol=enclosing_symbol(self._stack),
                    module=self.module.name,
                ))
        self.generic_visit(node)
