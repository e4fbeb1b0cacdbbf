"""Determinism pass: flag wall-clock and entropy escapes.

Everything in the reproduction is virtual-time: nanoseconds come from
the cost ledger and randomness comes from label-derived ``SimRng``
streams (see DESIGN.md "Determinism").  A single ``time.time()`` or
``random.random()`` in a workload body silently re-introduces
host-dependent behaviour — results stop being a pure function of the
:class:`~repro.core.runner.TrialSpec` and the serial/parallel
bit-identity guarantee breaks.

Sub-rules (all suppressible with ``# confbench: allow[determinism]``
or the specific id):

- ``determinism/wallclock`` — ``time.time``/``monotonic``/
  ``perf_counter`` (+ ``_ns`` forms), ``datetime.now``/``utcnow``/
  ``today``.
- ``determinism/entropy`` — ``os.urandom``, ``uuid.uuid1``/``uuid4``,
  any ``secrets.*`` call, and *module-level* ``random.*`` /
  ``numpy.random.*`` draws, which share hidden global state.  Seeded
  generator construction (``random.Random(seed)``,
  ``numpy.random.default_rng(seed)``) is allowed: instances with an
  explicit seed are exactly how ``repro.sim.rng`` builds streams.
- ``determinism/unordered-iter`` — iterating a set expression
  directly (``for x in {a, b}``, ``for x in set(...)``).  Set order
  depends on ``PYTHONHASHSEED`` for strings, so anything
  ordering-sensitive downstream diverges between processes; wrap in
  ``sorted()`` instead.
- ``determinism/id-sort-key`` — ``sorted(..., key=id)`` /
  ``.sort(key=id)``: CPython object addresses vary run to run.
- ``determinism/builtin-hash`` — calling builtin ``hash()``: string
  hashing is salted per process (``PYTHONHASHSEED``), so a hash that
  reaches a result diverges between the serial path and parallel
  workers.  Use ``hashlib`` for content digests.

Modules in the allowlist (the RNG substrate itself and CLI entry
points) are exempt wholesale.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ImportTable,
    Rule,
    Severity,
    SourceModule,
    enclosing_symbol,
)

#: Modules exempt from this pass: the seeded-RNG substrate is the one
#: legitimate consumer of ``random``, the fault-injection substrate
#: wraps it the same way, and CLI entry points may touch the host
#: environment.
ALLOWLIST = frozenset({
    "repro.sim.rng", "repro.sim.faults", "repro.cli",
})

#: Fully-qualified callables that read host clocks.
WALLCLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "time.localtime", "time.gmtime", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Fully-qualified callables that read host entropy.
ENTROPY_CALLS = frozenset({
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

#: ``random``-module functions backed by the hidden global Mersenne
#: Twister.  ``random.Random`` (seeded instance construction) is not
#: in this set on purpose.
GLOBAL_RANDOM_FUNCS = frozenset({
    "seed", "random", "uniform", "randint", "randrange", "choice",
    "choices", "shuffle", "sample", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    "getrandbits", "randbytes", "binomialvariate",
})

#: ``numpy.random`` legacy global-state functions; ``default_rng`` and
#: ``Generator`` are the seeded, allowed API.
NUMPY_GLOBAL_RANDOM_FUNCS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "bytes",
})


class DeterminismRule(Rule):
    """Flags wall-clock/entropy escapes and ordering hazards."""

    id = "determinism"
    severity = Severity.ERROR

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        if module.name in ALLOWLIST:
            return
        visitor = _DeterminismVisitor(module)
        visitor.visit(module.tree)
        yield from visitor.findings


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.imports = ImportTable()
        self.findings: list[Finding] = []
        self._stack: list[ast.AST] = []

    # -- bookkeeping --------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node)
        self.generic_visit(node)
        self._stack.pop()

    def _report(self, subrule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=f"determinism/{subrule}",
            severity=Severity.ERROR,
            path=str(self.module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=enclosing_symbol(self._stack),
            module=self.module.name,
        ))

    # -- calls --------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self.imports.resolve(node.func)
        if qualified is not None:
            self._check_call(node, qualified)
        self._check_sort_key(node, qualified)
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, qualified: str) -> None:
        if qualified in WALLCLOCK_CALLS:
            self._report("wallclock", node,
                         f"{qualified}() reads the host clock; all timing "
                         "must come from the virtual clock / cost ledger")
        elif qualified in ENTROPY_CALLS:
            self._report("entropy", node,
                         f"{qualified}() reads host entropy; derive bytes "
                         "from the trial's SimRng stream instead")
        elif qualified.startswith("secrets."):
            self._report("entropy", node,
                         f"{qualified}() uses the secrets module (host "
                         "entropy); derive from SimRng instead")
        elif (qualified.startswith("random.")
              and qualified.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS):
            self._report("entropy", node,
                         f"{qualified}() draws from the hidden global "
                         "random state; use a seeded SimRng (or "
                         "random.Random(seed)) stream")
        elif self._is_numpy_global_random(qualified):
            self._report("entropy", node,
                         f"{qualified}() uses numpy's global random state; "
                         "use numpy.random.default_rng(seed)")
        elif qualified == "hash" and not self._inside_dunder_hash():
            # hash() inside a __hash__ implementation is process-local
            # by design and never escapes into results.
            self._report("builtin-hash", node,
                         "builtin hash() is salted per process "
                         "(PYTHONHASHSEED); use hashlib for stable "
                         "content digests")

    def _inside_dunder_hash(self) -> bool:
        return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name == "__hash__" for node in self._stack)

    @staticmethod
    def _is_numpy_global_random(qualified: str) -> bool:
        for prefix in ("numpy.random.", "np.random."):
            if qualified.startswith(prefix):
                return qualified[len(prefix):] in NUMPY_GLOBAL_RANDOM_FUNCS
        return False

    def _check_sort_key(self, node: ast.Call, qualified: str | None) -> None:
        is_sort = (qualified == "sorted"
                   or (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "sort"))
        if not is_sort:
            return
        for keyword in node.keywords:
            if (keyword.arg == "key" and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"):
                self._report("id-sort-key", keyword.value,
                             "sorting by id() orders by object address, "
                             "which varies between runs; sort by a stable "
                             "content key")

    # -- iteration order ----------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _check_iterable(self, iterable: ast.expr) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._report("unordered-iter", iterable,
                         "iterating a set expression; order depends on "
                         "PYTHONHASHSEED — wrap in sorted()")
        elif (isinstance(iterable, ast.Call)
              and isinstance(iterable.func, ast.Name)
              and iterable.func.id in ("set", "frozenset")):
            self._report("unordered-iter", iterable,
                         f"iterating {iterable.func.id}(...) directly; "
                         "order depends on PYTHONHASHSEED — wrap in "
                         "sorted()")
