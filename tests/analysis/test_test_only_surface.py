"""Guard: every ``src/`` definition has a caller outside the tests.

The scan collects every function, method and class name defined under
``src/`` and the names that real code uses: identifiers in ``src/``
(package ``__init__`` re-exports do not count) and in the non-test
callers — ``scripts/``, ``examples/``, ``perfbench/*.py`` apart from
its ``test_*`` files, and the ``benchmarks/`` paper benches.  A name
that only ``tests/`` refers to is test-only surface and fails the
guard: delete it together with the tests that exercise it, or give it
a real caller.

A name that nothing refers to at all, tests included, is dead code and
fails the guard too.  Two kinds of definition are reached without
their name being written, so the dead-code check exempts them by rule:
a def under a decorator other than ``property``, ``staticmethod`` or
``classmethod`` (the decorator may register it, as ``@body_factory``
does the trial bodies), and a method the standard library or a
dispatcher looks up by name (:data:`DISPATCHED_PREFIXES`).

The scan matches bare names, so a method shares its fate with every
same-named attribute in the tree.  Names with a non-test caller need
no entry here (``examples/`` calls ``Host.route_colocated``, for
one); the allowlist below holds the test-only names that stay, each
with its reason.  An entry fails the guard once it gains a real caller
or is deleted, so the list cannot go stale.

A second guard holds constructors to the same rule: every defaulted
``__init__`` parameter of a ``src/`` class must be passed by some call
in ``src/``, the non-test callers or ``tests/``.  A call through a
``**kwargs`` helper counts as passing everything, and a parameter that
is passed but never read looks used, so this guard sees only the
settings no call site names.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Test-only names kept on purpose, by reason.
ALLOWED_TEST_ONLY = {
    # Documented API: README or DESIGN documents the name as API.
    "rotate_collateral": "VerifierService rotation, documented in README",
    "register_workload": "the documented way to add a FaaS function",
    "cluster_run": "ConfBenchClient call for POST /v1/cluster/run (README)",
    "cluster_report": "ConfBenchClient call for GET /v1/cluster/report "
                      "(README)",
    # Test observers: a kept test of other behaviour uses the name to
    # observe a result or to clean up global state.
    "total_files": "InMemoryFileSystem observer in the supply pull tests",
    "listdir": "InMemoryFileSystem observer in the filesystem tests",
    "scalar": "DBMS result observer in the SQL tests",
    "dominant": "CostLedger observer in the attestation flow tests",
    "unregister_workload": "undoes register_workload's global registration",
    "route": "Host observer: the respawn test checks the new VM serves",
    # Trust-boundary model (ROADMAP): attacker actions it will drive.
    "revoke": "CertificateAuthority revocation, a trust-boundary action",
    "tamper": "Registry tampering, a trust-boundary action",
}

#: Method-name prefixes called by name lookup, never written out:
#: ``ast.NodeVisitor`` (``visit_``), ``BaseHTTPRequestHandler``
#: (``do_`` and ``log_message``) and the REST route table
#: (``_handle_``).
DISPATCHED_PREFIXES = ("visit_", "do_", "_handle_", "log_message")

#: Decorators that only wrap a method; any other one may register it.
_DESCRIPTORS = {"property", "staticmethod", "classmethod"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST, with_imports: bool,
           defs: list[ast.AST] | None = None) -> set[str]:
    """Identifiers a tree refers to (optionally counting imports);
    collects the tree's definitions into ``defs`` when given."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif with_imports and isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif defs is not None and isinstance(node, _DEFS):
            defs.append(node)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _non_test_callers(root: Path = REPO) -> list[Path]:
    perfbench = [path for path in sorted((root / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    return [*sorted((root / "scripts").rglob("*.py")),
            *sorted((root / "examples").rglob("*.py")),
            *perfbench,
            *sorted((root / "benchmarks").rglob("*.py"))]


def _registered(node: ast.AST) -> bool:
    """Whether a decorator other than a plain descriptor wraps ``node``
    (``@body_factory("faas")`` registers the def it decorates)."""
    return any(not (isinstance(decorator, ast.Name)
                    and decorator.id in _DESCRIPTORS)
               for decorator in node.decorator_list)


def scan() -> tuple[dict[str, str], set[str], set[str], set[str]]:
    """``(defined name -> first location, real uses, test uses,
    names reached without being written)``."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    reached: set[str] = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        defs: list[ast.AST] = []
        # imports are not uses: an ``__init__`` re-export calls nothing
        used |= _names(_parse(path), with_imports=False, defs=defs)
        for node in defs:
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.setdefault(
                    node.name, f"{path.relative_to(REPO)}:{node.lineno}")
                if (node.name.startswith(DISPATCHED_PREFIXES)
                        or _registered(node)):
                    reached.add(node.name)
    for path in _non_test_callers():
        used |= _names(_parse(path), with_imports=True)
    tested: set[str] = set()
    for path in sorted((REPO / "tests").rglob("*.py")):
        tested |= _names(_parse(path), with_imports=True)
    return defined, used, tested, reached


def test_src_has_no_test_only_surface():
    defined, used, tested, _ = scan()
    test_only = {name: where for name, where in defined.items()
                 if name not in used and name in tested}
    unexplained = sorted(f"{name} ({where})"
                         for name, where in test_only.items()
                         if name not in ALLOWED_TEST_ONLY)
    assert not unexplained, (
        "only tests use these src/ names; delete them with their tests, "
        "or allowlist one with its reason:\n  " + "\n  ".join(unexplained))
    stale = sorted(name for name in ALLOWED_TEST_ONLY if name not in test_only)
    assert not stale, (
        "allowlisted names that gained a real caller or are gone; drop "
        "them from ALLOWED_TEST_ONLY: " + ", ".join(stale))


def test_src_has_no_dead_definition():
    defined, used, tested, reached = scan()
    dead = sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in used and name not in tested
                  and name not in reached)
    assert not dead, (
        "nothing refers to these src/ names; delete them:\n  "
        + "\n  ".join(dead))


#: Defaulted ``__init__`` parameters that no call in the tree passes,
#: kept on purpose: deployment settings an operator passes by hand.
ALLOWED_UNPASSED = {
    ("ConfBenchClient", "host"): "the gateway address a remote client "
                                 "connects to",
    ("ConfBenchClient", "timeout"): "the HTTP timeout of a remote client",
    ("RestServer", "host"): "the interface the REST server binds",
    ("TcpRelay", "host"): "the interface the TCP relay binds",
}


def _name_of(node: ast.AST) -> str | None:
    """``X`` for ``X`` and ``mod.X``; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_init(cls: ast.ClassDef) -> ast.FunctionDef | None:
    return next((item for item in cls.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name == "__init__"), None)


def _inits(classes: dict[str, list[ast.ClassDef]],
           name: str | None) -> list[ast.FunctionDef]:
    """The ``__init__`` defs a call to class ``name`` runs: its own, or
    the nearest one its ``src/`` bases define."""
    inits = []
    for cls in classes.get(name, ()):
        own = _own_init(cls)
        if own is not None:
            inits.append(own)
        else:
            for base in cls.bases:
                inits += _inits(classes, _name_of(base))
    return inits


def _params(init: ast.FunctionDef) -> list[str]:
    """Every parameter but ``self``, positional ones first in order."""
    args = init.args
    return [arg.arg for arg in (*args.posonlyargs, *args.args,
                                *args.kwonlyargs)][1:]


def _defaulted(init: ast.FunctionDef) -> list[str]:
    args = init.args
    positional = [arg.arg for arg in (*args.posonlyargs, *args.args)]
    return (positional[len(positional) - len(args.defaults):]
            + [arg.arg for arg, default in zip(args.kwonlyargs,
                                               args.kw_defaults)
               if default is not None])


def unpassed_parameters(root: Path = REPO) -> dict[tuple[str, str], str]:
    """``(class, parameter) -> location`` for every defaulted
    ``__init__`` parameter of a class under ``root/src`` that no call
    passes.

    A call passes a parameter by keyword or by position.  A call with
    ``*`` or ``**``, a ``super().__init__(...)`` in a subclass, and a
    call to a subclass without an ``__init__`` of its own count as
    passing every parameter of the ``__init__`` they run.
    """
    src = sorted((root / "src").rglob("*.py"))
    callers = [*src, *_non_test_callers(root),
               *sorted((root / "tests").rglob("*.py"))]
    classes: dict[str, list[ast.ClassDef]] = {}
    where: dict[ast.ClassDef, str] = {}
    for path in src:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(node)
                where[node] = f"{path.relative_to(root)}:{node.lineno}"
    passed: dict[ast.FunctionDef, set[str]] = {}

    def pass_all(inits: list[ast.FunctionDef]) -> None:
        for init in inits:
            passed.setdefault(init, set()).update(_params(init))

    for cls in where:
        if any(isinstance(call, ast.Call)
               and isinstance(call.func, ast.Attribute)
               and call.func.attr == "__init__"
               and isinstance(call.func.value, ast.Call)
               and _name_of(call.func.value.func) == "super"
               for call in ast.walk(cls)):
            for base in cls.bases:
                pass_all(_inits(classes, _name_of(base)))
    for path in callers:
        for call in ast.walk(_parse(path)):
            if not isinstance(call, ast.Call):
                continue
            name = _name_of(call.func)
            if name not in classes:
                continue
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg is None for kw in call.keywords)
                    or any(_own_init(cls) is None
                           for cls in classes[name])):
                pass_all(_inits(classes, name))
                continue
            for init in _inits(classes, name):
                passed.setdefault(init, set()).update(
                    _params(init)[:len(call.args)],
                    (kw.arg for kw in call.keywords))
    return {(cls.name, param): location
            for cls, location in where.items()
            if (init := _own_init(cls)) is not None
            for param in _defaulted(init)
            if param not in passed.get(init, ())}


def test_every_defaulted_init_parameter_is_passed():
    unpassed = unpassed_parameters()
    unexplained = sorted(f"{cls}({param}) ({where})"
                         for (cls, param), where in unpassed.items()
                         if (cls, param) not in ALLOWED_UNPASSED)
    assert not unexplained, (
        "no call passes these defaulted __init__ parameters; make each "
        "the constant it always is, or allowlist one with its reason:\n  "
        + "\n  ".join(unexplained))
    stale = sorted(f"{cls}({param})" for cls, param in ALLOWED_UNPASSED
                   if (cls, param) not in unpassed)
    assert not stale, (
        "allowlisted parameters that gained a caller or are gone; drop "
        "them from ALLOWED_UNPASSED: " + ", ".join(stale))


#: A ``src/`` tree for the guard's counting rules: ``Base(a=1, b=2)``,
#: ``Child(Base)`` with an ``__init__`` that calls ``super().__init__``,
#: ``Plain(Base)`` without one, and ``Lone(x=0, *, y=0)``.
_SRC = """
class Base:
    def __init__(self, a=1, b=2):
        self.a, self.b = a, b


class Child(Base):
    def __init__(self, c=3):
        super().__init__(a=c)
        self.c = c


class Plain(Base):
    pass


class Lone:
    def __init__(self, x=0, *, y=0):
        self.x, self.y = x, y
"""


def _unpassed_in(tmp_path: Path, calls: str) -> set[tuple[str, str]]:
    """The guard's findings on :data:`_SRC` with ``calls`` as a test."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(_SRC, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(calls, encoding="utf-8")
    return set(unpassed_parameters(tmp_path))


def test_guard_reports_every_parameter_no_call_names(tmp_path):
    # Child's super().__init__ passes all of Base; Child(c) and Lone
    # stay unpassed
    assert _unpassed_in(tmp_path, "") == {
        ("Child", "c"), ("Lone", "x"), ("Lone", "y")}


def test_guard_counts_keyword_and_positional_passes(tmp_path):
    assert _unpassed_in(tmp_path, "Lone(1)\nChild(c=4)\n") == {
        ("Lone", "y")}
    (tmp_path / "tests" / "test_mod.py").write_text(
        "mod.Lone(y=1)\nmod.Child(4)\n", encoding="utf-8")
    assert set(unpassed_parameters(tmp_path)) == {("Lone", "x")}


def test_guard_counts_a_starred_call_as_passing_everything(tmp_path):
    assert _unpassed_in(tmp_path, "Lone(*args)\nChild(**kw)\n") == set()


def test_guard_counts_super_init_as_passing_the_base(tmp_path):
    found = _unpassed_in(tmp_path, "Child(1)\nLone(1, y=1)\n")
    assert not {("Base", "a"), ("Base", "b")} & found
    (tmp_path / "src" / "mod.py").write_text(
        _SRC.replace("super().__init__(a=c)", "pass"), encoding="utf-8")
    assert set(unpassed_parameters(tmp_path)) == {
        ("Base", "a"), ("Base", "b")}


def test_guard_counts_a_call_to_a_subclass_without_init(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        _SRC.replace("super().__init__(a=c)", "pass"), encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "Child(1)\nLone(1, y=1)\nPlain()\n", encoding="utf-8")
    assert set(unpassed_parameters(tmp_path)) == set()
