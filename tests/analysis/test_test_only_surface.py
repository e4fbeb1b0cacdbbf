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
    "wake": "inverse of ProcessTable.sleep, which the scheduler tests use "
            "to take a process out of the runnable set",
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


def _non_test_callers() -> list[Path]:
    perfbench = [path for path in sorted((REPO / "perfbench").glob("*.py"))
                 if not path.name.startswith("test_")]
    return [*sorted((REPO / "scripts").rglob("*.py")),
            *sorted((REPO / "examples").rglob("*.py")),
            *perfbench,
            *sorted((REPO / "benchmarks").rglob("*.py"))]


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
