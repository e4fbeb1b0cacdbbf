"""Golden: ``run_lint``'s text, JSON and SARIF over one seeded tree.

The tree seeds every layering subrule (upward, sibling, forbidden
edge, restricted import, unknown layer, cycle) and one finding of each
other pass (determinism, purity, taint across two modules, hot path,
lock).  It also holds the import forms whose resolution decides an
edge's target: a relative import from a module and from a package
``__init__``, ``from repro import <subpackage>``, and an import under
``if TYPE_CHECKING:`` that must create no edge.

An uncached run, a cold ``--cache`` run and a warm one must each render
the committed bytes, with the tree's temporary root stripped from
paths.  After an intended change of output, regenerate the golden
with ``PYTHONPATH=src python tests/analysis/test_lint_golden.py``.
"""

from __future__ import annotations

import json
import tempfile
import textwrap
from pathlib import Path

from repro.analysis import run_lint

GOLDEN = (Path(__file__).resolve().parents[1] / "goldens"
          / "lint_seeded.json")

#: ``{path under repro/: source}``; every directory gets an
#: ``__init__.py`` unless one is listed here.
SEEDED_TREE = {
    # relative import from a package __init__: upward hw -> core
    "hw/__init__.py": """
        from ..core.runner import TrialSpec
    """,
    # relative imports from a module: same package, then upward
    "hw/mem.py": """
        PAGE = 4096
    """,
    "hw/cpu.py": """
        from .mem import PAGE
        from ..guestos.kernel import Kernel
    """,
    "guestos/kernel.py": """
        class Kernel:
            pass
    """,
    # a type-only import creates no runtime edge
    "sim/clock.py": """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.core.runner import TrialSpec


        def now(clock: "TrialSpec") -> int:
            return 0
    """,
    "core/runner.py": """
        from repro.workloads import w

        _BODY_FACTORIES = {}


        class TrialSpec:
            kind = "w"


        def body_factory(kind):
            def decorate(factory):
                _BODY_FACTORIES[kind] = factory
                return factory
            return decorate


        def build_body(spec):
            return _BODY_FACTORIES[spec.kind](spec)


        def execute_trial(spec):
            body = build_body(spec)
            return body(spec)
    """,
    # upward import closing the core <-> workloads cycle, the
    # ``from repro import <subpackage>`` form, a wall-clock read and a
    # module-state write on the trial path
    "workloads/w.py": """
        import time

        from repro import obs
        from repro.core.runner import body_factory

        CACHE = {}


        @body_factory("w")
        def make_body(spec):
            def body(kernel):
                CACHE[spec.kind] = kernel
                return time.time()
            return body


        def stamp():
            return time.time()  # confbench: allow[determinism]
    """,
    "obs/__init__.py": "",
    "attest/crypto.py": """
        def derived_keypair(parent, label, bits=1024):
            return object()
    """,
    # sibling layers
    "attest/verify.py": """
        import repro.runtimes.lua
    """,
    "runtimes/lua.py": "",
    # key material leaks through a helper in another module
    "core/leak.py": """
        from repro.attest.crypto import derived_keypair
        from repro.core.report import report


        def leaks(rng):
            pair = derived_keypair(rng, "leak")
            report(pair)
    """,
    "core/report.py": """
        import warnings


        def report(value):
            warnings.warn(f"value={value}")
    """,
    "core/plugins.py": """
        import repro.plugins.extra
    """,
    "experiments/fig.py": """
        from repro.hw import cpu
    """,
    "analysis/lint.py": """
        import repro.sim.clock
    """,
    "tee/loop.py": """
        def body(ctx, items):
            for item in items:
                ctx.cpu_execute(item)
    """,
    "core/pool.py": """
        import threading


        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                with self._lock:
                    self.count += 1

            def peek(self):
                return self.count
    """,
}


def write_tree(base: Path) -> Path:
    """Materialise :data:`SEEDED_TREE` as the package ``base/repro``."""
    root = base / "repro"
    for relative, source in SEEDED_TREE.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    for directory in [root, *root.rglob("*")]:
        if directory.is_dir() and not (directory / "__init__.py").exists():
            (directory / "__init__.py").touch()
    return root


def renderings(report, base: Path) -> dict:
    """The three renderings, paths relative to ``base``."""
    prefix = f"{base}/"
    return {
        "text": report.render_text().replace(prefix, "").split("\n"),
        "json": json.loads(report.render_json().replace(prefix, "")),
        "sarif": json.loads(report.render_sarif().replace(prefix, "")),
    }


def _matches_bytes(report, base: Path, golden: dict) -> None:
    """Byte-exact: the renderings re-serialize to the golden's values."""
    prefix = f"{base}/"
    assert report.render_text().replace(prefix, "") == \
        "\n".join(golden["text"])
    assert report.render_json().replace(prefix, "") == \
        json.dumps(golden["json"], indent=2)
    assert report.render_sarif().replace(prefix, "") == \
        json.dumps(golden["sarif"], indent=2)


def test_uncached_cold_and_warm_runs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    root = write_tree(tmp_path)
    cache = tmp_path / "lint-cache.json"
    for report in (run_lint([root]), run_lint([root], cache_path=cache),
                   run_lint([root], cache_path=cache)):
        _matches_bytes(report, tmp_path, golden)


def test_golden_seeds_every_pass_and_layering_subrule():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rules = {finding["rule"] for finding in golden["json"]["findings"]}
    assert {f"layering/{sub}" for sub in (
        "upward-import", "sibling-import", "forbidden-edge",
        "restricted-import", "unknown-layer", "cycle")} <= rules
    families = {rule.split("/")[0] for rule in rules}
    assert families == {"determinism", "layering", "purity", "taint",
                        "hot-path-per-op", "lock"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        payload = renderings(run_lint([write_tree(base)]), base)
    GOLDEN.write_text(json.dumps(payload, indent=2, ensure_ascii=False)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
