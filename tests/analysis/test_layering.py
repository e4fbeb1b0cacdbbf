"""Layering pass on synthetic module graphs (and its edge resolution)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LayeringRule, run_lint
from repro.analysis.core import load_project
from repro.analysis.layering import import_graph, package_of


def lint(tree: Path):
    return run_lint([tree], rules=[LayeringRule()])


class TestUpwardImports:
    def test_hw_importing_core_rejected(self, make_tree):
        tree = make_tree({
            "hw/cpu.py": "from repro.core.runner import TrialSpec\n",
            "core/runner.py": "class TrialSpec:\n    pass\n",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == ["layering/upward-import"]
        finding = report.findings[0]
        assert "repro.hw.cpu → repro.core.runner" in finding.message
        assert finding.module == "repro.hw.cpu"
        assert finding.path.endswith("hw/cpu.py")

    def test_plain_import_statement_also_caught(self, make_tree):
        tree = make_tree({
            "sim/clock.py": "import repro.tee.vm\n",
            "tee/vm.py": "",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == ["layering/upward-import"]

    def test_downward_import_allowed(self, make_tree):
        tree = make_tree({
            "core/runner.py": "from repro.sim.rng import SimRng\n",
            "sim/rng.py": "class SimRng:\n    pass\n",
        })
        assert lint(tree).findings == []

    def test_type_checking_guard_exempt(self, make_tree):
        tree = make_tree({
            "sim/trace.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.guestos.context import ExecContext
            """,
            "guestos/context.py": "class ExecContext:\n    pass\n",
        })
        assert lint(tree).findings == []


class TestSiblingAndForbiddenEdges:
    def test_attest_runtimes_are_independent_siblings(self, make_tree):
        tree = make_tree({
            "attest/quote.py": "from repro.runtimes.base import Runtime\n",
            "runtimes/base.py": "class Runtime:\n    pass\n",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == ["layering/sibling-import"]

    def test_experiments_may_not_reach_hw(self, make_tree):
        tree = make_tree({
            "experiments/fig9.py": "from repro.hw.cpu import CpuModel\n",
            "hw/cpu.py": "class CpuModel:\n    pass\n",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == ["layering/forbidden-edge"]
        assert "internals" in report.findings[0].message

    def test_analysis_is_restricted_to_errors(self, make_tree):
        tree = make_tree({
            "analysis/extra.py": "from repro.sim.rng import SimRng\n",
            "sim/rng.py": "class SimRng:\n    pass\n",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == [
            "layering/restricted-import"]

    def test_unknown_package_reported(self, make_tree):
        tree = make_tree({
            "newpkg/mod.py": "from repro.errors import ConfBenchError\n",
            "errors.py": "class ConfBenchError(Exception):\n    pass\n",
        })
        report = lint(tree)
        assert [f.rule for f in report.findings] == ["layering/unknown-layer"]


class TestCycles:
    def test_package_cycle_reported_with_chain(self, make_tree):
        # workloads → core is upward (and flagged); core → workloads is
        # legal — together they close a package-level cycle.
        tree = make_tree({
            "workloads/base.py": "from repro.core.runner import run\n",
            "core/runner.py": "from repro.workloads.base import Workload\n",
        })
        report = lint(tree)
        rules = [f.rule for f in report.findings]
        assert "layering/cycle" in rules
        cycle = next(f for f in report.findings
                     if f.rule == "layering/cycle")
        assert "core" in cycle.message and "workloads" in cycle.message
        assert "→" in cycle.message


class TestEdgeResolution:
    def test_from_package_import_submodule_targets_submodule(self, make_tree):
        tree = make_tree({
            "cli.py": "from repro import experiments\n",
            "experiments/__init__.py": "",
        })
        project = load_project([tree])
        graph = import_graph(project)
        targets = [e.target for e in graph["repro.cli"]]
        assert targets == ["repro.experiments"]
        assert lint(tree).findings == []

    def test_relative_imports_resolve(self, make_tree):
        """From a module, from a package ``__init__`` (whose first
        level strips nothing), and never above the top package."""
        tree = make_tree({
            "core/__init__.py": "from .b import thing\nfrom ..hw import cpu\n",
            "core/a.py": "from .b import thing\nfrom .... import x\n",
            "core/b.py": "thing = 1\n",
            "hw/cpu.py": "",
        })
        project = load_project([tree])
        graph = import_graph(project)
        assert [e.target for e in graph["repro.core.a"]] == ["repro.core.b"]
        assert sorted(e.target for e in graph["repro.core"]) == [
            "repro.core.b", "repro.hw.cpu"]

    def test_duplicate_edges_collapse(self, make_tree):
        tree = make_tree({
            "hw/cpu.py": "from repro.core.runner import a, b, c\n",
            "core/runner.py": "a = b = c = 1\n",
        })
        report = lint(tree)
        assert len(report.findings) == 1

    def test_package_of(self):
        assert package_of("repro.hw.cpu") == "hw"
        assert package_of("repro.errors") == "errors"
        assert package_of("repro") == "repro"


class TestRealTree:
    def test_committed_tree_has_no_layering_violations(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = run_lint([src], rules=[LayeringRule()])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings)
