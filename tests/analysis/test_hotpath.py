"""The hot-path pass: per-op charge loops in the simulation core."""

from __future__ import annotations

import json

from repro.analysis import PASS_SCHEMA, HotPathRule, Severity, run_lint

PER_OP_LOOP = """
    def body(ctx, items):
        for item in items:
            ctx.cpu_execute(item)
"""

PER_OP_WHILE = """
    def body(kernel, blocks):
        remaining = blocks
        while remaining:
            kernel.sys_write("/f", b"x")
            remaining -= 1
"""

BATCHED = """
    def body(ctx, items):
        batch = ctx.batch()
        for item in items:
            batch.add(item)
        return ctx.run_batch(batch)
"""

PRAGMA = """
    def body(ctx, items):
        for item in items:
            ctx.cpu_execute(item)  # confbench: allow[hot-path-per-op]
"""

NESTED_DEF = """
    def outer(ctx, items):
        for item in items:
            def thunk():
                return ctx.cpu_execute(item)
"""


def lint(tree):
    return run_lint([tree], rules=[HotPathRule()]).findings


class TestHotPathRule:
    def test_flags_charge_call_in_for_loop(self, make_tree):
        findings = lint(make_tree({"guestos/hot.py": PER_OP_LOOP}))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "hot-path-per-op"
        assert finding.severity is Severity.WARNING
        assert "cpu_execute" in finding.message

    def test_flags_sys_call_in_while_loop(self, make_tree):
        findings = lint(make_tree({"tee/hot.py": PER_OP_WHILE}))
        assert len(findings) == 1
        assert ".sys_write()" in findings[0].message

    def test_batch_recorder_is_clean(self, make_tree):
        assert lint(make_tree({"runtimes/hot.py": BATCHED})) == []

    def test_only_hot_packages_are_patrolled(self, make_tree):
        # workload emitters may keep per-op engines (equivalence tests
        # exercise them); only tee/guestos/runtimes are patrolled
        assert lint(make_tree({"workloads/hot.py": PER_OP_LOOP})) == []
        assert lint(make_tree({"sim/hot.py": PER_OP_LOOP})) == []

    def test_pragma_suppresses(self, make_tree):
        assert lint(make_tree({"guestos/hot.py": PRAGMA})) == []

    def test_nested_def_resets_loop_context(self, make_tree):
        # the inner function's body runs when called, not per iteration
        assert lint(make_tree({"guestos/hot.py": NESTED_DEF})) == []

    def test_real_tree_is_clean_of_new_findings(self):
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        findings = lint(src)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestPassName:
    """The pass registers as ``hotpath`` but reports as
    ``hot-path-per-op``; its schema and blurb go by the first."""

    def test_schema_bump_invalidates_cache_entries(self, make_tree,
                                                   tmp_path, monkeypatch):
        tree = make_tree({"tee/loop.py": PER_OP_LOOP})
        cache = tmp_path / "lint-cache.json"
        cold = run_lint([tree], rules=[HotPathRule()], cache_path=cache)
        monkeypatch.setitem(PASS_SCHEMA, "hotpath",
                            PASS_SCHEMA["hotpath"] + 1)
        bumped = run_lint([tree], rules=[HotPathRule()], cache_path=cache)
        assert bumped.cache_misses == cold.cache_misses > 0

    def test_sarif_describes_the_pass(self, make_tree):
        tree = make_tree({"tee/loop.py": PER_OP_LOOP})
        sarif = json.loads(run_lint([tree]).render_sarif())
        [rule] = sarif["runs"][0]["tool"]["driver"]["rules"]
        assert rule["id"] == "hot-path-per-op"
        assert rule["shortDescription"]["text"] == \
            "per-op charge loop where a batch should be"
