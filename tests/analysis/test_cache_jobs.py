"""The cache is a cost knob, never an output knob.

Uncached, cold-cache, and warm-cache runs must render byte-identically;
any edit must re-run the cross-module passes (one whole-tree entry
each) while leaving per-file entries for untouched modules warm.
"""

from __future__ import annotations

import json

from repro.analysis import run_lint
from repro.analysis.cache import AnalysisCache
from repro.analysis.dataflow import SymbolIndex

CRYPTO_STUB = """
    def derived_keypair(parent, label, bits=1024):
        return object()
"""

HELPERS = """
    import warnings


    def emit(value):
        warnings.warn(f"value={value}")
"""

HELPERS_SANITIZED = """
    import hashlib


    def emit(value):
        import warnings
        warnings.warn(hashlib.sha256(repr(value).encode()).hexdigest())
"""

CALLER = """
    from repro.attest.crypto import derived_keypair
    from repro.helpers import emit


    def leaks(rng):
        pair = derived_keypair(rng, "leak")
        emit(pair)
"""

WALLCLOCK = """
    import time


    def body(kernel):
        return time.time()
"""

TREE = {
    "attest/crypto.py": CRYPTO_STUB,
    "helpers.py": HELPERS,
    "caller.py": CALLER,
    "workloads/w.py": WALLCLOCK,
}


def _renderings(report):
    return (report.render_text(), report.render_json(),
            report.render_sarif())


def test_cold_then_warm_cache_identical_with_hits(make_tree, tmp_path):
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    cold = run_lint([tree], cache_path=cache)
    assert cache.is_file()
    assert cold.cache_misses > 0
    warm = run_lint([tree], cache_path=cache)
    assert warm.cache_hits > 0 and warm.cache_misses == 0
    assert _renderings(cold) == _renderings(warm)


def test_cache_matches_uncached_run(make_tree, tmp_path):
    tree = make_tree(TREE)
    plain = run_lint([tree])
    cached = run_lint([tree], cache_path=tmp_path / "c.json")
    assert _renderings(plain) == _renderings(cached)


def test_editing_dependency_invalidates_dependents(make_tree, tmp_path):
    """Sanitizing helpers.emit must clear caller.py's cached taint
    finding even though caller.py's own bytes never changed."""
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    before = run_lint([tree], cache_path=cache)
    assert any(f.rule.startswith("taint/") and f.symbol == "leaks"
               for f in before.findings)

    make_tree({**TREE, "helpers.py": HELPERS_SANITIZED})
    after = run_lint([tree], cache_path=cache)
    assert not any(f.rule.startswith("taint/") for f in after.findings)
    # module-scope findings for untouched files still served warm
    assert after.cache_hits > 0
    assert any(f.rule == "determinism/wallclock" for f in after.findings)


def test_leaf_edit_reruns_each_cross_module_pass_once(make_tree, tmp_path):
    """Touching one leaf module re-analyzes it per file, and re-runs
    each cross-module pass once over the tree."""
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    cold = run_lint([tree], cache_path=cache)
    make_tree({**TREE, "workloads/w.py": WALLCLOCK + "\n    X = 1\n"})
    after = run_lint([tree], cache_path=cache)
    # 3 module-scope passes miss on w.py, 3 project passes on the tree
    assert after.cache_misses == 3 + 3
    lookups = cold.cache_hits + cold.cache_misses
    assert after.cache_hits == lookups - after.cache_misses
    assert _renderings(after) == _renderings(run_lint([tree]))


def test_one_symbol_index_per_run_and_none_when_warm(make_tree, tmp_path,
                                                     monkeypatch):
    """Purity and taint share one index; a warm run replays both
    passes without building it."""
    built = []
    original = SymbolIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SymbolIndex, "__init__", counting_init)
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    counts = []
    for cache_path in (None, cache, cache):     # uncached, cold, warm
        built.clear()
        run_lint([tree], cache_path=cache_path)
        counts.append(len(built))
    assert counts == [1, 1, 0]


def test_corrupt_cache_is_ignored_not_fatal(make_tree, tmp_path):
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    cache.write_text("{definitely not json")
    report = run_lint([tree], cache_path=cache)
    assert report.findings
    # and the save repaired the file
    payload = json.loads(cache.read_text())
    assert payload["version"] == 1


def test_cache_prunes_stale_keys(make_tree, tmp_path):
    tree = make_tree(TREE)
    cache_path = tmp_path / "lint-cache.json"
    run_lint([tree], cache_path=cache_path)
    first_keys = set(json.loads(cache_path.read_text())["entries"])
    make_tree({**TREE, "workloads/w.py": WALLCLOCK + "\n    Y = 2\n"})
    run_lint([tree], cache_path=cache_path)
    second_keys = set(json.loads(cache_path.read_text())["entries"])
    assert second_keys != first_keys
    # no dead entries for the old content hash survive
    assert len(second_keys) == len(first_keys)


CYCLE_CALLER = """
    from repro.attest.crypto import derived_keypair
    from repro.cycle_sink import emit


    def leaks(rng):
        pair = derived_keypair(rng, "leak")
        emit(pair)
"""

CYCLE_SINK = """
    import warnings

    from repro.cycle_caller import leaks


    def emit(value):
        warnings.warn(f"value={value}")


    def again(rng):
        return leaks(rng)
"""


def test_import_cycle_finding_replays_once(make_tree, tmp_path):
    """A project-scope finding in one of two modules that import each
    other must replay exactly once from a warm cache."""
    tree = make_tree({"attest/crypto.py": CRYPTO_STUB,
                      "cycle_caller.py": CYCLE_CALLER,
                      "cycle_sink.py": CYCLE_SINK})
    cache = tmp_path / "lint-cache.json"
    cold = run_lint([tree], cache_path=cache)
    taint = [f for f in cold.findings if f.rule.startswith("taint/")]
    assert len(taint) == 1 and taint[0].symbol == "leaks"
    warm = run_lint([tree], cache_path=cache)
    assert warm.cache_misses == 0
    assert _renderings(warm) == _renderings(cold)


def test_cache_key_includes_rule_and_schema():
    assert AnalysisCache.key("taint", 1, "abc") != \
        AnalysisCache.key("lock", 1, "abc")
    assert AnalysisCache.key("taint", 1, "abc") != \
        AnalysisCache.key("taint", 2, "abc")
