"""Cache and --jobs are cost knobs, never output knobs.

Serial, parallel, cold-cache, and warm-cache runs must render
byte-identically; the cache must invalidate transitively through the
import graph for the cross-module passes while leaving per-file
entries for untouched modules warm.
"""

from __future__ import annotations

import json

from repro.analysis import run_lint
from repro.analysis.cache import AnalysisCache

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


def test_serial_and_jobs_render_byte_identically(make_tree):
    tree = make_tree(TREE)
    serial = run_lint([tree], jobs=1)
    parallel = run_lint([tree], jobs=2)
    assert _renderings(serial) == _renderings(parallel)
    assert len(serial.findings) >= 2        # taint + determinism


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


def test_unrelated_edit_keeps_cross_module_entries_warm(make_tree, tmp_path):
    """Touching a leaf module with no dependents only re-analyzes it."""
    tree = make_tree(TREE)
    cache = tmp_path / "lint-cache.json"
    run_lint([tree], cache_path=cache)
    make_tree({**TREE, "workloads/w.py": WALLCLOCK + "\n    X = 1\n"})
    after = run_lint([tree], cache_path=cache)
    assert after.cache_hits > 0
    # invalidation is per-module: only w.py's keys went stale
    assert after.cache_misses < after.cache_hits


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


def test_import_cycle_members_get_distinct_cache_keys(make_tree, tmp_path):
    """Two modules importing each other share one import closure; a
    project-scope finding in one must still replay exactly once."""
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
