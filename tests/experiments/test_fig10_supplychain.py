"""Tests for the fig10 supply-chain experiment harness."""

import json
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.runner import TrialRunner
from repro.experiments import run_fig10
from repro.supply import image, registry

CELLS = ("eager-secure", "eager-normal", "lazy-secure", "lazy-normal")
QUICK = dict(trials=1, vms=2, accesses=4)


@pytest.fixture(scope="module")
def fig10():
    return run_fig10(**QUICK)


class TestFig10:
    def test_covers_the_whole_matrix(self, fig10):
        expected = {f"{platform}/{cell}"
                    for platform in ("tdx", "sev-snp") for cell in CELLS}
        assert set(fig10.rows) == expected
        for row in fig10.rows.values():
            assert row["cold_boot_ns"] > 0.0
            assert row["warm_boot_ns"] > 0.0
            assert row["chunks_fetched"] > 0

    def test_headline_separations_hold(self, fig10):
        for platform in ("tdx", "sev-snp"):
            for side in ("secure", "normal"):
                assert (fig10.rows[f"{platform}/lazy-{side}"]["cold_boot_ns"]
                        < fig10.rows[f"{platform}/eager-{side}"]
                        ["cold_boot_ns"])
            for strategy in ("eager", "lazy"):
                assert (fig10.rows[f"{platform}/{strategy}-secure"]
                        ["cold_boot_ns"]
                        > fig10.rows[f"{platform}/{strategy}-normal"]
                        ["cold_boot_ns"])

    def test_counters_reconcile_with_request_logs(self, fig10):
        assert fig10.reconciled
        assert fig10.metrics["counters"]["supply.reconciled"] == 1

    def test_resumption_only_on_secure_cells(self, fig10):
        for cell, row in fig10.rows.items():
            if cell.endswith("-secure"):
                assert row["resumed"] > 0
            else:
                assert row["resumed"] == 0

    def test_chunk_faults_only_on_lazy_cells(self, fig10):
        for cell, row in fig10.rows.items():
            if "/lazy-" in cell:
                assert row["chunk_faults"] > 0
            else:
                assert row["chunk_faults"] == 0

    def test_warm_relaunch_is_cheaper_on_secure(self, fig10):
        for platform in ("tdx", "sev-snp"):
            for strategy in ("eager", "lazy"):
                row = fig10.rows[f"{platform}/{strategy}-secure"]
                assert row["warm_boot_ns"] < row["cold_boot_ns"]

    def test_render_mentions_the_headlines(self, fig10):
        text = fig10.render()
        assert "confidential supply chain" in text
        assert "session resumptions" in text
        assert "reconcile" in text

    def test_serial_vs_parallel_snapshots_identical(self):
        serial = run_fig10(runner=TrialRunner(), **QUICK)
        parallel = run_fig10(runner=TrialRunner(jobs=2), **QUICK)
        assert (json.dumps(serial.metrics, sort_keys=True)
                == json.dumps(parallel.metrics, sort_keys=True))


def result_key(result):
    return (result.rows, result.reconciled, result.resumed,
            result.chunk_faults, result.bytes_pulled, result.metrics)


class TestUnsealCounts:
    def test_each_sealed_chunk_unsealed_once_per_process(self,
                                                         monkeypatch):
        """Exact counts per ``run_fig10(seed=0, trials=1)``.  Each of
        the 97 unseals of encrypted chunks derived its keystream when
        unsealing was not memoized, although they cover only 20
        distinct (chunk, key, offset) inputs: every boot rebuilds its
        registry, KBS and attestor.  Memoized per process, a fresh
        process derives 20 keystreams and a repeat run none.  The
        unseals themselves, with their digest checks, key releases and
        charges, stay per boot, and each goes through the memo."""
        unseals = Counter()
        unseal = registry._PullStrategy._unseal

        def counting_unseal(strategy, data, key, offset, ctx, report):
            unseals["encrypted"] += key is not None
            return unseal(strategy, data, key, offset, ctx, report)

        monkeypatch.setattr(registry._PullStrategy, "_unseal",
                            counting_unseal)
        memo = registry.keystream_xor
        memo.cache_clear()      # the memo of a fresh process
        first = run_fig10(seed=0, trials=1)
        info = memo.cache_info()
        assert (unseals["encrypted"], info.misses, info.hits) == (97, 20, 77)
        repeat = run_fig10(seed=0, trials=1)
        info = memo.cache_info()
        assert (unseals["encrypted"], info.misses, info.hits) == (
            2 * 97, 20, 77 + 97)
        assert result_key(repeat) == result_key(first)


class TestDigestCounts:
    def test_each_chunk_and_manifest_hashed_once_per_process(self,
                                                             monkeypatch):
        """Exact counts per ``run_fig10(seed=0, trials=1)``.  Its 192
        chunk fetches carry 40 distinct contents, and its 8 manifests
        were JSON-encoded 104 times when neither was memoized.  A fresh
        process hashes each content once and a repeat run none; each
        manifest object is encoded once.  Every fetch still has its
        digest compared through the memo."""
        fetched = []
        fetch_chunk = registry.Registry.fetch_chunk

        def recording_fetch(self, chunk, ctx):
            data = fetch_chunk(self, chunk, ctx)
            fetched.append(data)
            return data

        built = Counter()
        init = image.ImageManifest.__init__

        def counting_init(self, *args, **kwargs):
            built["manifests"] += 1
            init(self, *args, **kwargs)

        def counting_dumps(*args, **kwargs):
            built["encodes"] += 1
            return json.dumps(*args, **kwargs)

        monkeypatch.setattr(registry.Registry, "fetch_chunk",
                            recording_fetch)
        monkeypatch.setattr(image.ImageManifest, "__init__", counting_init)
        monkeypatch.setattr(image, "json",
                            SimpleNamespace(dumps=counting_dumps))
        memo = registry.chunk_digest
        memo.cache_clear()      # the memo of a fresh process
        first = run_fig10(seed=0, trials=1)
        info = memo.cache_info()
        assert (len(fetched), len(set(fetched))) == (192, 40)
        assert (info.misses, info.hits) == (40, 192 - 40)
        assert (built["manifests"], built["encodes"]) == (8, 8)
        repeat = run_fig10(seed=0, trials=1)
        info = memo.cache_info()
        assert (len(fetched), len(set(fetched))) == (2 * 192, 40)
        assert (info.misses, info.hits) == (40, 2 * 192 - 40)
        assert (built["manifests"], built["encodes"]) == (16, 16)
        assert result_key(repeat) == result_key(first)
