"""The fig5-extension experiment: cache tiers, reconciliation, determinism."""

from collections import Counter

from repro.attest import crypto
from repro.attest.crypto import RsaKeyPair, RsaPublicKey, derived_signature
from repro.core.runner import TrialRunner
from repro.experiments import run_fig5_service


def result_key(result):
    return (result.tier_latencies_ns, result.counters, result.reconciled,
            result.queue_depth_peak, result.queue_wait_ns, result.metrics)


class TestFig5Service:
    def test_tier_ordering_and_reconciliation(self):
        result = run_fig5_service(seed=3, trials=1)
        lat = result.tier_latencies_ns
        # warm tiers eliminate the origin-fetch latency; sessions
        # eliminate verification itself
        assert lat["tdx origin"] > lat["tdx host"]
        assert lat["tdx origin"] > lat["tdx cdn"]
        assert lat["tdx session"] < lat["tdx host"] / 100
        assert lat["sev-snp session"] < lat["sev-snp local"] / 10
        # the obs counters and the PCS request log tell the same story
        assert result.reconciled
        assert result.counters["tdx.collateral.host-a.origin.fetches"] == 4
        assert result.queue_depth_peak >= 1
        assert result.render()  # renders without error

    def test_serial_and_parallel_runs_are_identical(self):
        serial = run_fig5_service(seed=5, trials=2,
                                  runner=TrialRunner(jobs=1))
        parallel = run_fig5_service(seed=5, trials=2,
                                    runner=TrialRunner(jobs=2))
        assert result_key(serial) == result_key(parallel)

    def test_metrics_snapshot_carries_service_streams(self):
        result = run_fig5_service(seed=3, trials=1)
        counters = result.metrics["counters"]
        assert counters["attest.service.reconciled"] == 1
        assert counters[
            "attest.service.tdx.service.host-a.resumed"] > 0
        histograms = result.metrics["histograms"]
        assert "attest.service.tdx.verify_ns.origin" in histograms


class TestSigningCounts:
    def test_static_documents_signed_once_per_process(self, monkeypatch):
        """Exact count of ``RsaKeyPair.sign`` calls per
        ``run_fig5_service(seed=0, trials=6)``.  Signing every document
        on every call made 126: each of the 12 trials rebuilds its
        infrastructure and re-signs the same 10 static documents (CA
        certificates, the QE AK certificate, TCB info, QE identity).
        Memoized per process, they cost 10 signatures in a fresh
        process and none on a repeat run.  Verification is the check
        and stays per call."""
        calls = Counter()
        sign, verify = RsaKeyPair.sign, RsaPublicKey.verify

        def counting_sign(pair, message):
            calls["sign"] += 1
            return sign(pair, message)

        def counting_verify(key, message, signature):
            calls["verify"] += 1
            return verify(key, message, signature)

        monkeypatch.setattr(RsaKeyPair, "sign", counting_sign)
        monkeypatch.setattr(RsaPublicKey, "verify", counting_verify)
        derived_signature.cache_clear()   # the memo of a fresh process
        first = run_fig5_service(seed=0, trials=6)
        assert calls == {"sign": 76, "verify": 396}
        calls.clear()
        repeat = run_fig5_service(seed=0, trials=6)
        assert calls == {"sign": 66, "verify": 396}
        assert result_key(repeat) == result_key(first)

    def test_exponentiations_per_run(self, monkeypatch):
        """Exact count of :func:`~repro.attest.crypto.powmod` calls per
        ``run_fig5_service(seed=0, trials=6)``.  A repeat run makes 528:
        two half-size calls (mod p, mod q) for each of its 66 signatures
        and one with e = 65537 for each of 396 verifications.  A fresh
        process also signs 10 static documents and runs 1,417 full-size
        Miller–Rabin rounds to generate its 8 keys.  Textbook signing
        would make one call per signature, with the full modulus."""
        calls = Counter()
        powmod = crypto.powmod

        def counting(base, exp, mod):
            calls["verify" if exp == 65537 else
                  f"{mod.bit_length()}-bit"] += 1
            return powmod(base, exp, mod)

        monkeypatch.setattr(crypto, "powmod", counting)
        monkeypatch.setattr(crypto, "_KEYPAIR_CACHE", {})
        derived_signature.cache_clear()   # the memos of a fresh process
        run_fig5_service(seed=0, trials=6)
        assert calls == {"512-bit": 2 * 76 + 1_417, "verify": 396}
        calls.clear()
        run_fig5_service(seed=0, trials=6)
        assert calls == {"512-bit": 2 * 66, "verify": 396}
