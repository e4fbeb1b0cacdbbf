"""Confidential-taint pass: sources, sinks, sanitizers, field taint.

The deliberately leaky fixture below exercises one flow per sink
family; the acceptance contract is that it yields at least five
distinct findings whose messages carry the full source -> sink path,
in text, JSON, and SARIF renderings alike.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import run_lint
from repro.analysis.core import load_project
from repro.analysis.taint import ConfidentialTaintRule

#: A stub of the real crypto module so ``qual:`` source matchers
#: resolve inside the synthetic tree (never analyzed: trusted module).
CRYPTO_STUB = """
def generate_keypair(rng, bits=1024):
    return object()


def derived_keypair(parent, label, bits=1024):
    return object()
"""

#: One deliberate leak per sink family (plus clean control flows).
LEAKY = """
import warnings

from repro.attest.crypto import derived_keypair


def log_private_exponent(rng):
    pair = derived_keypair(rng, "leak")
    warnings.warn(f"debug: d={pair.d}")                  # 1: log sink


def print_whole_pair(rng):
    pair = derived_keypair(rng, "leak")
    print(pair)                                          # 2: stdout sink


def raise_with_key(rng):
    pair = derived_keypair(rng, "leak")
    raise ValueError(f"bad pair {pair}")                 # 3: exception sink


def journal_guest_payload(fs, store):
    payload = fs.read_file("/etc/secret")
    store.put({"raw": payload})                          # 4: journal sink


def relay_measurement(tee, sock):
    digest = tee.measurement_for("guest-0")
    sock.sendall(digest)                                 # 5: relay sink


def telemetry_guest_bytes(fs, metrics):
    data = fs.read_all()
    metrics.count(f"saw {data}")                         # 6: telemetry sink
"""


def _taint_findings(make_tree, files):
    root = make_tree({"attest/crypto.py": CRYPTO_STUB, **files})
    project = load_project([root])
    return list(ConfidentialTaintRule().check_project(project))


def test_leaky_fixture_yields_five_distinct_findings(make_tree):
    findings = _taint_findings(make_tree, {"leaky.py": LEAKY})
    distinct = {(f.rule, f.symbol) for f in findings}
    assert len(distinct) >= 5, [f.render() for f in findings]
    rules = {f.rule for f in findings}
    assert {"taint/log", "taint/exception", "taint/journal",
            "taint/relay", "taint/telemetry"} <= rules


def test_findings_carry_source_to_sink_paths(make_tree):
    findings = _taint_findings(make_tree, {"leaky.py": LEAKY})
    by_symbol = {f.symbol: f for f in findings}
    log = by_symbol["log_private_exponent"]
    assert "repro.attest.crypto.derived_keypair()" in log.message
    assert "warning text (warnings.warn)" in log.message
    journal = by_symbol["journal_guest_payload"]
    assert "read_file()" in journal.message
    assert "journal" in journal.rule
    relay = by_symbol["relay_measurement"]
    assert "measurement_for()" in relay.message


def test_paths_survive_all_three_renderings(make_tree):
    root = make_tree({"attest/crypto.py": CRYPTO_STUB, "leaky.py": LEAKY})
    report = run_lint([root], rules=[ConfidentialTaintRule()])
    assert len(report.findings) >= 5

    text = report.render_text()
    payload = json.loads(report.render_json())
    sarif = json.loads(report.render_sarif())
    sarif_texts = [r["message"]["text"]
                   for r in sarif["runs"][0]["results"]]
    for finding in report.findings:
        assert finding.message in text
        assert finding.message in [f["message"]
                                   for f in payload["findings"]]
        assert finding.message in sarif_texts


def test_sanitizer_cuts_the_flow(make_tree):
    findings = _taint_findings(make_tree, {"clean.py": """
        import warnings

        from repro.attest.crypto import derived_keypair


        def logs_fingerprint(rng):
            pair = derived_keypair(rng, "ok")
            warnings.warn(f"key {pair.public.fingerprint()}")


        def logs_signature(rng, body):
            pair = derived_keypair(rng, "ok")
            warnings.warn(f"sig {pair.sign(body)!r}")
    """})
    assert findings == []


def test_memoized_signature_is_clean_private_exponent_is_not(make_tree):
    findings = _taint_findings(make_tree, {"memo.py": """
        from repro.attest.crypto import derived_keypair, derived_signature


        def journals_signature(rng, store, body):
            pair = derived_keypair(rng, "ok")
            store.put({"sig": derived_signature(pair, body)})


        def journals_private(rng, store):
            pair = derived_keypair(rng, "bad")
            store.put({"d": pair.d})
    """})
    assert [(f.rule, f.symbol) for f in findings] == [
        ("taint/journal", "journals_private")]


def test_field_sensitivity_public_clean_d_tainted(make_tree):
    findings = _taint_findings(make_tree, {"fields.py": """
        import warnings

        from repro.attest.crypto import derived_keypair


        def logs_public(rng):
            pair = derived_keypair(rng, "ok")
            warnings.warn(f"pub {pair.public}")        # clean: no finding


        def logs_private(rng):
            pair = derived_keypair(rng, "bad")
            warnings.warn(f"d {pair.d}")               # finding
    """})
    assert [f.symbol for f in findings] == ["logs_private"]


def test_propagation_through_pipeline_helper(make_tree):
    findings = _taint_findings(make_tree, {
        "helpers.py": """
            import warnings


            def emit(value):
                warnings.warn(f"value={value}")


            def passthrough(value):
                return value
        """,
        "caller.py": """
            from repro.attest.crypto import derived_keypair
            from repro.helpers import emit, passthrough


            def leaks_through_two_hops(rng):
                pair = derived_keypair(rng, "leak")
                emit(passthrough(pair))
        """,
    })
    assert len(findings) == 1
    finding = findings[0]
    assert finding.symbol == "leaks_through_two_hops"
    assert "repro.helpers.emit" in finding.message


def test_class_field_repr_leak_detected(make_tree):
    findings = _taint_findings(make_tree, {"pair.py": """
        class RsaKeyPair:
            def __init__(self, public, d):
                self.public = public
                self.d = d

            def __repr__(self):
                return f"RsaKeyPair(d={self.d})"
    """})
    assert [f.rule for f in findings] == ["taint/repr"]


def test_public_key_journal_is_not_a_false_positive(make_tree):
    findings = _taint_findings(make_tree, {"pub.py": """
        from repro.attest.crypto import derived_keypair


        def journals_public_half(rng, store):
            pair = derived_keypair(rng, "ok")
            store.put({"public": pair.public})
    """})
    assert findings == []


@pytest.mark.parametrize("field", ["p", "q", "dp", "dq", "qinv"])
def test_crt_field_leak_detected_and_public_half_clean(make_tree, field):
    # each CRT part factors the modulus, so it is as secret as d
    findings = _taint_findings(make_tree, {"crt.py": f"""
        import warnings

        from repro.attest.crypto import derived_keypair


        def leaks_crt_part(rng):
            pair = derived_keypair(rng, "leak")
            warnings.warn(f"{field}={{pair.{field}}}")


        def logs_public_half(rng):
            pair = derived_keypair(rng, "ok")
            warnings.warn(f"public={{pair.public}}")
    """})
    assert [(f.rule, f.symbol) for f in findings] == [
        ("taint/log", "leaks_crt_part")]


@pytest.mark.parametrize("field", ["p", "q", "dp", "dq", "qinv"])
def test_crt_field_repr_leak_detected(make_tree, field):
    findings = _taint_findings(make_tree, {"pair.py": f"""
        class RsaKeyPair:
            def __init__(self, secret):
                self.{field} = secret

            def __repr__(self):
                return f"RsaKeyPair({field}={{self.{field}}})"
    """})
    assert [f.rule for f in findings] == ["taint/repr"]


def test_pragma_suppresses_taint_family(make_tree):
    root = make_tree({
        "attest/crypto.py": CRYPTO_STUB,
        "allowed.py": """
            import warnings

            from repro.attest.crypto import derived_keypair


            def deliberate(rng):
                pair = derived_keypair(rng, "demo")
                warnings.warn(f"d={pair.d}")  # confbench: allow[taint]
        """,
    })
    report = run_lint([root], rules=[ConfidentialTaintRule()])
    assert report.findings == []
