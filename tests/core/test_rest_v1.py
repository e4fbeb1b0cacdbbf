"""Full coverage of the versioned REST surface and its error envelope.

Runs a real ``RestServer`` on an ephemeral port and exercises every
``/v1`` route, plus the uniform error envelope on each failure class.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.client import ConfBenchClient
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.gateway import Gateway
from repro.core.rest import RestServer


@pytest.fixture(scope="module")
def server():
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9500),
        PlatformEntry(platform="novm", host="xeon", base_port=9600),
    ], default_trials=2)
    gateway = Gateway(config)
    gateway.upload("cpustress")
    with RestServer(gateway, port=0) as rest:
        yield rest


@pytest.fixture(scope="module")
def client(server):
    return ConfBenchClient(port=server.port)


def call(server, method, path, body=None, raw=None):
    """One HTTP round trip; returns (status, headers, parsed body)."""
    data = raw if raw is not None else (
        json.dumps(body).encode() if body is not None else None)
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), \
                json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def assert_envelope(payload, code):
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == code
    assert isinstance(payload["error"]["message"], str)
    assert payload["error"]["message"]


class TestRouteAliases:
    """Only ``/v1`` paths are routes; unprefixed paths are not aliases."""

    def test_unprefixed_path_is_404(self, server):
        for method, path in (("GET", "/health"), ("POST", "/invoke")):
            status, _, payload = call(server, method, path)
            assert status == 404
            assert_envelope(payload, "not_found")

    def test_health_payload(self, server):
        assert call(server, "GET", "/v1/health")[2] == {"status": "ok"}

    def test_platforms_payload(self, server):
        names = {p["name"] for p in call(server, "GET", "/v1/platforms")[2]}
        assert names == {"tdx", "novm"}

    def test_upload(self, server):
        status, _, payload = call(server, "POST", "/v1/functions",
                                  body={"name": "factors"})
        assert status == 201
        assert payload == {"uploaded": "factors"}
        assert "factors" in call(server, "GET", "/v1/functions")[2]

    def test_invoke(self, server):
        status, _, records = call(server, "POST", "/v1/invoke",
                                  body={"function": "cpustress",
                                        "language": "lua", "trials": 1})
        assert status == 200
        assert len(records) == 1
        assert records[0]["function"] == "cpustress"

    def test_invoke_without_trials_runs_config_default(self, server):
        _, _, records = call(server, "POST", "/v1/invoke",
                             body={"function": "cpustress",
                                   "language": "lua"})
        assert len(records) == 2    # default_trials in the fixture config


class TestErrorEnvelope:
    def test_unknown_path_is_404(self, server):
        status, _, payload = call(server, "GET", "/v1/nonsense")
        assert status == 404
        assert_envelope(payload, "not_found")

    def test_unversioned_unknown_path_is_404(self, server):
        status, _, payload = call(server, "GET", "/nonsense")
        assert status == 404
        assert_envelope(payload, "not_found")

    def test_wrong_method_is_405_with_allow(self, server):
        status, headers, payload = call(server, "POST", "/v1/health",
                                        body={})
        assert status == 405
        assert_envelope(payload, "method_not_allowed")
        assert headers["Allow"] == "GET"

    def test_delete_on_functions_lists_both_methods(self, server):
        status, headers, _ = call(server, "DELETE", "/v1/functions")
        assert status == 405
        assert headers["Allow"] == "GET, POST"

    def test_malformed_json_is_400(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  raw=b"{not json")
        assert status == 400
        assert_envelope(payload, "bad_request")

    def test_non_object_body_is_400(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  raw=b"[1, 2]")
        assert status == 400
        assert_envelope(payload, "bad_request")
        assert "JSON object" in payload["error"]["message"]

    def test_missing_function_is_400(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"language": "lua"})
        assert status == 400
        assert_envelope(payload, "bad_request")

    def test_unknown_function_is_400(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"function": "ghost",
                                        "language": "lua"})
        assert status == 400
        assert_envelope(payload, "bad_request")

    @pytest.mark.parametrize("trials", ["three", True, 2.5])
    def test_non_integer_trials_is_400(self, server, trials):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"function": "cpustress",
                                        "language": "lua",
                                        "trials": trials})
        assert status == 400
        assert "'trials'" in payload["error"]["message"]

    def test_non_object_args_is_400(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"function": "cpustress",
                                        "language": "lua",
                                        "args": [1, 2]})
        assert status == 400
        assert "'args'" in payload["error"]["message"]

    @pytest.mark.parametrize("function, args, named", [
        ("sort", {"n": 0}, "'n'"),
        ("compression", {"payload_bytes": 0}, "'payload_bytes'"),
        ("spectralnorm", {"n": 0}, "'n'"),
        ("spectralnorm", {"iterations": 0}, "'iterations'"),
        ("graphbfs", {"nodes": 0}, "'nodes'"),
        ("fannkuch", {"n": 0}, "'n'"),
        ("binarytrees", {"depth": -1}, "'depth'"),
        ("cpustress", {"iterations": "x"}, "'iterations'"),
        ("cpustress", {"iterations": True}, "'iterations'"),
        ("cpustress", {"iterations": 2.5}, "'iterations'"),
        ("cpustress", {"iterations": None}, "'iterations'"),
        ("cpustress", {"rounds": 3}, "rounds"),
    ], ids=lambda value: (value if isinstance(value, str)
                          else "-".join(f"{k}={v!r}" for k, v in
                                        value.items())))
    def test_bad_function_args_is_400(self, server, function, args, named):
        call(server, "POST", "/v1/functions", body={"name": function})
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"function": function,
                                        "language": "lua", "args": args,
                                        "trials": 1})
        assert status == 400
        assert_envelope(payload, "bad_request")
        assert named in payload["error"]["message"]


class TestStrictV1Invoke:
    def test_unknown_field_rejected_on_v1(self, server):
        status, _, payload = call(server, "POST", "/v1/invoke",
                                  body={"function": "cpustress",
                                        "language": "lua", "trials": 1,
                                        "bogus": 1})
        assert status == 400
        assert "bogus" in payload["error"]["message"]


class TestTelemetryRoutes:
    def test_metrics_reflects_invocations(self, server):
        before = call(server, "GET", "/v1/metrics")[2]
        call(server, "POST", "/v1/invoke",
             body={"function": "cpustress", "language": "lua", "trials": 2})
        after = call(server, "GET", "/v1/metrics")[2]
        assert set(after) == {"counters", "gauges", "histograms"}
        grown = (after["counters"]["run.tdx.secure.trials"]
                 - before["counters"].get("run.tdx.secure.trials", 0))
        assert grown == 2
        assert "run.tdx.secure.elapsed_ns" in after["histograms"]

    def test_stats_invariant_over_http(self, server):
        stats = call(server, "GET", "/v1/stats")[2]
        assert stats["trials_requested"] == (stats["trials_completed"]
                                             + stats["trials_degraded"]
                                             + stats["trials_shed"])


class TestClientV1:
    def test_client_round_trip(self, client):
        client.upload("fibonacci")
        records = client.invoke("fibonacci", "lua", args={"n": 10}, trials=1)
        assert records[0]["output"]["result"] == 55

    def test_client_metrics_and_stats(self, client):
        metrics = client.metrics()
        assert metrics["counters"]["run.tdx.secure.trials"] >= 1
        assert "trials_requested" in client.stats()

    def test_client_surfaces_envelope_detail(self, client):
        from repro.errors import GatewayError

        with pytest.raises(GatewayError, match=r"\[bad_request\]"):
            client.invoke("ghost", "lua")

    def test_error_detail_falls_back_on_bare_strings(self):
        detail = ConfBenchClient._error_detail(b'{"error": "plain text"}')
        assert detail == "plain text"
        assert ConfBenchClient._error_detail(b"not json") == ""
