"""Gateway shed → HTTP 429 with a deterministic retry hint.

Covers the brownout contract at the REST edge: a gateway whose
cross-invocation backlog is at capacity refuses the newcomer with
:class:`~repro.errors.OverloadedError`, the REST layer maps it to a
429 envelope carrying ``retry_after_ns`` plus a ``Retry-After``
header, and the client honors the hint (bounded wait + retry) before
surfacing the error.  Single-invocation semantics are unchanged:
per-trial index shedding still applies, and an idle gateway never
429s.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.client import ConfBenchClient
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.gateway import SHED_RETRY_NS_PER_TRIAL, Gateway, \
    InvocationRequest
from repro.core.rest import RestServer
from repro.errors import OverloadedError


def make_gateway(max_pending=None) -> Gateway:
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9700),
    ], default_trials=2)
    gateway = Gateway(config, max_pending=max_pending)
    gateway.upload("cpustress")
    return gateway


def invoke_request(trials=1) -> InvocationRequest:
    return InvocationRequest(function="cpustress", language="python",
                             platform="tdx", trials=trials)


class TestAdmission:
    def test_idle_gateway_never_refuses(self):
        gateway = make_gateway(max_pending=2)
        records = gateway.invoke(invoke_request(trials=5))
        # per-trial shedding by index is untouched: trials 2..4 shed
        assert [r.shed for r in records] == [False, False, True, True, True]
        assert gateway.stats()["invocations_rejected"] == 0

    def test_full_backlog_refuses_with_hint(self):
        gateway = make_gateway(max_pending=2)
        gateway._backlog_trials = 2   # a concurrent invocation's trials
        with pytest.raises(OverloadedError) as info:
            gateway.invoke(invoke_request(trials=3))
        # excess = backlog + trials - max_pending = 3
        assert info.value.retry_after_ns == 3 * SHED_RETRY_NS_PER_TRIAL
        assert gateway.stats()["invocations_rejected"] == 1
        snapshot = gateway.metrics.snapshot()
        assert snapshot["counters"]["gateway.invocations_rejected"] == 1

    def test_hint_is_deterministic(self):
        hints = []
        for _ in range(2):
            gateway = make_gateway(max_pending=4)
            gateway._backlog_trials = 4
            with pytest.raises(OverloadedError) as info:
                gateway.invoke(invoke_request(trials=2))
            hints.append(info.value.retry_after_ns)
        assert hints[0] == hints[1] == 2 * SHED_RETRY_NS_PER_TRIAL

    def test_backlog_drains_after_invocation(self):
        gateway = make_gateway(max_pending=8)
        gateway.invoke(invoke_request(trials=2))
        assert gateway._backlog_trials == 0

    def test_unbounded_gateway_skips_accounting(self):
        gateway = make_gateway()
        gateway.invoke(invoke_request(trials=2))
        assert gateway._backlog_trials == 0
        assert gateway.stats()["invocations_rejected"] == 0


class TestRest429:
    @pytest.fixture()
    def server(self):
        with RestServer(make_gateway(max_pending=2), port=0) as rest:
            yield rest

    @staticmethod
    def call(server, body):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/invoke",
            data=json.dumps(body).encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, dict(response.headers), \
                    json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_full_backlog_maps_to_429(self, server):
        server.gateway._backlog_trials = 2
        status, headers, payload = self.call(
            server, {"function": "cpustress", "language": "python",
                     "trials": 1})
        assert status == 429
        error = payload["error"]
        assert error["code"] == "overloaded"
        assert error["retry_after_ns"] == 1 * SHED_RETRY_NS_PER_TRIAL
        # the header mirrors the hint in whole (ceil) seconds, min 1
        assert headers["Retry-After"] == "1"

    def test_drained_backlog_serves_again(self, server):
        server.gateway._backlog_trials = 2
        assert self.call(server, {"function": "cpustress",
                                  "language": "python", "trials": 1})[0] == 429
        server.gateway._backlog_trials = 0
        status, _, records = self.call(
            server, {"function": "cpustress", "language": "python",
                     "trials": 1})
        assert status == 200
        assert len(records) == 1


class TestClientHonorsHint:
    """The client waits out retry_after_ns (capped) and retries."""

    class RecoveringGateway(Gateway):
        """Refuses the first ``refusals`` invokes, then serves."""

        def __init__(self, *args, refusals=1, **kwargs):
            super().__init__(*args, **kwargs)
            self.refusals = refusals
            self.invoke_calls = 0

        def invoke(self, request):
            self.invoke_calls += 1
            if self.invoke_calls <= self.refusals:
                raise OverloadedError(
                    "backlog at capacity",
                    retry_after_ns=20_000_000.0)   # 20 ms
            return super().invoke(request)

    def serve(self, refusals):
        config = GatewayConfig(entries=[
            PlatformEntry(platform="tdx", host="xeon", base_port=9700),
        ], default_trials=1)
        gateway = self.RecoveringGateway(config, refusals=refusals)
        gateway.upload("cpustress")
        return RestServer(gateway, port=0)

    def test_client_retries_through_one_429(self):
        with self.serve(refusals=1) as rest:
            client = ConfBenchClient(port=rest.port, overload_retries=2,
                                     max_retry_wait_s=0.05)
            records = client.invoke("cpustress", "python", trials=1)
            assert len(records) == 1
            assert rest.gateway.invoke_calls == 2

    def test_client_surfaces_exhausted_retries(self):
        with self.serve(refusals=10) as rest:
            client = ConfBenchClient(port=rest.port, overload_retries=1,
                                     max_retry_wait_s=0.01)
            with pytest.raises(OverloadedError) as info:
                client.invoke("cpustress", "python", trials=1)
            assert info.value.retry_after_ns == 20_000_000.0
            assert rest.gateway.invoke_calls == 2   # original + 1 retry

    def test_zero_retries_fails_fast(self):
        with self.serve(refusals=10) as rest:
            client = ConfBenchClient(port=rest.port, overload_retries=0)
            with pytest.raises(OverloadedError):
                client.invoke("cpustress", "python", trials=1)
            assert rest.gateway.invoke_calls == 1
