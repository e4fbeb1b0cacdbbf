"""Integration tests: real sockets for the REST API and the relay."""

import json
import socket
import time
import threading
import urllib.request

import pytest

from repro.core.client import ConfBenchClient
from repro.core.config import GatewayConfig, PlatformEntry
from repro.core.gateway import Gateway
from repro.core.relay import TcpRelay, free_port
from repro.core.rest import RestServer
from repro.errors import GatewayError, RelayError


@pytest.fixture(scope="module")
def server():
    config = GatewayConfig(entries=[
        PlatformEntry(platform="tdx", host="xeon", base_port=9100),
        PlatformEntry(platform="novm", host="xeon", base_port=9400),
    ], default_trials=2)
    gateway = Gateway(config)
    with RestServer(gateway, port=0) as rest:
        yield rest


@pytest.fixture(scope="module")
def client(server):
    return ConfBenchClient(port=server.port)


class TestRestApi:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_platforms_listing(self, client):
        platforms = client.platforms()
        assert {p["name"] for p in platforms} == {"tdx", "novm"}

    def test_upload_then_list(self, client):
        client.upload("factors")
        assert "factors" in client.functions()

    def test_invoke_round_trip(self, client):
        client.upload("fibonacci")
        records = client.invoke("fibonacci", "lua", platform="tdx",
                                args={"n": 10}, trials=2)
        assert len(records) == 2
        assert records[0]["output"]["result"] == 55
        assert records[0]["perf"]["instructions"] > 0

    def test_invoke_normal_vm(self, client):
        client.upload("factors")
        records = client.invoke("factors", "go", platform="tdx",
                                secure=False, trials=1)
        assert records[0]["secure"] is False

    def test_secure_vs_normal_ratio_via_rest(self, client):
        """The paper's workflow end-to-end over HTTP."""
        import statistics

        client.upload("iostress")
        args = {"file_bytes": 65536, "files": 2}
        secure = client.invoke("iostress", "lua", platform="tdx",
                               args=args, trials=4)
        normal = client.invoke("iostress", "lua", platform="tdx",
                               secure=False, args=args, trials=4)
        ratio = (statistics.fmean(r["elapsed_ns"] for r in secure)
                 / statistics.fmean(r["elapsed_ns"] for r in normal))
        assert ratio > 1.1   # TDX bounce buffers show up over the wire

    def test_unknown_function_is_400(self, client):
        with pytest.raises(GatewayError, match="400"):
            client.invoke("ghost", "lua")

    def test_unknown_path_is_404(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/nope"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/invoke",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_upload_requires_name(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/functions",
            data=json.dumps({}).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_concurrent_invokes(self, client):
        client.upload("factors")
        errors = []

        def worker():
            try:
                client.invoke("factors", "lua", platform="tdx", trials=1)
            except Exception as exc:   # noqa: BLE001 - collect for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors


class _EchoServer:
    """A one-shot TCP echo server for relay tests."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            data = conn.recv(65536)
            if data:
                conn.sendall(b"echo:" + data)
            conn.close()

    def close(self):
        self.sock.close()


class TestTcpRelay:
    def test_forwards_both_directions(self):
        echo = _EchoServer()
        listen = free_port()
        try:
            with TcpRelay(listen, echo.port) as relay:
                with socket.create_connection(("127.0.0.1", listen),
                                              timeout=5) as conn:
                    conn.sendall(b"hello-vm")
                    reply = conn.recv(65536)
                assert reply == b"echo:hello-vm"
                assert relay.connections_handled == 1
                expected = len(b"hello-vm") + len(reply)
                deadline = time.time() + 2.0
                while relay.bytes_forwarded < expected and time.time() < deadline:
                    time.sleep(0.01)   # counter updates just after sendall
                assert relay.bytes_forwarded >= expected
        finally:
            echo.close()

    def test_multiple_connections(self):
        echo = _EchoServer()
        listen = free_port()
        try:
            with TcpRelay(listen, echo.port) as relay:
                for i in range(3):
                    with socket.create_connection(("127.0.0.1", listen),
                                                  timeout=5) as conn:
                        conn.sendall(f"msg{i}".encode())
                        assert conn.recv(65536) == f"echo:msg{i}".encode()
                assert relay.connections_handled == 3
        finally:
            echo.close()

    def test_self_forward_rejected(self):
        with pytest.raises(RelayError):
            TcpRelay(9000, 9000)

    def test_double_start_rejected(self):
        echo = _EchoServer()
        try:
            with TcpRelay(free_port(), echo.port) as relay:
                with pytest.raises(RelayError):
                    relay.start()
        finally:
            echo.close()

    def test_bind_conflict_is_loud(self):
        echo = _EchoServer()
        try:
            # try to bind the relay on the echo server's own port
            relay = TcpRelay(echo.port, free_port())
            with pytest.raises(RelayError):
                relay.start()
        finally:
            echo.close()

    def test_relay_in_front_of_rest_gateway(self, server):
        """socat-style steering in front of the HTTP gateway: the
        paper's host-side port redirection, end to end."""
        listen = free_port()
        with TcpRelay(listen, server.port):
            client = ConfBenchClient(port=listen)
            assert client.health() == {"status": "ok"}
            client.upload("ack")
            records = client.invoke("ack", "wasm", platform="tdx",
                                    args={"m": 2, "n": 2}, trials=1)
            assert records[0]["output"]["result"] == 7


class _DrainServer:
    """Reads until client EOF, then replies — requires TCP half-close.

    A relay that tears down both directions on the first EOF (instead
    of propagating ``SHUT_WR``) can never deliver this server's reply:
    the client must half-close to signal end-of-request while keeping
    its receive side open for the response.
    """

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(4)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            chunks = []
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                chunks.append(data)
            conn.sendall(b"drained:" + b"".join(chunks))
            conn.close()

    def close(self):
        self.sock.close()


class TestRelayHalfClose:
    def test_reply_after_client_eof_round_trips(self):
        server = _DrainServer()
        listen = free_port()
        try:
            with TcpRelay(listen, server.port) as relay:
                with socket.create_connection(("127.0.0.1", listen),
                                              timeout=5) as conn:
                    conn.sendall(b"part1;")
                    conn.sendall(b"part2")
                    conn.shutdown(socket.SHUT_WR)   # end of request
                    reply = b""
                    while True:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        reply += chunk
                assert reply == b"drained:part1;part2"
                assert relay.connections_handled == 1
        finally:
            server.close()

    def test_stop_joins_connection_threads(self):
        server = _DrainServer()
        listen = free_port()
        relay = TcpRelay(listen, server.port)
        relay.start()
        try:
            # leave a connection open mid-stream, then stop the relay:
            # stop() must unblock and join the pump threads, not leak
            conn = socket.create_connection(("127.0.0.1", listen), timeout=5)
            conn.sendall(b"never-finished")
            deadline = time.time() + 2.0
            while relay.connections_handled < 1 and time.time() < deadline:
                time.sleep(0.01)
            relay.stop()
            assert relay._threads == []
            conn.close()
        finally:
            server.close()


class TestRelayFaults:
    def test_seeded_connection_drops(self):
        from repro.sim.faults import FaultKind, FaultPlan

        echo = _EchoServer()
        listen = free_port()
        plan = FaultPlan.parse("relay-drop=0.5,seed=6")
        outcomes = []
        try:
            with TcpRelay(listen, echo.port, faults=plan) as relay:
                for i in range(8):
                    with socket.create_connection(("127.0.0.1", listen),
                                                  timeout=5) as conn:
                        try:
                            conn.sendall(f"m{i}".encode())
                            outcomes.append(conn.recv(65536) != b"")
                        except OSError:
                            outcomes.append(False)
                # handler threads bump the counters just after the
                # client side closes; give them a moment to finish
                deadline = time.time() + 2.0
                while (relay.connections_dropped + relay.connections_handled
                       < 8 and time.time() < deadline):
                    time.sleep(0.01)
                dropped = relay.connections_dropped
                handled = relay.connections_handled
            assert dropped + handled == 8
            assert dropped > 0 and handled > 0
            # the drop pattern is a pure function of (seed, conn index)
            expected = [
                not plan.triggers(FaultKind.RELAY_DROP,
                                  f"relay/{listen}->{echo.port}/conn{i}")
                for i in range(8)
            ]
            assert outcomes == expected
        finally:
            echo.close()
