"""REST interface over real localhost HTTP.

§III-A: "users can submit workloads to execute via a REST-based
interface together with the corresponding runtime parameters".  The
paper's gateway is Rust/Axum; this one is the Python stdlib's
threading HTTP server.

Every route lives under ``/v1``; any other path is a 404:

- ``GET  /v1/health``         — liveness probe
- ``GET  /v1/platforms``      — configured execution platforms
- ``GET  /v1/functions``      — uploaded function names
- ``POST /v1/functions``      — upload: ``{"name": ..., "languages": [...]}``
- ``POST /v1/invoke``         — run: ``{"function", "language",
  "platform", "secure", "args", "trials"}``
- ``GET  /v1/metrics``        — the gateway's metrics-registry snapshot
- ``GET  /v1/stats``          — supervision counters (:class:`GatewayStats`)
- ``POST /v1/cluster/run``    — run one cluster sweep: ``{"hosts",
  "requests", "rate_rps", "process", "secure_fraction", "seed",
  "strategy", "signed"}`` (one sweep at a time; concurrent run → 429)
- ``GET  /v1/cluster/report`` — the last sweep's full report (404
  before any sweep has completed)
- ``POST /v1/kbs/release``    — attestation-gated key release:
  ``{"vm_id", "platform", "key_ids", "tamper_evidence"}``; a failed
  or forged attestation gets ``403 release_denied`` with the broker's
  typed ``reason`` in the envelope

Responses are JSON.  Errors use a uniform envelope::

    {"error": {"code": "bad_request", "message": "..."}}

with the proper status split: 400 for malformed/invalid bodies
(``bad_request``), 404 for unknown resources (``not_found``), and 405
with an ``Allow`` header for a known resource hit with the wrong
method (``method_not_allowed``).  ``POST /v1/invoke`` is strict: a
body field outside the documented set is a 400.

A gateway whose cross-invocation backlog is at capacity sheds the
request with 429 (``overloaded``): the envelope gains a deterministic
``retry_after_ns`` drain-time hint and the standard ``Retry-After``
header mirrors it in whole seconds — a shed with a record, never a
silent drop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import math

from repro.core.gateway import Gateway, InvocationRequest
from repro.errors import (
    ConfBenchError,
    KeyReleaseDeniedError,
    OverloadedError,
)

#: resource path -> {HTTP method: handler name}
_ROUTES: dict[str, dict[str, str]] = {
    "/v1/health": {"GET": "health"},
    "/v1/platforms": {"GET": "platforms"},
    "/v1/functions": {"GET": "functions", "POST": "upload"},
    "/v1/invoke": {"POST": "invoke"},
    "/v1/metrics": {"GET": "metrics"},
    "/v1/stats": {"GET": "stats"},
    "/v1/cluster/run": {"POST": "cluster_run"},
    "/v1/cluster/report": {"GET": "cluster_report"},
    "/v1/kbs/release": {"POST": "kbs_release"},
}

#: the documented ``POST /v1/invoke`` body fields
_INVOKE_FIELDS = frozenset(
    {"function", "language", "platform", "secure", "args", "trials"})


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound to one gateway via the server object."""

    server: "RestServer"

    # quiet the default stderr logging
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    # -- plumbing ------------------------------------------------------

    def _send(self, status: int, payload,
              headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, code: str, message: str,
               allow: list[str] | None = None) -> None:
        headers = {"Allow": ", ".join(allow)} if allow else None
        self._send(status, {"error": {"code": code, "message": message}},
                   headers=headers)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ConfBenchError(f"bad JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfBenchError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        methods = _ROUTES.get(path)
        if methods is None:
            self._error(404, "not_found", f"no such resource: {self.path}")
            return
        name = methods.get(method)
        if name is None:
            self._error(405, "method_not_allowed",
                        f"{method} is not allowed on {path}",
                        allow=sorted(methods))
            return
        try:
            getattr(self, f"_handle_{name}")()
        except OverloadedError as exc:
            # shed with a record, never silently: the envelope carries
            # the deterministic drain-time hint and the standard
            # Retry-After header mirrors it in (rounded-up) seconds
            self._send(429, {"error": {
                "code": "overloaded",
                "message": str(exc),
                "retry_after_ns": exc.retry_after_ns,
            }}, headers={
                "Retry-After": str(max(
                    1, math.ceil(exc.retry_after_ns / 1e9))),
            })
        except KeyReleaseDeniedError as exc:
            # an attestation-gated refusal, not a malformed request:
            # 403 with the broker's typed reason in the envelope
            self._send(403, {"error": {
                "code": "release_denied",
                "message": str(exc),
                "reason": exc.reason,
            }})
        except ConfBenchError as exc:
            self._error(400, "bad_request", str(exc))

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib API
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 - stdlib API
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib API
        self._dispatch("DELETE")

    # -- handlers ------------------------------------------------------

    def _handle_health(self) -> None:
        self._send(200, {"status": "ok"})

    def _handle_platforms(self) -> None:
        self._send(200, self.server.gateway.platforms())

    def _handle_functions(self) -> None:
        self._send(200, self.server.gateway.functions())

    def _handle_metrics(self) -> None:
        registry = getattr(self.server.gateway, "metrics", None)
        if registry is None:
            self._send(200, {"counters": {}, "gauges": {}, "histograms": {}})
            return
        self._send(200, registry.snapshot())

    def _handle_stats(self) -> None:
        self._send(200, self.server.gateway.stats.to_dict())

    def _handle_upload(self) -> None:
        payload = self._read_json()
        name = payload.get("name")
        if not name or not isinstance(name, str):
            raise ConfBenchError("upload needs a 'name'")
        languages = payload.get("languages")
        self.server.gateway.upload(
            name,
            tuple(languages) if languages is not None else None,
        )
        self._send(201, {"uploaded": name})

    def _handle_invoke(self) -> None:
        payload = self._read_json()
        unknown = sorted(set(payload) - _INVOKE_FIELDS)
        if unknown:
            raise ConfBenchError(
                f"unknown invoke field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(_INVOKE_FIELDS))}")
        function = payload.get("function", "")
        if not function or not isinstance(function, str):
            raise ConfBenchError("invoke needs a 'function'")
        args = payload.get("args", {})
        if args is None:
            args = {}
        if not isinstance(args, dict):
            raise ConfBenchError("'args' must be a JSON object")
        trials = payload.get("trials")
        if trials is not None and (isinstance(trials, bool)
                                   or not isinstance(trials, int)):
            raise ConfBenchError("'trials' must be an integer")
        request = InvocationRequest(
            function=function,
            language=payload.get("language"),
            platform=payload.get("platform", "tdx"),
            secure=bool(payload.get("secure", True)),
            args=args,
            trials=trials,
        )
        records = self.server.gateway.invoke(request)
        self._send(200, [record.to_dict() for record in records])

    def _handle_cluster_run(self) -> None:
        payload = self._read_json()
        self._send(200, self.server.gateway.cluster().run(payload))

    def _handle_cluster_report(self) -> None:
        report = self.server.gateway.cluster().report()
        if report is None:
            self._error(404, "not_found",
                        "no cluster sweep has completed yet; "
                        "POST /v1/cluster/run first")
            return
        self._send(200, report)

    def _handle_kbs_release(self) -> None:
        payload = self._read_json()
        self._send(200, self.server.gateway.cluster().kbs_release(payload))


class RestServer(ThreadingHTTPServer):
    """A gateway bound to a localhost HTTP port."""

    daemon_threads = True

    def __init__(self, gateway: Gateway, port: int = 0,
                 host: str = "127.0.0.1") -> None:
        self.gateway = gateway
        super().__init__((host, port), _Handler)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        """Serve on a daemon thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"confbench-rest-{self.port}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the server down and join the thread."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> "RestServer":
        self.start_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
