"""HTTP client for the REST interface.

Talks the versioned ``/v1`` API and understands the uniform error
envelope (``{"error": {"code", "message"}}``).

A 429 (``overloaded``) response is honored, not just reported: the
client waits out the envelope's ``retry_after_ns`` hint (capped at
:attr:`max_retry_wait_s`) and retries up to :attr:`overload_retries`
times before surfacing :class:`~repro.errors.OverloadedError`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.errors import GatewayError, OverloadedError


class ConfBenchClient:
    """Talks to a :class:`repro.core.rest.RestServer` over HTTP."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080,
                 timeout: float = 30.0, overload_retries: int = 2,
                 max_retry_wait_s: float = 1.0) -> None:
        if overload_retries < 0:
            raise GatewayError(
                f"overload_retries must be >= 0, got {overload_retries}")
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        #: extra attempts after a 429 before giving up
        self.overload_retries = overload_retries
        #: wall-clock cap on honoring one retry_after_ns hint
        self.max_retry_wait_s = max_retry_wait_s

    @staticmethod
    def _error_detail(body: bytes) -> str:
        """The error envelope's ``[code] message``; empty for a body
        that is not an envelope (a proxy's error page, say)."""
        try:
            error = json.loads(body)["error"]
            code, message = error.get("code", ""), error.get("message", "")
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
            return ""
        return f"[{code}] {message}" if code else str(message)

    @staticmethod
    def _retry_after_ns(body: bytes) -> float:
        """The 429 envelope's drain-time hint (0.0 when absent)."""
        try:
            error = json.loads(body).get("error", {})
        except (json.JSONDecodeError, AttributeError):
            return 0.0
        if isinstance(error, dict):
            try:
                return max(0.0, float(error.get("retry_after_ns", 0.0)))
            except (TypeError, ValueError):
                return 0.0
        return 0.0

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> Any:
        url = f"{self.base_url}{path}"
        data = json.dumps(payload).encode() if payload is not None else None
        attempts_left = self.overload_retries
        while True:
            request = urllib.request.Request(
                url, data=data, method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as resp:
                    return json.loads(resp.read())
            except urllib.error.HTTPError as exc:
                try:
                    body = exc.read()
                except OSError:
                    body = b""
                if exc.code == 429:
                    hint_ns = self._retry_after_ns(body)
                    if attempts_left > 0:
                        attempts_left -= 1
                        time.sleep(min(hint_ns / 1e9,
                                       self.max_retry_wait_s))
                        continue
                    raise OverloadedError(
                        f"{method} {path} still overloaded after "
                        f"{self.overload_retries} retries: "
                        f"{self._error_detail(body)}",
                        retry_after_ns=hint_ns,
                    ) from exc
                raise GatewayError(
                    f"{method} {path} failed with {exc.code}: "
                    f"{self._error_detail(body)}"
                ) from exc
            except urllib.error.URLError as exc:
                raise GatewayError(
                    f"cannot reach gateway at {url}: {exc}") from exc

    # -- API methods ----------------------------------------------------

    def health(self) -> dict:
        """GET /v1/health."""
        return self._request("GET", "/v1/health")

    def platforms(self) -> list[dict]:
        """GET /v1/platforms."""
        return self._request("GET", "/v1/platforms")

    def functions(self) -> list[str]:
        """GET /v1/functions."""
        return self._request("GET", "/v1/functions")

    def upload(self, name: str,
               languages: list[str] | None = None) -> dict:
        """POST /v1/functions."""
        payload: dict[str, Any] = {"name": name}
        if languages is not None:
            payload["languages"] = languages
        return self._request("POST", "/v1/functions", payload)

    def invoke(self, function: str, language: str, platform: str = "tdx",
               secure: bool = True, args: dict | None = None,
               trials: int | None = None) -> list[dict]:
        """POST /v1/invoke; returns per-trial records."""
        payload: dict[str, Any] = {
            "function": function,
            "language": language,
            "platform": platform,
            "secure": secure,
            "args": args if args is not None else {},
        }
        if trials is not None:
            payload["trials"] = trials
        return self._request("POST", "/v1/invoke", payload)

    def cluster_run(self, **params: Any) -> dict:
        """POST /v1/cluster/run — run one cluster sweep.

        Keyword parameters mirror the documented body fields
        (``hosts``, ``requests``, ``rate_rps``, ``process``,
        ``secure_fraction``, ``seed``, ``strategy``, ``signed``).  A
        429 while another sweep runs is retried per the client's
        overload policy before surfacing.
        """
        return self._request("POST", "/v1/cluster/run", params)

    def cluster_report(self) -> dict:
        """GET /v1/cluster/report — the last completed sweep."""
        return self._request("GET", "/v1/cluster/report")

    def kbs_release(self, vm_id: str, platform: str = "tdx",
                    key_ids: list[str] | None = None,
                    tamper_evidence: bool = False) -> dict:
        """POST /v1/kbs/release — attestation-gated key release.

        A denial surfaces as :class:`~repro.errors.GatewayError`
        carrying the ``[release_denied]`` envelope detail.
        """
        payload: dict[str, Any] = {"vm_id": vm_id, "platform": platform}
        if key_ids is not None:
            payload["key_ids"] = key_ids
        if tamper_evidence:
            payload["tamper_evidence"] = True
        return self._request("POST", "/v1/kbs/release", payload)

    def metrics(self) -> dict:
        """GET /v1/metrics — the gateway's metrics-registry snapshot."""
        return self._request("GET", "/v1/metrics")

    def stats(self) -> dict:
        """GET /v1/stats — the gateway's supervision counters."""
        return self._request("GET", "/v1/stats")
