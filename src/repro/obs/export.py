"""Trace export: span trees → Chrome trace-event JSON and JSONL.

Every trial records a :class:`~repro.sim.trace.Trace` (ordered
:class:`~repro.sim.trace.Span` records on the virtual clock).  The
:class:`TraceExporter` renders those traces to:

- **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format
  ``chrome://tracing`` and Perfetto load.  Each trial becomes one
  virtual thread (``tid``), each plan one virtual process (``pid``),
  each span one complete ("X") event with its cost-category breakdown
  in ``args``.  Timestamps are the spans' *virtual* nanoseconds
  converted to trace-event microseconds.
- **JSONL** — one span record per line, each carrying the trial label
  it belongs to, for ad-hoc ``jq``-style analysis.

Exports are deterministic: trials are walked in spec order and JSON is
serialised with sorted keys and fixed separators, so a ``--jobs N``
run exports byte-identical bytes to a serial run of the same plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

#: Chrome trace-event timestamps are microseconds.
_NS_PER_US = 1000.0


def run_label(result) -> str:
    """The display label for one trial's thread.

    Derived from the result alone (workload, platform, secure flag,
    trial index) so gateway-collected runs — which have no TrialSpec —
    label identically to runner-collected ones.
    """
    side = "secure" if result.secure else "normal"
    return f"{result.workload}@{result.platform}/{side}#{result.trial}"


@dataclass(frozen=True)
class TraceRecord:
    """One trial's trace plus its identifying label."""

    pid: int            # virtual process: the plan (or collection) index
    tid: int            # virtual thread: the trial index within the pid
    label: str
    trace: Any          # repro.sim.trace.Trace (duck-typed)


class TraceExporter:
    """Renders a set of trial traces to standard tooling formats."""

    def __init__(self, records: list[TraceRecord]) -> None:
        self.records = records

    # -- constructors --------------------------------------------------

    @classmethod
    def from_history(cls, history: Iterable) -> "TraceExporter":
        """Build from :attr:`repro.core.runner.TrialRunner.history`.

        ``history`` is a list of ``(plan, results)`` pairs; results are
        in spec order, which fixes the export order regardless of how
        the trials were scheduled.
        """
        records: list[TraceRecord] = []
        for pid, (_, results) in enumerate(history):
            for tid, result in enumerate(results, start=1):
                records.append(TraceRecord(
                    pid=pid, tid=tid, label=run_label(result),
                    trace=result.trace))
        return cls(records)

    @classmethod
    def from_runs(cls, results: Iterable) -> "TraceExporter":
        """Build from a flat list of :class:`RunResult`-like objects
        (e.g. the gateway's run log)."""
        records = [
            TraceRecord(pid=0, tid=tid, label=run_label(result),
                        trace=result.trace)
            for tid, result in enumerate(results, start=1)
        ]
        return cls(records)

    # -- chrome trace-event format -------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """The trace-event list: thread metadata + one "X" per span."""
        events: list[dict[str, Any]] = []
        for record in self.records:
            events.append({
                "ph": "M",
                "name": "thread_name",
                "pid": record.pid,
                "tid": record.tid,
                "args": {"name": record.label},
            })
        for record in self.records:
            for span in record.trace:
                events.append({
                    "ph": "X",
                    "name": span.name,
                    "cat": "phase",
                    "ts": span.start_ns / _NS_PER_US,
                    "dur": span.duration_ns / _NS_PER_US,
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": {
                        "parent": span.parent,
                        "ledger_ns": span.ledger_ns,
                        "breakdown": dict(span.breakdown),
                    },
                })
        return events

    def to_chrome_json(self) -> str:
        """Canonical Chrome trace JSON (Perfetto-loadable).

        Sorted keys + fixed separators make equal traces serialise to
        equal bytes — the CI determinism job byte-compares this output
        between a serial and a ``--jobs N`` run.
        """
        payload = {
            "displayTimeUnit": "ns",
            "traceEvents": self.chrome_events(),
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"

    # -- span records (JSONL) ------------------------------------------

    def span_records(self) -> list[dict[str, Any]]:
        """One flat dict per span, labelled with its trial."""
        records: list[dict[str, Any]] = []
        for record in self.records:
            for span in record.trace:
                records.append({
                    "trial": record.label,
                    **span.to_dict(),
                })
        return records

    def to_jsonl(self) -> str:
        """One canonical JSON document per span, newline-separated."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.span_records()
        )

    # -- files ---------------------------------------------------------

    def write_chrome(self, path) -> int:
        """Write :meth:`to_chrome_json` to ``path``; returns the event
        count (metadata events included)."""
        text = self.to_chrome_json()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(self.chrome_events())

    def __len__(self) -> int:
        return len(self.records)
