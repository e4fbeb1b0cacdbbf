"""Result archive: persist and compare benchmark runs.

The paper releases its datasets alongside the tool; this module is
the repository side of that workflow — invocation records are saved
as JSON-lines with run metadata (seed, version, label), reloaded for
analysis, and two archived runs can be diffed for ratio drift (useful
for regression-tracking TEE stacks across firmware/kernel updates,
exactly the before/after comparison §III-B's firmware anecdote needed).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.core.results import InvocationRecord
from repro.errors import GatewayError
from repro.version import __version__


def _atomic_write(path: Path, text: str) -> None:
    """Replace ``path``'s contents crash-safely.

    The text goes to a temporary file in the same directory (so the
    rename cannot cross filesystems), is fsynced, and then atomically
    renamed over the target — a reader never sees a half-written file,
    and a crash mid-write leaves the previous contents intact.
    """
    handle_fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(handle_fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


@dataclass
class ArchivedRun:
    """One saved measurement run."""

    label: str
    seed: int
    version: str
    records: list[InvocationRecord]

    def key_ratios(self) -> dict[tuple[str, str | None, str], float]:
        """Mean secure/normal ratio per (function, language, platform).

        Only keys with trials on both sides appear.
        """
        buckets: dict[tuple, dict[bool, list[float]]] = {}
        for record in self.records:
            key = (record.function, record.language, record.platform)
            buckets.setdefault(key, {True: [], False: []})[
                record.secure
            ].append(record.elapsed_ns)
        ratios = {}
        for key, sides in buckets.items():
            if sides[True] and sides[False]:
                ratios[key] = (
                    sum(sides[True]) / len(sides[True])
                ) / (sum(sides[False]) / len(sides[False]))
        return ratios


class ResultStore:
    """JSON-lines persistence for invocation records.

    Writes are crash-safe (tempfile + atomic rename: a crash mid-save
    never corrupts previously saved runs) and loads are tolerant:
    corrupt or truncated lines — the residue of a crash predating the
    atomic-write scheme, or of external tampering — are skipped with a
    warning instead of making the whole archive unreadable.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: human-readable notes about lines skipped by the last load
        self.warnings: list[str] = []

    def save(self, label: str, seed: int,
             records: list[InvocationRecord]) -> None:
        """Append one run (header line + one line per record)."""
        if not records:
            raise GatewayError("refusing to save an empty run")
        existing = (self.path.read_text(encoding="utf-8")
                    if self.path.exists() else "")
        header = {"kind": "run", "label": label, "seed": seed,
                  "version": __version__, "records": len(records)}
        lines = [json.dumps(header)]
        lines.extend(json.dumps({"kind": "record", **record.to_dict()})
                     for record in records)
        _atomic_write(self.path, existing + "\n".join(lines) + "\n")

    def _skip(self, line_number: int, reason: str) -> None:
        message = f"{self.path}:{line_number}: {reason} (line skipped)"
        self.warnings.append(message)
        warnings.warn(message, stacklevel=3)

    def load(self) -> list[ArchivedRun]:
        """All archived runs, in file order.

        Unreadable lines are skipped (with a warning recorded in
        :attr:`warnings`): one corrupt line costs one line of data,
        not the whole archive.
        """
        self.warnings = []
        if not self.path.exists():
            return []
        runs: list[ArchivedRun] = []
        with self.path.open(encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    self._skip(line_number, f"bad JSON: {exc}")
                    continue
                if not isinstance(payload, dict):
                    self._skip(line_number, "not a JSON object")
                    continue
                if payload.get("kind") == "run":
                    runs.append(ArchivedRun(
                        label=payload.get("label", "?"),
                        seed=payload.get("seed", 0),
                        version=payload.get("version", "?"),
                        records=[],
                    ))
                elif payload.get("kind") == "record":
                    if not runs:
                        self._skip(line_number, "record before any run")
                        continue
                    payload.pop("kind")
                    try:
                        record = InvocationRecord(**payload)
                    except TypeError as exc:
                        self._skip(line_number, f"bad record: {exc}")
                        continue
                    runs[-1].records.append(record)
                else:
                    self._skip(
                        line_number,
                        f"unknown kind {payload.get('kind')!r}")
        return runs

    def run(self, label: str) -> ArchivedRun:
        """One archived run by label (the last with that label)."""
        matches = [run for run in self.load() if run.label == label]
        if not matches:
            raise GatewayError(f"no archived run labelled {label!r}")
        return matches[-1]


def compare_runs(before: ArchivedRun,
                 after: ArchivedRun) -> dict[tuple, dict[str, float]]:
    """Ratio drift between two runs for every shared key.

    Returns ``{key: {"before": r, "after": r, "drift_percent": d}}``.
    """
    before_ratios = before.key_ratios()
    after_ratios = after.key_ratios()
    shared = set(before_ratios) & set(after_ratios)
    if not shared:
        raise GatewayError("the runs share no (function, language, platform)")
    return {
        key: {
            "before": before_ratios[key],
            "after": after_ratios[key],
            "drift_percent": (
                (after_ratios[key] / before_ratios[key]) - 1.0
            ) * 100.0,
        }
        for key in sorted(shared)
    }
