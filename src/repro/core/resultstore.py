"""Result archive: persist and compare benchmark runs.

The paper releases its datasets alongside the tool; this module is
the repository side of that workflow — invocation records are saved
as JSON-lines with run metadata (seed, version, label), reloaded for
analysis, and two archived runs can be diffed for ratio drift (useful
for regression-tracking TEE stacks across firmware/kernel updates,
exactly the before/after comparison §III-B's firmware anecdote needed).
The archive file follows the trial journal's append-only rules
(:class:`~repro.core.journal.JsonLines`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.journal import JsonLines
from repro.core.results import InvocationRecord
from repro.errors import GatewayError
from repro.version import __version__


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

    The archive is an append-only :class:`~repro.core.journal.JsonLines`
    file, like the trial journal: a save appends one run header and its
    records in one write, and a crash mid-save costs only that run's
    torn tail.  Loads are read-only and tolerant: a torn final line and
    bad lines elsewhere are skipped with a warning instead of making
    the whole archive unreadable.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = JsonLines(self.path, {"kind": "run"}, "result archive")
        #: human-readable notes about torn and skipped lines (each load
        #: starts afresh)
        self.warnings = self._file.warnings

    def check(self) -> None:
        """Refuse now, without writing, a path :meth:`save` would
        refuse (a foreign file, a missing directory)."""
        self._file.check()

    def save(self, label: str, seed: int,
             records: list[InvocationRecord]) -> None:
        """Append one run (header line + one line per record)."""
        if not records:
            raise GatewayError("refusing to save an empty run")
        header = {"kind": "run", "label": label, "seed": seed,
                  "version": __version__, "records": len(records)}
        self._file.open()
        try:
            self._file.append([header, *(
                {"kind": "record", **record.to_dict()} for record in records)])
        finally:
            self._file.close()

    def load(self) -> list[ArchivedRun]:
        """All archived runs, in file order.

        Unreadable lines are skipped (with a warning recorded in
        :attr:`warnings`): one corrupt line costs one line of data,
        not the whole archive.
        """
        self.warnings.clear()
        runs: list[ArchivedRun] = []
        for number, entry in self._file.read():
            kind = entry.pop("kind", None)
            if kind == "run":
                runs.append(ArchivedRun(
                    label=entry.get("label", "?"),
                    seed=entry.get("seed", 0),
                    version=entry.get("version", "?"),
                    records=[],
                ))
            elif kind != "record":
                self._file.skip(number, f"line of unknown kind {kind!r}")
            elif not runs:
                self._file.skip(number, "record before any run")
            else:
                try:
                    runs[-1].records.append(InvocationRecord(**entry))
                except TypeError as exc:
                    self._file.skip(number, f"bad record: {exc}")
        return runs


def find_run(runs: list[ArchivedRun], label: str) -> ArchivedRun:
    """One archived run by label (the last with that label)."""
    matches = [run for run in runs if run.label == label]
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
