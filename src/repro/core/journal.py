"""Durable trial journal: crash-safe progress for long sweeps.

Long secure-vs-normal sweeps die mid-run on real TEE hosts — host
crashes, collateral outages, stuck guests — and restarting from trial
0 throws away hours of work.  The journal makes sweep progress
*durable*: :class:`~repro.core.runner.TrialRunner` appends one JSONL
entry per completed (or degraded) trial, keyed by the trial spec's
content hash, and a later run opened against the same journal replays
the archived results and executes only the missing tail.

Because :func:`~repro.core.runner.execute_trial` is a pure function of
its spec and :class:`~repro.tee.vm.RunResult` round-trips losslessly
through ``to_dict``/``from_dict`` (trace included), a resumed sweep is
bit-identical to an uninterrupted one — serial or parallel, faulted or
not.

Durability model
----------------
- ``put`` is an atomic append: one ``write`` of a complete line,
  then ``flush`` + ``fsync``.  A SIGKILL between trials loses nothing;
  a SIGKILL *during* the write can leave at most one torn final line.
- On open, a torn final line (no trailing newline, or unparseable) is
  detected and truncated — never fatal.  Corrupt lines elsewhere in
  the file are skipped with a warning; their trials simply re-execute.
- A non-empty file whose first line is not the journal header is
  refused with a :class:`~repro.errors.GatewayError` and left
  byte-identical: the journal only ever truncates files it wrote.  The
  one exception is a file holding nothing but a prefix of the header
  (a torn first write), which is truncated like any torn line.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

from repro.errors import GatewayError

#: Journal format version, bumped on incompatible entry changes.
JOURNAL_VERSION = 1

#: The first line of every journal file.
_HEADER = json.dumps({"kind": "journal", "version": JOURNAL_VERSION}) + "\n"


class TrialJournal:
    """Append-only JSONL journal of completed trial results.

    The first line is a header (``{"kind": "journal", "version": 1}``);
    every further line is ``{"kind": "trial", "hash": <spec content
    hash>, "result": <RunResult.to_dict()>}``.  The newest entry for a
    hash wins.  Plugs into :class:`~repro.core.runner.TrialRunner` via
    its ``get``/``put`` pair.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.parent.is_dir():
            raise GatewayError(
                f"journal directory does not exist: {self.path.parent}")
        if self.path.is_dir():
            raise GatewayError(f"journal path is a directory: {self.path}")
        self._entries: dict[str, dict] = {}
        #: spec hashes served back out of the journal this session
        self.replayed = 0
        #: entries appended this session
        self.recorded = 0
        #: human-readable recovery notes (torn line, skipped entries)
        self.warnings: list[str] = []
        self._recover()
        self._handle = self.path.open("a", encoding="utf-8")

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Load existing entries, repairing crash damage.

        A process killed mid-append leaves a final line without its
        trailing newline (or an incomplete JSON document); that line is
        *truncated* so later appends start on a clean boundary.  A
        crash tears at most that one line, so bad lines before it stay
        in the file and are skipped with a warning — the trials they
        held simply run again.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        if not raw:
            return
        self._check_header(raw)
        keep = len(raw)
        if not raw.endswith(b"\n"):
            keep = raw.rfind(b"\n") + 1
            self._warn(f"{self.path}: truncated torn final line "
                       f"({len(raw) - keep} bytes)")
        # newline-stripped complete lines; byte-level so the truncation
        # offsets below stay exact even for undecodable content
        lines = raw[:keep].split(b"\n")[:-1] if keep else []
        # with its newline in place, a final line that does not parse
        # is the torn one (e.g. the flush landed but part of the write
        # did not)
        if keep == len(raw) and lines and self._parse(
                lines[-1], len(lines), final=True) is None:
            tail = lines.pop()
            keep -= len(tail) + 1
            self._warn(f"{self.path}: truncated torn final line "
                       f"(line {len(lines) + 1})")
        for line_number, line in enumerate(lines, start=1):
            entry = self._parse(line, line_number, final=False)
            if entry is not None:
                spec_hash, payload = entry
                if spec_hash:   # "" is the header/blank sentinel
                    self._entries[spec_hash] = payload
        if keep < len(raw):
            with self.path.open("r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())

    def _check_header(self, raw: bytes) -> None:
        """Refuse a file this class did not write, before touching it.

        Every journal starts with the header line, so a non-empty file
        whose first newline-terminated line is not a header — a text
        file, an old headerless result cache — is some other file, and
        the torn-line repair below must not truncate it.  A file with
        no newline at all is a torn first write only if it is a prefix
        of the header.
        """
        first, newline, _ = raw.partition(b"\n")
        if not newline and _HEADER.encode().startswith(raw):
            return
        try:
            header = json.loads(first) if newline else None
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != "journal":
            raise GatewayError(
                f"{self.path}: not a trial journal (its first line is not "
                "a journal header); refusing to modify it")

    def _parse(self, line: bytes, line_number: int,
               final: bool) -> tuple[str, dict] | None:
        """One journal line -> ``(hash, result)``, or None if unusable.

        Header and blank lines return a sentinel entry-free value via
        the caller (they are valid but carry no result); for torn-line
        detection (``final=True``) they count as parseable.
        """
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            return ("", {}) if final else None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            if not final:
                self._warn(f"{self.path}:{line_number}: "
                           "skipped corrupt journal line")
            return None
        if not isinstance(payload, dict):
            if not final:
                self._warn(f"{self.path}:{line_number}: "
                           "skipped non-object journal line")
            return None
        kind = payload.get("kind")
        if kind == "journal":
            if payload.get("version") != JOURNAL_VERSION:
                raise GatewayError(
                    f"{self.path}: unsupported journal version "
                    f"{payload.get('version')!r} (expected {JOURNAL_VERSION})")
            return ("", {})
        if kind != "trial" or "hash" not in payload \
                or not isinstance(payload.get("result"), dict):
            if not final:
                self._warn(f"{self.path}:{line_number}: "
                           f"skipped journal entry of kind {kind!r}")
            # a well-formed JSON object with the wrong shape is not
            # torn — keep it in the file, just do not use it
            return ("", {}) if final else None
        return (payload["hash"], payload["result"])

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        warnings.warn(message, stacklevel=3)

    # -- the runner protocol -------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec):
        """The journaled result for ``spec``, or None when absent."""
        from repro.tee.vm import RunResult

        payload = self._entries.get(spec.content_hash())
        if payload is None:
            return None
        self.replayed += 1
        return RunResult.from_dict(payload)

    def put(self, spec, result) -> None:
        """Durably append ``result`` under ``spec``'s content hash.

        One write of a complete line, flushed and fsynced, so a crash
        after ``put`` returns can never lose the entry.  Re-putting an
        already-journaled hash is a no-op (resume paths replay results
        and then re-offer them).
        """
        spec_hash = spec.content_hash()
        if spec_hash in self._entries:
            return
        payload = result.to_dict()
        if os.fstat(self._handle.fileno()).st_size == 0:
            self._handle.write(_HEADER)
        self._entries[spec_hash] = payload
        # No sort_keys: key order in the payload (e.g. span breakdowns)
        # must survive the round-trip, or replayed results would not be
        # byte-identical to live ones when re-serialised.
        self._handle.write(json.dumps(
            {"kind": "trial", "hash": spec_hash, "result": payload}) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.recorded += 1

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"TrialJournal(path={str(self.path)!r}, "
                f"entries={len(self._entries)}, replayed={self.replayed}, "
                f"recorded={self.recorded})")
