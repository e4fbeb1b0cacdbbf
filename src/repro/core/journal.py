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
:class:`JsonLines` is the one file discipline of both on-disk stores:
this journal and the run archive of
:class:`~repro.core.resultstore.ResultStore`.

- An append is one ``write`` of complete lines, then ``flush`` +
  ``fsync``.  A SIGKILL between appends loses nothing; a SIGKILL
  *during* one can leave at most one torn final line.
- A torn final line (no trailing newline, or not a JSON object) is
  left out of every read and truncated before the next append — never
  fatal.  Bad lines elsewhere are skipped with a warning; the trials
  they held simply re-execute.
- Before it modifies a non-empty file, a store checks that the first
  line is its own first entry (the journal header here, a run header
  in the archive).  Any other file is refused with a
  :class:`~repro.errors.GatewayError` and left byte-identical: a store
  only ever truncates files it wrote.  The one exception is a file
  holding nothing but the start of a first entry (a torn first write),
  which is truncated like any torn line.
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
_HEADER = {"kind": "journal", "version": JOURNAL_VERSION}

#: Bytes read at a time while looking for a file's first or final lines.
_BLOCK = 4096


def _object(line: bytes) -> dict | None:
    """One line as a JSON object, or None when it is not one."""
    try:
        value = json.loads(line)
    except ValueError:   # UnicodeDecodeError included
        return None
    return value if isinstance(value, dict) else None


def _head(handle) -> bytes:
    """The first line through its newline, or the whole file if it
    has none."""
    head = b""
    while b"\n" not in head:
        block = handle.read(_BLOCK)
        if not block:
            return head
        head += block
    return head[:head.index(b"\n") + 1]


def _tail(handle) -> tuple[int, bytes]:
    """``(offset, bytes)``: the file from just past the newline before
    its final line, or from its start, to its end."""
    offset, tail = handle.seek(0, os.SEEK_END), b""
    while offset and tail.count(b"\n") < 2:
        step = min(_BLOCK, offset)
        offset -= step
        handle.seek(offset)
        tail = handle.read(step) + tail
    return offset, tail


class JsonLines:
    """One append-only JSON-lines file with its crash-safety rules.

    ``header`` holds the keys the first line must carry (its ``kind``
    names the store's first entry), and ``name`` names the store in
    errors and warnings.  What the entries mean is the store's business.
    """

    def __init__(self, path: Path, header: dict, name: str) -> None:
        self.path = path
        self._header = header
        self._name = name
        #: the noun of line warnings ("journal", "archive")
        self._noun = name.rpartition(" ")[2]
        #: human-readable recovery notes (torn line, skipped lines)
        self.warnings: list[str] = []
        #: the file's size in bytes while open for appending
        self.size = 0
        self._handle = None

    def read(self) -> list[tuple[int, dict]]:
        """Read-only: the file's entries, leaving a torn tail out."""
        if not self.path.exists():
            return []
        raw = self.path.read_bytes()
        return self.entries(raw[:self._clean_length(raw, "ignored")])

    def check(self) -> None:
        """Refuse, without writing, what :meth:`open` would refuse: a
        missing directory, a directory, or a foreign file.  Reads only
        the first line."""
        if not self.path.parent.is_dir():
            raise GatewayError(f"{self._noun} directory does not exist: "
                               f"{self.path.parent}")
        if self.path.is_dir():
            raise GatewayError(f"{self._noun} path is a directory: "
                               f"{self.path}")
        if self.path.exists():
            with self.path.open("rb", buffering=0) as handle:
                head = _head(handle)
            if head:
                self._check_header(head)

    def open(self) -> None:
        """Open for appending, reading only the first and final lines.

        A foreign file is refused before anything is written, and a
        torn final line is truncated so appends start on a clean
        boundary.
        """
        self.check()
        offset, tail = 0, b""
        if self.path.exists():
            with self.path.open("rb", buffering=0) as handle:
                offset, tail = _tail(handle)
        self.size = offset + self._clean_length(tail, "truncated")
        self._handle = self.path.open("ab")
        if self.size < offset + len(tail):
            self._handle.truncate(self.size)
            os.fsync(self._handle.fileno())

    def _check_header(self, head: bytes) -> None:
        """Refuse a file whose first line (``head``) is not this store's
        first entry.  A file with no newline at all is a torn first
        write only if it and the start of a first entry agree."""
        kind = self._header["kind"]
        first, newline, _ = head.partition(b"\n")
        stem = json.dumps(self._header).encode()[:-1]
        if not newline and (stem.startswith(head) or head.startswith(stem)):
            return
        header = _object(first) if newline else None
        if header is None or header.get("kind") != kind:
            raise GatewayError(
                f"{self.path}: not a {self._name} (its first line is not "
                f"a {kind} header); refusing to modify it")
        for key, expected in self._header.items():
            if header.get(key) != expected:
                raise GatewayError(
                    f"{self.path}: unsupported {kind} {key} "
                    f"{header.get(key)!r} (expected {expected!r})")

    def _clean_length(self, raw: bytes, fate: str) -> int:
        """``raw``'s length without its torn final line, if any; ``raw``
        is the whole file or a tail of it from :func:`_tail`.

        A crash tears at most the last line: it lacks its newline, or
        the newline landed but part of the write did not, so it is not
        a JSON object.  Bad lines before it stay and are skipped.
        """
        keep = raw.rfind(b"\n") + 1
        if raw and keep == len(raw):
            start = raw.rfind(b"\n", 0, -1) + 1
            line = raw[start:-1]
            if line.strip() and _object(line) is None:
                keep = start
        if keep < len(raw):
            self._warn(f"{self.path}: {fate} torn final line "
                       f"({len(raw) - keep} bytes)")
        return keep

    def entries(self, raw: bytes) -> list[tuple[int, dict]]:
        """Each JSON-object line of ``raw`` with its 1-based number;
        blank lines are passed over, bad ones skipped with a warning."""
        entries = []
        for number, line in enumerate(raw.split(b"\n")[:-1], start=1):
            if not line.strip():
                continue
            entry = _object(line)
            if entry is None:
                self.skip(number, f"corrupt {self._noun} line")
            else:
                entries.append((number, entry))
        return entries

    def skip(self, number: int, what: str) -> None:
        """Warn that line ``number`` was skipped."""
        self._warn(f"{self.path}:{number}: skipped {what}")

    def _warn(self, message: str) -> None:
        self.warnings.append(message)
        warnings.warn(message, stacklevel=3)

    def append(self, entries: list[dict]) -> None:
        """Durably append ``entries``: one write of complete lines,
        flushed and fsynced, so a crash after it returns loses none.

        No sort_keys: key order in a payload (e.g. span breakdowns)
        must survive the round-trip, or replayed results would not be
        byte-identical to live ones when re-serialised.
        """
        data = "".join(json.dumps(entry) + "\n" for entry in entries).encode()
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.size += len(data)

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()


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
        self._file = JsonLines(self.path, _HEADER, "trial journal")
        self._entries: dict[str, dict] = {}
        #: spec hashes served back out of the journal this session
        self.replayed = 0
        #: entries appended this session
        self.recorded = 0
        #: human-readable recovery notes (torn line, skipped entries)
        self.warnings = self._file.warnings
        self._file.open()
        for number, entry in self._file.entries(self.path.read_bytes()):
            kind = entry.get("kind")
            if kind == "trial" and "hash" in entry \
                    and isinstance(entry.get("result"), dict):
                self._entries[entry["hash"]] = entry["result"]
            elif kind != "journal":
                self._file.skip(number, f"journal entry of kind {kind!r}")

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
        self._entries[spec_hash] = payload
        entry = {"kind": "trial", "hash": spec_hash, "result": payload}
        self._file.append([entry] if self._file.size else [_HEADER, entry])
        self.recorded += 1

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        self._file.close()

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"TrialJournal(path={str(self.path)!r}, "
                f"entries={len(self._entries)}, replayed={self.replayed}, "
                f"recorded={self.recorded})")
