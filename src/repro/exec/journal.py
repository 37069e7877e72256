"""Checkpoint/resume journal: completed sweep rows as JSON-lines.

A sweep appends one ``{"key": <config hash>, "row": {...}}`` line per
completed point (after a manifest header line).  Killing the sweep at
any instant loses at most the in-flight points: a re-run with
``resume=True`` loads the journal, skips every journaled key and only
simulates the remainder.  A truncated final line — the signature of a
mid-write kill — is detected and ignored on load.

Only the coordinator process ever writes the journal (warm workers
ship rows back over their result pipes; they never touch the file), so
rows land in *completion* order — which under cost-aware scheduling is
not grid order.  ``load()`` returns a key-addressed dict precisely so
resume is order-independent.  :meth:`SweepJournal.start` opens the
file once per sweep and writes the manifest through the same handle
that every append then uses, with an explicit flush per line, so a
``SIGKILL`` still loses at most the line being written.

Corruption *anywhere* in the file — not just the truncated tail — is
survivable: a mid-file line that fails to parse (disk corruption, a
concurrent writer, a hand edit) is skipped with a warning, counted in
:attr:`SweepJournal.skipped_lines` (surfaced as
``journal_skipped_lines`` in run telemetry), and the affected keys
simply re-run on resume because they never enter the loaded dict.

A resumed run keeps the file only under a current manifest: a foreign
one, or one from an older ``KEY_FORMAT``, loads as empty, so the file
is rewritten rather than appended to under a header every later load
would reject again.
"""

from __future__ import annotations

import json
import pathlib
import typing
import warnings

from .hashing import KEY_FORMAT, canonical_json

__all__ = ["SweepJournal"]


def _is_current_manifest(line: str) -> bool:
    """True if ``line`` is a manifest header of this ``KEY_FORMAT``."""
    try:
        header = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(header, dict)
        and bool(header.get("_manifest"))
        and header.get("format") == KEY_FORMAT
    )


class SweepJournal:
    """Append-only JSON-lines record of completed sweep points."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._fh: typing.IO[str] | None = None
        #: corrupt/unparseable lines the most recent :meth:`load` skipped
        self.skipped_lines = 0

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> dict[str, dict[str, typing.Any]]:
        """Read back ``{key: row}`` for every intact journaled point.

        Tolerates a missing file, a foreign/old manifest (returns
        nothing, so every point re-runs) and corrupt or truncated
        lines *anywhere* in the file — each skipped line is counted in
        :attr:`skipped_lines` and a single warning summarizes them, so
        silent data loss is impossible and the affected keys re-run.
        """
        self.skipped_lines = 0
        if not self.exists():
            return {}
        done: dict[str, dict[str, typing.Any]] = {}
        with self.path.open() as fh:
            if not _is_current_manifest(fh.readline()):
                return done
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    # mid-file corruption or a truncated tail from a
                    # killed run: skip the line, re-run its point
                    self.skipped_lines += 1
                    continue
                if not isinstance(entry, dict):
                    self.skipped_lines += 1
                    continue
                key, row = entry.get("key"), entry.get("row")
                if isinstance(key, str) and isinstance(row, dict):
                    done[key] = row
                else:
                    self.skipped_lines += 1
        if self.skipped_lines:
            warnings.warn(
                f"journal {self.path}: skipped {self.skipped_lines} "
                "corrupt line(s); the affected points will re-run",
                RuntimeWarning,
                stacklevel=2,
            )
        return done

    def start(self, resume: bool = False) -> None:
        """Begin a run: keep a current journal when resuming, else rewrite it.

        Either way this opens the handle :meth:`append` then writes
        through, until :meth:`close`.
        """
        self.close()
        if resume and self.exists():
            with self.path.open() as fh:
                current = _is_current_manifest(fh.readline())
            if current:
                self._fh = self.path.open("a")
                return
        from .. import __version__

        self.path.parent.mkdir(parents=True, exist_ok=True)
        manifest = {"_manifest": True, "format": KEY_FORMAT, "repro": __version__}
        self._fh = self.path.open("w")
        self._fh.write(json.dumps(manifest) + "\n")
        self._fh.flush()

    def append(self, key: str, row: dict[str, typing.Any]) -> None:
        """Record one completed point (flushed immediately)."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a")
        self._fh.write(canonical_json({"key": key, "row": row}) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Release the held handle (the executor calls this after a run)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
