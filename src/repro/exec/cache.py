"""Content-addressed result cache: config hash -> JSON row on disk.

Re-running a figure only simulates points whose config changed; every
other point is served from ``.repro-cache/results/<key>.json``.  Each
entry stores the originating config dict alongside the row, so a cache
directory is self-describing and auditable with nothing but ``jq`` —
and scannable into query surfaces by :mod:`repro.serve`.

Writes go through a temp file + ``os.replace`` so a crash mid-write
can never leave a truncated entry behind; corrupt, unreadable,
malformed (``row`` not a JSON object) or misfiled (inner ``key`` not
the file's) entries are treated as misses and overwritten on the next
run.  A crash *between* the temp-file write and the rename leaves a
``<key>.json.tmp`` orphan: scans skip those and :meth:`clear` sweeps
them up alongside the real entries.

Hit/miss accounting goes through a :class:`~repro.obs.registry.
MetricsRegistry`, so sweep telemetry and the serve layer share one
metrics path: ``cache.hits`` and ``cache.misses`` are the registry's
``result_cache_hits`` / ``result_cache_misses`` counters themselves.
"""

from __future__ import annotations

import json
import os
import pathlib
import typing

from ..obs.registry import MetricsRegistry
from .hashing import KEY_FORMAT, canonical_json

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..network.bss import ScenarioConfig

__all__ = ["DEFAULT_CACHE_DIR", "CacheEntry", "ResultCache"]

#: conventional cache location, relative to the invoking directory
DEFAULT_CACHE_DIR = ".repro-cache"

#: suffix of the atomic-write staging files (never valid entries)
_TMP_SUFFIX = ".json.tmp"


class CacheEntry(typing.NamedTuple):
    """One scanned cache entry: key, originating config, result row."""

    key: str
    config: dict[str, typing.Any] | None
    row: dict[str, typing.Any]


class ResultCache:
    """Directory of ``<key>.json`` result rows keyed by config hash."""

    def __init__(
        self,
        root: str | pathlib.Path = DEFAULT_CACHE_DIR,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.results_dir = self.root / "results"
        self.registry = registry if registry is not None else MetricsRegistry()
        #: rows served from disk
        self.hits = self.registry.counter("result_cache_hits")
        #: keys with no usable entry
        self.misses = self.registry.counter("result_cache_misses")

    def _path(self, key: str) -> pathlib.Path:
        return self.results_dir / f"{key}.json"

    def _entry_paths(self) -> typing.Iterator[pathlib.Path]:
        """Candidate entry files, skipping atomic-write orphans."""
        if not self.results_dir.is_dir():
            return iter(())
        return (
            path
            for path in sorted(self.results_dir.glob("*.json"))
            if not path.name.endswith(_TMP_SUFFIX)
        )

    def get(self, key: str) -> dict[str, typing.Any] | None:
        """Return the cached row for ``key``, or ``None`` on a miss.

        The decoded row is returned as it is (the executor does not
        normalize it again), so this is the one check between a file
        and a returned row: an entry of another format, one whose
        ``row`` is not a JSON object, or one filed under a key other
        than its own ``key`` is a miss, and the next ``put`` rewrites
        it.
        """
        try:
            with open(os.path.join(self.results_dir, key + ".json"), "rb") as fh:
                entry = json.loads(fh.read())
        except (OSError, ValueError):
            self.misses.inc()
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != KEY_FORMAT
            or entry.get("key") != key
            or not isinstance(entry.get("row"), dict)
        ):
            self.misses.inc()
            return None
        self.hits.inc()
        return entry["row"]

    def put(
        self,
        key: str,
        row: dict[str, typing.Any],
        config: "ScenarioConfig | None" = None,
    ) -> pathlib.Path:
        """Store ``row`` under ``key`` atomically; returns the entry path."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": KEY_FORMAT,
            "key": key,
            "config": config.to_dict() if config is not None else None,
            "row": row,
        }
        path = self._path(key)
        tmp = path.with_suffix(_TMP_SUFFIX)
        tmp.write_text(canonical_json(entry))
        os.replace(tmp, path)
        return path

    def entries(self) -> typing.Iterator[CacheEntry]:
        """Scan every readable entry (sorted by key, for determinism).

        Corrupt, foreign-format, malformed, misfiled and orphaned
        ``.json.tmp`` files are skipped silently — exactly the entries
        :meth:`get` refuses, without charging misses — so a scan and a
        lookup agree on what the cache holds.  This is the read path
        the serve layer's surface index is built from.
        """
        for path in self._entry_paths():
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if (
                not isinstance(entry, dict)
                or entry.get("format") != KEY_FORMAT
                or entry.get("key") != path.stem
                or not isinstance(entry.get("row"), dict)
            ):
                continue
            config = entry.get("config")
            yield CacheEntry(
                key=entry["key"],
                config=config if isinstance(config, dict) else None,
                row=entry["row"],
            )

    def __len__(self) -> int:
        """How many entries :meth:`entries` yields."""
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed.

        Also sweeps up ``.json.tmp`` orphans a crash between the
        temp-file write and ``os.replace`` left behind (they are not
        counted — they were never entries).
        """
        removed = 0
        if self.results_dir.is_dir():
            for path in self.results_dir.glob(f"*{_TMP_SUFFIX}"):
                path.unlink(missing_ok=True)
            for path in self.results_dir.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed
