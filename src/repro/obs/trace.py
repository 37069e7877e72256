"""Structured event tracing: :class:`TraceConfig` and :class:`TraceRecorder`.

A trace is a bounded ring of ``(time, seq, category, event, fields)``
tuples.  Components that can emit hold a ``trace`` attribute that is
``None`` unless the scenario was configured with tracing on *and* the
component's category is wanted — the hot path therefore pays exactly
one attribute load and one ``is None`` branch per potential event.

The JSONL export is deterministic: events are emitted at simulation
times, fields are plain JSON types, and lines are dumped with sorted
keys, so a fixed seed produces a byte-identical trace file across
runs, machines and (de)serialization round-trips.

Schema (one JSON object per line)::

    {"t": <sim time, number >= 0>,
     "seq": <int, strictly increasing>,
     "cat": <one of CATEGORIES>,
     "ev": <non-empty event name>,
     ...event-specific fields...}
"""

from __future__ import annotations

import collections
import dataclasses
import json
import typing

# shared with repro.exec.hashing; obs sits below the exec layer, so
# the one definition lives here in obs (see repro.obs.jsonutil)
from .jsonutil import JsonRecord, canonical_json

__all__ = [
    "CATEGORIES",
    "RESERVED_KEYS",
    "TraceConfig",
    "TraceRecorder",
    "TraceSchemaError",
    "validate_trace_line",
    "validate_trace_file",
]

#: every event category an instrumented component can emit
#: (canonical order; TraceConfig normalizes to it)
CATEGORIES: tuple[str, ...] = (
    "frame",      # channel: every frame that finished on the air
    "backoff",    # DCF: backoff draws with their priority window
    "cfp",        # PCF: CFP start/end, polls, re-polls, responses
    "token",      # token policy: grants, consumes, misses, escalation
    "admission",  # QoS AP: accept/reject/evict/readmit decisions
    "fault",      # fault injection: frame loss, station crash/recover
)

#: keys the recorder owns; event fields must not collide with them
RESERVED_KEYS = frozenset({"t", "seq", "cat", "ev"})


@dataclasses.dataclass(frozen=True)
class TraceConfig(JsonRecord):
    """Serializable tracing knobs, riding in ``ScenarioConfig.trace``.

    Parameters
    ----------
    categories:
        Which event categories to record (default: all).  Unknown
        names raise; order is normalized so two equivalent configs
        hash to the same :func:`~repro.exec.hashing.config_key`.
    capacity:
        Ring-buffer size in events; the oldest events are evicted once
        it fills.  ``0`` means unbounded.
    snapshot_interval:
        Period (simulated seconds) of the metrics-registry snapshots a
        traced scenario records; ``0`` disables periodic snapshots.
    """

    categories: tuple[str, ...] = CATEGORIES
    capacity: int = 65536
    snapshot_interval: float = 1.0

    def __post_init__(self) -> None:
        wanted = set(self.categories)
        unknown = wanted - set(CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown trace categories {sorted(unknown)}; "
                f"valid: {list(CATEGORIES)}"
            )
        if not wanted:
            raise ValueError("need at least one trace category")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if self.snapshot_interval < 0:
            raise ValueError(
                f"snapshot_interval must be >= 0, got {self.snapshot_interval}"
            )
        categories = tuple(c for c in CATEGORIES if c in wanted)
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "capacity", int(self.capacity))
        object.__setattr__(
            self, "snapshot_interval", float(self.snapshot_interval)
        )


class TraceRecorder:
    """Ring-buffered structured event recorder (see module docstring)."""

    def __init__(self, config: TraceConfig | None = None) -> None:
        self.config = config or TraceConfig()
        self._wanted = frozenset(self.config.categories)
        maxlen = self.config.capacity or None
        self._buffer: collections.deque[
            tuple[float, int, str, str, dict]
        ] = collections.deque(maxlen=maxlen)
        #: total events emitted (including ones the ring evicted)
        self.emitted = 0

    # -- recording ---------------------------------------------------------
    def wants(self, category: str) -> bool:
        """Is ``category`` recorded?  Components use this at wiring
        time to decide whether to hold the recorder at all."""
        return category in self._wanted

    def emit(self, time: float, category: str, event: str, **fields) -> None:
        """Record one event (dropped silently if its category is off)."""
        if category not in self._wanted:
            return
        self.emitted += 1
        self._buffer.append((time, self.emitted, category, event, fields))

    # -- inspection ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Events the ring buffer evicted."""
        return self.emitted - len(self._buffer)

    def events(
        self, category: str | None = None
    ) -> typing.Iterator[tuple[float, int, str, str, dict]]:
        """Iterate buffered events, oldest first, optionally filtered."""
        for record in self._buffer:
            if category is None or record[2] == category:
                yield record

    def counts_by_category(self) -> dict[str, int]:
        """Buffered event counts per category (only non-zero entries)."""
        counts: dict[str, int] = {}
        for _t, _seq, cat, _ev, _fields in self._buffer:
            counts[cat] = counts.get(cat, 0) + 1
        return counts

    # -- export -------------------------------------------------------------
    def jsonl_lines(self) -> typing.Iterator[str]:
        """Deterministic JSONL encoding of the buffered events."""
        for time, seq, cat, ev, fields in self._buffer:
            record = {"t": time, "seq": seq, "cat": cat, "ev": ev}
            for key, value in fields.items():
                if key in RESERVED_KEYS:
                    raise ValueError(
                        f"event field {key!r} collides with a reserved key"
                    )
                record[key] = value
            yield canonical_json(record)

    def export_jsonl(self, path: str) -> int:
        """Write the trace to ``path``; returns the line count."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line)
                fh.write("\n")
                count += 1
        return count


class TraceSchemaError(ValueError):
    """A trace line violated the JSONL schema."""


def validate_trace_line(line: str) -> dict[str, typing.Any]:
    """Parse and schema-check one JSONL trace line; returns the record."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TraceSchemaError(f"expected a JSON object, got {type(record).__name__}")
    for key in ("t", "seq", "cat", "ev"):
        if key not in record:
            raise TraceSchemaError(f"missing required key {key!r}")
    if not isinstance(record["t"], (int, float)) or record["t"] < 0:
        raise TraceSchemaError(f"'t' must be a non-negative number, got {record['t']!r}")
    if not isinstance(record["seq"], int) or record["seq"] < 1:
        raise TraceSchemaError(f"'seq' must be a positive int, got {record['seq']!r}")
    if record["cat"] not in CATEGORIES:
        raise TraceSchemaError(f"unknown category {record['cat']!r}")
    if not isinstance(record["ev"], str) or not record["ev"]:
        raise TraceSchemaError(f"'ev' must be a non-empty string, got {record['ev']!r}")
    return record


def validate_trace_file(path: str) -> int:
    """Schema-check a whole JSONL trace; returns the event count.

    Beyond per-line checks this enforces the file-level contract:
    ``seq`` strictly increasing and ``t`` non-decreasing.
    """
    count = 0
    last_seq = 0
    last_t = -1.0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = validate_trace_line(line)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"line {lineno}: {exc}") from None
            if record["seq"] <= last_seq:
                raise TraceSchemaError(
                    f"line {lineno}: seq {record['seq']} not increasing "
                    f"(previous {last_seq})"
                )
            if record["t"] < last_t:
                raise TraceSchemaError(
                    f"line {lineno}: t {record['t']} went backwards "
                    f"(previous {last_t})"
                )
            last_seq = record["seq"]
            last_t = record["t"]
            count += 1
    return count
