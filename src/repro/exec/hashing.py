"""Canonical serialization and content-addressed point keys.

The execution subsystem identifies a simulation point by a stable hash
of its :class:`~repro.network.bss.ScenarioConfig`: the config is taken
through :meth:`to_dict`, coerced to plain JSON types, dumped with
sorted keys and hashed.  Two configs produce the same key iff they
describe the same simulated point, so the key doubles as the result
cache's address and the checkpoint journal's resume key.

``KEY_FORMAT`` is folded into the hash; bump it whenever the meaning
of a config field (or of a result row) changes so stale cache entries
and journals are invalidated wholesale instead of silently reused.
"""

from __future__ import annotations

import hashlib
import json
import typing

from ..obs.jsonutil import jsonable

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..network.bss import ScenarioConfig

__all__ = [
    "KEY_FORMAT",
    "ACCEL_KEY_FORMAT",
    "jsonable",
    "canonical_json",
    "normalize_row",
    "config_key",
]

#: bump to invalidate every existing cache entry and journal row
#: (2: ScenarioConfig grew monitor_invariants, changing to_dict();
#:  3: ScenarioConfig grew the faults FaultPlan field and faulted rows
#:  carry a degradation sub-dict;
#:  4: ScenarioConfig grew the trace TraceConfig field and traced rows
#:  carry an obs sub-dict;
#:  5: ScenarioConfig grew the ess EssCellContext field and ESS cell
#:  shards carry an ess sub-dict)
KEY_FORMAT = 5

#: key format for batched-tier points only.  ``ScenarioConfig``
#: omits ``engine`` from :meth:`to_dict` when it is ``"exact"``, so
#: exact points keep their ``KEY_FORMAT`` 5 keys (and cached results)
#: untouched; ``engine="batched"`` rows carry the engine tag and hash
#: under this format instead.
ACCEL_KEY_FORMAT = 6


def canonical_json(value: typing.Any) -> str:
    """Deterministic JSON encoding: coerced types, sorted keys, no spaces."""
    return json.dumps(jsonable(value), sort_keys=True, separators=(",", ":"))


def normalize_row(row: dict[str, typing.Any]) -> dict[str, typing.Any]:
    """Round-trip a result row through JSON.

    Every row the executor returns passes through here, so rows are
    byte-identical regardless of provenance — freshly simulated, read
    back from the cache, or replayed from a resume journal (JSON turns
    tuples into lists; normalizing up front makes that uniform).
    """
    return json.loads(canonical_json(row))


def config_key(config: "ScenarioConfig") -> str:
    """Content-addressed identity of one simulation point."""
    d = config.to_dict()
    fmt = ACCEL_KEY_FORMAT if "engine" in d else KEY_FORMAT
    payload = {"format": fmt, "config": d}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
