"""Sweep surfaces: the in-memory query index over cached result rows.

A :class:`SurfaceIndex` scans a :class:`~repro.exec.cache.ResultCache`
directory once (entries are self-describing: each carries the config
that produced its row) and groups rows into **surfaces**: one surface
per *residual config* — everything in the config except the sweep axes
(``load``, ``n_data_stations``), the replication ``seed`` and any ESS
cell context.  Rows landing on the same axis coordinates (different
seeds, or different ESS shards) aggregate into one grid point whose
metric values are means over the sorted contributing cache keys, so
the aggregate is byte-deterministic no matter what order entries were
scanned or back-filled in.

Each surface answers lookups from a compiled form — sorted axes, each
point's means and sorted keys — built on the first read after a change
and dropped by every ``SurfaceIndex.add_entry`` that lands on it.
``SweepSurface.read`` interpolates named metrics alone, with the same
cell arithmetic as ``lookup`` and the same bits.
Lookups between grid points use multilinear interpolation over the
enclosing cell and **refuse to extrapolate**: a coordinate outside an
axis's observed range raises ``extrapolation_refused`` rather than
inventing capacity numbers the sweep never measured.  A coordinate
inside the range whose enclosing cell is missing corners raises
``missing_points`` and names the exact configs that would fill them —
the serve app turns that into a 202 + back-fill enqueue.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import typing

from ..exec.cache import ResultCache
from ..exec.hashing import KEY_FORMAT, canonical_json
from ..network.bss import ScenarioConfig

__all__ = [
    "CANDIDATE_AXES",
    "SurfaceError",
    "GridPoint",
    "SweepSurface",
    "SurfaceLookup",
    "SurfaceIndex",
]

#: config fields treated as interpolation axes (in this order); every
#: other field (minus ``seed``/``ess``) is surface identity
CANDIDATE_AXES: tuple[str, ...] = ("load", "n_data_stations")

#: result-row fields that are run bookkeeping, not surface metrics
_NON_METRIC_FIELDS = frozenset(
    {"seed", "sim_time", "warmup", "events_processed"}
)


class SurfaceError(Exception):
    """A lookup or query the index cannot answer; ``code`` says why.

    Codes: ``axis_required``, ``extrapolation_refused``,
    ``missing_points``, ``unknown_surface``, ``missing_metric``, and
    ``bad_request`` for a malformed query (:mod:`repro.serve.queries`).
    ``detail`` is a JSON-ready dict the HTTP layer returns verbatim.
    """

    def __init__(self, code: str, message: str, **detail: typing.Any) -> None:
        super().__init__(message)
        self.code = code
        self.detail = dict(detail)

    def to_dict(self) -> dict[str, typing.Any]:
        return {"code": self.code, "message": str(self), **self.detail}


def flatten_metrics(
    row: typing.Mapping[str, typing.Any], prefix: str = ""
) -> dict[str, float]:
    """Numeric leaves of a result row, dotted for nesting.

    Numbers pass through; nested dicts recurse (``faults.polls_lost``,
    ``ess.handoffs_injected``); all-numeric lists contribute their
    length and max (``analytic_voice_bounds_count`` is the number of
    voice sessions admitted at sweep end, ``..._max`` the worst
    analytic bound); strings, bools and mixed lists are skipped.
    """
    out: dict[str, float] = {}
    for name, value in row.items():
        label = f"{prefix}{name}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[label] = float(value)
        elif isinstance(value, dict):
            out.update(flatten_metrics(value, prefix=f"{label}."))
        elif isinstance(value, list):
            if value and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value
            ):
                out[f"{label}_count"] = float(len(value))
                out[f"{label}_max"] = float(max(value))
    return out


@dataclasses.dataclass
class GridPoint:
    """All rows that landed on one axis coordinate tuple."""

    coords: tuple[float, ...]
    #: cache key -> flattened metrics of that row
    rows: dict[str, dict[str, float]] = dataclasses.field(default_factory=dict)

    @property
    def keys(self) -> list[str]:
        return sorted(self.rows)

    def metrics(self) -> dict[str, float]:
        """Per-metric mean over contributing rows, in sorted-key order.

        Iterating keys sorted makes the float accumulation order — and
        therefore the aggregate bytes — independent of scan order.
        """
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for key in self.keys:
            for name, value in self.rows[key].items():
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        return {name: sums[name] / counts[name] for name in sorted(sums)}


def _interpolate(
    corner_metrics: typing.Sequence[tuple[float, dict[str, float]]],
    names: typing.Iterable[str],
) -> dict[str, float]:
    """The weighted sum over the corners of each of ``names`` that every
    corner has (only those interpolate honestly), in ``names`` order.

    One row of weighted terms per corner: each metric is the builtin
    ``sum`` of its column, its corners' terms in corner order.
    """
    shared = list(names)
    for _w, m in corner_metrics:
        shared = [name for name in shared if name in m]
    terms = [[w * m[name] for name in shared] for w, m in corner_metrics]
    return dict(zip(shared, map(sum, zip(*terms))))


@dataclasses.dataclass(frozen=True)
class _Compiled:
    """What every lookup reads, built once per change of the points."""

    #: sorted unique coordinates, one tuple per axis
    axes: tuple[tuple[float, ...], ...]
    #: coordinate -> that point's ``GridPoint.metrics()``
    metrics: dict[tuple[float, ...], dict[str, float]]
    #: coordinate -> that point's sorted cache keys
    keys: dict[tuple[float, ...], list[str]]


@dataclasses.dataclass
class SweepSurface:
    """One residual config's grid of aggregated result rows."""

    surface_id: str
    scheme: str
    #: the residual config: axes, seed and ess stripped
    residual: dict[str, typing.Any]
    points: dict[tuple[float, ...], GridPoint] = dataclasses.field(
        default_factory=dict
    )
    #: replication seeds observed anywhere on the surface
    seeds: set[int] = dataclasses.field(default_factory=set)
    #: rows that came from ESS cell shards (carry an ``ess`` context)
    ess_rows: int = 0
    #: per-axis map: float coordinate -> the original JSON value, so a
    #: back-fill config round-trips int axes (``n_data_stations``)
    axis_originals: dict[str, dict[float, typing.Any]] = dataclasses.field(
        default_factory=dict
    )
    #: built on the first read after a change; ``SurfaceIndex.add_entry``
    #: drops it (both run under the server lock)
    _compiled: _Compiled | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def _compile(self) -> _Compiled:
        if self._compiled is None:
            points = self.points
            self._compiled = _Compiled(
                axes=tuple(
                    tuple(sorted({coords[i] for coords in points}))
                    for i in range(len(CANDIDATE_AXES))
                ),
                metrics={c: p.metrics() for c, p in points.items()},
                keys={c: p.keys for c, p in points.items()},
            )
        return self._compiled

    @property
    def backfillable(self) -> bool:
        """ESS shard rows strip a context we cannot reconstruct, so
        only pure single-BSS surfaces may enqueue missing points."""
        return self.ess_rows == 0 and bool(self.seeds)

    def axis_values(self) -> dict[str, list[float]]:
        """Sorted unique observed coordinates per axis."""
        return {
            axis: list(values)
            for axis, values in zip(CANDIDATE_AXES, self._compile().axes)
        }

    def describe(self) -> dict[str, typing.Any]:
        """JSON-ready summary for ``/surfaces``."""
        return {
            "surface_id": self.surface_id,
            "scheme": self.scheme,
            "axes": {
                axis: values for axis, values in self.axis_values().items()
            },
            "points": len(self.points),
            "rows": sum(len(p.rows) for p in self.points.values()),
            "seeds": sorted(self.seeds),
            "ess_rows": self.ess_rows,
            "backfillable": self.backfillable,
            "sim_time": self.residual.get("sim_time"),
            "key_format": KEY_FORMAT,
        }

    # -- lookup ------------------------------------------------------------
    def _bracket(self, axis_index: int, value: float) -> tuple[float, float]:
        """The grid values enclosing ``value`` on one axis (lo == hi
        for an exact hit); refuses values outside the observed range."""
        uniques = self._compile().axes[axis_index]
        i = bisect.bisect_left(uniques, value)
        if i < len(uniques) and uniques[i] == value:
            return value, value
        if i == 0 or i == len(uniques):
            axis = CANDIDATE_AXES[axis_index]
            raise SurfaceError(
                "extrapolation_refused",
                f"{axis}={value:g} is outside the surface's observed "
                f"range [{uniques[0]:g}, {uniques[-1]:g}]",
                axis=axis,
                value=value,
                observed=[uniques[0], uniques[-1]],
            )
        return uniques[i - 1], uniques[i]

    def _cell(
        self, at: typing.Mapping[str, float], require_exact: bool = False
    ) -> tuple[
        list[float],
        list[tuple[float, float]],
        list[tuple[float, ...]],
        list[tuple[float, dict[str, float]]],
        dict[tuple[float, ...], list[str]],
    ]:
        """The enclosing cell of ``at``: the coordinate it resolves to,
        each axis's bracket, the cell's sorted corners, per corner its
        multilinear weight and metrics, and every point's sorted cache
        keys.  Raises what :meth:`lookup` documents."""
        compiled = self._compile()
        target: list[float] = []
        for axis, values in zip(CANDIDATE_AXES, compiled.axes):
            if axis in at:
                target.append(float(at[axis]))
            elif len(values) == 1:
                target.append(values[0])
            else:
                raise SurfaceError(
                    "axis_required",
                    f"axis {axis!r} varies on this surface "
                    f"({list(values)}); the query must pin it",
                    axis=axis,
                    observed=list(values),
                )

        brackets = [
            self._bracket(i, value) for i, value in enumerate(target)
        ]
        if require_exact and any(lo != hi for lo, hi in brackets):
            raise SurfaceError(
                "missing_points",
                "no cached rows at exactly this coordinate "
                "(require_exact refused interpolation)",
                surface_id=self.surface_id,
                missing=[dict(zip(CANDIDATE_AXES, target))],
            )
        corners = sorted(set(itertools.product(*brackets)))
        missing = [c for c in corners if c not in compiled.metrics]
        if missing:
            raise SurfaceError(
                "missing_points",
                f"{len(missing)} grid corner(s) of the enclosing cell "
                "have no cached rows",
                surface_id=self.surface_id,
                missing=[
                    dict(zip(CANDIDATE_AXES, corner)) for corner in missing
                ],
            )

        corner_metrics: list[tuple[float, dict[str, float]]] = []
        for corner in corners:
            weight = 1.0
            for (lo, hi), x, c in zip(brackets, target, corner):
                if hi == lo:
                    continue
                t = (x - lo) / (hi - lo)
                weight *= t if c == hi else 1.0 - t
            corner_metrics.append((weight, compiled.metrics[corner]))
        return target, brackets, corners, corner_metrics, compiled.keys

    def lookup(
        self,
        at: typing.Mapping[str, float],
        require_exact: bool = False,
    ) -> "SurfaceLookup":
        """Resolve one coordinate: exact hit or multilinear interpolation.

        ``at`` maps axis name to requested value; an axis with a single
        observed value may be omitted (it defaults); any other omitted
        axis raises ``axis_required``.  With ``require_exact`` an
        interpolated answer is refused as ``missing_points`` naming the
        requested coordinate itself — the progressive-refinement miss
        the serve app turns into a back-fill enqueue.
        """
        target, brackets, corners, corner_metrics, point_keys = self._cell(
            at, require_exact
        )
        # GridPoint.metrics() is name-sorted, so the result is too
        metrics = _interpolate(corner_metrics, corner_metrics[0][1])
        keys = sorted({k for c in corners for k in point_keys[c]})
        exact = all(lo == hi for lo, hi in brackets)
        return SurfaceLookup(
            surface=self,
            at=dict(zip(CANDIDATE_AXES, target)),
            mode="exact" if exact else "interpolated",
            metrics=metrics,
            keys=keys,
            corners=[dict(zip(CANDIDATE_AXES, c)) for c in corners],
        )

    def read(
        self, at: typing.Mapping[str, float], names: typing.Iterable[str]
    ) -> dict[str, float]:
        """``lookup(at).metrics`` for ``names`` only, bit for bit: the
        same cell, weights and sums.  A name missing from any corner is
        left out, as ``lookup`` leaves it out; no other metric is
        interpolated."""
        return _interpolate(self._cell(at)[3], names)

    def missing_configs(
        self, missing: typing.Sequence[typing.Mapping[str, float]]
    ) -> list[dict[str, typing.Any]]:
        """Full config dicts that would fill the named grid corners —
        one per (corner, observed seed) — ready for the executor."""
        if not self.backfillable:
            return []
        configs: list[dict[str, typing.Any]] = []
        for corner in missing:
            base = dict(self.residual)
            for axis in CANDIDATE_AXES:
                value = float(corner[axis])
                base[axis] = self.axis_originals.get(axis, {}).get(
                    value, value
                )
            for seed in sorted(self.seeds):
                config = dict(base)
                config["seed"] = seed
                config["ess"] = None
                configs.append(config)
        return configs


@dataclasses.dataclass
class SurfaceLookup:
    """One resolved coordinate, with provenance."""

    surface: SweepSurface
    at: dict[str, float]
    mode: str  # "exact" | "interpolated"
    metrics: dict[str, float]
    keys: list[str]
    corners: list[dict[str, float]]

    def provenance(self) -> dict[str, typing.Any]:
        return {
            "surface_id": self.surface.surface_id,
            "scheme": self.surface.scheme,
            "at": self.at,
            "mode": self.mode,
            "corners": self.corners,
            "cache_keys": self.keys,
            "key_format": KEY_FORMAT,
        }


def _surface_identity(residual: typing.Mapping[str, typing.Any]) -> str:
    return hashlib.sha256(
        canonical_json({"format": KEY_FORMAT, "residual": residual}).encode()
    ).hexdigest()[:12]


class SurfaceIndex:
    """Every surface recoverable from one result-cache directory."""

    def __init__(self) -> None:
        self.surfaces: dict[str, SweepSurface] = {}
        #: entries whose config was absent/foreign, rejected by
        #: ``ScenarioConfig.from_dict`` or not exact — counted, not fatal
        self.skipped = 0
        self.rows = 0

    @classmethod
    def from_cache(cls, cache: ResultCache) -> "SurfaceIndex":
        index = cls()
        for entry in cache.entries():
            index.add_entry(entry.key, entry.config, entry.row)
        return index

    def add_entry(
        self,
        key: str,
        config: typing.Mapping[str, typing.Any] | None,
        row: typing.Mapping[str, typing.Any],
    ) -> SweepSurface | None:
        """Place one cache entry; returns the surface it landed on.

        An entry this code could not have produced — no config, a
        missing axis, or a config ``ScenarioConfig.from_dict`` rejects
        (a removed engine tier, or fields that no longer exist) — is
        counted in ``skipped`` instead, so it never forms a surface
        that :meth:`find` could prefer.  So is a row of the batched
        tier: only exact rows are served.
        """
        if config is None or not self._accepts(config):
            self.skipped += 1
            return None
        residual = {
            k: v
            for k, v in config.items()
            if k not in CANDIDATE_AXES and k not in ("seed", "ess")
        }
        surface_id = _surface_identity(residual)
        surface = self.surfaces.get(surface_id)
        if surface is None:
            surface = self.surfaces[surface_id] = SweepSurface(
                surface_id=surface_id,
                scheme=str(residual.get("scheme", "?")),
                residual=residual,
            )
        coords = tuple(float(config[axis]) for axis in CANDIDATE_AXES)
        point = surface.points.get(coords)
        if point is None:
            point = surface.points[coords] = GridPoint(coords=coords)
        metrics = flatten_metrics(
            {k: v for k, v in row.items() if k not in _NON_METRIC_FIELDS}
        )
        if key not in point.rows:
            self.rows += 1
        point.rows[key] = metrics
        surface._compiled = None
        if isinstance(config.get("seed"), int):
            surface.seeds.add(config["seed"])
        if config.get("ess") is not None:
            surface.ess_rows += 1
        for axis in CANDIDATE_AXES:
            surface.axis_originals.setdefault(axis, {})[
                float(config[axis])
            ] = config[axis]
        return surface

    def _accepts(self, config: typing.Mapping[str, typing.Any]) -> bool:
        if any(axis not in config for axis in CANDIDATE_AXES):
            return False
        try:
            # only exact rows are served: answers cite KEY_FORMAT and
            # carry no mark of a row's engine tier
            return ScenarioConfig.from_dict(config).engine == "exact"
        except (KeyError, TypeError, ValueError):
            return False

    # -- selection ---------------------------------------------------------
    def find(
        self, scheme: str, surface_id: str | None = None
    ) -> SweepSurface:
        """The surface for ``scheme`` (optionally pinned by id).

        With several surfaces per scheme (different sim_time, mixes,
        ...), the one with the most rows wins — ties broken by id so
        selection is deterministic; pass ``surface_id`` to pin.  A pin
        to another scheme's surface is refused, never served.
        """
        if surface_id is not None:
            surface = self.surfaces.get(surface_id)
            if surface is None:
                raise SurfaceError(
                    "unknown_surface",
                    f"no surface with id {surface_id!r}",
                    surface_id=surface_id,
                    available=sorted(self.surfaces),
                )
            if surface.scheme != scheme:
                raise SurfaceError(
                    "unknown_surface",
                    f"surface {surface_id!r} is scheme "
                    f"{surface.scheme!r}, not {scheme!r}",
                    surface_id=surface_id,
                    scheme=scheme,
                    surface_scheme=surface.scheme,
                )
            return surface
        candidates = [
            s for s in self.surfaces.values() if s.scheme == scheme
        ]
        if not candidates:
            raise SurfaceError(
                "unknown_surface",
                f"no cached surface for scheme {scheme!r}",
                scheme=scheme,
                available=sorted(
                    {s.scheme for s in self.surfaces.values()}
                ),
            )
        return max(
            candidates,
            key=lambda s: (sum(len(p.rows) for p in s.points.values()),
                           s.surface_id),
        )

    def describe(self) -> dict[str, typing.Any]:
        """JSON-ready summary for ``/surfaces`` and ``/healthz``."""
        return {
            "axes": list(CANDIDATE_AXES),
            "rows": self.rows,
            "skipped_entries": self.skipped,
            "key_format": KEY_FORMAT,
            "surfaces": [
                self.surfaces[sid].describe()
                for sid in sorted(self.surfaces)
            ],
        }
