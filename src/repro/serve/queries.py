"""Typed capacity-planning queries over sweep surfaces.

Three query kinds, all answered purely from cached rows (no
simulation on the query path) and all carrying full provenance —
contributing cache keys, exact-vs-interpolated mode, the cache
``KEY_FORMAT`` — so every number a client receives is auditable back
to the entries that produced it:

``operating_point``
    Expected QoS at a (scheme, load, ...) coordinate: access-delay
    means, worst voice jitter / video delay, dropping and blocking
    probabilities, goodput — the questions the delay/jitter model of
    the QoS-provisioning papers answers analytically, read off the
    simulated surface instead.

``admissible_calls``
    "How far can I load this mix before QoS degrades?"  Walks the
    surface's load axis upward until a constraint (default: blocking
    <= 2 %, dropping <= 1 %) breaks, then bisects the interpolated
    segment to a fixed precision, reading only the constraint metrics
    at each step.  Reports the max admissible load and the
    admitted-call picture there.

``handoff_drop_rate``
    Expected channel-II performance at an operating point:
    handoff-call drop ratio (dropped / attempted), plus the ESS
    backhaul handoff counters when the surface was built from ESS
    cell-shard rows.

Every function is deterministic: the same surface index and the same
parameters produce byte-identical result dicts.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from .surface import CANDIDATE_AXES, SurfaceError, SurfaceIndex

__all__ = [
    "QUERY_KINDS",
    "DEFAULT_CONSTRAINTS",
    "OPERATING_POINT_METRICS",
    "QueryResult",
    "answer_query",
]

QUERY_KINDS = ("operating_point", "admissible_calls", "handoff_drop_rate")

#: default QoS ceilings for ``admissible_calls`` (fractions)
DEFAULT_CONSTRAINTS: dict[str, float] = {
    "blocking_probability": 0.02,
    "dropping_probability": 0.01,
}

#: the metric set an ``operating_point`` answer reports by default
OPERATING_POINT_METRICS: tuple[str, ...] = (
    "voice_delay_mean",
    "video_delay_mean",
    "data_delay_mean",
    "worst_voice_jitter",
    "worst_video_delay",
    "dropping_probability",
    "blocking_probability",
    "goodput_utilization",
    "channel_busy_fraction",
)

#: bisection refinement steps for ``admissible_calls`` (fixed, so the
#: answer is deterministic to ~2^-24 of the bracketing segment)
_BISECT_STEPS = 24


@dataclasses.dataclass
class QueryResult:
    """One answered query, JSON-ready and deterministic."""

    kind: str
    params: dict[str, typing.Any]
    values: dict[str, typing.Any]
    provenance: dict[str, typing.Any]

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "kind": self.kind,
            "params": self.params,
            "values": self.values,
            "provenance": self.provenance,
        }


def _axis_params(
    index: SurfaceIndex, params: typing.Mapping[str, typing.Any]
) -> dict[str, float]:
    at: dict[str, float] = {}
    for axis in CANDIDATE_AXES:
        if axis in params and params[axis] is not None:
            try:
                at[axis] = float(params[axis])
            except (TypeError, ValueError):
                raise SurfaceError(
                    "bad_request",
                    f"axis {axis!r} must be numeric, "
                    f"got {params[axis]!r}",
                    axis=axis,
                )
            if not math.isfinite(at[axis]):
                raise SurfaceError(
                    "bad_request",
                    f"axis {axis!r} must be finite, got {params[axis]!r}",
                    axis=axis,
                )
    return at


def _select(
    index: SurfaceIndex, params: typing.Mapping[str, typing.Any]
):
    scheme = params.get("scheme")
    if not isinstance(scheme, str) or not scheme:
        raise SurfaceError(
            "bad_request", "every query needs a 'scheme' parameter"
        )
    return index.find(scheme, params.get("surface_id"))


def _read(
    surface, at: typing.Mapping[str, float], names: typing.Sequence[str]
) -> typing.Mapping[str, float]:
    """The ``names`` metrics at ``at``; when one is missing from a
    corner, every metric the full lookup shares, so that the error
    names them all."""
    values = surface.read(at, names)
    if len(values) < len(names):
        return surface.lookup(at).metrics
    return values


#: the boolean spellings ``exact`` takes, in any case (a query string's
#: ``1``/``0`` arrive already coerced to numbers)
_FLAG_SPELLINGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _exact_flag(params: typing.Mapping[str, typing.Any]) -> bool:
    """The ``exact`` parameter; anything but a boolean spelling is refused."""
    value = params.get("exact", False)
    flag = _FLAG_SPELLINGS.get(str(value).lower())
    if flag is None:
        raise SurfaceError(
            "bad_request",
            "'exact' must be 1/0, true/false, yes/no or on/off, "
            f"got {value!r}",
            parameter="exact",
        )
    return flag


def _round(values: typing.Mapping[str, float]) -> dict[str, float]:
    """Stabilize the JSON floats (12 significant-ish decimals)."""
    return {name: round(value, 12) for name, value in values.items()}


# -- query kinds -------------------------------------------------------------

def operating_point(
    index: SurfaceIndex, params: typing.Mapping[str, typing.Any]
) -> QueryResult:
    surface = _select(index, params)
    at = _axis_params(index, params)
    lookup = surface.lookup(at, require_exact=_exact_flag(params))

    requested = params.get("metrics")
    if requested is not None:
        if isinstance(requested, str):
            requested = [m for m in requested.split(",") if m]
        missing = sorted(set(requested) - set(lookup.metrics))
        if missing:
            raise SurfaceError(
                "missing_metric",
                f"metric(s) not on this surface: {', '.join(missing)}",
                missing=missing,
                available=sorted(lookup.metrics),
            )
        names = list(requested)
    else:
        names = [m for m in OPERATING_POINT_METRICS if m in lookup.metrics]

    values = _round({name: lookup.metrics[name] for name in names})
    return QueryResult(
        kind="operating_point",
        params=_echo(params),
        values=values,
        provenance=lookup.provenance(),
    )


def admissible_calls(
    index: SurfaceIndex, params: typing.Mapping[str, typing.Any]
) -> QueryResult:
    surface = _select(index, params)
    at = _axis_params(index, params)
    at.pop("load", None)  # the load axis is what we search over

    constraints = dict(DEFAULT_CONSTRAINTS)
    raw = params.get("constraints")
    if raw is not None:
        if not isinstance(raw, typing.Mapping):
            raise SurfaceError(
                "bad_request",
                "'constraints' must map metric name -> ceiling",
            )
        try:
            constraints = {str(k): float(v) for k, v in raw.items()}
        except (TypeError, ValueError):
            raise SurfaceError(
                "bad_request", "constraint ceilings must be numeric"
            )
        for metric, ceiling in sorted(constraints.items()):
            if not math.isfinite(ceiling):
                raise SurfaceError(
                    "bad_request",
                    f"'constraints' ceiling for {metric!r} must be "
                    f"finite, got {ceiling!r}",
                    constraint=metric,
                )

    loads = surface.axis_values().get("load", [])
    if not loads:
        raise SurfaceError(
            "missing_points",
            "surface has no load axis to search",
            surface_id=surface.surface_id,
        )

    limits = sorted(constraints.items())
    names = [metric for metric, _ceiling in limits]

    def ok(metrics: typing.Mapping[str, float]) -> bool:
        for metric, ceiling in limits:
            if metric not in metrics:
                raise SurfaceError(
                    "missing_metric",
                    f"constraint metric {metric!r} is not on this "
                    "surface",
                    missing=[metric],
                    available=sorted(metrics),
                )
            if metrics[metric] > ceiling:
                return False
        return True

    # coarse pass: walk the observed grid loads upward
    last_ok: float | None = None
    first_bad: float | None = None
    for load in loads:
        lookup = surface.lookup({**at, "load": load})
        if ok(lookup.metrics):
            last_ok = load
        else:
            first_bad = load
            break

    if last_ok is None:
        # even the lightest measured load violates the constraints
        return QueryResult(
            kind="admissible_calls",
            params=_echo(params),
            values={
                "admissible": False,
                "constraints": _round(constraints),
                "max_load": None,
                "note": "constraints violated at the lightest "
                        "measured load",
            },
            provenance=lookup.provenance(),
        )

    max_load = last_ok
    if first_bad is not None:
        # refine inside the (last_ok, first_bad) interpolated segment,
        # reading only the constraint metrics at each step
        lo, hi = last_ok, first_bad
        for _ in range(_BISECT_STEPS):
            mid = (lo + hi) / 2.0
            if ok(_read(surface, {**at, "load": mid}, names)):
                lo = mid
            else:
                hi = mid
        max_load = lo
    frontier = surface.lookup({**at, "load": max_load})

    values: dict[str, typing.Any] = {
        "admissible": True,
        "constraints": _round(constraints),
        "max_load": round(max_load, 6),
        "saturated": first_bad is None,
        "at_max_load": _round(
            {
                name: frontier.metrics[name]
                for name in (
                    "calls_admitted_new",
                    "calls_admitted_handoff",
                    "calls_blocked",
                    "calls_dropped",
                    "blocking_probability",
                    "dropping_probability",
                    "analytic_voice_bounds_count",
                    "analytic_video_bounds_count",
                )
                if name in frontier.metrics
            }
        ),
    }
    return QueryResult(
        kind="admissible_calls",
        params=_echo(params),
        values=values,
        provenance=frontier.provenance(),
    )


def handoff_drop_rate(
    index: SurfaceIndex, params: typing.Mapping[str, typing.Any]
) -> QueryResult:
    surface = _select(index, params)
    at = _axis_params(index, params)
    lookup = surface.lookup(at, require_exact=_exact_flag(params))

    attempts = lookup.metrics.get("call_attempts_handoff", 0.0)
    dropped = lookup.metrics.get("calls_dropped", 0.0)
    values: dict[str, typing.Any] = {
        "handoff_attempts_mean": round(attempts, 12),
        "handoff_dropped_mean": round(dropped, 12),
        "handoff_drop_rate": (
            round(dropped / attempts, 12) if attempts > 0 else 0.0
        ),
    }
    ess = {
        name: round(lookup.metrics[name], 12)
        for name in sorted(lookup.metrics)
        if name.startswith("ess.")
    }
    if ess:
        values["ess"] = ess
    return QueryResult(
        kind="handoff_drop_rate",
        params=_echo(params),
        values=values,
        provenance=lookup.provenance(),
    )


def _echo(params: typing.Mapping[str, typing.Any]) -> dict[str, typing.Any]:
    """The request parameters, sorted for byte-stable echoes."""
    return {k: params[k] for k in sorted(params)}


_HANDLERS: dict[str, typing.Callable[..., QueryResult]] = {
    "operating_point": operating_point,
    "admissible_calls": admissible_calls,
    "handoff_drop_rate": handoff_drop_rate,
}


def answer_query(
    index: SurfaceIndex,
    kind: str,
    params: typing.Mapping[str, typing.Any],
) -> QueryResult:
    """Dispatch one query; raises :class:`SurfaceError` when unanswerable."""
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise SurfaceError(
            "bad_request",
            f"unknown query kind {kind!r}",
            known=list(QUERY_KINDS),
        )
    return handler(index, params)
