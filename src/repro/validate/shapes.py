"""Declarative encodings of DESIGN.md's shape targets.

Each claim is one function over sweep rows (plus the Fig. 5 rows for
the bound-conservatism check), returning a :class:`ClaimResult` whose
``evidence`` dict records the numbers the verdict was computed from —
the JSON report is meant to be debuggable, not just red/green.

Thresholds are calibrated against this repository's *measured*
behaviour (see EXPERIMENTS.md "Known divergences"), not the paper's
idealized figures: e.g. the proposed scheme's dropping probability is
pinned low but **not** under the paper's ``threshold_D = 0.01``, so
the Fig. 6 gate asserts the measured plateau, and the paired Fig. 7–10
orderings use the common-random-number machinery from
:mod:`repro.validate.stats` (unanimous per-seed sign, or a 95 % CI on
the mean per-seed delta excluding zero).

Ordering claims degrade to ``skipped`` when the rows lack a needed
scheme or load — a single-scheme sweep is not a failure, it is simply
not evidence.
"""

from __future__ import annotations

import dataclasses
import typing

from .stats import PairedComparison, mean_ci, paired_comparison, seed_values

__all__ = ["ClaimResult", "evaluate_claims", "CLAIM_IDS"]

PROPOSED = "proposed"
MULTIPOLL = "proposed-multipoll"
CONVENTIONAL = "conventional"


# -- calibrated gate constants (measured repo behaviour + margin) ------------
#: Fig 6 — proposed handoff dropping stays under this at every load
#: (measured plateau 0.02-0.16 across loads/seeds; the paper's
#: threshold_D = 0.01 is a known divergence, see EXPERIMENTS.md)
DROPPING_CAP = 0.25
#: Fig 6 — conventional dropping must climb at least this much
#: from the lightest to the heaviest load (measured ~0 -> ~0.48)
CONVENTIONAL_CLIMB_MIN = 0.05
#: Fig 8 — conventional voice-delay variance over proposed, at the
#: lightest load (measured ratio > 50x; 5x leaves refactor room)
VARIANCE_RATIO_MIN = 5.0
#: Fig 8 — multipoll variance within this factor of single-poll
MP_VARIANCE_RATIO_MAX = 1.5
MP_VARIANCE_ABS_SLACK = 1e-6
#: Fig 8 — multipoll mean voice delay within 5 % of single-poll
#: (the two are seed-mixed at the 0.1 ms level, so a mean-ratio
#: gate with absolute slack, not a paired one)
MP_PARITY_RATIO = 1.05
MP_PARITY_ABS_SLACK = 2e-4
#: Fig 11 — proposed goodput at most this factor over conventional
#: at heavy load (admission trades raw utilization for QoS)
UTILIZATION_RATIO_MAX = 1.05
#: Fig 11 — multipoll keeps >= this fraction of single-poll goodput
MP_GOODPUT_RATIO_MIN = 0.95
#: Fig 11 — while spending no more channel-busy time than this
MP_BUSY_RATIO_MAX = 1.02
#: confidence of the paired per-seed comparisons
CONFIDENCE = 0.95


@dataclasses.dataclass(frozen=True)
class ClaimResult:
    """Verdict for one shape claim."""

    claim_id: str
    #: True = pass, False = fail, None = not evaluable on these rows
    passed: bool | None
    detail: str
    evidence: dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict[str, typing.Any]:
        return {
            "claim": self.claim_id,
            "status": self.status,
            "detail": self.detail,
            "evidence": self.evidence,
        }


#: every claim evaluate_claims can emit, in report order
CLAIM_IDS = (
    "fig5.bounds-conservative",
    "fig6.dropping-pinned",
    "fig6.conventional-climbs",
    "fig7.conservative-admission",
    "fig8.voice-delay-proposed-wins",
    "fig8.voice-variance-ordering",
    "fig8.multipoll-voice-parity",
    "fig9.video-delay-proposed-wins",
    "fig10.data-delay-reversal",
    "fig11.utilization-conservative",
    "fig11.multipoll-efficiency",
    "invariants.clean",
)


# -- row helpers -------------------------------------------------------------
def _loads(rows: typing.Sequence[typing.Mapping]) -> list[float]:
    return sorted({r["load"] for r in rows if "load" in r})


def _schemes(rows: typing.Sequence[typing.Mapping]) -> set[str]:
    return {r["scheme"] for r in rows if "scheme" in r}


def _cell_mean(
    rows: typing.Sequence[typing.Mapping], scheme: str, load: float, metric: str
) -> float | None:
    values = seed_values(rows, scheme, load, metric)
    if not values:
        return None
    return sum(values.values()) / len(values)


def _skip(claim_id: str, why: str) -> ClaimResult:
    return ClaimResult(claim_id, None, why)


def _paired_claim(
    claim_id: str,
    cmp: PairedComparison,
    want: str,
    detail: str,
) -> ClaimResult:
    """Verdict from a paired comparison expecting ``want`` in {'less','greater'}."""
    if cmp.n == 0:
        return _skip(claim_id, f"no paired seeds for {cmp.scheme_a} vs {cmp.scheme_b}")
    ok = cmp.supports_less() if want == "less" else cmp.supports_greater()
    return ClaimResult(claim_id, ok, detail, {"comparison": cmp.as_dict()})


# -- individual claims -------------------------------------------------------
def _fig5_bounds(
    fig5_rows: typing.Sequence[typing.Mapping] | None,
) -> ClaimResult:
    cid = "fig5.bounds-conservative"
    if not fig5_rows:
        return _skip(cid, "no fig5 rows supplied")
    worst: list[dict[str, typing.Any]] = []
    ok = True
    for r in fig5_rows:
        jit_ok = r["simulated_max_jitter"] <= r["analytic_max_jitter"]
        del_ok = r["simulated_max_delay"] <= r["analytic_max_delay"]
        ok = ok and jit_ok and del_ok
        worst.append(
            {
                "sources": f"{r.get('n_voice')}+{r.get('n_video')}",
                "jitter": [r["simulated_max_jitter"], r["analytic_max_jitter"]],
                "delay": [r["simulated_max_delay"], r["analytic_max_delay"]],
                "ok": jit_ok and del_ok,
            }
        )
    return ClaimResult(
        cid,
        ok,
        "simulated max jitter/delay never exceeds the Theorem 1/3 bound",
        {"populations": worst},
    )


def _fig6_dropping_pinned(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig6.dropping-pinned"
    per_load: dict[str, float] = {}
    for load in _loads(rows):
        m = _cell_mean(rows, PROPOSED, load, "dropping_probability")
        if m is not None:
            per_load[str(load)] = m
    if not per_load:
        return _skip(cid, "no proposed-scheme rows")
    worst = max(per_load.values())
    return ClaimResult(
        cid,
        worst <= DROPPING_CAP,
        f"proposed mean dropping stays <= {DROPPING_CAP} at every load",
        {"per_load": per_load, "worst": worst, "cap": DROPPING_CAP},
    )


def _fig6_conventional_climbs(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig6.conventional-climbs"
    loads = _loads(rows)
    if CONVENTIONAL not in _schemes(rows) or len(loads) < 2:
        return _skip(cid, "needs conventional rows at >= 2 loads")
    light, heavy = loads[0], loads[-1]
    m_light = _cell_mean(rows, CONVENTIONAL, light, "dropping_probability")
    m_heavy = _cell_mean(rows, CONVENTIONAL, heavy, "dropping_probability")
    if m_light is None or m_heavy is None:
        return _skip(cid, "conventional dropping missing at the extreme loads")
    climbs = m_heavy >= m_light + CONVENTIONAL_CLIMB_MIN
    evidence: dict[str, typing.Any] = {
        "light_load": light,
        "heavy_load": heavy,
        "mean_light": m_light,
        "mean_heavy": m_heavy,
        "min_climb": CONVENTIONAL_CLIMB_MIN,
    }
    ok = climbs
    if PROPOSED in _schemes(rows):
        cmp = paired_comparison(
            rows, "dropping_probability", CONVENTIONAL, PROPOSED, heavy,
            CONFIDENCE,
        )
        evidence["heavy_paired_conv_minus_prop"] = cmp.as_dict()
        ok = climbs and cmp.supports_greater()
    return ClaimResult(
        cid,
        ok,
        "conventional dropping climbs with load and exceeds proposed "
        "per-seed at heavy load",
        evidence,
    )


def _fig7_conservative_admission(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig7.conservative-admission"
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or CONVENTIONAL not in schemes:
        return _skip(cid, "needs proposed and conventional rows")
    heavy = loads[-1]
    cmp = paired_comparison(
        rows, "blocking_probability", PROPOSED, CONVENTIONAL, heavy, CONFIDENCE
    )
    return _paired_claim(
        cid,
        cmp,
        "greater",
        "proposed blocks more new calls than conventional at heavy load "
        "(Theorem 1/3 admission protects admitted QoS; the paper's "
        "light-load crossover is a known divergence)",
    )


def _ordering_claim(
    rows: typing.Sequence[typing.Mapping],
    cid: str,
    metric: str,
    want: str,
    detail: str,
) -> ClaimResult:
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or CONVENTIONAL not in schemes:
        return _skip(cid, "needs proposed and conventional rows")
    heavy = loads[-1]
    cmp = paired_comparison(rows, metric, PROPOSED, CONVENTIONAL, heavy, CONFIDENCE)
    return _paired_claim(cid, cmp, want, detail)


def _fig8_variance_ordering(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig8.voice-variance-ordering"
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or CONVENTIONAL not in schemes:
        return _skip(cid, "needs proposed and conventional rows")
    light = loads[0]
    conv = _cell_mean(rows, CONVENTIONAL, light, "voice_delay_var")
    prop = _cell_mean(rows, PROPOSED, light, "voice_delay_var")
    if conv is None or prop is None:
        return _skip(cid, "voice delay variance missing at the lightest load")
    evidence: dict[str, typing.Any] = {
        "load": light,
        "conventional_var": conv,
        "proposed_var": prop,
        "min_ratio": VARIANCE_RATIO_MIN,
    }
    ok = conv >= VARIANCE_RATIO_MIN * prop
    if MULTIPOLL in schemes:
        mp = _cell_mean(rows, MULTIPOLL, light, "voice_delay_var")
        if mp is not None:
            evidence["multipoll_var"] = mp
            ok = ok and mp <= (
                prop * MP_VARIANCE_RATIO_MAX + MP_VARIANCE_ABS_SLACK
            )
    return ClaimResult(
        cid,
        ok,
        "polled voice delay variance: conventional >> proposed, with "
        "multipoll comparable to single-poll",
        evidence,
    )


def _fig8_multipoll_parity(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig8.multipoll-voice-parity"
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or MULTIPOLL not in schemes:
        return _skip(cid, "needs proposed and proposed-multipoll rows")
    per_load: dict[str, typing.Any] = {}
    ok = True
    evaluated = False
    for load in loads:
        sp = _cell_mean(rows, PROPOSED, load, "voice_delay_mean")
        mp = _cell_mean(rows, MULTIPOLL, load, "voice_delay_mean")
        if sp is None or mp is None:
            continue
        evaluated = True
        bound = sp * MP_PARITY_RATIO + MP_PARITY_ABS_SLACK
        per_load[str(load)] = {"single": sp, "multi": mp, "bound": bound}
        ok = ok and mp <= bound
    if not evaluated:
        return _skip(cid, "voice delay means missing")
    return ClaimResult(
        cid,
        ok,
        "multipoll mean voice delay stays within a few percent of "
        "single-poll at every load",
        {"per_load": per_load},
    )


def _fig11_utilization(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig11.utilization-conservative"
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or CONVENTIONAL not in schemes:
        return _skip(cid, "needs proposed and conventional rows")
    heavy = loads[-1]
    prop = _cell_mean(rows, PROPOSED, heavy, "goodput_utilization")
    conv = _cell_mean(rows, CONVENTIONAL, heavy, "goodput_utilization")
    if prop is None or conv is None:
        return _skip(cid, "goodput missing at heavy load")
    return ClaimResult(
        cid,
        prop <= conv * UTILIZATION_RATIO_MAX,
        "proposed goodput sits at or slightly under conventional at "
        "heavy load (the price of admission control)",
        {
            "load": heavy,
            "proposed": prop,
            "conventional": conv,
            "max_ratio": UTILIZATION_RATIO_MAX,
        },
    )


def _fig11_multipoll_efficiency(
    rows: typing.Sequence[typing.Mapping],
) -> ClaimResult:
    cid = "fig11.multipoll-efficiency"
    loads = _loads(rows)
    schemes = _schemes(rows)
    if not loads or PROPOSED not in schemes or MULTIPOLL not in schemes:
        return _skip(cid, "needs proposed and proposed-multipoll rows")
    heavy = loads[-1]
    sp_good = _cell_mean(rows, PROPOSED, heavy, "goodput_utilization")
    mp_good = _cell_mean(rows, MULTIPOLL, heavy, "goodput_utilization")
    sp_busy = _cell_mean(rows, PROPOSED, heavy, "channel_busy_fraction")
    mp_busy = _cell_mean(rows, MULTIPOLL, heavy, "channel_busy_fraction")
    if None in (sp_good, mp_good, sp_busy, mp_busy):
        return _skip(cid, "goodput/busy metrics missing at heavy load")
    ok = (
        mp_good >= sp_good * MP_GOODPUT_RATIO_MIN
        and mp_busy <= sp_busy * MP_BUSY_RATIO_MAX
    )
    return ClaimResult(
        cid,
        ok,
        "batched polls keep single-poll goodput without spending more "
        "channel-busy time",
        {
            "load": heavy,
            "goodput": {"single": sp_good, "multi": mp_good},
            "busy": {"single": sp_busy, "multi": mp_busy},
        },
    )


def _invariants_clean(rows: typing.Sequence[typing.Mapping]) -> ClaimResult:
    cid = "invariants.clean"
    monitored = [r for r in rows if "invariant_violations" in r]
    if not monitored:
        return _skip(cid, "no monitored rows (monitor_invariants was off)")
    dirty = [
        {
            "scheme": r.get("scheme"),
            "load": r.get("load"),
            "seed": r.get("seed"),
            "violations": r["invariant_violations"][:10],
        }
        for r in monitored
        if r["invariant_violations"]
    ]
    return ClaimResult(
        cid,
        not dirty,
        f"runtime invariant monitors stayed silent across "
        f"{len(monitored)} monitored runs",
        {"monitored_rows": len(monitored), "dirty_rows": dirty},
    )


# -- entry point -------------------------------------------------------------
def evaluate_claims(
    rows: typing.Sequence[typing.Mapping],
    fig5_rows: typing.Sequence[typing.Mapping] | None = None,
) -> list[ClaimResult]:
    """Evaluate every shape claim against sweep (and Fig. 5) rows."""
    return [
        _fig5_bounds(fig5_rows),
        _fig6_dropping_pinned(rows),
        _fig6_conventional_climbs(rows),
        _fig7_conservative_admission(rows),
        _ordering_claim(
            rows,
            "fig8.voice-delay-proposed-wins",
            "voice_delay_mean",
            "less",
            "token-paced polling keeps voice access delay under "
            "contention at heavy load (paired per-seed)",
        ),
        _fig8_variance_ordering(rows),
        _fig8_multipoll_parity(rows),
        _ordering_claim(
            rows,
            "fig9.video-delay-proposed-wins",
            "video_delay_mean",
            "less",
            "video access delay: proposed under conventional at heavy "
            "load (paired per-seed)",
        ),
        _ordering_claim(
            rows,
            "fig10.data-delay-reversal",
            "data_delay_mean",
            "greater",
            "data pays for RT protection: proposed data delay above "
            "conventional at heavy load (paired per-seed)",
        ),
        _fig11_utilization(rows),
        _fig11_multipoll_efficiency(rows),
        _invariants_clean(rows),
    ]
