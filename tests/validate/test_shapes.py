"""Shape-claim gates on synthetic rows: healthy rows pass, a
deliberately broken scheme fails the *specific* claim."""

import json

import pytest

from repro.validate import shapes
from repro.validate.shapes import CLAIM_IDS, evaluate_claims

LIGHT, HEAVY = 0.5, 3.0
SEEDS = (1, 2, 3)


def healthy_rows():
    """Synthetic sweep rows mirroring the calibrated repo behaviour."""
    rows = []
    for seed in SEEDS:
        jit = 0.001 * seed  # common-random-number per-seed wobble
        for load in (LIGHT, HEAVY):
            heavy = load == HEAVY
            rows.append({
                "scheme": "proposed", "load": load, "seed": seed,
                "dropping_probability": 0.10 + jit if heavy else 0.0,
                "blocking_probability": 0.98 + jit / 10 if heavy else 0.1,
                "voice_delay_mean": 0.0025 + jit / 10,
                "voice_delay_var": 1e-6,
                "video_delay_mean": 0.006 + jit / 10,
                "data_delay_mean": (0.15 if heavy else 0.01) + jit,
                "goodput_utilization": 0.22 if heavy else 0.10,
                "channel_busy_fraction": 0.64 if heavy else 0.30,
                "invariant_violations": [],
            })
            rows.append({
                "scheme": "proposed-multipoll", "load": load, "seed": seed,
                "dropping_probability": 0.09 + jit if heavy else 0.0,
                "blocking_probability": 0.98 + jit / 10 if heavy else 0.1,
                "voice_delay_mean": 0.0026 + jit / 10,
                "voice_delay_var": 1.1e-6,
                "video_delay_mean": 0.0062 + jit / 10,
                "data_delay_mean": (0.14 if heavy else 0.01) + jit,
                "goodput_utilization": 0.22 if heavy else 0.10,
                "channel_busy_fraction": 0.63 if heavy else 0.29,
                "invariant_violations": [],
            })
            rows.append({
                "scheme": "conventional", "load": load, "seed": seed,
                "dropping_probability": 0.48 + jit if heavy else 0.0,
                "blocking_probability": 0.48 + jit / 10 if heavy else 0.05,
                "voice_delay_mean": 0.0087 + jit / 10,
                "voice_delay_var": 7e-5,
                "video_delay_mean": 0.027 + jit / 10,
                "data_delay_mean": (0.06 if heavy else 0.02) + jit,
                "goodput_utilization": 0.25 if heavy else 0.10,
                "channel_busy_fraction": 0.87 if heavy else 0.35,
                "invariant_violations": [],
            })
    return rows


def healthy_fig5():
    return [
        {
            "n_voice": nv, "n_video": nd,
            "analytic_max_jitter": 0.01 * (nv + 1),
            "simulated_max_jitter": 0.004 * (nv + 1),
            "analytic_max_delay": 0.02 * (nd + 1),
            "simulated_max_delay": 0.008 * (nd + 1),
        }
        for nv, nd in ((1, 1), (2, 1), (3, 2))
    ]


def by_id(results):
    return {r.claim_id: r for r in results}


class TestHealthyRows:
    def test_every_claim_passes(self):
        results = evaluate_claims(healthy_rows(), healthy_fig5())
        assert [r.claim_id for r in results] == list(CLAIM_IDS)
        assert {r.status for r in results} == {"pass"}

    def test_report_is_jsonable(self):
        results = evaluate_claims(healthy_rows(), healthy_fig5())
        dumped = json.loads(json.dumps([r.as_dict() for r in results]))
        assert all(d["status"] == "pass" for d in dumped)


class TestDeliberateBreakage:
    """Each broken metric trips its own claim and only related ones."""

    def _failing(self, rows, fig5=None):
        return {
            r.claim_id
            for r in evaluate_claims(rows, fig5 or healthy_fig5())
            if r.status == "fail"
        }

    def test_fig5_bound_violation_is_caught(self):
        fig5 = healthy_fig5()
        fig5[1]["simulated_max_jitter"] = fig5[1]["analytic_max_jitter"] * 2
        failing = self._failing(healthy_rows(), fig5)
        assert failing == {"fig5.bounds-conservative"}

    def test_unpinned_dropping_is_caught(self):
        rows = healthy_rows()
        for r in rows:
            if r["scheme"] == "proposed" and r["load"] == HEAVY:
                r["dropping_probability"] = 0.5  # proposed drops like DCF
        assert "fig6.dropping-pinned" in self._failing(rows)

    def test_reversed_voice_delay_ordering_is_caught(self):
        # e.g. a reversed Theorem 2 voice order destroying the win
        rows = healthy_rows()
        for r in rows:
            if r["scheme"] == "proposed":
                r["voice_delay_mean"] = 0.02  # now worse than conventional
        assert "fig8.voice-delay-proposed-wins" in self._failing(rows)

    def test_flattened_variance_ordering_is_caught(self):
        rows = healthy_rows()
        for r in rows:
            if r["scheme"] == "conventional":
                r["voice_delay_var"] = 1e-6  # as smooth as polling
        assert "fig8.voice-variance-ordering" in self._failing(rows)

    def test_missing_data_reversal_is_caught(self):
        rows = healthy_rows()
        for r in rows:
            if r["scheme"] == "proposed" and r["load"] == HEAVY:
                r["data_delay_mean"] = 0.01  # data no longer pays
        assert "fig10.data-delay-reversal" in self._failing(rows)

    def test_invariant_violations_are_caught_with_context(self):
        rows = healthy_rows()
        rows[4]["invariant_violations"] = ["[token t=1.0] bad regen"]
        results = by_id(evaluate_claims(rows, healthy_fig5()))
        claim = results["invariants.clean"]
        assert claim.status == "fail"
        dirty = claim.evidence["dirty_rows"]
        assert len(dirty) == 1
        assert dirty[0]["violations"] == ["[token t=1.0] bad regen"]


class TestSkips:
    def test_single_scheme_rows_skip_ordering_claims(self):
        rows = [r for r in healthy_rows() if r["scheme"] == "proposed"]
        results = by_id(evaluate_claims(rows, None))
        assert results["fig8.voice-delay-proposed-wins"].status == "skip"
        assert results["fig11.multipoll-efficiency"].status == "skip"
        assert results["fig5.bounds-conservative"].status == "skip"
        # proposed-only claims still evaluate
        assert results["fig6.dropping-pinned"].status == "pass"
        assert results["invariants.clean"].status == "pass"

    def test_unmonitored_rows_skip_invariants(self):
        rows = healthy_rows()
        for r in rows:
            del r["invariant_violations"]
        results = by_id(evaluate_claims(rows, healthy_fig5()))
        assert results["invariants.clean"].status == "skip"

    def test_empty_rows_all_skip(self):
        results = evaluate_claims([], None)
        assert {r.status for r in results} == {"skip"}


class TestThresholds:
    def test_dropping_over_the_cap_flips_verdict(self):
        rows = healthy_rows()
        for r in rows:
            if r["scheme"] == "proposed" and r["load"] == HEAVY:
                r["dropping_probability"] = 0.3  # over the 0.25 cap
        result = by_id(evaluate_claims(rows, healthy_fig5()))[
            "fig6.dropping-pinned"
        ]
        assert result.status == "fail"
        assert result.evidence["cap"] == 0.25

    def test_constants_are_self_consistent(self):
        assert 0 < shapes.DROPPING_CAP < 1
        assert shapes.VARIANCE_RATIO_MIN > 1
        assert pytest.approx(0.95) == shapes.CONFIDENCE
