"""Fig. 8 — average access delay of voice traffic (+ variance).

Paper shape: near-parity at light load; at heavy load the conventional
protocol's voice delay is several times the proposed scheme's, and the
variance ordering is multipoll < single-poll < conventional.
"""

from repro.experiments import FIGURE_METRICS, average_over_seeds, format_table

from conftest import SWEEP_LOADS, by_scheme_load, save_artifact


def test_fig8(benchmark, sweep_rows):
    rows = benchmark(average_over_seeds, sweep_rows, FIGURE_METRICS["fig8"])
    save_artifact(
        "fig8.txt",
        format_table(
            rows,
            ["scheme", "load", "voice_delay_mean", "voice_delay_var"],
            title="Fig. 8 - average access delay of voice traffic (s, s^2)",
        ),
    )
    proposed = by_scheme_load(rows, "proposed")
    multipoll = by_scheme_load(rows, "proposed-multipoll")
    conventional = by_scheme_load(rows, "conventional")
    top = max(SWEEP_LOADS)

    # heavy load: conventional voice delay above the proposed scheme's
    # (the gap is bounded by the 30 ms jitter deadline — packets that
    # would show the conventional protocol's worst delays are discarded
    # as losses instead, so the mean ordering is strict but not huge)
    assert (
        conventional[top]["voice_delay_mean"]
        > 1.2 * proposed[top]["voice_delay_mean"]
    )
    # the proposed scheme's voice delay stays essentially flat
    assert proposed[top]["voice_delay_mean"] < 0.010  # < 10 ms
    # the paper's headline Fig. 8 numbers are the variances
    # (conventional 136 vs proposed 21 / multipoll 15): conventional is
    # by far the most erratic
    assert (
        conventional[top]["voice_delay_var"]
        > 2 * proposed[top]["voice_delay_var"]
    )
    assert (
        conventional[top]["voice_delay_var"]
        > 2 * multipoll[top]["voice_delay_var"]
    )

