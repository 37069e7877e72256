"""Fig. 9 — average access delay of video traffic (+ variance).

Paper shape: same ordering as voice — the conventional protocol's
video delay sits near its (fixed-superframe) structural latency and
far above the proposed scheme's token-pipelined service.
"""

from repro.experiments import FIGURE_METRICS, average_over_seeds, format_table

from conftest import SWEEP_LOADS, by_scheme_load, save_artifact


def test_fig9(benchmark, sweep_rows):
    rows = benchmark(average_over_seeds, sweep_rows, FIGURE_METRICS["fig9"])
    save_artifact(
        "fig9.txt",
        format_table(
            rows,
            ["scheme", "load", "video_delay_mean", "video_delay_var"],
            title="Fig. 9 - average access delay of video traffic (s, s^2)",
        ),
    )
    proposed = by_scheme_load(rows, "proposed")
    multipoll = by_scheme_load(rows, "proposed-multipoll")
    conventional = by_scheme_load(rows, "conventional")
    top = max(SWEEP_LOADS)

    for load in SWEEP_LOADS:
        assert (
            conventional[load]["video_delay_mean"]
            > proposed[load]["video_delay_mean"]
        )
        assert (
            conventional[load]["video_delay_mean"]
            > multipoll[load]["video_delay_mean"]
        )
    # proposed video delay respects the 50 ms budget with a wide margin
    assert proposed[top]["video_delay_mean"] < 0.015

