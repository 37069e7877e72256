"""Fig. 7 — new-call blocking probability vs offered load.

Paper shape: the tradeoff — at heavy load the proposed scheme blocks
*more* new calls than the conventional protocol (its admission is
deliberately conservative to keep the admitted calls' hard QoS and
protect handoffs).
"""

from repro.experiments import FIGURE_METRICS, average_over_seeds, format_table

from conftest import SWEEP_LOADS, by_scheme_load, save_artifact


def test_fig7(benchmark, sweep_rows):
    rows = benchmark(average_over_seeds, sweep_rows, FIGURE_METRICS["fig7"])
    save_artifact(
        "fig7.txt",
        format_table(
            rows,
            ["scheme", "load", "blocking_probability", "blocking_probability_std"],
            title="Fig. 7 - new-call blocking probability vs offered load",
        ),
    )
    proposed = by_scheme_load(rows, "proposed")
    conventional = by_scheme_load(rows, "conventional")
    top = max(SWEEP_LOADS)

    # blocking grows with load for both schemes (their heavy-load
    # ordering is validate's fig7.conservative-admission claim)
    assert (
        conventional[top]["blocking_probability"]
        >= conventional[min(SWEEP_LOADS)]["blocking_probability"]
    )
    assert (
        proposed[top]["blocking_probability"]
        >= proposed[min(SWEEP_LOADS)]["blocking_probability"] - 0.05
    )

