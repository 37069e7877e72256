"""Fig. 10 — average access delay of data traffic.

Paper shape: the ordering reverses — data is the proposed scheme's
lowest priority class, so at heavy load its data delay exceeds the
conventional protocol's (which treats all traffic alike).
"""

from repro.experiments import fig10, format_table

from conftest import SWEEP_LOADS, by_scheme_load, save_artifact


def test_fig10(benchmark, sweep_rows):
    rows = benchmark(fig10, sweep_rows)
    save_artifact(
        "fig10.txt",
        format_table(
            rows,
            ["scheme", "load", "data_delay_mean", "data_delay_var"],
            title="Fig. 10 - average access delay of data traffic (s, s^2)",
        ),
    )
    proposed = by_scheme_load(rows, "proposed")
    top = max(SWEEP_LOADS)

    # data delay rises steeply with load under the proposed scheme (its
    # heavy-load reversal over conventional is validate's
    # fig10.data-delay-reversal claim)
    assert (
        proposed[top]["data_delay_mean"]
        > 5 * proposed[min(SWEEP_LOADS)]["data_delay_mean"]
    )

