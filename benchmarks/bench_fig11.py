"""Fig. 11 — average bandwidth utilization vs offered load.

Paper shape: utilization grows with load for every scheme; the
proposed scheme's sits somewhat lower in a highly loaded system (the
price of conservative admission for hard QoS), and the multipoll
variant recovers part of the polling overhead relative to single-poll.
"""

from repro.experiments import fig11, format_table

from conftest import SWEEP_LOADS, by_scheme_load, save_artifact


def test_fig11(benchmark, sweep_rows):
    rows = benchmark(fig11, sweep_rows)
    save_artifact(
        "fig11.txt",
        format_table(
            rows,
            ["scheme", "load", "channel_busy_fraction", "goodput_utilization"],
            title="Fig. 11 - average bandwidth utilization vs offered load",
        ),
    )
    proposed = by_scheme_load(rows, "proposed")
    multipoll = by_scheme_load(rows, "proposed-multipoll")
    conventional = by_scheme_load(rows, "conventional")
    top, bottom = max(SWEEP_LOADS), min(SWEEP_LOADS)

    # utilization grows with load
    for series in (proposed, multipoll, conventional):
        assert (
            series[top]["channel_busy_fraction"]
            > series[bottom]["channel_busy_fraction"]
        )
    # the proposed scheme trades utilization for hard QoS at heavy load
    assert (
        proposed[top]["channel_busy_fraction"]
        < conventional[top]["channel_busy_fraction"]
    )
    # (multipoll's heavy-load goodput against single-poll is validate's
    # fig11.multipoll-efficiency claim)

