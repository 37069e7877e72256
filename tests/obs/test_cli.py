"""CLI satellites: bare invocation help, and the trace subcommand."""

import json

from repro.__main__ import main
from repro.obs import validate_trace_file


def test_bare_invocation_prints_help_and_exits_zero(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "usage:" in out
    for command in ("quick", "sweep", "validate", "chaos", "trace"):
        assert command in out


def test_trace_subcommand_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(
        [
            "trace",
            "--time", "4",
            "--seed", "2",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    trace_path = out_dir / "trace.jsonl"
    metrics_path = out_dir / "metrics.json"
    assert validate_trace_file(str(trace_path)) > 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["final"]["counters"]
    assert len(metrics["periodic"]) == 4  # 1 Hz snapshots over [1, 4]
    out = capsys.readouterr().out
    assert "CFP/CP timeline" in out
    assert "events/s" in out
    assert "schema ok" in out
    # the run's cProfile table, heaviest self time first
    assert "s wall, profiled (" in out
    assert "Ordered by: internal time" in out
    assert "ncalls  tottime  percall  cumtime" in out


def test_trace_subcommand_category_filter(tmp_path):
    out_dir = tmp_path / "artifacts"
    code = main(
        [
            "trace",
            "--time", "3",
            "--categories", "cfp", "token",
            "--snapshot-interval", "0",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    cats = set()
    with open(out_dir / "trace.jsonl", encoding="utf-8") as fh:
        for line in fh:
            cats.add(json.loads(line)["cat"])
    assert cats <= {"cfp", "token"}
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["periodic"] == []
