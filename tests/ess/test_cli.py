"""`python -m repro ess`: flags, fault parsing, report file, exit code."""

import json

import pytest

from repro.__main__ import _parse_link_fault, main
from repro.ess import ESS_REPORT_SCHEMA
from repro.faults import LinkFault

SMOKE_ARGS = [
    "ess", "--rows", "2", "--cols", "2", "--epochs", "2",
    "--epoch", "10", "--new-rate", "0.15", "--residence", "15",
]


class TestLinkFaultParsing:
    def test_bare_link(self):
        fault = _parse_link_fault("ap/1x0-ap/1x1")
        assert fault == LinkFault("ap/1x0", "ap/1x1")

    def test_windowed(self):
        fault = _parse_link_fault("ap/0x0-ap/0x1:10:50")
        assert fault == LinkFault("ap/0x0", "ap/0x1", start=10.0, end=50.0)

    def test_open_ended(self):
        fault = _parse_link_fault("ap/0x0-ap/0x1:10")
        assert fault.start == 10.0 and fault.end is None

    def test_bad_specs_rejected(self):
        import argparse

        for bad in ("ap/0x0", "ap/0x0-ap/0x1:nope", "ap/0x0-ap/0x1:50:10"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_link_fault(bad)


class TestEssCli:
    def test_clean_run_exits_zero_and_writes_report(
        self, tmp_path, capsys
    ):
        out = tmp_path / "report.json"
        assert main(SMOKE_ARGS + ["--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == ESS_REPORT_SCHEMA
        assert report["passed"] is True
        stdout = capsys.readouterr().out
        assert "conservation: OK" in stdout

    def test_faulted_run_reports_failovers(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            SMOKE_ARGS
            + ["--fault", "ap/0x0-ap/0x1", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["backhaul"]["faulted_links"] == ["ap/0x0|ap/0x1"]
        assert report["config"]["backhaul_faults"] == [
            {"a": "ap/0x0", "b": "ap/0x1", "start": 0.0, "end": None}
        ]

    def test_unknown_fault_link_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(SMOKE_ARGS + ["--fault", "ap/9x9-ap/9x8",
                               "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "link the topology lacks" in err
        assert not (tmp_path / "r.json").exists()

    def test_frames_fidelity_runs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            SMOKE_ARGS
            + ["--fidelity", "frames", "--frames-time", "4",
               "--no-cache", "--journal", str(tmp_path / "j.jsonl"),
               "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert "frames" in report
        assert "frames tier:" in capsys.readouterr().err
