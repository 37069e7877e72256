"""Tests for the ``python -m repro`` command-line front end."""

import pytest

from repro.__main__ import main


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "Table II" in out
    assert "0-3" in out  # the paper's example window


def test_quick_command_runs_short_scenario(capsys):
    assert main(["quick", "--time", "6", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "voice_delay_mean" in out
    assert "dropping_probability" in out


def test_quick_command_scheme_choice(capsys):
    assert main(["quick", "--time", "6", "--scheme", "conventional"]) == 0
    out = capsys.readouterr().out
    assert "scheme: conventional" in out


def test_fig5_command(capsys):
    assert main(["fig5", "--time", "4"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 5" in out
    assert "jitter bound" in out


def test_sweep_command_prints_all_figures(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--loads", "0.5", "--seeds", "1", "--time", "8"]) == 0
    out = capsys.readouterr().out
    for name in ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11"):
        assert name in out
    assert "dropping_probability" in out


def test_sweep_parallel_workers_and_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["sweep", "--loads", "0.5", "--seeds", "1", "--time", "8",
            "--schemes", "proposed", "conventional", "--workers", "2"]
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "workers=2" in err
    assert (tmp_path / ".repro-cache" / "results").is_dir()

    # re-running the same grid is served entirely from the cache
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "2 cached" in err
    assert "0 simulated" in err


def test_sweep_no_cache_writes_no_entries(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--loads", "0.5", "--seeds", "1", "--time", "8",
                 "--schemes", "proposed", "--no-cache"]) == 0
    assert not (tmp_path / ".repro-cache" / "results").exists()


def test_sweep_resume_skips_journaled_points(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    base = ["sweep", "--loads", "0.5", "--seeds", "1", "--time", "8",
            "--schemes", "proposed", "--no-cache"]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--resume"]) == 0
    err = capsys.readouterr().err
    assert "1 resumed" in err
    assert "0 simulated" in err


def test_sweep_out_archives_rows(tmp_path, monkeypatch):
    from repro.experiments import load_results

    monkeypatch.chdir(tmp_path)
    out = tmp_path / "rows.jsonl"
    assert main(["sweep", "--loads", "0.5", "--seeds", "1", "--time", "8",
                 "--schemes", "proposed", "--no-cache", "--out", str(out)]) == 0
    rows = load_results(out)
    assert len(rows) == 1
    assert rows[0]["scheme"] == "proposed"


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["quick", "--scheme", "bogus"])


def test_missing_command_prints_help(capsys):
    assert main([]) == 0
    assert "usage:" in capsys.readouterr().out
