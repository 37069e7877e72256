"""Checkpoint journal: load, truncation tolerance, resume semantics."""

import pytest

from repro.exec import SweepJournal


def test_missing_journal_loads_empty(tmp_path):
    journal = SweepJournal(tmp_path / "none.jsonl")
    assert journal.load() == {}
    assert not journal.exists()


def test_append_and_load(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    journal.append("k1", {"seed": 1})
    journal.append("k2", {"seed": 2})
    assert journal.load() == {"k1": {"seed": 1}, "k2": {"seed": 2}}
    journal.close()


def test_truncated_tail_line_is_skipped(tmp_path):
    """A kill mid-append leaves a partial line; load must survive it."""
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    journal.append("k1", {"seed": 1})
    with journal.path.open("a") as fh:
        fh.write('{"key": "k2", "row": {"se')  # no newline: killed mid-write
    assert journal.load() == {"k1": {"seed": 1}}
    journal.close()


def test_start_without_resume_rewrites(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    journal.append("k1", {"seed": 1})
    journal.start(resume=False)
    assert journal.load() == {}
    journal.close()  # start() opens the handle append() writes through


def test_start_with_resume_preserves(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    journal.append("k1", {"seed": 1})
    journal.start(resume=True)
    assert journal.load() == {"k1": {"seed": 1}}
    journal.close()


def test_foreign_manifest_ignored(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"something": "else"}\n{"key": "k1", "row": {}}\n')
    assert SweepJournal(path).load() == {}


@pytest.mark.parametrize("header", [
    '{"_manifest": true, "format": 4}',
    '{"something": "else"}',
    "[1]",
], ids=["older-format", "foreign", "not-an-object"])
def test_resume_over_a_stale_manifest_rewrites_the_journal(tmp_path, header):
    # appending under a header load() rejects would leave every new row
    # invisible to every later load
    path = tmp_path / "j.jsonl"
    path.write_text(header + '\n{"key": "k0", "row": {"seed": 0}}\n')
    journal = SweepJournal(path)
    assert journal.load() == {}
    journal.start(resume=True)
    journal.append("k1", {"seed": 1})
    journal.close()
    assert journal.load() == {"k1": {"seed": 1}}


def test_midfile_corruption_skips_warns_and_counts(tmp_path):
    import json

    import pytest

    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    for key in ("k1", "k2", "k3"):
        journal.append(key, {"key": key})
    journal.close()

    # rot the middle line only; the tail stays intact
    lines = journal.path.read_text().splitlines()
    lines[2] = lines[2][:8] + "}}}garbage"
    journal.path.write_text("\n".join(lines) + "\n")

    with pytest.warns(RuntimeWarning, match="skipped 1 corrupt"):
        done = journal.load()
    assert sorted(done) == ["k1", "k3"]  # lines past the rot survive
    assert journal.skipped_lines == 1

    # wrong-shaped but parseable entries count as corrupt too
    with journal.path.open("a") as fh:
        fh.write(json.dumps({"key": 42, "row": []}) + "\n")
        fh.write(json.dumps(["not", "an", "entry"]) + "\n")
    with pytest.warns(RuntimeWarning, match="skipped 3 corrupt"):
        journal.load()
    assert journal.skipped_lines == 3


def test_clean_load_resets_the_skip_counter(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    journal.start()
    journal.append("k1", {"seed": 1})
    journal.close()
    journal.skipped_lines = 7  # stale from a previous corrupt load
    assert journal.load() == {"k1": {"seed": 1}}
    assert journal.skipped_lines == 0
