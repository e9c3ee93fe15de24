"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_run_broker_timelock(capsys):
    assert main(["run", "--workload", "broker", "--protocol", "timelock"]) == 0
    out = capsys.readouterr().out
    assert "all committed" in out
    assert "safety (P1)     : True" in out
    assert "Gas by phase" in out


def test_run_ring_cbc(capsys):
    assert main(["run", "--workload", "ring", "--n", "3", "--protocol", "cbc"]) == 0
    out = capsys.readouterr().out
    assert "all committed" in out


def test_run_auction(capsys):
    assert main(["run", "--workload", "auction"]) == 0


def test_run_pow(capsys):
    assert main(["run", "--workload", "broker", "--protocol", "cbc-pow"]) == 0


def test_run_batch_votes(capsys):
    assert main(["run", "--workload", "ring", "--n", "4", "--batch-votes"]) == 0


def test_run_random_workload(capsys):
    assert main(["run", "--workload", "random", "--n", "3", "--seed", "5"]) == 0


def test_gauntlet_small(capsys):
    assert main(["gauntlet", "--deals", "1"]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_attack_sweep(capsys):
    assert main(["attack", "--alpha", "0.2", "--depths", "0", "2", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "success rate" in out


def test_parser_rejects_unknown_workload():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "nonsense"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_trace_summary_missing_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["trace-summary", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err


@pytest.mark.parametrize("bad_line", ["not json", "[1, 2]"])
def test_trace_summary_bad_line_names_file_and_line(tmp_path, capsys, bad_line):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(f'{{"type": "meta"}}\n\n{bad_line}\n', encoding="utf-8")
    assert main(["trace-summary", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {trace}:3: ")
