import json
import subprocess
import sys

import pytest

from ayrep.cli import main, parse_args, run


def _run(argv):
    return run(parse_args(argv))


def test_cell_command_text():
    status, lines = _run(["cell", "--n", "3", "--f", "0,2,-1"])
    assert status == 0
    assert lines[0].startswith("members")
    assert set(lines[0].split()[1:]) >= {"1,2,3", "2,1,3", "1,3,2"}


def test_cell_command_json_deterministic():
    first = _run(["cell", "--n", "3", "--f", "0,2,-1", "--json"])
    second = _run(["cell", "--n", "3", "--f", "0,2,-1", "--json"])
    assert first == second
    payload = json.loads("\n".join(first[1]))
    assert payload["schema_version"] == 1
    assert payload["members"] == ["1,2,3", "1,3,2", "2,1,3"]
    assert payload["boundary"] == [[1, 3]]


def test_cell_dot_export():
    status, lines = _run(["cell", "--n", "3", "--f", "0,1,-1", "--format", "dot"])
    assert status == 0
    assert lines[0] == "digraph cell {"
    assert any("label=" in line for line in lines)


def test_syt_command():
    status, lines = _run(["syt", "--shape", "2,1", "--json"])
    payload = json.loads("\n".join(lines))
    assert status == 0
    assert payload["count"] == 2


def test_rep_command_json():
    status, lines = _run(["rep", "--n", "3", "--f", "0,1,-1", "--json"])
    payload = json.loads("\n".join(lines))
    assert status == 0
    assert payload["dimension"] == 2
    assert payload["matrices"]["1"] == [["1/1", "0/1"], ["0/1", "-1/1"]]
    assert payload["irreducible"] is True


def test_rep_command_rejects_bad_functional():
    status, lines = _run(["rep", "--n", "3", "--f", "0,1,0"])
    assert status == 1
    assert "error" in lines[0]


def test_induce_command():
    status, lines = _run(["induce", "--n", "3", "--j", "1", "--shapes", "2", "--json"])
    payload = json.loads("\n".join(lines))
    assert status == 0
    assert payload["dimension"] == 3
    assert payload["coxeter_ok"] is True


def test_bn_command():
    status, lines = _run(["bn", "--lam", "1", "--mu", "1", "--json"])
    payload = json.loads("\n".join(lines))
    assert status == 0
    assert payload["coxeter_ok"] and payload["classical_match"]
    assert payload["irreducible"] is True


def test_tops_command():
    status, lines = _run(["tops", "--n", "3", "--json"])
    payload = json.loads("\n".join(lines))
    assert status == 0
    assert payload["oracle"] == ["1,2,3", "1,3,2"]
    assert payload["oracle_matches_candidates"] is True


def test_verify_command_exit_status():
    status, lines = _run(["verify", "--n", "3", "--suite", "coxeter,cells"])
    assert status == 0
    assert any(line.startswith("[PASS] coxeter") for line in lines)
    assert any(line.startswith("[PASS] cells") for line in lines)


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "0", "--suite", "cells"],
    ["verify", "--n", "1", "--suite", "regular"],
    ["verify", "--n", "0", "--suite", "specht"],
    ["verify", "--n", "1", "--suite", "convexity"],
])
def test_verify_that_checks_nothing_fails(argv):
    status, lines = _run(argv)
    assert status == 1
    assert lines[0] == f"[FAIL] {argv[-1]}"
    assert lines[-1] == "    no checks performed"
    status, lines = _run(argv + ["--json"])
    (suite,) = json.loads("\n".join(lines))["suites"]
    assert status == 1 and suite["ok"] is False
    assert suite["details"][-1] == "no checks performed"


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as err:
        _run(["verify", "--n", "3", "--suite", "nonsense"])
    assert err.value.code == 2


def test_verify_json_seed_determinism():
    a = _run(["verify", "--n", "3", "--suite", "minimal", "--seed", "5", "--json"])
    b = _run(["verify", "--n", "3", "--suite", "minimal", "--seed", "5", "--json"])
    assert a == b


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        parse_args(["cell", "--n", "3"])  # missing --f
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parse_args(["cell", "--n", "3", "--f", "0,2"])  # length mismatch
    assert err.value.code == 2
    for argv in (
        ["cell", "--n", "2", "--f", "a,b"],
        ["induce", "--n", "3", "--j", "x"],
        ["syt", "--shape", "1,x"],
    ):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2


def test_bn_above_the_signed_cap_is_an_error(monkeypatch):
    monkeypatch.delenv("AYREP_MAX_N", raising=False)
    status, lines = _run(["bn", "--lam", "3,3"])
    assert status == 1
    assert lines == [
        "error: type B enumeration capped at n=5 (requested 6); raise AYREP_MAX_N to override"
    ]


@pytest.mark.parametrize("argv", [
    ["bn", "--lam", "4", "--mu", "4"],
    ["induce", "--n", "8", "--j", "1", "--shapes", "2"],
])
def test_builders_above_the_symmetric_cap_are_an_error(monkeypatch, argv):
    monkeypatch.delenv("AYREP_MAX_N", raising=False)
    status, lines = _run(argv)
    assert status == 1
    assert lines == [
        "error: type A enumeration capped at n=7 (requested 8); raise AYREP_MAX_N to override"
    ]


def test_bn_with_both_shapes_empty_is_an_error():
    status, lines = _run(["bn", "--lam", "", "--mu", ""])
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bn", "--lam", "0", "--mu", "1"],
    ["bn", "--lam", "0,0", "--mu", "2"],
    ["bn", "--lam", "1", "--mu", "0"],
])
def test_bn_rejects_zero_parts(argv):
    status, lines = _run(argv)
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_bn_names_a_bad_second_shape(capsys):
    assert main(["bn", "--lam", "1", "--mu", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "error: mu must be a positive weakly decreasing sequence: (0,)"
    ]
    assert "Traceback" not in captured.err


def test_bn_with_one_empty_shape_is_valid():
    status, _ = _run(["bn", "--lam", "", "--mu", "1"])
    assert status == 0


def test_induce_names_a_bad_generator_set():
    status, lines = _run(["induce", "--n", "3", "--j", "0", "--shapes", "1"])
    assert status == 1
    assert lines == ["error: J must be generator indices within 1..2"]


def test_invalid_shape_reports_error():
    status, lines = _run(["syt", "--shape", "1,2"])
    assert status == 1
    assert lines[0].startswith("error:")


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ayrep.cli", "cell", "--n", "3", "--f", "0,2,-1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "members" in proc.stdout


def test_main_returns_status(capsys):
    assert main(["cell", "--n", "3", "--f", "0,2,-1"]) == 0
    out = capsys.readouterr().out
    assert "members" in out
