import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import ayrep.cli
import ayrep.reps
from ayrep import induction, tops, verify
from ayrep.cli import main, parse_args, run
from ayrep.linalg import SquareMatrix
from ayrep.reps import ORTHOGONAL, SEMINORMAL
from ayrep.verify import SUITES
from pins import CAP


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


@pytest.mark.parametrize("f", ["0,0", "2,2,-1"])
def test_cell_dot_needs_a_generic_functional(f):
    # an edge inside the cell pairs to 0: no seminormal coefficient exists
    status, lines = _run(["cell", "--n", str(f.count(",") + 1), "--f", f, "--format", "dot"])
    assert status == 1
    assert lines == ["error: functional not generic for the cell: <f,(1,2)> = 0"]


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


@pytest.mark.parametrize("form, traces", [([], 1), (["--form", ORTHOGONAL], 0)])
def test_rep_traces_the_character_once_and_only_when_exact(monkeypatch, form, traces):
    calls = []
    real = ayrep.reps.character
    for module in (ayrep.cli, ayrep.reps):
        monkeypatch.setattr(module, "character", lambda rep: calls.append(rep) or real(rep))
    status, _ = _run(["rep", "--n", "5", "--f", "0,1,2,-1,0", *form, "--json"])
    assert status == 0
    assert len(calls) == traces


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_tops_without_letters_is_an_error(capsys, n):
    assert main(["tops", f"--n={n}"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"error: top elements need n >= 1, got n={n}"]
    assert "Traceback" not in captured.err


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


def test_verify_above_the_cap_fails_before_any_suite_runs(monkeypatch):
    monkeypatch.delenv("AYREP_MAX_N", raising=False)

    def suite(**kwargs):
        raise AssertionError("a suite ran")

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, suite)
    suites = "flat,specht,coxeter,axiomB,cells,regular"
    status, lines = _run(["verify", "--n", "8", "--suite", suites])
    assert status == 1
    assert lines == [
        "error: type A enumeration capped at n=7 (requested 8); raise AYREP_MAX_N to override"
    ]


# suite -> {its --n (None: no --n): the largest n that run touches}, at the suite's
# default size and at an --n at or below its largest; `flat` ignores --n
TOUCHED = {
    "coxeter": {None: 6, 3: 3, 5: 6, 6: 6},  # at n_max = 5 an n = 6 sample rides along
    "axiomB": {None: 5, 3: 3, 6: 6},
    "cells": {None: 6, 3: 3, 6: 6},
    "specht": {None: 5, 3: 3, 6: 6},
    "regular": {None: 5, 3: 3, 6: 6},
    "flat": {None: 5, 3: 5, 6: 5},
    "minimal": {None: 4, 3: 3, 5: 5},
    "induction": {None: 5, 3: 3, 5: 5},
    "bn": {None: 4, 3: 3, 4: 4},
    "tops": {None: 5, 3: 3, 5: 5},
    "convexity": {None: 5, 3: 3, 5: 5},
}


@pytest.mark.parametrize("suite, n, touched", [
    (suite, n, touched) for suite, sizes in TOUCHED.items() for n, touched in sizes.items()])
def test_every_suite_over_the_cap_fails_before_any_work(monkeypatch, suite, n, touched):
    # with the cap one below the largest n a run touches, with or without --n, it
    # fails at once: no cell is walked, no form built and no suite called
    def work(*args, **kwargs):
        raise AssertionError("work started before the cap check")

    for name in ("descent_cell", "build_from_functional", "build_orthogonal_skew"):
        monkeypatch.setattr(verify, name, work)
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, work)
    monkeypatch.setenv("AYREP_MAX_N", str(touched - 1))
    size = [] if n is None else ["--n", str(n)]
    assert _run(["verify", *size, "--suite", suite]) == (1, [CAP.format(touched - 1, touched)])


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


def test_a_fresh_cli_import_loads_no_dataclasses_or_inspect():
    # every command is a fresh interpreter that writes no bytecode, so it pays for each
    # module `import ayrep.cli` loads; `dataclasses` would bring `inspect`, `ast` and `dis`
    src = str(Path(ayrep.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ayrep.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_closed_pipe_exits_1_without_a_traceback():
    # about 115 KB of JSON, more than a pipe holds, so the writer meets the closed end
    with subprocess.Popen(
        [sys.executable, "-m", "ayrep.cli", "syt", "--shape", "4,3,2", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_main_returns_status(capsys):
    assert main(["cell", "--n", "3", "--f", "0,2,-1"]) == 0
    out = capsys.readouterr().out
    assert "members" in out


# the CLI contract for generated argv --------------------------------------------

_csv = ",".join


def _ints(lo, hi, size):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(
        lambda xs: _csv(map(str, xs)))


@st.composite
def _argv(draw):
    """argv for one subcommand at n <= 4; list values go as --opt=value, so a
    leading minus sign is not read as an option."""
    command = draw(st.sampled_from(["cell", "syt", "rep", "induce", "bn", "tops", "verify"]))
    n = draw(st.integers(-1, 4))
    form = ["--form", draw(st.sampled_from([SEMINORMAL, ORTHOGONAL]))]
    if command in ("cell", "rep"):
        k = max(n, 0) + draw(st.sampled_from([0, 0, 0, 1]))  # k != n is a usage error
        argv = [command, f"--n={n}", f"--f={draw(_ints(-3, 3, k))}"]
        if draw(st.booleans()):
            argv.append(f"--w={_csv(map(str, draw(st.permutations(range(1, max(n, 0) + 1)))))}")
        if command == "cell":
            argv += ["--format", draw(st.sampled_from(["text", "json", "dot"]))]
        else:
            argv += form
    elif command == "syt":
        argv = ["syt", f"--shape={draw(_ints(-1, 3, draw(st.integers(0, 3))))}",
                f"--mu={draw(_ints(-1, 2, draw(st.integers(0, 2))))}"]
    elif command == "induce":
        shapes = draw(st.lists(_ints(0, 3, draw(st.integers(1, 2))), max_size=2))
        argv = ["induce", f"--n={n}", f"--j={draw(_ints(0, 4, draw(st.integers(0, 3))))}",
                f"--shapes={';'.join(shapes)}", *form]
    elif command == "bn":
        lam, mu = draw(st.tuples(st.lists(st.integers(0, 2), max_size=2),
                                 st.lists(st.integers(0, 2), max_size=2))
                       .filter(lambda pair: sum(pair[0]) + sum(pair[1]) <= 4))
        argv = ["bn", f"--lam={_csv(map(str, lam))}", f"--mu={_csv(map(str, mu))}", *form]
    elif command == "tops":
        argv = ["tops", f"--n={n}"]
    else:  # the suites that take a size; `flat` has its own examples below
        suites = draw(st.lists(st.sampled_from(sorted(verify.SIZES)),
                               min_size=1, max_size=2, unique=True))
        seed = draw(st.integers(0, 3))
        size = [f"--n={n}"] if draw(st.booleans()) else []  # or each suite's default
        argv = ["verify", *size, f"--suite={_csv(suites)}", f"--seed={seed}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


# The slowest example measured, `verify --suite=convexity,coxeter` at default size,
# took 1.4 s for its two runs (Python 3.11, shared 2-core VM): the deadline is 7 times that.
@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(_argv(), st.none() | st.integers(0, 6))
@example(["cell", "--n=2", "--f=0,0", "--format", "dot"], None)
@example(["cell", "--n=3", "--f=2,2,-1", "--format", "dot"], None)
# `flat` is not drawn, since a run takes about 0.6 s: it ignores --n, and it
# refuses to start under a cap below its n = 5
@example(["verify", "--suite=flat", "--n=9", "--json"], None)
@example(["verify", "--suite=flat"], 4)
def test_cli_contract_holds_for_generated_argv(argv, max_n):
    # max_n, when drawn, lowers the size cap for this example alone
    cap = {} if max_n is None else {"AYREP_MAX_N": str(max_n)}

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                status = exc.code
        return status, out.getvalue(), err.getvalue()

    with patch.dict(os.environ, cap):
        (status, text, err), again = run(), run()
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    # a second run in the same process answers the same: no cache or other
    # state left by the first changes the status or a byte of stdout
    assert again[:2] == (status, text)
    if text.startswith("error:"):
        assert status == 1 and text.count("\n") == 1
    elif status != 2 and ("--json" in argv or "json" in argv):  # or `cell --format json`
        assert "schema_version" in json.loads(text)


def test_a_perturbed_classical_entry_fails_both_bn_and_the_bn_suite(monkeypatch):
    argv = ["bn", "--lam", "1", "--json"]
    assert _run(argv)[0] == 0 and verify.bn_suite(n_max=1).ok

    def perturbed(p, q, normalization):
        ext, classical, index_map = induction.match_signed_forms(p, q, normalization)
        m = classical.matrices[0]
        cols = {j: dict(col) for j, col in m.cols.items()}
        cols[0][0] += 2  # a sign, so it becomes 3 or 1
        classical = classical._replace(
            matrices={**classical.matrices, 0: SquareMatrix(m.dim, cols)})
        return ext, classical, index_map

    monkeypatch.setattr(verify, "match_signed_forms", perturbed)
    status, lines = _run(argv)
    payload = json.loads("\n".join(lines))
    assert status == 1
    assert (payload["coxeter_ok"], payload["classical_match"], payload["irreducible"]) == (
        True, False, True)
    assert _run(argv[:-1]) == (1, [
        "signed group on 1 letters, shapes ((1,), ()), dimension 1",
        "coxeter relations ok",
        "classical form match FAILED",
        "irreducible True",
    ])
    result = verify.bn_suite(n_max=1)
    assert not result.ok
    assert result.counterexamples == tuple(
        f"n=1 {pair} {form}: generator 0 mismatch"
        for pair in ("((),(1,))", "((1,),())") for form in (SEMINORMAL, ORTHOGONAL))


def test_a_row_marked_non_interval_fails_both_tops_and_the_tops_suite(monkeypatch):
    assert _run(["tops", "--n", "2"])[0] == 0 and verify.tops_suite(n_max=2).ok

    def marked(n):
        report = tops.top_elements(n)
        rows = (report.rows[0]._replace(is_interval=False), *report.rows[1:])
        return report._replace(rows=rows)

    for module in (ayrep.cli, verify):
        monkeypatch.setattr(module, "top_elements", marked)
    for argv in (["tops", "--n", "2"], ["tops", "--n", "2", "--json"]):
        assert _run(argv)[0] == 1
    result = verify.tops_suite(n_max=2)
    assert not result.ok
    assert result.counterexamples == (
        "n=1 shape (1,): cell of the row filling not an interval",
        "n=2 shape (2,): cell of the row filling not an interval",
    )
