"""Command-line surface: build cells and representations, run sweeps, export.

Subcommands: cell, syt, rep, induce, bn, tops, verify.  Output is plain text
by default; `--json` emits a versioned schema with rationals as "p/q"
strings; `cell --format dot` draws the Hasse diagram of a cell with the
step coefficients on the edges.  Exit status 0 means every requested check
passed, 1 reports failures, 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cells import Functional, descent_cell
from .errors import AyrepError
from .groups import Permutation, identity
from .induction import build_parabolic_from_shapes, induce, row_filling_pair
from .reps import (
    ORTHOGONAL,
    SEMINORMAL,
    Representation,
    build_from_functional,
    char_inner,
    character,
    verify_coxeter,
)
from .tableaux import SkewShape, enumerate_standard
from .tops import top_elements
from .verify import SUITES, _check_signed_pair, _tops_failures, run_suites

SCHEMA_VERSION = 1


def _fraction_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return repr(x)


def _json_matrix(m) -> list:
    return [[_fraction_str(m.entry(i, j)) for j in range(m.dim)] for i in range(m.dim)]


def _dump(payload: dict) -> list:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    return [json.dumps(payload, sort_keys=True, indent=2)]


def _int_list(text: str) -> tuple:
    """Comma-separated integers; empty parts are skipped."""
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _int_lists(text: str) -> tuple:
    """Semicolon-separated comma lists of integers."""
    return tuple(_int_list(part) for part in text.split(";") if part)


def _names(text: str) -> tuple:
    return tuple(text.split(","))


def _rep_payload(rep: Representation) -> dict:
    """The representation's JSON fields; its basis is made of permutations."""
    return {
        "group_type": rep.group_type,
        "n": rep.n,
        "normalization": rep.normalization,
        "dimension": rep.dim,
        "basis": [b.one_line() for b in rep.basis],
        "matrices": {str(g): _json_matrix(rep.matrices[g]) for g in rep.gens},
    }


def _cmd_cell(args: argparse.Namespace) -> tuple:
    f = Functional(args.f)
    w = Permutation(args.w) if args.w else identity(f.size)
    fmt = "json" if args.json else args.format
    if fmt == "dot":
        return 0, _cell_dot(build_from_functional(f, w))
    cell = descent_cell(f, w)
    if fmt == "json":
        return 0, _dump(
            {
                "command": "cell",
                "functional": list(f.coords),
                "members": [m.one_line() for m in cell.members],
                "interior": [[t.i, t.j] for t in sorted(cell.interior)],
                "boundary": [[t.i, t.j] for t in sorted(cell.boundary)],
            }
        )
    lines = [
        "members  " + " / ".join(m.one_line() for m in cell.members),
        "T_K      " + " ".join(str(t) for t in sorted(cell.interior)),
        "T_dK     " + " ".join(str(t) for t in sorted(cell.boundary)),
    ]
    return 0, lines


def _cell_dot(rep: Representation) -> list:
    """Hasse diagram of a cell representation, each up-step labelled with its column's a and b."""
    lines = ["digraph cell {", "  rankdir=BT;"]
    for w in rep.basis:
        lines.append(f'  "{w.one_line()}";')
    for j, w in enumerate(rep.basis):
        for g in rep.gens:
            col = rep.matrices[g].cols.get(j, {})
            for k, b in col.items():
                if rep.basis[k].length() > w.length():
                    lines.append(
                        f'  "{w.one_line()}" -> "{rep.basis[k].one_line()}" '
                        f'[label="s{g} (a={col[j]}, b={b})"];'
                    )
    lines.append("}")
    return lines


def _cmd_syt(args: argparse.Namespace) -> tuple:
    shape = SkewShape(args.shape, args.mu)
    tabs = enumerate_standard(shape)
    if args.json:
        return 0, _dump(
            {
                "command": "syt",
                "shape": str(shape),
                "count": len(tabs),
                "tableaux": [t.to_json_dict() for t in tabs],
            }
        )
    lines = [f"{len(tabs)} standard tableaux of {shape}"]
    for t in tabs:
        lines.append("")
        lines.append(t.to_text())
    return 0, lines


def _cmd_rep(args: argparse.Namespace) -> tuple:
    f = Functional(args.f)
    w = Permutation(args.w) if args.w else identity(f.size)
    rep = build_from_functional(f, w, args.form)
    if rep.is_exact:  # the float form prints no character
        chi = character(rep)
        irreducible = char_inner(chi, chi) == 1
    if args.json:
        payload = _rep_payload(rep)
        payload["command"] = "rep"
        if rep.is_exact:
            payload["character"] = {
                r.one_line(): _fraction_str(v) for r, v in chi.values.items()
            }
            payload["irreducible"] = irreducible
        return 0, _dump(payload)
    lines = [f"dimension {rep.dim}, normalization {rep.normalization}"]
    lines.append("basis " + " / ".join(b.one_line() for b in rep.basis))
    for g in rep.gens:
        lines.append(f"s{g}:")
        for row in rep.matrices[g].to_dense():
            lines.append("  " + " ".join(str(x) for x in row))
    if rep.is_exact:
        lines.append(
            "character "
            + ", ".join(f"{r.one_line()}: {v}" for r, v in chi.values.items())
        )
        lines.append(f"irreducible {irreducible}")
    return 0, lines


def _cmd_induce(args: argparse.Namespace) -> tuple:
    psi = build_parabolic_from_shapes(args.j, args.n, args.shapes, args.form)
    induced = induce(psi)
    chi = character(induced)
    ok = verify_coxeter(induced).ok
    if args.json:
        payload = _rep_payload(induced)
        payload["command"] = "induce"
        payload["coxeter_ok"] = ok
        payload["character"] = {
            r.one_line(): _fraction_str(v) for r, v in chi.values.items()
        }
        return (0 if ok else 1), _dump(payload)
    lines = [
        f"induced dimension {induced.dim} from J={list(args.j)}",
        "character "
        + ", ".join(f"{r.one_line()}: {v}" for r, v in chi.values.items()),
        f"coxeter relations {'ok' if ok else 'FAILED'}",
    ]
    return (0 if ok else 1), lines


def _cmd_bn(args: argparse.Namespace) -> tuple:
    ext, checks, failures = _check_signed_pair(*row_filling_pair(args.lam, args.mu), args.form)
    status = 1 if failures else 0
    if args.json:
        payload = _rep_payload(ext)
        payload["command"] = "bn"
        payload.update(checks)
        return status, _dump(payload)
    lines = [
        f"signed group on {ext.n} letters, shapes ({args.lam}, {args.mu}), dimension {ext.dim}",
        f"coxeter relations {'ok' if checks['coxeter_ok'] else 'FAILED'}",
        f"classical form match {'ok' if checks['classical_match'] else 'FAILED'}",
    ]
    if checks["irreducible"] is not None:
        lines.append(f"irreducible {checks['irreducible']}")
    return status, lines


def _cmd_tops(args: argparse.Namespace) -> tuple:
    report = top_elements(args.n)
    status = 1 if _tops_failures(report) else 0
    if args.json:
        payload = {
            "command": "tops",
            "n": report.n,
            "partition_count": report.p_n,
            "distinct_candidates": report.distinct_candidates,
            "oracle": sorted(w.one_line() for w in report.oracle),
            "oracle_matches_candidates": report.oracle_matches_down,
            "rows": [
                {
                    "shape": list(r.lam),
                    "element": r.maximum.one_line(),
                    "interval_size": r.interval_size,
                    "irreducible": r.irreducible,
                    "oracle_agrees": r.oracle_certified,
                    "column_word_down": r.column_word_down.one_line(),
                    "column_word_up": r.column_word_up.one_line(),
                }
                for r in report.rows
            ],
        }
        return status, _dump(payload)
    lines = [
        f"top elements of the symmetric group on {report.n} letters "
        f"(p(n)={report.p_n}, distinct candidates={report.distinct_candidates})"
    ]
    lines.append("shape | element | interval | irreducible | oracle")
    for r in report.rows:
        lines.append(
            f"{','.join(map(str, r.lam))} | {r.maximum.one_line()} | "
            f"{r.interval_size} | {r.irreducible} | {r.oracle_certified}"
        )
    lines.append(
        f"oracle set {{{', '.join(sorted(w.one_line() for w in report.oracle))}}}"
        f" matches candidates: {report.oracle_matches_down}"
    )
    return status, lines


def _cmd_verify(args: argparse.Namespace) -> tuple:
    results = run_suites(args.suite, args.n, args.seed)
    ok = all(r.ok for r in results)
    if args.json:
        payload = {
            "command": "verify",
            "ok": ok,
            "suites": [r._asdict() for r in results],  # tuples dump as JSON lists
        }
        return (0 if ok else 1), _dump(payload)
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.ok else 'FAIL'}] {r.name}")
        lines.extend(f"    {d}" for d in r.details)
        lines.extend(f"    counterexample: {c}" for c in r.counterexamples)
    return (0 if ok else 1), lines


_COMMANDS = {
    "cell": _cmd_cell,
    "syt": _cmd_syt,
    "rep": _cmd_rep,
    "induce": _cmd_induce,
    "bn": _cmd_bn,
    "tops": _cmd_tops,
    "verify": _cmd_verify,
}


def run(args: argparse.Namespace) -> tuple:
    """Execute parsed arguments; returns (exit_status, output lines)."""
    try:
        return _COMMANDS[args.command](args)
    except (AyrepError, ValueError) as exc:
        return 1, [f"error: {exc}"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ayrep",
        description="exact cell representations of symmetric and signed groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("--form", choices=[SEMINORMAL, ORTHOGONAL], default=SEMINORMAL)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cell = sub.add_parser("cell", parents=[common], help="descent cell of a functional")
    p_cell.add_argument("--n", type=int, required=True)
    p_cell.add_argument("--f", type=_int_list, required=True, help="comma-separated coordinates")
    p_cell.add_argument("--w", type=_int_list, help="base element, one-line notation")
    p_cell.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p_syt = sub.add_parser("syt", parents=[common], help="standard fillings of a shape")
    p_syt.add_argument("--shape", type=_int_list, required=True)
    p_syt.add_argument("--mu", type=_int_list, default="")

    p_rep = sub.add_parser("rep", parents=[common, form],
                            help="representation matrices from a functional")
    p_rep.add_argument("--n", type=int, required=True)
    p_rep.add_argument("--f", type=_int_list, required=True)
    p_rep.add_argument("--w", type=_int_list)

    p_ind = sub.add_parser("induce", parents=[common, form],
                            help="induce a parabolic cell representation")
    p_ind.add_argument("--n", type=int, required=True)
    p_ind.add_argument("--j", type=_int_list, required=True, help="generator indices, e.g. 1,2,4")
    p_ind.add_argument("--shapes", type=_int_lists, default="",
                       help="semicolon-separated partitions")

    p_bn = sub.add_parser("bn", parents=[common, form],
                           help="signed-group representation of a shape pair")
    p_bn.add_argument("--lam", type=_int_list, default="", help="first partition, e.g. 2,1")
    p_bn.add_argument("--mu", type=_int_list, default="", help="second partition")

    p_tops = sub.add_parser("tops", parents=[common], help="classify top elements")
    p_tops.add_argument("--n", type=int, required=True)

    p_ver = sub.add_parser("verify", parents=[common], help="run verification sweeps")
    p_ver.add_argument("--n", type=int, default=None, help="size bound n_max (default: each "
                       "suite's own), clamped to the suite's largest; flat ignores it")
    p_ver.add_argument("--suite", type=_names, default="coxeter",
                       help=f"comma list from {sorted(SUITES)}")
    p_ver.add_argument("--seed", type=int, default=0)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("cell", "rep") and len(args.f) != args.n:
        parser.error(f"--f needs exactly {args.n} coordinates, got {len(args.f)}")
    if args.command == "verify":
        unknown = [s for s in args.suite if s not in SUITES]
        if unknown:
            parser.error(f"unknown suites {unknown}; choose from {sorted(SUITES)}")
    return args


def main(argv=None) -> int:
    status, lines = run(parse_args(argv))
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): the flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
