"""Pinned SHA-256 digests of the values the sweeps build, not only their verdicts.

The golden and pinned outputs fix what the sweeps print.  A matrix entry or
a character value that changes but still passes its oracle changes none of
that: an int 0 that turns into Fraction(0), or a float that moves in its
last bit.  This module writes those values out canonically and hashes them.

- A basis is written as one-line words: a permutation by its images, a
  tableau by its rows, each read left to right, with "/" between rows, and
  a tableau pair as its two tableaux with "|" between them and "-" for an
  empty side.
- Each generator's stored entries are sorted by (column, row) and written
  with their type name; a float is written with `float.hex()`.
- A character is written as its values at the class representatives, sorted
  by their one-line words, each with its type name.

The digests at level n cover, for type A at size n: the seminormal form of
every skew shape's row filling and its character, the cell builder's
orthogonal form of the same row filling, the tableau-basis orthogonal form
of every skew shape, and the parabolic and induced forms and
the induced characters of the `induction` sweep (the traced character and
the class-sum oracle's); and for the signed group at size n - 1, for every
row-filling pair, seminormal and orthogonal: the shuffle-basis form, the
classical pair form (`bn_classical`) and the index map that
`match_signed_forms` aligns them by.
Up to n = 5, the largest size the `minimal` and `tops` suites reach, level n
also covers the answers of three brute-force oracles: the relabel cell of
every standard filling of every skew shape, the family of translated cells
that `minimal` checks its recognizer against, and the elements that
`is_top_brute` certifies.  A cell is written as its members' one-line words
in `sort_key` order, and the family as its cells sorted by that text.
`flat` covers the character tables that the `flat` suite traces, in the
order it traces them, and the generator matrices of every representation it
builds (one per generic functional and base element of each cell), in the
order it builds them.

Tier-1 (`test_value_digests.py`) checks the levels n <= 5.  `pins.py` runs
this file as a script for level 6 and for `flat`:

    PYTHONPATH=src python tests/value_digests.py 6 flat

It prints one line per digest and exits 1 on a mismatch.  With `--write` it
re-pins the digests it computes in pinned/value_digests.json instead.  A
change that means to change a value says so in CHANGES.md and re-pins them
in a commit of its own.
"""

import hashlib
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

from ayrep import verify
from ayrep.cells import Functional
from ayrep.groups import Permutation, identity, partitions, sym_group
from ayrep.induction import (
    build_parabolic_from_shapes,
    classical_induced_character,
    induce,
    j_intervals,
    match_signed_forms,
    row_filling_pair,
)
from ayrep.reps import (
    ORTHOGONAL,
    SEMINORMAL,
    build_from_functional,
    build_orthogonal_skew,
    character,
)
from ayrep.tableaux import (
    Tableau,
    content_vector,
    enumerate_standard,
    relabel_cell,
    row_tableau,
    skew_shape_family,
)
from ayrep.tops import is_top_brute

PINNED = Path(__file__).resolve().parent / "pinned" / "value_digests.json"
ORACLE_MAX_N = max(verify.SIZES[name].largest for name in ("minimal", "tops"))


def value_text(v) -> str:
    if isinstance(v, float):
        return f"float:{v.hex()}"
    if isinstance(v, Fraction):
        return f"Fraction:{v.numerator}/{v.denominator}"
    return f"{type(v).__name__}:{v!r}"


def word(label) -> str:
    if label is None:
        return "-"
    if isinstance(label, tuple):
        return "|".join(map(word, label))
    if isinstance(label, Tableau):
        return "/".join(",".join(map(str, row)) for row in label.rows)
    return label.one_line()


def rep_lines(rep) -> list:
    lines = [f"rep {rep.group_type} n={rep.n} gens={rep.gens} {rep.normalization}",
             "basis " + " ".join(map(word, rep.basis))]
    for g in rep.gens:
        cols = rep.matrices[g].cols
        entries = sorted((j, i, v) for j, col in cols.items() for i, v in col.items())
        lines.append(f"s{g} dim={rep.matrices[g].dim} "
                     + " ".join(f"{j},{i}={value_text(v)}" for j, i, v in entries))
    return lines


def class_function_lines(values: dict) -> list:
    items = sorted(values.items(), key=lambda kv: kv[0].images)
    return ["chi " + " ".join(f"{c.one_line()}={value_text(v)}" for c, v in items)]


def character_lines(chi) -> list:
    return [f"character {chi.kind} order={chi.order}", *class_function_lines(chi.values)]


def cell_text(members) -> str:
    return " ".join(w.one_line() for w in sorted(members, key=Permutation.sort_key))


def induction_cases(n: int):
    """(J, shapes) in the order of the `induction` sweep at size n."""
    gens = list(range(1, n))
    for mask in range(1 << len(gens)):
        J = [g for k, g in enumerate(gens) if mask >> k & 1]
        if len(J) < len(gens):
            pools = [partitions(b - a + 1) for a, b in j_intervals(J)]
            for combo in product(*pools):
                yield J, list(combo)


def dumps_at(n: int) -> dict:
    """Section name -> the list of dumped objects (each a list of lines) at level n."""
    out = {f"{name} n={n}": [] for name in (
        "seminormal", "character", "cell orthogonal", "orthogonal", "parabolic", "induced",
        "induced character", "classical induced character")}
    for shape in skew_shape_family(n):
        f = Functional(content_vector(row_tableau(shape)))
        rep = build_from_functional(f, identity(n), SEMINORMAL)
        out[f"seminormal n={n}"].append([str(shape), *rep_lines(rep)])
        out[f"character n={n}"].append([str(shape), *character_lines(character(rep))])
        out[f"cell orthogonal n={n}"].append(
            [str(shape), *rep_lines(build_from_functional(f, identity(n), ORTHOGONAL))])
        out[f"orthogonal n={n}"].append([str(shape), *rep_lines(build_orthogonal_skew(shape))])
    for J, shapes in induction_cases(n):
        head = f"J={J} shapes={shapes}"
        psi = build_parabolic_from_shapes(J, n, shapes)
        induced = induce(psi)
        out[f"parabolic n={n}"].append([head, *rep_lines(psi)])
        out[f"induced n={n}"].append([head, *rep_lines(induced)])
        out[f"induced character n={n}"].append([head, *character_lines(character(induced))])
        out[f"classical induced character n={n}"].append(
            [head, *class_function_lines(classical_induced_character(psi))])
    m = n - 1
    if m >= 1:
        maps = out[f"signed index maps n={m}"] = []
        for form in (SEMINORMAL, ORTHOGONAL):
            signed = out[f"signed {form} n={m}"] = []
            classical = out[f"classical {form} n={m}"] = []
            for k in range(m + 1):
                for lam in partitions(k):
                    for mu in partitions(m - k):
                        head = f"lam={lam} mu={mu}"
                        ext, cl, index_map = match_signed_forms(*row_filling_pair(lam, mu), form)
                        signed.append([head, *rep_lines(ext)])
                        classical.append([head, *rep_lines(cl)])
                        maps.append([f"{form} {head}", " ".join(map(str, index_map))])
    if n <= ORACLE_MAX_N:
        out.update(oracle_dumps(n))
    return out


def oracle_dumps(n: int) -> dict:
    """The answers of the brute-force oracles at size n."""
    cells = [[str(shape), word(q), cell_text(relabel_cell(q))]
             for shape in skew_shape_family(n) for q in enumerate_standard(shape)]
    family = sorted(cell_text(members) for members in verify._brute_minimal_family(n))
    return {
        f"relabel cells n={n}": cells,
        f"minimal family n={n}": [[text] for text in family],
        f"top oracle n={n}": [[word(w)] for w in sym_group(n) if is_top_brute(w)],
    }


def flat_dumps() -> dict:
    """The characters the `flat` suite traces, with their bases, in trace order,
    and the representations it builds, in build order."""
    traced, built = [], []

    def recording_character(rep):
        chi = character(rep)
        traced.append(["basis " + " ".join(map(word, rep.basis)), *character_lines(chi)])
        return chi

    def recording_build(f, v, normalization=SEMINORMAL):
        rep = build_from_functional(f, v, normalization)
        built.append([f"f={f.coords} v={word(v)}", *rep_lines(rep)])
        return rep

    verify.character, verify.build_from_functional = recording_character, recording_build
    try:
        result = verify.flat_suite()
    finally:
        verify.character, verify.build_from_functional = character, build_from_functional
    if not result.ok:
        raise AssertionError(f"the flat suite failed: {result.counterexamples}")
    return {"flat characters": traced, "flat representations": built}


def digest(objects: list) -> dict:
    text = "\n\n".join("\n".join(lines) for lines in objects) + "\n"
    return {"objects": len(objects), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def digests(level) -> dict:
    dumps = flat_dumps() if level == "flat" else dumps_at(level)
    return {key: digest(objects) for key, objects in dumps.items() if objects}


def pinned() -> dict:
    return json.loads(PINNED.read_text())


def main(argv: list) -> int:
    write = "--write" in argv
    levels = [a if a == "flat" else int(a) for a in argv if a != "--write"]
    if not levels:
        print("usage: value_digests.py LEVEL... [--write]  (LEVEL: a size n, or flat)",
              file=sys.stderr)
        return 2
    table = pinned() if PINNED.exists() else {}
    status = 0
    for level in levels:
        got, expected = digests(level), table.get(str(level), {})
        if write:
            table[str(level)] = got
        for key in sorted(got.keys() | expected.keys()):
            if write:
                print(f"pinned {level}: {key}")
            elif got.get(key) == expected.get(key):
                print(f"ok {level}: {key}")
            else:
                print(f"MISMATCH {level}: {key}: got {got.get(key)}, pinned {expected.get(key)}")
                status = 1
    if write:
        PINNED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
