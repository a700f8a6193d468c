"""Fillings and shape lists the tests compare against; `ayrep` itself never
builds them this way."""

from ayrep.tableaux import SkewShape, Tableau, _join_components, compositions


def column_tableau(shape: SkewShape) -> Tableau:
    """Boxes filled 1..n in column-major order."""
    boxes = sorted(shape.boxes(), key=lambda rc: (rc[1], rc[0]))
    entries = {box: k for k, box in enumerate(boxes, start=1)}
    return Tableau.from_box_entries(shape, entries)


def recursive_connected_skew_shapes(m: int) -> list:
    """Connected skew shapes with m boxes, row starts chosen by a depth-first
    search; row i+1 starts in [a_i - l_(i+1) + 1, min(a_i, a_i + l_i - l_(i+1))]."""
    out = []
    for lengths in compositions(m):
        starts_found = []

        def extend(partial, idx):
            if idx == len(lengths):
                starts_found.append(list(partial))
                return
            prev_a, prev_l = partial[-1], lengths[idx - 1]
            for a in range(prev_a - lengths[idx] + 1,
                           min(prev_a, prev_a + prev_l - lengths[idx]) + 1):
                partial.append(a)
                extend(partial, idx + 1)
                partial.pop()

        extend([0], 1)
        for starts in starts_found:
            shift = 1 - min(starts)
            lam = [a + shift + l - 1 for a, l in zip(starts, lengths)]
            mu = [a + shift - 1 for a in starts]
            out.append(SkewShape(lam, mu))
    return out


def recursive_skew_shape_family(n: int) -> list:
    """Joined pieces for every composition of n, chosen by a depth-first
    search, with repeated shapes dropped."""
    shapes = []
    for sizes in compositions(n):
        def choose(idx, chosen):
            if idx == len(sizes):
                shapes.append(_join_components(chosen))
                return
            for piece in recursive_connected_skew_shapes(sizes[idx]):
                choose(idx + 1, chosen + [piece])

        choose(0, [])
    return list(dict.fromkeys(shapes))
