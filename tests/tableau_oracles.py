"""Fillings the tests compare against; `ayrep` itself never builds them."""

from ayrep.tableaux import SkewShape, Tableau


def column_tableau(shape: SkewShape) -> Tableau:
    """Boxes filled 1..n in column-major order."""
    boxes = sorted(shape.boxes(), key=lambda rc: (rc[1], rc[0]))
    entries = {box: k for k, box in enumerate(boxes, start=1)}
    return Tableau.from_box_entries(shape, entries)
