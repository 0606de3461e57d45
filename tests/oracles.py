"""Independent oracles shared by the test modules.

``dual_cell_1d`` is the 1D dual cell by a scan of every other node, O(n)
per node: the readers of ``nama.realma`` take every cell from one sorted
pass, and the tests check them against this scan.

``dual_cell_2d`` is the 2D reference: the full clip of a box by every other
node in Fraction (or float) arithmetic, O(n) per node.  ``nama`` reads its
2D cells off the lifted hull and clips the cells the hull does not vouch
for in integers (``FacetCells.full_clip``); the tests check both against
this clip.
"""

import math
from fractions import Fraction

from nama.convexgeom import Cell, box_vertices, cut_cell


def dual_cell_1d(index, points, values, box=None):
    """The interval ``{p : p (x_i - x_j) >= v_i - v_j for all j}``."""
    xi, vi = points[index][0], values[index]
    lo, hi = (None, None)
    lo_lab = hi_lab = None
    for j, (pt, vj) in enumerate(zip(points, values)):
        if j == index:
            continue
        xj = pt[0]
        slope = (vi - vj) / (xi - xj)
        if xj < xi:
            if lo is None or slope > lo:
                lo, lo_lab = slope, j
        else:
            if hi is None or slope < hi:
                hi, hi_lab = slope, j
    touches = lo is None or hi is None
    if box is not None:
        lo = box[0] if lo is None else max(lo, box[0])
        hi = box[1] if hi is None else min(hi, box[1])
    if lo is None or hi is None or hi <= lo:
        length = 0
        verts = []
        empty = lo is None or hi is None or hi < lo
    else:
        length = hi - lo
        verts = [(lo,), (hi,)]
        empty = False
    edges = {}
    if not empty and lo_lab is not None:
        edges[lo_lab] = 1.0
    if not empty and hi_lab is not None:
        edges[hi_lab] = 1.0
    return Cell(1, verts, length, edges, touches, empty)


def dual_cell_2d(index, points, values, box=None, expect_bounded=False):
    """The polygon ``{p : p . (x_i - x_j) >= v_i - v_j for all j}``.

    The full clip: every other node cuts the box, nearest first, with a
    cheap no-op skip, so grid-like inputs clip in effectively constant time
    per constraint.  Without ``box`` the default box is enlarged while the
    cell misses it, so the answer does not depend on a box: a cell with
    interior, bounded or not, may lie wholly outside the default box, and
    only a cell empty in every box is empty.  When ``expect_bounded`` the
    box is enlarged until the cell is empty or no longer touches it
    (interior nodes of an envelope have bounded cells).
    """
    xi = points[index]
    vi = values[index]
    others = [j for j in range(len(points)) if j != index]
    others.sort(key=lambda j: ((float(points[j][0]) - float(xi[0])) ** 2
                               + (float(points[j][1]) - float(xi[1])) ** 2,
                               j))
    grow = box is None or expect_bounded
    if box is None:
        m = 0.0
        for j in others:
            dx = max(abs(float(points[j][0]) - float(xi[0])),
                     abs(float(points[j][1]) - float(xi[1])))
            if dx > 0:
                m = max(m, abs(float(values[j]) - float(vi)) / dx)
        half = m + 1.0
        if isinstance(vi, Fraction):
            half = Fraction(int(math.ceil(half)))
        box = (-half, half, -half, half)
    lo0, hi0, lo1, hi1 = box

    for _ in range(12):
        cell = cut_cell(index, points, values,
                        box_vertices(lo0, hi0, lo1, hi1), others)
        if not (grow and cell.empty or expect_bounded and cell.touches_box):
            return cell
        lo0, hi0, lo1, hi1 = lo0 * 4, hi0 * 4, lo1 * 4, hi1 * 4
    if cell.empty:
        return cell
    raise RuntimeError("cell did not close up under box enlargement; "
                       "is the node interior?")
