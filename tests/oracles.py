"""Independent oracles shared by the test modules.

``dual_cell_1d`` is the 1D dual cell by a scan of every other node, O(n)
per node: the readers of ``nama.realma`` take every cell from one sorted
pass, and the tests check them against this scan.
"""

from nama.convexgeom import Cell


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
