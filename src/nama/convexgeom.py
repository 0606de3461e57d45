"""Convex-geometry primitives shared by the measure and sampling code.

The polygon routines are generic over the scalar type: exact rationals
(`fractions.Fraction`) and floats run through the same code paths, so
subgradient cells can be computed exactly when the inputs are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def clip_halfplane(vertices, labels, a, c, new_label):
    """Clip a convex polygon against ``{p : a . p >= c}``.

    Parameters
    ----------
    vertices : list of (x, y)
    labels : list
        ``labels[k]`` tags the edge from ``vertices[k]`` to the next vertex.
    a, c : scalars / pair
        Halfplane data; ``a`` is the inward normal.
    new_label : object
        Tag given to the chord created by the cut.

    Returns
    -------
    (vertices, labels, changed)
    """
    s = [a[0] * v[0] + a[1] * v[1] - c for v in vertices]
    if all(si >= 0 for si in s):
        return vertices, labels, False
    if all(si <= 0 for si in s):
        return [], [], True
    m = len(vertices)
    out_v, out_l = [], []
    for k in range(m):
        P, lab, sp = vertices[k], labels[k], s[k]
        Q, sq = vertices[(k + 1) % m], s[(k + 1) % m]
        if sp >= 0:
            out_v.append(P)
            if sq >= 0:
                out_l.append(lab)
            else:
                out_l.append(lab)
                t = sp / (sp - sq)
                out_v.append((P[0] + t * (Q[0] - P[0]),
                              P[1] + t * (Q[1] - P[1])))
                out_l.append(new_label)
        elif sq > 0:
            t = sp / (sp - sq)
            out_v.append((P[0] + t * (Q[0] - P[0]),
                          P[1] + t * (Q[1] - P[1])))
            out_l.append(lab)
    return out_v, out_l, True


def polygon_area(vertices):
    """Absolute area by the shoelace formula (exact for rational input)."""
    if len(vertices) < 3:
        return 0 * (vertices[0][0] if vertices else 0)
    twice = 0
    m = len(vertices)
    for k in range(m):
        x0, y0 = vertices[k]
        x1, y1 = vertices[(k + 1) % m]
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2 if isinstance(twice, Fraction) else abs(twice) * 0.5


def edge_lengths_by_label(vertices, labels):
    """Total Euclidean edge length per label (float)."""
    out = {}
    m = len(vertices)
    for k in range(m):
        x0, y0 = vertices[k]
        x1, y1 = vertices[(k + 1) % m]
        ell = math.hypot(float(x1) - float(x0), float(y1) - float(y0))
        if ell > 0:
            out[labels[k]] = out.get(labels[k], 0.0) + ell
    return out


@dataclass
class Cell:
    """A clipped dual cell: geometry plus bookkeeping for sensitivities."""

    dim: int
    vertices: list
    volume: object
    edges: dict          # label -> boundary measure shared with that constraint
    touches_box: bool
    empty: bool


def _box_polygon(lo0, hi0, lo1, hi1):
    verts = [(lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)]
    return verts, [None] * 4


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


def dual_cell_2d(index, points, values, box=None, expect_bounded=False,
                 candidates=None):
    """The polygon ``{p : p . (x_i - x_j) >= v_i - v_j for all j}``.

    Constraints are applied nearest node first, with a cheap no-op skip, so
    grid-like inputs clip in effectively constant time per constraint.  When
    ``expect_bounded`` the bounding box is enlarged until the cell no longer
    touches it (interior nodes of an envelope have bounded cells).  With
    ``candidates``, listed nearest first, only those nodes clip; the caller
    vouches that they cut out the same cell.
    """
    xi = points[index]
    vi = values[index]
    pool = range(len(points)) if candidates is None else candidates
    others = [j for j in pool if j != index]
    if candidates is None:
        others.sort(key=lambda j: ((float(points[j][0]) - float(xi[0])) ** 2
                                   + (float(points[j][1]) - float(xi[1])) ** 2,
                                   j))
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
        verts, labels = _box_polygon(lo0, hi0, lo1, hi1)
        for j in others:
            a = (xi[0] - points[j][0], xi[1] - points[j][1])
            c = vi - values[j]
            verts, labels, _ = clip_halfplane(verts, labels, a, c, j)
            if not verts:
                return Cell(2, [], 0, {}, False, True)
        touches = any(lab is None for lab in labels)
        if not (touches and expect_bounded):
            vol = polygon_area(verts)
            edges = edge_lengths_by_label(verts, labels)
            edges.pop(None, None)
            return Cell(2, verts, vol, edges, touches, len(verts) < 3)
        lo0, hi0, lo1, hi1 = lo0 * 4, hi0 * 4, lo1 * 4, hi1 * 4
    raise RuntimeError("cell did not close up under box enlargement; "
                       "is the node interior?")


def box_simplex_volume(widths, coeffs, cap):
    """Volume of ``{y in prod [0, w_i] : sum a_i y_i <= cap}`` with a_i > 0.

    Inclusion-exclusion over box corners; exact for rational input.
    """
    d = len(widths)
    if d == 0:
        return 1 if cap >= 0 else 0
    heights = [a * w for a, w in zip(coeffs, widths)]
    total = 0
    for mask in range(1 << d):
        c = cap
        bits = 0
        for i in range(d):
            if mask >> i & 1:
                c = c - heights[i]
                bits += 1
        if c > 0:
            total += (-1) ** bits * c ** d
    denom = math.factorial(d)
    for a in coeffs:
        denom = denom * a
    if isinstance(total, int) and isinstance(denom, int):
        return Fraction(total, denom)
    return total / denom
