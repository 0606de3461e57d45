"""Convex-geometry primitives shared by the measure and sampling code.

The polygon routines are generic over the scalar type: exact rationals
(`fractions.Fraction`) and floats run through the same code paths, so
subgradient cells can be computed exactly when the inputs are rational.
2D dual cells come from :class:`FacetCells`, the gradients of the lifted
lower-hull facets; :func:`dual_cell_2d`, the clip against every other
node, is its fallback and the independent oracle of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_BLOCK = 1 << 18            # off-node x facet entries per block


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


def box_vertices(lo0, hi0, lo1, hi1):
    """The corners of an axis-aligned box, counterclockwise."""
    return [(lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)]


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


def cut_cell(index, points, values, polygon, others):
    """The part of ``polygon`` (ccw vertices) where node ``index`` satisfies
    ``p . (x_i - x_j) >= v_i - v_j`` for every j in ``others``.

    Each constraint clips once, in the order given; cell edges are labelled
    by the node that cut them and ``None`` on the polygon's own boundary.
    """
    xi, vi = points[index], values[index]
    verts, labels = list(polygon), [None] * len(polygon)
    for j in others:
        a = (xi[0] - points[j][0], xi[1] - points[j][1])
        verts, labels, _ = clip_halfplane(verts, labels, a, vi - values[j], j)
        if not verts:
            return Cell(2, [], 0, {}, False, True)
    edges = edge_lengths_by_label(verts, labels)
    edges.pop(None, None)
    return Cell(2, verts, polygon_area(verts), edges,
                any(lab is None for lab in labels), len(verts) < 3)


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


def _orient(p, q, r):
    """Twice the signed area of the triangle pqr (exact for rationals)."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def lifted_hull(points, values):
    """Qhull of the lifted points, or None when they are affinely flat."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        return ConvexHull(np.column_stack([points, values]))
    except QhullError:
        return None


class FacetCells:
    """Every 2D dual cell of the nodes lifted to ``values``, read off the
    gradients of the lower-hull facets around each node (Aurenhammer 1987).

    Each half-edge of the lower triangulation with a twin gives one shoelace
    term and one dual-edge length, the distance between the gradients of the
    two facets on it, summed per node: no clipping and no ordering of the
    fans.  Exact input (Fraction nodes and values) runs the same arithmetic
    on object arrays.  The Qhull hull is checked, not trusted: every edge
    between two proper triangles must be locally convex and every node off
    the triangulation on or above every facet plane, which makes the
    interpolant the envelope; else no node is good.  Exact input must pass
    exactly, with every triangle positively oriented and the triangles
    tiling the ccw polygon ``corners``; float checks allow a relative
    1e-11.  A node off the triangulation then has an empty cell: a cell is
    the envelope's subdifferential at the node (Rockafellar 1970, sections
    23-24), which has interior only at a vertex of the triangulation.

    ``good`` marks the nodes whose cells the hull gives, ``closed`` those of
    them with bounded (possibly empty) cells, of areas ``area``.  The other
    good nodes lie on the hull boundary; ``solid`` says whether their cells
    have interior.  The other nodes take the full clip, :meth:`full`, which
    ``fallbacks`` counts: the nodes of a flat float triangle, and every node
    when a check fails.
    """

    def __init__(self, nodes, values, corners=None):
        self.nodes, self.values, self.fallbacks = nodes, values, 0
        n = len(nodes)
        self.good = self.closed = self.solid = np.zeros(n, dtype=bool)
        self.area, self.grad = np.zeros(n), np.zeros((0, 2))
        self.tri = np.zeros((0, 3), dtype=int)
        self.src = self.dst = self.apex = self.twin = np.zeros(0, dtype=int)
        pts = np.array([[float(c) for c in nd] for nd in nodes])
        vals = np.array([float(v) for v in values])
        hull = lifted_hull(pts, vals)
        if hull is None:
            return
        tri = hull.simplices[hull.equations[:, 2] < -1e-12].astype(np.int64)
        flip = _orient(*pts[tri].transpose(1, 2, 0)) < 0
        tri[flip] = tri[flip][:, [0, 2, 1]]
        # half-edge 3t + k runs from tri[t, k] to tri[t, k + 1] opposite the
        # apex tri[t, k + 2]; its twin runs back in the facet across, or is -1
        src, dst, apex = (np.roll(tri, -k, axis=1).ravel() for k in range(3))
        key, back = src * n + dst, dst * n + src
        order = np.argsort(key)
        if np.any(np.diff(key[order]) == 0):
            return
        at = order[np.minimum(np.searchsorted(key[order], back), len(key) - 1)]
        twin = np.where(key[at] == back, at, -1)
        good = np.zeros(n, dtype=bool)
        good[src] = True
        exact = all(isinstance(c, Fraction) for nd in nodes for c in nd) \
            and all(isinstance(v, Fraction) for v in values)
        P, V = ((np.array(nodes, dtype=object), np.array(values, dtype=object))
                if exact else (pts, vals))

        u, w = P[tri[:, 1]] - P[tri[:, 0]], P[tri[:, 2]] - P[tri[:, 0]]
        du, dw = V[tri[:, 1]] - V[tri[:, 0]], V[tri[:, 2]] - V[tri[:, 0]]
        det = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        bad = ~(det > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = np.column_stack([du * w[:, 1] - dw * u[:, 1], u[:, 0] * dw
                                    - w[:, 0] * du]) / det[:, None]
        tol = 0 if exact else 1e-11 * (1 + np.abs(V).max() + np.abs(P).max()
                                       * np.abs(grad[~bad]).max(initial=0))
        # convex across an edge: the gradient jumps towards the facet across
        inner = np.nonzero(twin >= 0)[0]
        e = inner[(inner < twin[inner]) & ~bad[inner // 3]
                  & ~bad[twin[inner] // 3]]
        jump, side = grad[twin[e] // 3] - grad[e // 3], P[dst[e]] - P[src[e]]
        off = np.nonzero(~good)[0]
        lift = np.zeros(len(off), dtype=V.dtype)
        if len(off) and not bad.all():
            g, b = grad[~bad], V[tri[~bad, 0]] - (P[tri[~bad, 0]]
                                                  * grad[~bad]).sum(axis=1)
            step = max(1, _BLOCK // len(b))
            for k in range(0, len(off), step):
                i = off[k:k + step]
                lift[k:k + step] = V[i] - (P[i] @ g.T + b).max(axis=1)
        if not ((jump[:, 0] * side[:, 1] - jump[:, 1] * side[:, 0]
                 >= -tol).all() and (lift >= -tol).all()):
            return
        good[off] = True
        if exact:
            C = [tuple(map(Fraction, v)) for v in corners or ()]
            rim = twin < 0
            if not (C and not bad.any() and det.sum() == sum(
                        _orient(C[0], p, q) for p, q in zip(C[1:], C[2:]))
                    and np.logical_or.reduce([
                        (_orient(p, q, P[src[rim]].T) == 0)
                        & (_orient(p, q, P[dst[rim]].T) == 0)
                        for p, q in zip(C, C[1:] + C[:1])]).all()):
                return
        good[tri[bad].ravel()] = False
        edge = np.zeros(n, dtype=bool)
        edge[src[twin < 0]] = True
        self.good, self.closed = good, good & ~edge
        self.tri, self.grad, self.src, self.dst, self.apex, self.twin = (
            tri, grad, src, dst, apex, twin)
        self._order, self._keys = order, key[order]

        # the fan's shoelace; float terms are taken relative to one facet of
        # the node so that cells far from the origin keep their digits
        i = src[inner]
        ref = np.zeros(n, dtype=int)
        ref[src] = np.arange(len(src)) // 3
        p, q = grad[twin[inner] // 3], grad[inner // 3]
        if not exact:
            p, q = p - grad[ref[i]], q - grad[ref[i]]
        zero = Fraction(0) if exact else 0.0
        twice = np.full(n, zero, dtype=V.dtype)
        np.add.at(twice, i, p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
        self.area = np.where(self.closed, np.abs(twice) / 2, zero)

        # an unbounded cell has interior unless its two boundary edges are
        # parallel and the gradients of its end facets differ across them
        e = np.nonzero(twin < 0)[0]
        first, last, span = np.zeros((3, n, 2), dtype=V.dtype)
        first[src[e]] = last[dst[e]] = P[dst[e]] - P[src[e]]
        span[src[e]] -= grad[e // 3]
        span[dst[e]] += grad[e // 3]
        self.solid = good & edge & (
            (first[:, 0] * last[:, 1] != first[:, 1] * last[:, 0])
            | ((first * span).sum(axis=1) != 0))

    def _fan(self, i):
        """The half-edges leaving node i, one per facet around it."""
        n = len(self.nodes)
        return self._order[np.searchsorted(self._keys, i * n):
                           np.searchsorted(self._keys, i * n + n)]

    def cut(self, i, polygon):
        """Node i's cell within the convex ``polygon``.  A good node's is the
        polygon cut by the halfplanes of its neighbours on the hull alone,
        which suffice because the interpolant is convex, and is empty off
        the triangulation; any other node's is cut by every other node,
        counted in ``fallbacks``."""
        if not self.good[i]:
            self.fallbacks += 1
            star = [j for j in range(len(self.nodes)) if j != i]
        else:
            fan = self._fan(i)
            if not len(fan):
                return Cell(2, [], 0, {}, False, True)
            star = sorted(set(self.dst[fan].tolist()
                              + self.apex[fan].tolist()))
        return cut_cell(i, self.nodes, self.values, polygon, star)

    def inside(self, corners):
        """Closed nodes whose cells lie in the ccw polygon ``corners``, by a
        float test that says no near the boundary."""
        g = np.asarray(self.grad, dtype=float)
        out = np.zeros(len(self.nodes), dtype=bool)
        C = np.array(corners, dtype=float)
        for p, q in zip(C, np.roll(C, -1, axis=0)):
            tol = 1e-9 * np.abs(q - p).sum() * (np.abs(g).sum(1)
                                                 + np.abs(p).sum())
            out[self.tri[~(_orient(p, q, g.T) > tol)].ravel()] = True
        return self.closed & ~out

    def dual_edges(self):
        """Arrays (i, j, length) over the nonzero edges of the closed cells:
        node i's cell shares that length of boundary with node j's."""
        e = np.nonzero(self.closed[self.src])[0]
        g = np.asarray(self.grad, dtype=float)
        ell = np.hypot(*(g[e // 3] - g[self.twin[e] // 3]).T)
        e, ell = e[ell > 0], ell[ell > 0]
        return self.src[e], self.dst[e], ell

    def full(self, i, expect_bounded=False):
        """Node i's cell by the box-free full clip of :func:`dual_cell_2d`."""
        self.fallbacks += 1
        return dual_cell_2d(i, self.nodes, self.values,
                            expect_bounded=expect_bounded)
