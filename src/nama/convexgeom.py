"""Convex-geometry primitives shared by the measure and sampling code.

The polygon routines are generic over the scalar type: exact rationals
(`fractions.Fraction`) and floats run through the same code paths, so
subgradient cells can be computed exactly when the inputs are rational.
2D dual cells come from :class:`FacetCells`, the gradients of the lifted
lower-hull facets, which runs exact input on integers and also holds the
float envelope's planes, so one hull serves every reader of a function;
:func:`dual_cell_2d`, the generic clip against every other node, is the
fallback of its callers and the independent oracle of the tests.
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
    return _clip(vertices, labels,
                 [a[0] * v[0] + a[1] * v[1] - c for v in vertices],
                 _between, new_label)


def _between(P, sp, Q, sq):
    """The point of the edge P -> Q where a slack going from sp to sq of
    the other sign is 0."""
    t = sp / (sp - sq)
    return (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1]))


def _clip(vertices, labels, s, meet, new_label):
    """:func:`clip_halfplane` by the slacks ``s`` of the vertices, where
    ``meet(P, sp, Q, sq)`` is the vertex at which the edge P -> Q crosses
    the line."""
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
            out_l.append(lab)
            if sq < 0:
                out_v.append(meet(P, sp, Q, sq))
                out_l.append(new_label)
        elif sq > 0:
            out_v.append(meet(P, sp, Q, sq))
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
    """Qhull of the lifted points, or None when they are flat (to rounding)."""
    from scipy.spatial import ConvexHull, QhullError
    try:
        return ConvexHull(np.column_stack([points, values]))
    except QhullError:
        return None


def lower_facets(points, values):
    """The lower-hull facets of the float nodes lifted to ``values``, as
    ccw rows of node indices, and whether the lift is flat: then Qhull
    rejects it, and every triangulation, so the Delaunay one, is its hull."""
    from scipy.spatial import Delaunay, QhullError
    hull = lifted_hull(points, values)
    if hull is not None:
        tri = hull.simplices[hull.equations[:, 2] < -1e-12]
    else:
        try:
            tri = Delaunay(points).simplices
        except QhullError:
            tri = np.zeros((0, 3))
    tri = tri.astype(np.int64)
    flip = _orient(*points[tri].transpose(1, 2, 0)) < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return tri, hull is None


def _cleared(nodes, values):
    """Exact input with each node's denominators cleared: (X, l, V, m), where
    node i is the int pair X[i] over l[i], the lcm of its coordinates'
    denominators, and its value the int V[i] over m[i]."""
    l = [math.lcm(*(c.denominator for c in nd)) for nd in nodes]
    X = np.array([[c.numerator * (k // c.denominator) for c in nd]
                  for nd, k in zip(nodes, l)], dtype=object).reshape(-1, 2)
    return (X, np.array(l, dtype=object),
            np.array([v.numerator for v in values], dtype=object),
            np.array([v.denominator for v in values], dtype=object))


def _homogeneous(point):
    """A rational point as ints (x, y, w), w > 0, with ``point`` (x, y) / w."""
    (a, b), (c, d) = (Fraction(point[0]).as_integer_ratio(),
                      Fraction(point[1]).as_integer_ratio())
    k = math.lcm(b, d)
    return a * (k // b), c * (k // d), k


def _cross(a, b):
    """Row-wise cross products of the pair arrays a and b."""
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


def _plane(Q, W):
    """The dets and gradient numerators of the triangles of vertex rows Q
    (t, 3, 2) and values W (t, 3): a facet's gradient is num / det."""
    u, w = Q[:, 1] - Q[:, 0], Q[:, 2] - Q[:, 0]
    du, dw = W[:, 1] - W[:, 0], W[:, 2] - W[:, 0]
    return _cross(u, w), np.column_stack([du * w[:, 1] - dw * u[:, 1],
                                          u[:, 0] * dw - w[:, 0] * du])


def _on_line(p, q, X, w):
    """Whether the points X / w lie on the line through the homogeneous
    integer points p and q: the 3x3 determinant of p, q, (X, w) is 0."""
    return ((p[1] * q[2] - p[2] * q[1]) * X[:, 0]
            + (p[2] * q[0] - p[0] * q[2]) * X[:, 1]
            + (p[0] * q[1] - p[1] * q[0]) * w == 0)


def _meet(P, sp, Q, sq):
    """:func:`_between` of vertices ((x, y, w), _) in homogeneous integer
    coordinates: ``sp Q - sq P``, with w > 0 and no common factor."""
    R = [sp * q - sq * p for p, q in zip(P[0], Q[0])]
    g = math.gcd(*R) if R[2] > 0 else -math.gcd(*R)
    return (R[0] // g, R[1] // g, R[2] // g), None


class FacetCells:
    """Every 2D dual cell of the nodes lifted to ``values``, read off the
    gradients of the lower-hull facets around each node (Aurenhammer 1987).

    Each half-edge of the lower triangulation with a twin gives one shoelace
    term and one dual-edge length, the distance between the gradients of the
    two facets on it, summed per node: no clipping and no ordering of the
    fans.  The Qhull hull is checked, not trusted: every edge between two
    proper triangles must be locally convex and every node off the
    triangulation on or above every facet plane, which makes the
    interpolant the envelope; else no node is good.  Exact input must pass
    exactly, with every triangle positively oriented and the triangles
    tiling the ccw polygon ``corners``; float checks allow a relative
    1e-11.  A node off the triangulation then has an empty cell: a cell is
    the envelope's subdifferential at the node (Rockafellar 1970, sections
    23-24), which has interior only at a vertex of the triangulation.  The
    triangles ``tri`` are :func:`lower_facets` of the float nodes ``pts``
    lifted to ``vals``, kept whatever the checks say, and :meth:`planes`
    reads the envelope off them; float input Qhull finds flat takes its
    largest facet's gradient for all cells, so no cell has rounding noise.

    Exact input (Fraction nodes and values) runs on Python ints: node i is
    the int pair X_i over l_i, the lcm of its coordinates' denominators, and
    its value V_i over m_i.  Each triangle is scaled by the lcms L and M of
    its own three nodes' l and m, so its gradient is ``L num / (M det)``,
    integer numerators over an integer denominator, every check is the sign
    of a cross-multiplied integer, and a node's area is its shoelace sum
    over the lcm of its facets' denominators.  The ints grow with the
    denominators of a node's neighbours, not with those of the whole input.
    The passes build no Fraction but the corners'; the last step builds one
    per closed node, and ``grad`` holds the correctly rounded floats.
    :meth:`cut` clips in integers too.

    ``good`` marks the nodes whose cells the hull gives, ``closed`` those of
    them with bounded (possibly empty) cells, of areas ``area``.  The other
    good nodes lie on the hull boundary; ``solid`` says whether their cells
    have interior.  The hull gives no cell of the other nodes (the nodes of
    a flat float triangle, and every node when a check fails); their
    callers take the full clip, :func:`dual_cell_2d`.  Nothing changes
    after construction.
    """

    def __init__(self, nodes, values, corners=None):
        self.nodes, self.values = nodes, values
        n = len(nodes)
        self.good = self.closed = self.solid = np.zeros(n, dtype=bool)
        self.area, self.grad = np.zeros(n), np.zeros((0, 2))
        self.src = self.dst = self.apex = self.twin = np.zeros(0, dtype=int)
        exact = all(isinstance(c, Fraction) for nd in nodes for c in nd) \
            and all(isinstance(v, Fraction) for v in values)
        if exact:       # int / int rounds as float(Fraction) does
            P, l, V, m = self._cleared = _cleared(nodes, values)
            pts = np.array(P / l[:, None], dtype=float).reshape(-1, 2)
            vals = np.array(V / m, dtype=float)
        else:
            self._cleared = None
            P = pts = np.array(nodes, dtype=float).reshape(-1, 2)
            V = vals = np.array(values, dtype=float)
            l = m = np.ones(n)
        tri, flat = lower_facets(pts, vals)
        self.pts, self.vals, self.tri = pts, vals, tri
        if not len(tri):
            return
        # half-edge 3t + k runs from tri[t, k] to tri[t, k + 1] opposite the
        # apex tri[t, k + 2]; its twin runs back in the facet across, or is -1
        src, dst, apex = (np.roll(tri, -k, axis=1).ravel() for k in range(3))
        key, back = src * n + dst, dst * n + src
        order = np.argsort(key)
        if np.any(np.diff(key[order]) == 0):
            return
        at = order[np.minimum(np.searchsorted(key[order], back), len(key) - 1)]
        twin = np.where(key[at] == back, at, -1)
        rim = twin < 0
        good = np.zeros(n, dtype=bool)
        good[src] = True

        def along(e):
            """Half-edges e as vectors, each a positive multiple of its own."""
            return (P[dst[e]] * l[src[e], None]
                    - P[src[e]] * l[dst[e], None])

        # a facet's gradient is num / den: in floats den is 1, in integers
        # it is L num / (M det) over the triangle's own L and M
        if exact:
            Lt = np.lcm.reduce(l[tri], axis=1)
            Mt = np.lcm.reduce(m[tri], axis=1)
            det, num = _plane(P[tri] * (Lt[:, None] // l[tri])[:, :, None],
                              V[tri] * (Mt[:, None] // m[tri]))
        else:
            det, num = _plane(P[tri], V[tri])
        bad = ~(det > 0)
        if exact:
            # the triangles tile the polygon: they are positively oriented,
            # every rim edge lies on a side of it, and their areas add up to
            # its area; twin half-edges cancel in that sum, which leaves the
            # shoelace of the rim
            F = [tuple(map(Fraction, v)) for v in corners or ()]
            C = [_homogeneous(v) for v in F]
            rs, rd = src[rim], dst[rim]
            w = l[rs] * l[rd]
            W = math.lcm(*w)
            if not (C and len(det) and not bad.any()
                    and (_cross(P[rs], P[rd]) * (W // w)).sum() == W * sum(
                        _orient(F[0], p, q) for p, q in zip(F[1:], F[2:]))
                    and np.logical_or.reduce([
                        _on_line(p, q, P[rs], l[rs])
                        & _on_line(p, q, P[rd], l[rd])
                        for p, q in zip(C, C[1:] + C[:1])]).all()):
                return
            num, den, tol = num * Lt[:, None], det * Mt, 0
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                num = num / det[:, None]
            if flat:    # one plane to rounding: its largest facet's for all
                num[:] = num[np.argmax(det)]
            den = np.ones(len(det))
            tol = 1e-11 * (1 + np.abs(V).max() + np.abs(P).max()
                           * np.abs(num[~bad]).max(initial=0))
        # convex across an edge: the gradient jumps towards the facet across
        inner = np.nonzero(~rim)[0]
        e = inner[(inner < twin[inner]) & ~bad[inner // 3]
                  & ~bad[twin[inner] // 3]]
        s, t = e // 3, twin[e] // 3
        if not (_cross(num[t] * den[s, None] - num[s] * den[t, None],
                       along(e)) >= -tol).all():
            return
        # every node off the triangulation on or above every facet plane:
        # den (v_i - v_a) >= num . (x_i - x_a) at a facet's first node a,
        # times m_i l_i m_a l_a
        off = np.nonzero(~good)[0]
        if len(off) and not bad.all():
            a = tri[~bad, 0]
            g, d = num[~bad] * (m[a] * l[a])[:, None], den[~bad] * m[a] * l[a]
            b = den[~bad] * V[a] * l[a] - m[a] * (P[a] * num[~bad]).sum(axis=1)
            step = max(1, _BLOCK // len(b))
            for k in range(0, len(off), step):
                i = off[k:k + step]
                if not ((V[i] * l[i])[:, None] * d - m[i, None]
                        * (P[i] @ g.T + l[i, None] * b) >= -tol).all():
                    return
        good[off] = True
        good[tri[bad].ravel()] = False
        edge = np.zeros(n, dtype=bool)
        edge[src[rim]] = True
        self.good, self.closed = good, good & ~edge
        self.grad = (np.array(num / den[:, None], dtype=float)
                     if exact else num)
        self.src, self.dst, self.apex, self.twin = src, dst, apex, twin
        self._order, self._keys = order, key[order]

        # the fan's shoelace, over the half-edges of the closed nodes only:
        # a zero-det facet's gradient never enters the sums
        e = inner[self.closed[src[inner]]]
        i, fs, ft = src[e], e // 3, twin[e] // 3
        if exact:
            # over the lcm D of the node's facets' den, each facet's
            # gradient numerators times D / den: one Fraction per closed node
            D = np.ones(n, dtype=object)
            np.lcm.at(D, src, den[np.arange(len(src)) // 3])
            twice = np.zeros(n, dtype=object)
            np.add.at(twice, i, _cross(num[ft], num[fs])
                      * (D[i] // den[ft]) * (D[i] // den[fs]))
            self.area = np.full(n, Fraction(0), dtype=object)
            k = np.nonzero(self.closed)[0]
            self.area[k] = [Fraction(abs(a), 2 * d * d)
                            for a, d in zip(twice[k].tolist(),
                                            D[k].tolist())]
        else:
            # terms relative to one facet of the node, so that cells far
            # from the origin keep their digits
            ref = np.zeros(n, dtype=int)
            ref[src] = np.arange(len(src)) // 3
            p, q = num[ft] - num[ref[i]], num[fs] - num[ref[i]]
            twice = np.zeros(n)
            np.add.at(twice, i, _cross(p, q))
            self.area = np.where(self.closed, np.abs(twice) / 2, 0.0)

        # an unbounded cell has interior unless its two boundary edges are
        # parallel and the gradients of its end facets differ across them;
        # only rim half-edges at a good node, whose facets are proper
        e = np.nonzero(rim & (good[src] | good[dst]))[0]
        f = e // 3
        first, last, g_in, g_out = np.zeros((4, n, 2), dtype=P.dtype)
        d_in, d_out = np.ones((2, n), dtype=P.dtype)
        first[src[e]] = last[dst[e]] = along(e)
        g_out[src[e]], d_out[src[e]] = num[f], den[f]
        g_in[dst[e]], d_in[dst[e]] = num[f], den[f]
        span = g_in * d_out[:, None] - g_out * d_in[:, None]
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
        the triangulation; any other node's is cut by every other node.
        Exact input with a rational polygon is clipped by
        :meth:`_cut_exact`, the same cuts in integers."""
        if not self.good[i]:
            star = [j for j in range(len(self.nodes)) if j != i]
        else:
            fan = self._fan(i)
            if not len(fan):
                return Cell(2, [], 0, {}, False, True)
            star = sorted(set(self.dst[fan].tolist()
                              + self.apex[fan].tolist()))
        if self._cleared is not None and all(
                isinstance(c, (int, Fraction)) for v in polygon for c in v):
            return self._cut_exact(i, polygon, star)
        return cut_cell(i, self.nodes, self.values, polygon, star)

    def _cut_exact(self, i, polygon, star):
        """:func:`cut_cell` of exact input in homogeneous integer
        coordinates (x, y, w), w > 0, of the scaled gradient space, where a
        gradient p is ``L (x, y) / (M w)`` over the lcms L and M of the
        denominators of node i and its ``star``, and node j's constraint
        reads ``(x, y) . (X_i - X_j) >= (V_i - V_j) w``.  The same vertices
        in the same order, labels and edges; the cut vertices and the area
        are made Fractions once, at the end."""
        X, l, V, m = self._cleared
        L, M = math.lcm(*l[[i, *star]]), math.lcm(*m[[i, *star]])
        verts = [((x * M, y * M, w * L), v)
                 for v, (x, y, w) in zip(polygon, map(_homogeneous, polygon))]
        labels = [None] * len(verts)
        xi, yi = X[i] * (L // l[i])
        vi = V[i] * (M // m[i])
        for j in star:
            xj, yj = X[j] * (L // l[j])
            a0, a1, c = xi - xj, yi - yj, vi - V[j] * (M // m[j])
            verts, labels, _ = _clip(
                verts, labels, [a0 * x + a1 * y - c * w
                                for (x, y, w), _ in verts], _meet, j)
            if not verts:
                return Cell(2, [], 0, {}, False, True)
        hs, kept = zip(*verts)
        scaled = [(x * L, y * L, w * M) for x, y, w in hs]
        verts = [v if v is not None else (Fraction(x, w), Fraction(y, w))
                 for (x, y, w), v in zip(scaled, kept)]
        # int / int rounds as float(Fraction) does
        edges = edge_lengths_by_label([(x / w, y / w) for x, y, w in scaled],
                                      labels)
        edges.pop(None, None)
        return Cell(2, verts, polygon_area(verts), edges,
                    any(lab is None for lab in labels), len(verts) < 3)

    def inside(self, corners):
        """Closed nodes whose cells lie in the ccw polygon ``corners``, by a
        float test that says no near the boundary."""
        if not self.closed.any():       # no checked triangles, no grad
            return self.closed
        g = self.grad
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
        g = self.grad
        ell = np.hypot(*(g[e // 3] - g[self.twin[e] // 3]).T)
        e, ell = e[ell > 0], ell[ell > 0]
        return self.src[e], self.dst[e], ell

    def planes(self):
        """The planes of the float lower envelope: gradients ``g`` (facets x
        2) and intercepts ``b`` with ``envelope(x) = max_f g[f] . x + b[f]``,
        the finite gradients of the facets ``tri`` of ``pts`` lifted to
        ``vals``, each plane through its facet's first node."""
        det, num = _plane(self.pts[self.tri], self.vals[self.tri])
        with np.errstate(divide="ignore", invalid="ignore"):
            g = num / det[:, None]
        keep = np.isfinite(g).all(axis=1)
        g, a = g[keep], self.tri[keep, 0]
        return g, self.vals[a] - (self.pts[a] * g).sum(axis=1)
