"""Convex-geometry primitives shared by the measure and sampling code.

The polygon routines are generic over the scalar type: exact rationals
(`fractions.Fraction`) and floats run through the same code paths, so
subgradient cells can be computed exactly when the inputs are rational.  2D
dual cells come from :class:`FacetCells`, the gradients of the lifted
lower-hull facets, which runs exact input on integers and also holds the
float envelope's planes, so one hull serves every reader of a function.
It builds, checks and reads one hull; a node the hull does not vouch for
takes :meth:`FacetCells.full_clip`, the one clip of a cell against every
other node.  1D cells come from one sorted pass in :mod:`nama.realma`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


# Qhull's options, tried in turn by lifted_hull (scipy always adds Qt)
_QHULL_OPTIONS = ("Q0", None)


def lifted_hull(points, values):
    """Qhull of the lifted points, or None when they are flat (to rounding).

    The first pass runs with ``Q0``: no pre-merging of facets that are
    coplanar or not clearly convex to rounding (Barber, Dobkin and
    Huhdanpaa, ACM TOMS 1996), which :class:`FacetCells` checks anyway.
    Only when that pass raises does Qhull run its merged default, and only
    when both raise do the points read as flat."""
    from scipy.spatial import ConvexHull, QhullError
    lifted = np.column_stack([points, values])
    for options in _QHULL_OPTIONS:
        try:
            return ConvexHull(lifted, qhull_options=options)
        except QhullError:
            pass
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


class NodeSet:
    """Nodes read once for every reader: float ``points`` (n x d), whether
    all are rational (``exact``), a domain's ``interior`` flags (or None)
    and, built on first read, exact 2D nodes' ints ``cleared`` (X, l):
    node i is X_i / l_i, l_i the lcm of its coordinates' denominators."""

    def __init__(self, nodes, points, interior=None):
        self.nodes, self.points, self.interior = nodes, points, interior
        self.exact = all(isinstance(c, Fraction) for nd in nodes for c in nd)

    @cached_property
    def cleared(self):
        l = [math.lcm(*(c.denominator for c in nd)) for nd in self.nodes]
        X = np.array([[c.numerator * (k // c.denominator) for c in nd]
                      for nd, k in zip(self.nodes, l)], dtype=object)
        return X.reshape(-1, 2), np.array(l, dtype=object)


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


def _side(p, q, X, w):
    """The 3x3 determinant of the homogeneous integer points p and q
    (w > 0) and each row (X, w), w > 0.  It has the sign of
    ``_orient(p, q, X / w)``: positive left of the line p -> q, 0 on it."""
    return ((p[1] * q[2] - p[2] * q[1]) * X[:, 0]
            + (p[2] * q[0] - p[0] * q[2]) * X[:, 1]
            + (p[0] * q[1] - p[1] * q[0]) * w)


def _meet(P, sp, Q, sq):
    """:func:`_between` of vertices ((x, y, w), _) in homogeneous integer
    coordinates: ``sp Q - sq P``, with w > 0 and no common factor."""
    R = [sp * q - sq * p for p, q in zip(P[0], Q[0])]
    g = math.gcd(*R) if R[2] > 0 else -math.gcd(*R)
    return (R[0] // g, R[1] // g, R[2] // g), None


def _fan_sums(n, i, fs, ft, num, den, D):
    """Per node, the exact shoelace sum over its inner half-edges, each at
    node i between facet fs and its twin's facet ft: the terms
    ``cross(g_ft, g_fs)`` of the gradients ``num / den``, on ints over the
    node's ``D^2``."""
    twice = np.zeros(n, dtype=object)
    np.add.at(twice, i, _cross(num[ft], num[fs])
              * (D[i] // den[ft]) * (D[i] // den[fs]))
    return twice


class FacetCells:
    """Every 2D dual cell of the nodes lifted to ``values``, read off the
    gradients of the lower-hull facets around each node (Aurenhammer 1987):
    each half-edge with a twin gives one shoelace term and one dual-edge
    length, summed per node, with no clipping and no ordering of the fans.

    It builds (:meth:`_build`), checks (:meth:`_check`) and reads
    (:meth:`_read`) once; nothing changes after.  The Qhull hull is not
    trusted: ``flagged`` holds the half-edges and nodes that fail the
    checks, and is empty exactly when the hull is vouched for.  ``good``
    marks the nodes whose cells the hull gives, ``closed`` those of them
    with bounded (possibly empty) cells, of areas ``area``; the other good
    nodes lie on the hull boundary, and ``solid`` says whether their cells
    have interior.  A node off the triangulation has an empty cell: a cell
    is the envelope's subdifferential at the node (Rockafellar 1970,
    sections 23-24), with interior only at a vertex of the triangulation.
    The hull gives no cell of the other nodes (the nodes of a flat float
    triangle, and every node when anything is flagged): :meth:`cut` and
    :meth:`full_clip` cut theirs by every other node.

    ``nodes`` is a :class:`NodeSet`; the hull is built on its ``points``.
    ``exact`` input (Fraction nodes and values) runs on Python ints: node i
    is the set's ``cleared`` X_i over l_i, and its value V_i over m_i, or
    with ``values`` None (cuts by rational polygons only) |x_i|^2 / 2 as
    |X_i|^2 over 2 l_i^2.  Each triangle is scaled by the lcms L and M of
    its own three nodes' l and m, so its gradient is ``L num / (M det)``,
    every check is the sign of a cross-multiplied integer, and the ints
    grow with the denominators of a node's neighbours only.  :meth:`cut`
    and :meth:`full_clip` clip in integers too, and :meth:`areas_within`
    reads the cells of rim nodes off their fans.
    """

    def __init__(self, nodes, values, corners=None):
        self.nodes, self.pts, self.values = nodes.nodes, nodes.points, values
        self.exact = nodes.exact and (values is None or all(
            isinstance(v, Fraction) for v in values))
        num, den = self._build(nodes, values)
        self.flagged = self._check(num, den, corners)
        self._read(num, den)

    def _build(self, nodes, values):
        """``_lift`` (P, l, V, m): node i is P_i / l_i lifted to V_i / m_i,
        ints or floats over 1; :func:`lower_facets` ``tri``, kept whatever
        the checks say (:meth:`planes` reads the envelope off it), and its
        half-edges; each facet's gradient num / den, den > 0 iff det > 0."""
        n, P = len(self.nodes), self.pts
        if self.exact:      # int / int rounds as float(Fraction) does
            P, l = nodes.cleared
            if values is None:
                V, m = (P * P).sum(axis=1), 2 * l * l
            else:
                V, m = np.array([v.as_integer_ratio() for v in values],
                                dtype=object).reshape(-1, 2).T
            self._lift = P, l, V, m
            vals = np.array(V / m, dtype=float)
        else:
            V = vals = np.array(values, dtype=float)
            self._lift = P, np.ones(n), V, np.ones(n)
        tri, flat = lower_facets(self.pts, vals)
        self.vals, self.tri = vals, tri
        # half-edge 3t + k runs from tri[t, k] to tri[t, k + 1] opposite the
        # apex tri[t, k + 2]; its twin runs back in the facet across, or is -1
        src, dst, apex = (np.roll(tri, -k, axis=1).ravel() for k in range(3))
        key, back = src * n + dst, dst * n + src
        order = np.argsort(key)
        at = order[np.minimum(np.searchsorted(key[order], back), len(key) - 1)]
        self.src, self.dst, self.apex, self.twin = (
            src, dst, apex, np.where(key[at] == back, at, -1))
        self._order, self._keys = order, key[order]
        if self.exact:
            Lt, Mt = (np.lcm.reduce(k[tri], axis=1) for k in (l, m))
            det, num = _plane(P[tri] * (Lt[:, None] // l[tri])[:, :, None],
                              V[tri] * (Mt[:, None] // m[tri]))
            return num * Lt[:, None], det * Mt
        det, num = _plane(P[tri], V[tri])
        with np.errstate(divide="ignore", invalid="ignore"):
            num = num / det[:, None]
        if flat and len(tri):   # one plane to rounding: its largest facet's
            num[:] = num[np.argmax(det)]    # for all, so no rounding noise
        return num, (det > 0) * 1.0

    def _along(self, e):
        """Half-edges e as vectors, each a positive multiple of its own."""
        P, l = self._lift[:2]
        s, d = self.src[e], self.dst[e]
        return P[d] * l[s, None] - P[s] * l[d, None]

    def _check(self, num, den, corners):
        """The sorted half-edges and nodes that fail, each test in full: no
        half-edge twice; exact input's triangles positively oriented and
        tiling the ccw polygon ``corners``; each inner edge between proper
        facets locally convex; each node off the triangulation on or above
        every facet plane (float tests allow a relative 1e-11)."""
        n, tri, src, twin = len(self.nodes), self.tri, self.src, self.twin
        if not len(tri):
            return np.zeros(0, dtype=int), np.arange(n)
        P, l, V, m = self._lift
        bad = ~(den > 0)
        tol = 0 if self.exact else 1e-11 * (
            1 + np.abs(V).max() + np.abs(P).max()
            * np.abs(num[~bad]).max(initial=0))
        flag = np.zeros(len(twin), dtype=bool)
        twice = np.flatnonzero(self._keys[1:] == self._keys[:-1])
        flag[self._order[twice]] = flag[self._order[twice + 1]] = True
        if self.exact:
            # tiling: each rim edge on a side, and the triangles' areas (the
            # rim's shoelace: twin half-edges cancel) adding up to its area
            F = [tuple(map(Fraction, v)) for v in corners or ()]
            C = [_homogeneous(v) for v in F]
            rim = np.flatnonzero(twin < 0)
            rs, rd = src[rim], self.dst[rim]
            w = l[rs] * l[rd]
            W = math.lcm(*w)
            tiled = np.full(len(rim), bool(C) and (
                _cross(P[rs], P[rd]) * (W // w)).sum() == W * sum(
                    _orient(F[0], p, q) for p, q in zip(F[1:], F[2:])))
            tiled &= np.logical_or.reduce([
                (_side(p, q, P[rs], l[rs]) == 0)
                & (_side(p, q, P[rd], l[rd]) == 0)
                for p, q in zip(C, C[1:] + C[:1])], initial=False)
            flag[rim[~tiled]] = True
            flag |= np.repeat(bad, 3)
        # convex across an edge: the gradient jumps towards the facet across
        inner = np.flatnonzero(twin >= 0)
        e = inner[(inner < twin[inner]) & ~bad[inner // 3]
                  & ~bad[twin[inner] // 3]]
        s, t = e // 3, twin[e] // 3
        flag[e[~(_cross(num[t] * den[s, None] - num[s] * den[t, None],
                        self._along(e)) >= -tol)]] = True
        # den (v_i - v_a) >= num . (x_i - x_a) at a facet's first node a,
        # times m_i l_i m_a l_a
        off = np.flatnonzero(np.bincount(src, minlength=n) == 0)
        below = np.zeros(len(off), dtype=bool)
        if len(off) and not bad.all():
            a = tri[~bad, 0]
            g, d = num[~bad] * (m[a] * l[a])[:, None], den[~bad] * m[a] * l[a]
            b = den[~bad] * V[a] * l[a] - m[a] * (P[a] * num[~bad]).sum(axis=1)
            step = max(1, _BLOCK // len(b))
            for k in range(0, len(off), step):
                i = off[k:k + step]
                below[k:k + step] = ~((V[i] * l[i])[:, None] * d - m[i, None]
                                      * (P[i] @ g.T + l[i, None] * b)
                                      >= -tol).all(axis=1)
        return np.flatnonzero(flag), off[below]

    def _read(self, num, den):
        """The cells off the facets' planes, ``grad`` nan where den <= 0, and
        ``_facets`` (num, den, D)."""
        n, src, dst, twin = len(self.nodes), self.src, self.dst, self.twin
        rim = twin < 0
        good = np.full(n, not any(map(len, self.flagged)))
        good[self.tri[~(den > 0)].ravel()] = False
        edge = np.bincount(src[rim], minlength=n) > 0
        closed = good & ~edge
        # the fan's shoelace, over the half-edges of the closed nodes only:
        # a zero-det facet's gradient never enters the sums
        e = np.flatnonzero(~rim & closed[src])
        i, fs, ft = src[e], e // 3, twin[e] // 3
        if self.exact:
            # over the lcm D of the node's facets' den, each facet's
            # gradient numerators times D / den: one Fraction per closed node
            D = np.ones(n, dtype=object)
            np.lcm.at(D, src, den[np.arange(len(src)) // 3])
            twice = _fan_sums(n, i, fs, ft, num, den, D)
            area = np.full(n, Fraction(0), dtype=object)
            k = np.flatnonzero(closed)
            area[k] = [Fraction(abs(a), 2 * d * d)
                       for a, d in zip(twice[k].tolist(), D[k].tolist())]
            # int / int rounds as float(Fraction) does; nan where den <= 0
            grad = np.divide(num, den[:, None], where=den[:, None] > 0,
                             out=np.full(num.shape, np.nan, dtype=object)
                             ).astype(float)
        else:
            # terms relative to one facet of the node, so that cells far
            # from the origin keep their digits
            D, grad = None, np.where(den[:, None] > 0, num, np.nan)
            ref = np.zeros(n, dtype=int)
            ref[src] = np.arange(len(src)) // 3
            p, q = num[ft] - num[ref[i]], num[fs] - num[ref[i]]
            twice = np.zeros(n)
            np.add.at(twice, i, _cross(p, q))
            area = np.where(closed, np.abs(twice) / 2, 0.0)
        # an unbounded cell has interior unless its two boundary edges are
        # parallel and the gradients of its end facets differ across them;
        # only rim half-edges at a good node, whose facets are proper
        e = np.flatnonzero(rim & (good[src] | good[dst]))
        f = e // 3
        first, last, g_in, g_out = np.zeros((4, n, 2), dtype=num.dtype)
        d_in, d_out = np.ones((2, n), dtype=num.dtype)
        first[src[e]] = last[dst[e]] = self._along(e)
        g_out[src[e]], d_out[src[e]] = num[f], den[f]
        g_in[dst[e]], d_in[dst[e]] = num[f], den[f]
        span = g_in * d_out[:, None] - g_out * d_in[:, None]
        self.good, self.closed, self.area, self.grad = good, closed, area, grad
        self.solid = good & edge & (
            (first[:, 0] * last[:, 1] != first[:, 1] * last[:, 0])
            | ((first * span).sum(axis=1) != 0))
        self._facets = num, den, D

    def _fan(self, i):
        """The half-edges leaving node i, one per facet around it."""
        n = len(self.nodes)
        return self._order[np.searchsorted(self._keys, i * n):
                           np.searchsorted(self._keys, i * n + n)]

    def cut(self, i, polygon):
        """Node i's cell within the convex ``polygon``.  A good node's is the
        polygon cut by the halfplanes of its neighbours on the hull alone,
        which suffice because the interpolant is convex, and is empty off
        the triangulation; any other node's is cut by every other node."""
        if not self.good[i]:
            star = [j for j in range(len(self.nodes)) if j != i]
        else:
            fan = self._fan(i)
            if not len(fan):
                return Cell(2, [], 0, {}, False, True)
            star = sorted(set(self.dst[fan].tolist()
                              + self.apex[fan].tolist()))
        return self._cut(i, polygon, star)

    def full_clip(self, i, bounded=False):
        """Node i's cell cut by every other node, nearest first (ties by
        index, so that on grid-like input most cuts are no-ops), with no
        box: the fallback of the nodes the hull does not vouch for.  The
        box ``[-h, h]^2``, h one more than the steepest slope from node i
        to another node (an integer for a rational value), grows 4-fold
        while the cell is empty, so only a cell empty in every box is
        empty, and when ``bounded`` also while the cell touches it
        (interior nodes of an envelope have bounded cells)."""
        d = self.pts - self.pts[i]
        others = np.argsort((d ** 2).sum(axis=1), kind="stable")
        others = others[others != i].tolist()
        dx = np.abs(d).max(axis=1)
        half = float(np.max(np.abs(self.vals - self.vals[i]) / np.where(
            dx > 0, dx, 1.0), where=dx > 0, initial=0.0)) + 1.0
        if isinstance(self.values[i], Fraction):
            half = Fraction(math.ceil(half))
        for _ in range(12):
            cell = self._cut(i, box_vertices(-half, half, -half, half),
                             others)
            if not (cell.empty or bounded and cell.touches_box):
                return cell
            half *= 4
        if cell.empty:
            return cell
        raise RuntimeError("cell did not close up under box enlargement; "
                           "is the node interior?")

    def _cut(self, i, polygon, star):
        """:func:`cut_cell` of node i by the nodes ``star``, in that order;
        exact input with a rational polygon is clipped by
        :meth:`_cut_exact`, the same cuts in integers."""
        if self.exact and all(
                isinstance(c, (int, Fraction)) for v in polygon for c in v):
            return self._cut_exact(i, polygon, star)
        return cut_cell(i, self.nodes, self.values, polygon, star)

    def _cut_exact(self, i, polygon, star):
        """:func:`cut_cell` of exact input in homogeneous integer
        coordinates (x, y, w), w > 0, of a gradient ``(x, y) / w``.  Node
        j's constraint is its own integer line, the Fraction one times
        ``l_i l_j m_i m_j w``: ``(x, y) . (X_i l_j - X_j l_i) m_i m_j >=
        (V_i m_j - V_j m_i) l_i l_j w``.  The same vertices in the same
        order, labels and edges; the cut vertices and the area, a shoelace
        over the lcm of the w, are made Fractions once, at the end."""
        X, l, V, m = self._lift
        s = np.array(star, dtype=int)
        a = (X[i] * l[s, None] - X[s] * l[i]) * (m[i] * m[s])[:, None]
        c = (V[i] * m[s] - V[s] * m[i]) * (l[i] * l[s])
        verts = list(zip(map(_homogeneous, polygon), polygon))
        labels = [None] * len(verts)
        for j, (a0, a1), cj in zip(star, a.tolist(), c.tolist()):
            verts, labels, _ = _clip(
                verts, labels, [a0 * x + a1 * y - cj * w
                                for (x, y, w), _ in verts], _meet, j)
            if not verts:
                return Cell(2, [], 0, {}, False, True)
        hs, kept = zip(*verts)
        verts = [v if v is not None else (Fraction(x, w), Fraction(y, w))
                 for (x, y, w), v in zip(hs, kept)]
        # int / int rounds as float(Fraction) does
        edges = edge_lengths_by_label([(x / w, y / w) for x, y, w in hs],
                                      labels)
        edges.pop(None, None)
        L = math.lcm(*(w for _, _, w in hs))
        twice = sum((x0 * y1 - x1 * y0) * (L // w0) * (L // w1) for (
            x0, y0, w0), (x1, y1, w1) in zip(hs, hs[1:] + hs[:1]))
        area = Fraction(abs(twice), 2 * L * L)  # unless no cut made a vertex
        return Cell(2, verts, area if None in kept else polygon_area(verts),
                    edges, any(lab is None for lab in labels), len(verts) < 3)

    def inside(self, corners):
        """Good nodes whose fans' gradients all lie in the ccw polygon
        ``corners``.  Exact input with a rational polygon tests each
        gradient exactly, by the sign of :func:`_orient` against every side
        in integers, so a gradient on the boundary is in; a node on the
        rim counts only when every rim node lies in the polygon too.  Else
        the test is the float one and takes closed nodes only, saying no
        near the boundary."""
        if self.exact and all(
                isinstance(c, (int, Fraction)) for v in corners for c in v):
            num, den, _ = self._facets
            C = [_homogeneous(v) for v in corners]
            sides = list(zip(C, C[1:] + C[:1]))
            out = np.zeros(len(self.nodes), dtype=bool)
            for p, q in sides:
                out[self.tri[_side(p, q, num, den) < 0].ravel()] = True
            X, l = self._lift[:2]
            r = self.src[self.twin < 0]
            if any((_side(p, q, X[r], l[r]) < 0).any() for p, q in sides):
                out |= ~self.closed
            return self.good & ~out
        g = self.grad
        out = np.zeros(len(self.nodes), dtype=bool)
        C = np.array(corners, dtype=float)
        for p, q in zip(C, np.roll(C, -1, axis=0)):
            tol = 1e-9 * np.abs(q - p).sum() * (np.abs(g).sum(1)
                                                 + np.abs(p).sum())
            out[self.tri[~(_orient(p, q, g.T) > tol)].ravel()] = True
        return self.closed & ~out

    def areas_within(self, corners):
        """Each node's cell area within the ccw polygon ``corners`` where
        its fan gives it, None where only :meth:`cut` does.  A node of
        :meth:`inside` that is closed has its whole cell in the polygon,
        of area ``area``.  One on the rim (exact input only), with the
        triangles tiling the polygon, has the cell within it that is the
        polygon ``x_i, mid(i -> next), g_1, ..., g_k, mid(prev -> i)``:
        its fan's gradients closed by the midpoints of its two rim edges,
        which lie on the polygon's sides.  Its shoelace is the fan's sum
        plus, for each rim half-edge s -> d in facet f,
        ``cross(x_s, mid) + cross(mid, g_f)`` at s and ``cross(g_f, mid) +
        cross(mid, x_d)`` at d, on ints over each node's lcm of ``D^2`` and
        ``2 l_s l_d den_f``: one Fraction per node."""
        whole = self.inside(corners)
        area = [a if w else None for a, w in zip(self.area.tolist(), whole)]
        rim = whole & ~self.closed
        if not rim.any():
            return area
        X, l = self._lift[:2]
        num, den, D = self._facets
        src, dst, twin = self.src, self.dst, self.twin
        e = np.nonzero((twin >= 0) & rim[src])[0]
        fan = _fan_sums(len(rim), src[e], e // 3, twin[e] // 3, num, den, D)
        # rim half-edges: 2 l_s l_d mid = X_s l_d + X_d l_s, and both
        # cross(x_s, mid) and cross(mid, x_d) are cross(X_s, X_d) / 2 l_s l_d
        e = np.nonzero((twin < 0) & (rim[src] | rim[dst]))[0]
        s, d, f = src[e], dst[e], e // 3
        mid = X[s] * l[d, None] + X[d] * l[s, None]
        c, t = _cross(X[s], X[d]) * den[f], _cross(mid, num[f])
        w = 2 * l[s] * l[d] * den[f]
        square = D * D
        K = square.copy()
        for k, at in ((s, rim[s]), (d, rim[d])):
            np.lcm.at(K, k[at], w[at])
        twice = fan * (K // square)
        for k, at, term in ((s, rim[s], c + t), (d, rim[d], c - t)):
            np.add.at(twice, k[at], term[at] * (K[k[at]] // w[at]))
        for k in np.nonzero(rim)[0].tolist():
            area[k] = Fraction(twice[k], 2 * K[k])
        return area

    def dual_edges(self):
        """Arrays (i, j, length) over the nonzero edges of the closed cells:
        node i's cell shares that length of boundary with node j's."""
        e = np.nonzero(self.closed[self.src])[0]
        g = self.grad
        ell = np.hypot(*(g[e // 3] - g[self.twin[e] // 3]).T)
        e, ell = e[ell > 0], ell[ell > 0]
        return self.src[e], self.dst[e], ell

    def planes(self):
        """:func:`facet_planes` of the float nodes ``pts`` lifted to
        ``vals`` over the facets ``tri``."""
        return facet_planes(self.pts, self.vals, self.tri)


def facet_planes(pts, vals, tri):
    """The planes of a float lower envelope: gradients ``g`` (facets x 2)
    and intercepts ``b`` with ``envelope(x) = max_f g[f] . x + b[f]``, the
    finite gradients of the facets ``tri`` of ``pts`` lifted to ``vals``
    (as :func:`lower_facets` gives them), each plane through its facet's
    first node."""
    det, num = _plane(pts[tri], vals[tri])
    with np.errstate(divide="ignore", invalid="ignore"):
        g = num / det[:, None]
    keep = np.isfinite(g).all(axis=1)
    g, a = g[keep], tri[keep, 0]
    return g, vals[a] - (pts[a] * g).sum(axis=1)
