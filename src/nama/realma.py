"""Discrete real Monge-Ampere measures of convex piecewise-linear functions.

A convex PL function is the lower convex envelope of finitely many lifted
nodes over a convex domain.  Its Monge-Ampere (subgradient) measure puts, at
each interior node, the d-volume of the dual cell

    cell(i) = { p : p . (x_i - x_j) >= v_i - v_j  for all j },

the set of supporting slopes at the node.  Cells of distinct nodes tile
gradient space, so total interior mass equals the volume of the gradient
image of the open domain.  Boundary nodes have unbounded cells and are
excluded from mass accounting.

Everything runs exactly in rational arithmetic when nodes and values are
rationals; the solver works in floats.  In 2D every cell comes from one
Qhull lower hull of the lifted nodes (:class:`~nama.convexgeom.FacetCells`):
its facet gradients give each cell's area and dual-edge lengths in a few
array passes, on integers with the denominators cleared for rational
input, once the hull has been checked.  A node off the checked
triangulation has a cell without interior.  A node the hull does not vouch
for takes the full clip against every other node
(:func:`~nama.convexgeom.dual_cell_2d`), counted as a cell fallback.  A
:class:`ConvexPL` builds that hull once, for every reader; the envelope's
planes come off it, and in 1D off the cell ends.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .convexgeom import (FacetCells, box_vertices, dual_cell_1d, dual_cell_2d,
                         polygon_area)
from .errors import InfeasibleBoundary
from .measures import AtomicMeasure


def _coerce(value):
    if type(value) is Fraction:
        return value
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    return float(value)


# ---------------------------------------------------------------------------
# domains


def _float(c):
    try:
        return float(c)
    except OverflowError:
        return math.nan


def _reject_outside(nodes, inside):
    """Raise ValueError naming the first node whose inside flag (from
    :meth:`_Domain.classify`) is False."""
    if not inside.all():
        nd = nodes[int(np.argmin(inside))]
        raise ValueError(f"node ({', '.join(map(str, nd))}) lies outside "
                         "the domain")


class _Domain:
    """A convex domain ``{x : a . x >= c}`` over its inward halfplanes; every
    point test is a :meth:`classify` pass.  A domain with a float vertex
    takes tolerance 1e-12 times its scale, an exact (rational) one 0."""

    def _set_halfplanes(self, hps):
        exact = all(type(c) is Fraction for v in self.vertices for c in v)
        tol = 0 if exact else 1e-12 * max(1.0, self._scale())
        floats = np.array([[*map(_float, a), _float(c)] for a, c in hps])
        for name, value in (("_halfplanes", tuple(hps)), ("_floats", floats),
                            ("_tol", tol), ("_exact", exact)):
            object.__setattr__(self, name, value)

    def halfplanes(self):
        """Inward halfplanes (a, c) with the domain = {x : a . x >= c}."""
        return list(self._halfplanes)

    def classify(self, nodes):
        """The inside and on-boundary flags of ``nodes``, two bool arrays.

        A node is inside when none of its slacks ``a . x - c`` is below
        -tol, and on the boundary when it is inside and one is within tol
        of 0.  The slacks come from one array pass in floats.  On an exact
        domain (tol 0) only their signs count, and Python's arithmetic
        takes the ones a float does not settle: a rational node's slack
        within rounding distance of an edge line, exactly, and every slack
        of a node with rational and float coordinates, as mixed
        arithmetic rounds it.
        """
        dim, hps, fl = self.dim, self._halfplanes, self._floats
        x = np.array([[_float(c) for c in nd]
                      for nd in nodes]).reshape(-1, dim)
        terms = x[:, None, :] * fl[:, :dim]
        s = terms.sum(axis=2) - fl[:, dim]
        if self._exact:
            err = 1e-15 * (np.abs(terms).sum(axis=2) + np.abs(fl[:, dim])) \
                + 1e-300 * (1 + np.abs(fl[:, :dim]).sum(axis=1)
                            + np.abs(x).sum(axis=1)[:, None])
            kind = np.array([[isinstance(c, (int, Fraction)) for c in nd]
                             for nd in nodes], dtype=bool).reshape(-1, dim)
            rational, mixed = kind.all(axis=1), kind.any(axis=1)
            redo = rational[:, None] & ~(np.abs(s) > err) \
                | (mixed & ~rational)[:, None]
            for i, j in zip(*np.nonzero(redo)):
                a, c = hps[j]
                slack = sum(ak * xk for ak, xk in zip(a, nodes[i])) - c
                s[i, j] = (slack > 0) - (slack < 0)
        inside = s.min(axis=1) >= -self._tol
        return inside, inside & (np.abs(s).min(axis=1) <= self._tol)

    def contains(self, pt):
        """Whether ``pt`` is inside: :meth:`classify` of one point."""
        return bool(self.classify([pt])[0][0])

    def on_boundary(self, pt):
        """Whether ``pt`` is on the boundary: :meth:`classify` of one point."""
        return bool(self.classify([pt])[1][0])


@dataclass(frozen=True)
class Interval(_Domain):
    lo: object
    hi: object

    def __post_init__(self):
        object.__setattr__(self, "lo", _coerce(self.lo))
        object.__setattr__(self, "hi", _coerce(self.hi))
        if not self.lo < self.hi:
            raise ValueError("empty interval")
        self._set_halfplanes((((1,), self.lo), ((-1,), -self.hi)))

    dim = 1

    @property
    def vertices(self):
        return ((self.lo,), (self.hi,))

    def volume(self):
        return self.hi - self.lo

    def _scale(self):
        return abs(float(self.hi - self.lo))


@dataclass(frozen=True)
class Polygon(_Domain):
    """A convex polygon domain with counterclockwise vertices."""

    verts: tuple

    def __post_init__(self):
        vs = tuple(tuple(_coerce(c) for c in v) for v in self.verts)
        if len(vs) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        object.__setattr__(self, "verts", vs)
        if polygon_area(list(vs)) <= 0:
            raise ValueError("degenerate polygon")
        hps = []
        for P, Q in zip(vs, vs[1:] + vs[:1]):
            a = (-(Q[1] - P[1]), Q[0] - P[0])     # inward for ccw order
            hps.append((a, a[0] * P[0] + a[1] * P[1]))
        self._set_halfplanes(hps)

    dim = 2

    @property
    def vertices(self):
        return self.verts

    def volume(self):
        return polygon_area(list(self.verts))

    def _scale(self):
        return max(abs(float(c)) for v in self.verts for c in v)


def box_polygon(lo0, hi0, lo1, hi1):
    """Axis-aligned rectangle as a Polygon (ccw)."""
    return Polygon(((lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)))


# ---------------------------------------------------------------------------
# convex PL functions


class ConvexPL:
    """Lower convex envelope of lifted nodes over a convex domain.

    Parameters
    ----------
    domain : Interval or Polygon
    nodes : iterable of coordinate tuples
        Must be distinct, lie in the domain and include all domain vertices.
        One :meth:`~_Domain.classify` pass checks them and keeps the flags
        of :meth:`interior_mask`.
    values : iterable of scalars
        Node lifts.  The function itself is the envelope; nodes lifted above
        it simply do not contribute.
    """

    def __init__(self, domain, nodes, values):
        self.domain = domain
        nodes = [tuple(_coerce(c) for c in nd) for nd in nodes]
        values = [_coerce(v) for v in values]
        if len(nodes) != len(values):
            raise ValueError("one value per node required")
        if len(set(nodes)) != len(nodes):
            raise ValueError("nodes must be distinct")
        if any(len(nd) != domain.dim for nd in nodes):
            raise ValueError("node dimension mismatch")
        inside, on_boundary = domain.classify(nodes)
        _reject_outside(nodes, inside)
        node_set = set(nodes)
        for v in domain.vertices:
            if tuple(_coerce(c) for c in v) not in node_set:
                raise ValueError(f"domain vertex {v} must be a node")
        self.nodes = nodes
        self.values = values
        self.is_rational = (all(isinstance(v, Fraction) for v in values)
                            and all(isinstance(c, Fraction)
                                    for nd in nodes for c in nd))
        self._interior = tuple((~on_boundary).tolist())
        self._hull = None

    @property
    def dim(self):
        return self.domain.dim

    def interior_mask(self):
        """Per node, off the boundary: the domain's flags at construction."""
        return self._interior

    # -- evaluation ---------------------------------------------------------

    def _envelope(self):
        """The one hull every reader takes, built on first use: the
        :func:`_cell_ends_1d` ends in 1D, in 2D the :class:`FacetCells`."""
        if self._hull is None:
            self._hull = (_cell_ends_1d(self.nodes, self.values)
                          if self.dim == 1 else
                          FacetCells(self.nodes, self.values,
                                     self.domain.vertices))
        return self._hull

    def _envelope_planes(self):
        """In 1D the line of slope ``hi`` through each node on the
        envelope; in 2D :meth:`~nama.convexgeom.FacetCells.planes`."""
        if self.dim == 2:
            return self._envelope().planes()
        lines = [(hi, v - hi * nd[0]) for nd, v, lo, hi in zip(
            self.nodes, self.values, *self._envelope())
                 if hi is not None and (lo is None or hi >= lo)]
        g, b = np.array(lines, dtype=float).T
        return g[:, None], b

    def evaluate(self, points):
        """Envelope values at query points (float).

        The envelope is the pointwise maximum of its facet planes, so the
        evaluation is a max over supporting affine functions.
        """
        g, b = self._envelope_planes()
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts @ g.T + b).max(axis=1)


def discrete_slope_jumps(xs, values):
    """Signed 1D second-difference measure of a piecewise-linear function.

    ``xs`` must be strictly increasing.  No envelope is taken: jumps can be
    negative, which is how non-convex model potentials report negative mass.
    Exact for rational input.
    """
    xs = [_coerce(x) for x in xs]
    values = [_coerce(v) for v in values]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly increasing")
    jumps = []
    for i in range(1, len(xs) - 1):
        right = (values[i + 1] - values[i]) / (xs[i + 1] - xs[i])
        left = (values[i] - values[i - 1]) / (xs[i] - xs[i - 1])
        jumps.append(right - left)
    return jumps


# ---------------------------------------------------------------------------
# the measure


@dataclass(frozen=True)
class MAMeasure:
    """Per-node subgradient masses of a ConvexPL function.

    ``on_envelope`` says whether a node's cell has interior: false for a
    node above the envelope or on it but no vertex of its graph, true for
    every domain corner.
    """

    nodes: tuple
    masses: tuple            # zero at boundary / non-contributing nodes
    interior: tuple          # bool per node
    on_envelope: tuple       # bool per node: the cell has interior
    degenerate: bool         # zero measure everywhere
    cell_fallbacks: int = 0  # 2D cells that took the full clip

    def total(self):
        return sum(self.masses)

    def atomic(self):
        sup, ms = [], []
        for nd, m, it in zip(self.nodes, self.masses, self.interior):
            if it:
                sup.append(nd)
                ms.append(m)
        return AtomicMeasure(tuple(sup), tuple(ms))


def gradient_cells(cpl, clip_box):
    """Dual (subgradient) cells of every node, clipped to ``clip_box``
    (``(lo, hi)`` in 1D, ``(lo0, hi0, lo1, hi1)`` in 2D), which is how the
    tiling identity is checked.  In 2D a cell is the box cut by the node's
    neighbours on the lifted lower hull (:meth:`FacetCells.cut`).
    """
    if cpl.dim == 1:
        return [dual_cell_1d(i, cpl.nodes, cpl.values, box=clip_box)
                for i in range(len(cpl.nodes))]
    cells = cpl._envelope()
    box = box_vertices(*clip_box)
    return [cells.cut(i, box) for i in range(len(cpl.nodes))]


def ma_measure(cpl):
    """The discrete Monge-Ampere measure of a ConvexPL function.

    Mass at an interior node is the volume of its dual cell, exact in
    rational mode; boundary nodes carry no mass (their cells are unbounded
    and the measure is restricted to the open domain).  A node is flagged
    off-envelope when its cell has no interior: it lies above the envelope,
    or on it but at no vertex of the envelope's graph.  In 2D every cell
    the lifted hull vouches for is read off its facet gradients
    (:class:`FacetCells`), a boundary node's flag off its fan; the others
    take the box-free full clip, counted in ``cell_fallbacks``.
    """
    interior = cpl.interior_mask()
    masses, on_env = [], []
    zero = Fraction(0) if cpl.is_rational else 0.0
    fallbacks = 0
    if cpl.dim == 1:
        for lo, hi, inside in zip(*cpl._envelope(), interior):
            # domain endpoints always sit on the envelope
            on_env.append(not inside or hi >= lo)
            if not inside or hi < lo:
                masses.append(zero)
            else:       # dual_cell_1d's volume: the int 0 when hi == lo
                masses.append(hi - lo if hi > lo else 0)
    else:
        cells = cpl._envelope()
        area = cells.area.tolist()
        for i, inside in enumerate(interior):
            if cells.closed[i]:
                masses.append(area[i] if inside else zero)
                on_env.append(area[i] > 0)
            elif cells.good[i] and not inside:
                masses.append(zero)
                on_env.append(bool(cells.solid[i]))
            else:
                fallbacks += 1
                cell = dual_cell_2d(i, cpl.nodes, cpl.values,
                                    expect_bounded=inside)
                masses.append(cell.volume if inside and not cell.empty
                              else zero)
                on_env.append(not cell.empty)
    degenerate = all(m == 0 for m, it in zip(masses, interior) if it)
    return MAMeasure(tuple(cpl.nodes), tuple(masses), tuple(interior),
                     tuple(on_env), degenerate, fallbacks)


def ma_measure_oracle(cpl, resolution=1000):
    """Brute-force check measure: rasterize the gradient image.

    A grid of ``resolution`` slopes per axis covers the bounding box of the
    envelope's facet gradients; each grid point is assigned to the node
    maximizing ``p . x_j - v_j`` (ties to the lowest index) and interior
    nodes collect the grid-cell volume.  Converges to :func:`ma_measure` as
    the resolution grows.

    The counts are those of the dense argmax over all grid points, bit for
    bit, found by a scanline (:func:`_scan_counts`): along a grid row the
    scores are n lines in the last slope coordinate, the row's winners are
    the segments of their upper envelope, and each segment takes its grid
    points by index arithmetic.  A point counts for its segment's node only
    when a forward error bound on the scores separates that node from every
    other; the rest (points next to a breakpoint, rows where nodes with the
    same last coordinate nearly tie) are re-scored with the dense
    expression, whose argmax keeps the lowest-index tie rule.  With R the
    resolution and h the most envelope segments in a row, the time is
    O(R n h) in 2D and O(n h) in 1D, plus O(n) per re-scored point; memory
    is O(n) per row, for a bounded block of rows at a time.  The lower
    hull's facet planes set the box only; no hull star, cell or clipping
    code is used, so the oracle stays independent of :func:`ma_measure`.
    """
    if cpl.dim > 2:
        raise NotImplementedError("oracle supports dimensions 1 and 2")
    axes, cellvol = _slope_grid(cpl, resolution)
    pts = np.array([[float(c) for c in nd] for nd in cpl.nodes])
    vals = np.array([float(v) for v in cpl.values])
    interior = np.array(cpl.interior_mask())
    counts, _ = _scan_counts(axes, pts, vals)
    return np.where(interior, counts * cellvol, 0.0)


def _slope_grid(cpl, resolution):
    """The oracle's cell-centred slope axes and its grid-cell volume."""
    g, _ = cpl._envelope_planes()
    lo = g.min(axis=0)
    hi = g.max(axis=0)
    pad = np.maximum(2 * (hi - lo) / resolution, 1e-6)
    lo, hi = lo - pad, hi + pad
    step = (hi - lo) / resolution
    axes = [lo[k] + (np.arange(resolution) + 0.5) * step[k]
            for k in range(cpl.dim)]
    return axes, step[0] if cpl.dim == 1 else step[0] * step[1]


# A point is certified when the bound on its margin exceeds this many ulps of
# the largest score magnitude; the dense scores and the bound each err by
# fewer than 20 such ulps.
_CERTIFY_ULPS = 128
_BLOCK = 1 << 18            # (grid row, point or plane) x node entries


def _scan_counts(axes, pts, vals):
    """Dense-argmax counts on the slope grid ``axes``, by upper envelopes.

    Along the last axis t, node j scores ``a_j t + b_j``, with ``a_j`` its
    last coordinate and ``b_j`` the rest of ``p . x_j - v_j``, so each grid
    row is a set of n lines.  Returns the counts per node and the number of
    line evaluations (scores and crossings), a machine-independent measure
    of the work.
    """
    t = axes[-1]
    scale = sum(np.abs(ax).max() * np.abs(pts[:, k]).max()
                for k, ax in enumerate(axes)) + np.abs(vals).max()
    if not np.isfinite(scale):
        raise ValueError("the oracle needs finite nodes, values and slopes")
    slack = _CERTIFY_ULPS * np.finfo(float).eps * scale
    n = len(vals)
    # lines by decreasing slope, so that argmax and argmin ties go to the
    # steepest line, the one that stays on the envelope to the right
    order = np.argsort(-pts[:, -1], kind="stable")
    a = pts[order, -1]
    levels = np.unique(a)
    rank = np.searchsorted(levels, a)
    gap_left = a - levels[np.maximum(rank - 1, 0)]      # 0: no smaller slope
    gap_right = levels[np.minimum(rank + 1, len(levels) - 1)] - a

    counts = np.zeros(n, dtype=np.int64)
    scored = 0
    p0 = axes[0] if len(axes) == 2 else np.zeros(1)     # 1D: a single row
    block = max(1, _BLOCK // n)
    for r0 in range(0, len(p0), block):
        if len(axes) == 2:
            b = np.outer(p0[r0:r0 + block], pts[order, 0]) - vals[order]
        else:
            b = -vals[None, order]
        segments, work = _envelope_walk(t, a, b)
        scored += work
        row, line, left, right, d_left, d_right, par = segments
        lo = np.searchsorted(t, left)
        hi = np.searchsorted(t, right)
        # certified: past (d + slack) / gap from both ends, no parallel tie
        with np.errstate(divide="ignore", invalid="ignore"):
            sure_lo = np.where(gap_left[line] > 0, np.searchsorted(
                t, left + (d_left + slack) / gap_left[line], side="right"), 0)
            sure_hi = np.where(gap_right[line] > 0, np.searchsorted(
                t, np.minimum(right, t[-1])
                - (d_right + slack) / gap_right[line]), len(t))
        first = np.clip(sure_lo, lo, hi)
        stop = np.clip(sure_hi, first, hi)
        unsure = par >= -slack
        first[unsure] = stop[unsure] = hi[unsure]
        np.add.at(counts, order[line], stop - first)

        # the rest, [lo, first) and [stop, hi), scored as the dense argmax
        start = np.concatenate([lo, stop])
        size = np.concatenate([first, hi]) - start
        rows = r0 + np.repeat(np.concatenate([row, row]), size)
        cols = (np.arange(size.sum())
                + np.repeat(start - np.cumsum(size) + size, size))
        scored += len(rows) * n
        for s in range(0, len(rows), block):
            r, k = rows[s:s + block], cols[s:s + block]
            if len(axes) == 1:
                win = (np.outer(t[k], pts[:, 0]) - vals).argmax(axis=1)
            else:
                P = np.column_stack([p0[r], t[k]])
                if len(P) == 1 and len(p0) > 1:
                    # BLAS rounds a one-row product (matrix times vector)
                    # unlike the rows of the grid's matrix product
                    P = np.repeat(P, 2, axis=0)
                win = (P @ pts.T - vals).argmax(axis=1)[:len(r)]
            counts += np.bincount(win, minlength=n)
    return counts, scored


def _rival(scores, line, side):
    """Per row, the max over the lines in ``side`` of score_j - score_line."""
    own = scores[np.arange(len(line)), line][:, None]
    return np.where(side, scores - own, -np.inf).max(axis=1, initial=-np.inf)


def _envelope_walk(t, a, b):
    """Upper-envelope segments of the lines ``a_j t + b[r, j]`` over t.

    Gift wrapping, one numpy step per envelope edge for all rows at once:
    from the winner at ``t[0]`` (ties to the steepest, ``a`` is sorted
    descending) step to the line crossing first among the steeper ones.
    Each segment [left, right) of a line also records, for certification,
    the worst rival score minus its own at ``left`` among shallower lines
    and at ``min(right, t[-1])`` among steeper lines, and the worst
    intercept minus its own among the other lines of its slope.  The last
    segment of a row has ``right`` = inf.  Returns the segments as arrays
    (row, line, left, right, d_left, d_right, parallel) and the number of
    line evaluations.
    """
    live = np.arange(len(b))
    left = np.full(len(b), t[0])
    scores = a * t[0] + b
    line = scores.argmax(axis=1)
    d_left = _rival(scores, line, a < a[line][:, None])
    work = scores.size
    segments = []
    while live.size:
        bb = b[live]
        here = np.arange(live.size)
        slope = a[line][:, None]
        ahead = a > slope
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(ahead, (bb[here, line][:, None] - bb)
                             / (a - slope), np.inf)
        nxt = cross.argmin(axis=1)
        right = np.maximum(cross[here, nxt], left)
        last = right > t[-1]
        scores = a * np.minimum(right, t[-1])[:, None] + bb
        parallel = a == slope
        parallel[here, line] = False
        segments.append((live, line, left, np.where(last, np.inf, right),
                         d_left, _rival(scores, line, ahead),
                         _rival(bb, line, parallel)))
        work += cross.size + scores.size
        go = ~last
        live, left, line, scores = live[go], right[go], nxt[go], scores[go]
        d_left = _rival(scores, line, a < a[line][:, None])
    return [np.concatenate(part) for part in zip(*segments)], work


@dataclass(frozen=True)
class StrictConvexityReport:
    strict: tuple            # node indices with positive cell volume
    singular: tuple          # interior nodes with (near) zero cell volume
    components: tuple        # singular nodes grouped by shared envelope facets
    degenerate: bool


def strict_convexity_report(cpl, tol=1e-12):
    """Classify interior nodes by cell volume and group the singular set.

    Two singular nodes belong to the same component when some envelope facet
    contains both (flat pieces of the graph are connected regions).
    """
    measure = ma_measure(cpl)
    scale = max([abs(float(m)) for m in measure.masses] + [1.0])
    strict, singular = [], []
    for i, it in enumerate(measure.interior):
        if not it:
            continue
        if float(measure.masses[i]) > tol * scale:
            strict.append(i)
        else:
            singular.append(i)

    # singular nodes on one supporting plane are in one component: the
    # components of the graph joining each plane to the nodes on it
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    g, b = cpl._envelope_planes()
    vals = np.array([float(v) for v in cpl.values])
    ftol = 1e-9 * max(1.0, np.abs(vals).max())
    sing = np.array(singular, dtype=int)
    pts, vals = np.array(cpl.nodes, dtype=float)[sing], vals[sing]
    m, links = len(sing), [np.zeros((2, 0), dtype=int)]
    step = max(1, _BLOCK // max(1, m))
    for f in range(0, len(g), step):
        k, h = np.nonzero(np.abs(pts @ g[f:f + step].T + b[f:f + step]
                                 - vals[:, None]) <= ftol)
        links.append(np.array([k, m + f + h]))
    k, h = np.concatenate(links, axis=1)
    _, label = connected_components(coo_matrix(
        (np.ones(len(k)), (k, h)), shape=(m + len(g),) * 2))
    comps = {}
    for i, c in zip(singular, label[:m].tolist()):
        comps.setdefault(c, []).append(i)
    components = tuple(sorted(map(tuple, comps.values())))
    return StrictConvexityReport(tuple(strict), tuple(singular), components,
                                 measure.degenerate)


# ---------------------------------------------------------------------------
# targets and the solver


def _cell_ends_1d(nodes, values):
    """Both ends of every 1D dual cell, in node order, as
    :func:`dual_cell_1d` computes them: the largest slope to a node on the
    left and the smallest to a node on the right, None where there is none.

    One sort, then one pass each way.  Over the nodes passed so far the
    extreme slope is taken at the tangent point of their lower chain, which
    the monotone-chain pops leave on top, so each pass is linear.  Repeated
    nodes divide by zero.
    """
    order = sorted(range(len(nodes)), key=lambda i: nodes[i][0])

    def slope(i, j):
        return (values[i] - values[j]) / (nodes[i][0] - nodes[j][0])

    # slopes to the node passed just before, shared by both passes
    steps = [None] + [slope(b, a) for a, b in zip(order, order[1:])]

    def sweep(seq, steps, worse):
        ends, chain = [None] * len(nodes), []  # (node, slope to the one below)
        for i, s in zip(seq, steps):
            while len(chain) > 1 and worse(chain[-1][1], s):
                chain.pop()
                s = slope(i, chain[-1][0])
            if chain:
                ends[i] = s
            chain.append((i, s))
        return ends

    return (sweep(order, steps, operator.ge),
            sweep(order[::-1], [None] + steps[:0:-1], operator.le))


def _half_square(node):
    """``|node|^2 / 2`` of a rational node, built as one Fraction."""
    den = math.prod(c.denominator for c in node)
    return Fraction(sum((c.numerator * (den // c.denominator)) ** 2
                        for c in node), 2 * den * den)


@dataclass(frozen=True)
class TargetMeasure:
    """Node masses prescribing the discrete Monge-Ampere equation.

    ``masses`` maps node tuples to nonnegative masses; ``density`` records a
    background density the masses were derived from (when both are known the
    totals must agree, see :meth:`from_density`).  Lookups go through float
    node keys so exact and float representations of the same node agree;
    mass values keep whatever arithmetic they were built with.
    """

    masses: dict
    density: object = None

    def __post_init__(self):
        table = {}
        for node, mass in self.masses.items():
            key = tuple(float(c) for c in node)
            if key in table:
                raise ValueError(f"two target nodes collapse to {key}")
            table[key] = mass
        object.__setattr__(self, "_table", table)

    def mass_at(self, node):
        return self._table.get(tuple(float(c) for c in node), 0)

    def total(self):
        return sum(self.masses.values())

    @classmethod
    def from_density(cls, domain, nodes, density):
        """Integrate a constant density over the Voronoi regions of the nodes.

        The Voronoi cell of a node is its dual cell for the paraboloid lift
        ``|x|^2 / 2`` clipped to the domain, so the construction reuses the
        exact cell machinery and the masses add up to density * volume
        exactly in rational mode.  In 2D a cell inside the domain is its
        fan of facet gradients (:class:`FacetCells`); the others are the
        domain polygon cut as :meth:`FacetCells.cut` decides.  In 1D the cells
        come from one sort (:func:`_cell_ends_1d`): a cell is bounded by the
        lift's slopes to the sorted neighbours, the midpoints.
        """
        density = _coerce(density)
        nodes = [tuple(_coerce(c) for c in nd) for nd in nodes]
        if isinstance(density, Fraction) and all(
                type(c) is Fraction for nd in nodes for c in nd):
            values = [_half_square(nd) for nd in nodes]
        else:
            values = [0.5 * sum(c * c for c in nd) for nd in nodes]
        masses = {}
        if domain.dim == 1:
            for nd, left, right in zip(nodes, *_cell_ends_1d(nodes, values)):
                left = domain.lo if left is None else max(left, domain.lo)
                right = domain.hi if right is None else min(right, domain.hi)
                masses[nd] = density * (right - left if right > left else 0)
        elif domain.dim == 2:
            cells = FacetCells(nodes, values, domain.vertices)
            whole = cells.inside(domain.vertices).tolist()
            area = cells.area.tolist()
            corners = list(domain.vertices)
            for i, nd in enumerate(nodes):
                if not whole[i]:
                    area[i] = cells.cut(i, corners).volume
                masses[nd] = density * area[i]
        else:
            raise NotImplementedError("density targets support dims 1 and 2")
        return cls(masses, density)

    def validate_total(self, domain):
        if self.density is None:
            return
        expected = self.density * domain.volume()
        got = self.total()
        if isinstance(got, Fraction) and isinstance(expected, Fraction):
            ok = got == expected
        else:
            ok = abs(float(got) - float(expected)) <= 1e-9 * max(
                1.0, abs(float(expected)))
        if not ok:
            raise ValueError(
                f"target total {got} != density * volume = {expected}")

    def validate_masses(self, nodes, interior=()):
        """Reject masses :func:`solve` cannot take: a negative one at any
        node, a nonzero one at a node not in ``nodes`` (the solve would drop
        it), and, given the interior flags of the nodes of a 2D solve, a
        zero one at an interior node (the damped Newton keeps every
        interior cell of positive area)."""
        keys = {tuple(float(c) for c in nd) for nd in nodes}
        for (nd, mass), key in zip(self.masses.items(), self._table):
            where = f"node ({', '.join(map(str, nd))})"
            if mass < 0:
                raise ValueError(f"negative target mass {mass} at {where}")
            if mass != 0 and key not in keys:
                raise ValueError(f"target mass {mass} at {where}, which is "
                                 "not a solve node")
        for nd, inside in zip(nodes, interior):
            if inside and self.mass_at(nd) == 0:
                raise ValueError(f"zero target mass at interior node "
                                 f"({', '.join(map(str, nd))})")


@dataclass(frozen=True)
class SolveResult:
    solution: ConvexPL
    residual: float          # max-norm mass residual relative to mean target
    iterations: int          # 2D: cell-map evaluations; 1D: 1
    converged: bool
    method: str
    cell_fallbacks: int = 0  # 2D cells that took the full clip
    masses: tuple = ()       # per solution node, 0 on the boundary


def solve(domain, target, boundary, nodes=None, tol=1e-8):
    """Solve the discrete Monge-Ampere Dirichlet problem on a node set.

    Finds the convex PL function with prescribed subgradient masses at the
    interior nodes and prescribed boundary values.  In 1D the slope on
    [x_k, x_k+1] is s_0 plus the masses of x_1..x_k, and s_0 follows from
    the slopes times the steps adding up to v_hi - v_lo: two prefix sums,
    exact for rational data.  In 2D it is the damped
    Newton method of Kitagawa, Merigot and Thibert (JEMS 2019,
    arXiv:1603.05579) on the cell-area map, second order in practice on
    this (Oliker-Prussner) scheme:

    * the start is ``env_b - c psi``: env_b is the lower envelope of the
      boundary data, psi the geometric mean of a node's distances to the
      domain's edges (zero on the boundary, strictly concave inside), and
      c = 1, doubled while some starting cell has zero area;
    * a step solves the sparse Jacobian system (dual-edge length over
      primal-edge length) and halves its length tau from 1 until every
      mass is at least eps = 1/2 min(start masses, targets) and the
      max-norm residual is at most (1 - tau/2) times the last one;
    * tau below a fixed floor, or a fixed cap on steps, ends the solve.

    Every accepted step lowers the residual, so the last iterate is the
    best one.  A cell-map evaluation is one lower hull and every interior
    cell.

    Parameters
    ----------
    domain : Interval or Polygon
    target : TargetMeasure, or mapping node -> mass
        Masses must be nonnegative, and positive at 2D interior nodes (see
        :meth:`TargetMeasure.validate_masses`).
    boundary : callable or mapping
        Dirichlet values, read at the nodes the domain classifies as
        boundary nodes; must admit a convex extension.
    nodes : iterable of tuples, optional
        Defaults to the target support plus the boundary nodes (boundary
        given as a mapping) or the domain vertices (boundary callable).
        A node outside the domain is a ValueError that names it.
    tol : float
        Max-norm mass residual, relative to the mean target mass.

    Returns
    -------
    SolveResult
        ``iterations`` counts cell-map evaluations in 2D (1 in 1D);
        ``masses`` holds the last iterate's mass at each node of
        ``solution`` (its slope jump in 1D), 0 at boundary nodes;
        ``converged=False`` carries the last iterate with its residual; no
        exception is raised for slow convergence.
    """
    if isinstance(target, dict):
        target = TargetMeasure({tuple(k): v for k, v in target.items()})
    target.validate_total(domain)
    if nodes is None:
        extra = boundary if isinstance(boundary, dict) else domain.vertices
        nodes = {tuple(float(c) for c in pt): pt
                 for pt in [*target.masses, *extra]}.values()
    nodes = [tuple(nd) for nd in nodes]
    inside, on_boundary = domain.classify(nodes)
    _reject_outside(nodes, inside)
    interior = ~on_boundary
    if not callable(boundary):
        boundary = boundary.__getitem__
    if domain.dim == 1:
        target.validate_masses(nodes)
        return _solve_1d(domain, nodes, target, boundary, tol)
    if domain.dim == 2:
        target.validate_masses(nodes, interior)
        return _solve_2d(domain, nodes, interior, target, boundary, tol)
    raise NotImplementedError("solve supports dimensions 1 and 2")


def _solve_1d(domain, nodes, target, boundary, tol):
    nodes = sorted(tuple(_coerce(c) for c in nd) for nd in nodes)
    xs = [nd[0] for nd in nodes]
    mus = [_coerce(target.mass_at(nd)) for nd in nodes[1:-1]]
    ends = [_coerce(boundary(nd)) for nd in (nodes[0], nodes[-1])]
    if not all(isinstance(c, Fraction) for c in xs + mus + ends):
        xs, mus, ends = ([float(c) for c in seq] for seq in (xs, mus, ends))
    v_lo, v_hi = ends

    # slope k is s_0 plus the masses of nodes 1..k, and the slopes times
    # the steps add up to v_hi - v_lo
    steps = [b - a for a, b in zip(xs, xs[1:])]
    rise = list(itertools.accumulate(mus, initial=0 * v_lo))
    width = xs[-1] - xs[0]
    s0 = (v_hi - v_lo - sum(h * r for h, r in zip(steps, rise))) / width
    values = list(itertools.accumulate(
        (h * (s0 + r) for h, r in zip(steps, rise)), initial=v_lo))
    miss = (v_hi - values[-1]) / width
    if miss:
        # float rounding leaves the far end off v_hi: an affine correction
        # closes the gap without moving a slope jump or piling it on one
        values = [v + miss * (x - xs[0]) for v, x in zip(values, xs)]
    values[-1] = v_hi
    cpl = ConvexPL(domain, [(x,) for x in xs], values)

    jumps = discrete_slope_jumps(xs, values)
    mean = sum(float(m) for m in mus) / max(1, len(mus)) or 1.0
    residual = max((abs(float(j) - float(m)) for j, m in zip(jumps, mus)),
                   default=0.0) / mean
    return SolveResult(cpl, residual, 1, residual <= tol, "direct",
                       masses=(0, *jumps, 0))


def _boundary_envelope_values(b_nodes, b_values, queries):
    g, b = FacetCells(b_nodes, b_values).planes()
    return (np.array(queries) @ g.T + b).max(axis=1)


def _cells_2d(nodes, values, interior_idx):
    """Masses, dual edges and full-clip count of the interior cells; the
    edges are arrays (i, j, length) as :meth:`FacetCells.dual_edges`."""
    cells = FacetCells(nodes, values)
    whole = cells.closed[interior_idx]
    masses = np.where(whole, cells.area[interior_idx], 0.0)
    i, j, ell = cells.dual_edges()
    inside = np.zeros(len(nodes), dtype=bool)
    inside[interior_idx] = True
    edges = [(i[inside[i]], j[inside[i]], ell[inside[i]])]
    full = np.nonzero(~whole)[0]
    for k in full:
        cell = dual_cell_2d(interior_idx[k], nodes, values,
                            expect_bounded=True)
        masses[k] = float(cell.volume)
        edges.append((np.full(len(cell.edges), interior_idx[k]),
                      np.array(list(cell.edges), dtype=int),
                      np.array(list(cell.edges.values()), dtype=float)))
    return masses, tuple(map(np.concatenate, zip(*edges))), len(full)


def _mass_jacobian(pts, interior_idx, edges):
    """Sparse derivative of the interior masses in the interior values:
    lowering node i by dv moves each dual edge (i, j, ell) by
    ``ell / |x_i - x_j|`` dv, out of neighbour j's cell into i's."""
    from scipy.sparse import csr_matrix
    i, j, ell = edges
    n = len(interior_idx)
    pos = np.full(len(pts), -1)
    pos[interior_idx] = np.arange(n)
    sens = ell / np.hypot(*(pts[i] - pts[j]).T)
    ki, kj = pos[i], pos[j]
    off = kj >= 0
    return csr_matrix((np.concatenate([-sens, sens[off]]),
                       (np.concatenate([ki, ki[off]]),
                        np.concatenate([ki, kj[off]]))), shape=(n, n))


def _edge_distance_mean(domain, points):
    """Geometric mean of the distances from ``points`` to the lines of the
    domain's edges: concave, zero on the boundary, strictly concave inside."""
    pts = np.array(points, dtype=float)
    dist = [(pts @ np.array(a, dtype=float) - float(c)) / math.hypot(*a)
            for a, c in domain.halfplanes()]
    return np.prod(np.maximum(dist, 0.0), axis=0) ** (1 / len(dist))


# damped Newton: at most _START_DOUBLINGS doublings of c and _NEWTON_STEPS
# steps, and a step whose length would fall below _TAU_FLOOR ends the solve
_START_DOUBLINGS = 30
_NEWTON_STEPS = 50
_TAU_FLOOR = 2.0 ** -12


def _solve_2d(domain, nodes, interior, target, boundary, tol):
    from scipy.sparse.linalg import spsolve

    # classified before rounding, which may move a node off the boundary
    interior_idx = np.flatnonzero(interior).tolist()
    boundary_idx = np.flatnonzero(~interior).tolist()
    if not interior_idx:
        raise ValueError("no interior nodes to solve for")
    b_values = [float(boundary(nodes[i])) for i in boundary_idx]
    psi = _edge_distance_mean(domain, [nodes[i] for i in interior_idx])
    nodes = [tuple(float(c) for c in nd) for nd in nodes]
    pts = np.array(nodes)

    b_nodes = [nodes[i] for i in boundary_idx]
    env = _boundary_envelope_values(b_nodes, b_values, nodes)
    scale = max(1.0, np.abs(b_values).max() if b_values else 1.0)
    if np.any(env[boundary_idx] < np.array(b_values) - 1e-9 * scale):
        bad = int(np.argmin(env[boundary_idx] - np.array(b_values)))
        raise InfeasibleBoundary(
            f"boundary node {b_nodes[bad]} lies above the envelope of the "
            "other boundary data; no convex extension exists")

    mus = np.array([float(target.mass_at(nodes[i])) for i in interior_idx])
    mean_mu = mus.mean()
    values = np.zeros(len(nodes))
    values[boundary_idx] = b_values
    evaluations = fallbacks = 0

    def cells(interior_values):
        nonlocal evaluations, fallbacks
        values[interior_idx] = interior_values
        masses, edges, n_full = _cells_2d(nodes, values.tolist(),
                                          interior_idx)
        evaluations += 1
        fallbacks += n_full
        return masses, edges, np.abs(masses - mus).max() / mean_mu

    c = 1.0
    for _ in range(_START_DOUBLINGS):
        v = env[interior_idx] - c * psi
        masses, edges, res = cells(v)
        if masses.min() > 0:
            break
        c *= 2
    eps = 0.5 * min(masses.min(), mus.min())
    for _ in range(_NEWTON_STEPS):
        if res <= tol or eps <= 0:
            break
        delta = spsolve(_mass_jacobian(pts, interior_idx, edges),
                        mus - masses)
        tau = 1.0
        while tau >= _TAU_FLOOR:
            t_masses, t_edges, t_res = cells(v + tau * delta)
            if t_masses.min() >= eps and t_res <= (1 - tau / 2) * res:
                break
            tau /= 2
        else:
            break
        v, masses, edges, res = v + tau * delta, t_masses, t_edges, t_res

    values[interior_idx] = v
    final = np.zeros(len(nodes))
    final[interior_idx] = masses
    # a float copy of the domain classifies the rounded nodes
    flat = Polygon([[float(c) for c in vert] for vert in domain.vertices])
    return SolveResult(ConvexPL(flat, nodes, values.tolist()), float(res),
                       evaluations, bool(res <= tol), "newton", fallbacks,
                       tuple(final.tolist()))
