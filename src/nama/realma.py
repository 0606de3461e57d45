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
rationals; the solver works in floats.  In 1D one sorted pass serves every
reader (:class:`_Slopes1D`, :func:`_cell_slopes_1d`): the monotone chain
gives each cell's ends, and the nodes they are the slopes to, in linear
time after the sort.  In 2D every cell comes from one Qhull lower hull of
the lifted nodes (:class:`~nama.convexgeom.FacetCells`): its facet
gradients give each cell's area and dual-edge lengths in a few array
passes, on integers with the denominators cleared for rational input, once
the hull has been checked.  A node off the checked triangulation has a cell
without interior.  A node the hull does not vouch for takes the full clip
against every other node (:meth:`~nama.convexgeom.FacetCells.full_clip`),
counted as a cell fallback.  A :class:`ConvexPL` builds that hull once, for
every reader; the envelope's planes come off it, and in 1D off the cell
ends.  Its readers share one node record (:class:`~nama.convexgeom.NodeSet`):
the floats, the flags and the cleared ints of exact 2D nodes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .convexgeom import (Cell, FacetCells, NodeSet, box_vertices,
                         facet_planes, lower_facets, polygon_area)
from .errors import InfeasibleBoundary
from .measures import AtomicMeasure, exact_sum


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


def _named(node):
    return f"({', '.join(map(str, node))})"


def _finite(kind, nodes, numbers):
    """A one-line ValueError naming the first node whose ``kind`` is a
    float nan or infinity, raised before any arithmetic takes it."""
    for nd, c in zip(nodes, numbers):
        if isinstance(c, float) and not math.isfinite(c):
            raise ValueError(f"{kind} {c} at node {_named(nd)} is not finite")


class _Pair(tuple):
    """A pair with extras: ``points`` (classify), ``below``, ``above``."""


class _Domain:
    """A convex domain ``{x : a . x >= c}`` over its inward halfplanes; every
    point test is a :meth:`classify` pass.  A domain with a float vertex
    takes tolerance 1e-12 times its scale, an exact (rational) one 0."""

    def _set_halfplanes(self, hps, scale):
        exact = all(type(c) is Fraction for v in self.vertices for c in v)
        tol = 0 if exact else 1e-12 * max(1.0, abs(float(scale)))
        floats = np.array([[*map(_float, a), _float(c)] for a, c in hps])
        corners = tuple(tuple(map(_float, v)) for v in self.vertices)
        self.__dict__.update(_halfplanes=tuple(hps), _floats=floats,
                             _corners=corners, _tol=tol, _exact=exact)

    def halfplanes(self):
        """Inward halfplanes (a, c) with the domain = {x : a . x >= c}."""
        return list(self._halfplanes)

    def classify(self, nodes):
        """The inside and on-boundary flags of ``nodes``, two bool arrays;
        the pair also carries the nodes' float coordinates as ``points``.

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
        flags = _Pair((inside, inside & (np.abs(s).min(axis=1) <= self._tol)))
        flags.points = x
        return flags

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
        self._set_halfplanes((((1,), self.lo), ((-1,), -self.hi)),
                             self.hi - self.lo)

    dim = 1

    @property
    def vertices(self):
        return ((self.lo,), (self.hi,))

    def volume(self):
        return self.hi - self.lo


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
        self._set_halfplanes(hps, max(abs(c) for v in vs for c in v))

    dim = 2

    @property
    def vertices(self):
        return self.verts

    def volume(self):
        return polygon_area(list(self.verts))


def box_polygon(lo0, hi0, lo1, hi1):
    """Axis-aligned rectangle as a Polygon (ccw)."""
    return Polygon(((lo0, lo1), (hi0, lo1), (hi0, hi1), (lo0, hi1)))


# ---------------------------------------------------------------------------
# convex PL functions


def _distinct(nodes, keys):
    """Each node's key to the node; a key given twice is a ValueError."""
    index = {}
    for nd, key in zip(nodes, keys):
        first = index.setdefault(key, nd)
        if first is not nd:
            raise ValueError(f"node {_named(nd)} is given twice" if first == nd
                             else f"nodes {_named(first)} and {_named(nd)} "
                             f"round to one float node {_named(key)}")
    return index


def _node_set(domain, nodes, rounded=False):
    """Check and classify ``nodes`` on ``domain`` once: their
    :class:`NodeSet` of the floats :meth:`_Domain.classify` read, and a
    dict from each node's key (the coerced node; with ``rounded`` its float
    tuple, the node a float solver sees) to the node.  A wrong dimension, a
    key given twice, a node outside and a domain vertex (with ``rounded``
    its float tuple) that is no key are each a one-line ValueError."""
    nodes = [tuple(_coerce(c) for c in nd) for nd in nodes]
    nd = next((nd for nd in nodes if len(nd) != domain.dim), None)
    if nd is not None:
        raise ValueError(f"node {_named(nd)} is not of dimension {domain.dim}")
    inside, on_boundary = flags = domain.classify(nodes)
    index = _distinct(nodes, map(tuple, flags.points.tolist())
                      if rounded else nodes)
    if not inside.all():
        raise ValueError(f"node {_named(nodes[int(np.argmin(inside))])} "
                         "lies outside the domain")
    for v, key in zip(domain.vertices,
                      domain._corners if rounded else domain.vertices):
        if key not in index:
            raise ValueError(f"domain vertex {_named(v)} must be a node")
    return NodeSet(nodes, flags.points, tuple((~on_boundary).tolist())), index


class ConvexPL:
    """Lower convex envelope of lifted nodes over a convex domain.

    Parameters
    ----------
    domain : Interval or Polygon
    nodes : iterable of coordinate tuples
        Must be distinct, lie in the domain and include all domain vertices.
        One :meth:`~_Domain.classify` pass checks them and keeps the flags
        of :meth:`interior_mask` (a :func:`solve` solution: the solve's).
    values : iterable of scalars
        Node lifts.  The function itself is the envelope; nodes lifted above
        it simply do not contribute.
    """

    def __init__(self, domain, nodes, values):
        record, _ = _node_set(domain, nodes)
        values = [_coerce(v) for v in values]
        if len(record.nodes) != len(values):
            raise ValueError("one value per node required")
        _finite("value", record.nodes, values)
        self._keep(domain, record, values)

    def _keep(self, domain, record, values):
        """Hold a :class:`NodeSet` checked and flagged here, or by solve."""
        self.domain, self.nodes, self.values = domain, record.nodes, values
        self.is_rational = record.exact and all(isinstance(v, Fraction)
                                                for v in values)
        self._record = record
        self._hull = self._planes = None
        return self

    @property
    def dim(self):
        return self.domain.dim

    def interior_mask(self):
        """Per node, off the boundary: the flags of :class:`ConvexPL`."""
        return self._record.interior

    @cached_property
    def _vals(self):
        """The values in floats, read once for the float readers."""
        return np.array([float(v) for v in self.values])

    # -- evaluation ---------------------------------------------------------

    def _envelope(self):
        """The one hull every reader takes, built on first use: the
        :func:`_cell_ends_1d` ends in 1D, in 2D the :class:`FacetCells`."""
        if self._hull is None:
            self._hull = (_cell_ends_1d(self.nodes, self.values)
                          if self.dim == 1 else
                          FacetCells(self._record, self.values,
                                     self.domain.vertices))
        return self._hull

    def _envelope_planes(self):
        """The envelope's planes, built once: in 1D the line of slope ``hi``
        through each node on the envelope, in 2D :meth:`FacetCells.planes`."""
        if self._planes is None and self.dim == 2:
            self._planes = self._envelope().planes()
        elif self._planes is None:
            g, b = np.array([(hi, v - hi * nd[0]) for nd, v, lo, hi in zip(
                self.nodes, self.values, *self._envelope())
                if hi is not None and (lo is None or hi >= lo)], dtype=float).T
            self._planes = g[:, None], b
        return self._planes

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

    ``xs`` must be strictly increasing, one value per point.  No envelope
    is taken: jumps can be negative, which is how non-convex model
    potentials report negative mass.  Exact for rational input.
    """
    slopes = _Slopes1D([_coerce(x) for x in xs], [_coerce(v) for v in values],
                       increasing=True)
    s, read = slopes.steps, slopes.read
    return [read(n * d - m * e, d * e) for (m, d), (n, e) in zip(s, s[1:])]


class _Slopes1D:
    """The slopes of the points ``(xs[i], values[i])``, sorted once by x:
    the one place that tells rational input from float input.  ``order`` is
    the sorted order (the given one if xs increases, and with
    ``increasing`` no other), ``steps`` the slopes between its neighbours,
    ``slope(i, j)`` any one.  A slope is a pair (n, d > 0): the ints of
    cross-multiplied differences for rational input, which ``le`` compares
    by cross-multiplying, and (float quotient, 1) otherwise.  ``read``
    turns (n, d) into one reduced Fraction or the float result, and
    ``pair`` turns a number into a pair.  A repeated x divides by zero.
    """

    def __init__(self, xs, values, increasing=False):
        if len(xs) != len(values):
            raise ValueError(f"{len(xs)} points but {len(values)} values")
        if all(type(c) is Fraction for c in itertools.chain(xs, values)):
            self.pair, self.read = operator.methodcaller(
                "as_integer_ratio"), Fraction
            X, V = list(map(self.pair, xs)), list(map(self.pair, values))

            def slope(i, j):
                (p, q), (r, t) = X[i], X[j]
                (a, b), (c, e) = V[i], V[j]
                num, den = (a * e - c * b) * q * t, (p * t - r * q) * b * e
                if den:
                    return (num, den) if den > 0 else (-num, -den)
                raise ZeroDivisionError(f"repeated node {xs[i]}")

            def le(s, t):
                return s[0] * t[1] <= t[0] * s[1]
        else:
            # (x, 1) <= (y, 1) as tuples is x <= y
            self.pair, self.read = (lambda c: (c, 1)), operator.truediv
            X, le = list(map(self.pair, xs)), operator.le

            def slope(i, j):
                return (values[i] - values[j]) / (xs[i] - xs[j]), 1
        order = range(len(xs))
        if any(r * q <= p * t for (p, q), (r, t) in zip(X, X[1:])):
            if increasing:
                raise ValueError("xs must be strictly increasing")
            order = sorted(order, key=xs.__getitem__)
        self.order, self.slope, self.le = order, slope, le
        self.steps = [slope(j, i) for i, j in zip(order, order[1:])]


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
        return exact_sum(self.masses)

    def atomic(self):
        inside = [k for k, it in enumerate(self.interior) if it]
        return AtomicMeasure(tuple(self.nodes[k] for k in inside),
                             tuple(self.masses[k] for k in inside))


def gradient_cells(cpl, clip_box):
    """Dual (subgradient) cells of every node, clipped to ``clip_box``
    (``(lo, hi)`` in 1D, ``(lo0, hi0, lo1, hi1)`` in 2D), which is how the
    tiling identity is checked.  In 1D a cell is the node's envelope ends
    (:func:`_cell_ends_1d`, one sorted pass: O(n log n), O(n) for sorted
    nodes) clipped to the box.  In 2D it is the box cut by the node's
    neighbours on the lifted lower hull (:meth:`FacetCells.cut`).
    """
    if cpl.dim == 2:
        box = box_vertices(*clip_box)
        return [cpl._envelope().cut(i, box) for i in range(len(cpl.nodes))]
    ends, (box_lo, box_hi), cells = cpl._envelope(), clip_box, []
    for lo, hi, below, above in zip(*ends, ends.below, ends.above):
        touches = lo is None or hi is None
        lo = box_lo if lo is None else max(lo, box_lo)
        hi = box_hi if hi is None else min(hi, box_hi)
        edges = {j: 1.0 for j in (below, above) if j is not None and hi >= lo}
        cells.append(Cell(1, [(lo,), (hi,)] if hi > lo else [],
                          hi - lo if hi > lo else 0, edges, touches, hi < lo))
    return cells


def ma_measure(cpl):
    """The discrete Monge-Ampere measure of a ConvexPL function.

    Mass at an interior node is the volume of its dual cell, exact in
    rational mode; boundary nodes carry no mass (their cells are unbounded
    and the measure is restricted to the open domain).  A node is flagged
    off-envelope when its cell has no interior: it lies above the envelope,
    or on it but at no vertex of the envelope's graph.  In 2D every cell
    the lifted hull vouches for is read off its facet gradients
    (:class:`FacetCells`), a boundary node's flag off its fan; the others
    take the box-free full clip (:meth:`FacetCells.full_clip`), counted
    in ``cell_fallbacks``.
    """
    interior = cpl.interior_mask()
    masses, on_env = [], []
    zero = Fraction(0) if cpl.is_rational else 0.0
    fallbacks = 0
    if cpl.dim == 1:
        for lo, hi, inside in zip(*cpl._envelope(), interior):
            # domain ends sit on the envelope; volumes as in gradient_cells
            on_env.append(not inside or hi >= lo)
            masses.append(zero if not inside or hi < lo
                          else hi - lo if hi > lo else 0)
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
                cell = cells.full_clip(i, bounded=inside)
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
    scores are lines in the last slope coordinate, the row's winners are
    the segments of their upper envelope, and each segment takes its grid
    points by index arithmetic.  A point counts for its segment's node only
    when a forward error bound on the scores separates that node from every
    other line of the walk by more than a slack of 128 ulps of the score
    scale; the rest (points next to a breakpoint, rows where nodes with the
    same last coordinate nearly tie) are re-scored with the dense
    expression against all n nodes, whose argmax keeps the lowest-index tie
    rule.

    A row is won only by the few nodes whose cells cross it, so the rows
    are cut into strips of about sqrt(2 R) rows, R the resolution, and a
    strip walks only its candidate lines.  Its first and last rows are
    walked with all n lines, and the lines on their envelopes are its
    dominators K.  Line j is dropped from the strip when one k in K beats
    it by more than twice the slack at all four corners of the strip's
    (p, t) rectangle.  score_k - score_j is affine in (p, t), so its least
    value on the rectangle is at a corner; the corner scores and their
    difference err by fewer than 8 ulps of the scale, so k beats j by more
    than the slack at every grid point of the strip.  A dominator that is
    dropped in turn is beaten by more still, and the chain ends at a kept
    line.  The counts therefore stay those of the dense argmax: a point
    certified for a line is ahead of every kept line by the slack, hence
    of every dropped one, which the dense scores' rounding (fewer than 20
    ulps) cannot lift to the win; the certificate takes its rivals from
    the candidates and its slope gaps from all n lines, which only narrows
    it; and every other point is re-scored against all n lines as before.

    With h the most envelope segments in a row and c the most candidates
    in a strip, the time is O(strips |K| n) for the prune (and the same
    order, strips n h, for the edge walks) plus O(R c h) for the walks in
    2D, O(n h) in 1D, and O(n) per re-scored point.  Every temporary is a
    block of a bounded number of entries.  The lower hull's facet planes
    set the box only; no hull star, cell or clipping code is used, so the
    oracle stays independent of :func:`ma_measure`.
    """
    if cpl.dim > 2:
        raise NotImplementedError("oracle supports dimensions 1 and 2")
    axes, cellvol = _slope_grid(cpl, resolution)
    counts, _ = _scan_counts(axes, cpl._record.points, cpl._vals)
    return np.where(cpl.interior_mask(), counts * cellvol, 0.0)


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
    row is a set of n lines.  The rows are cut into strips of
    :func:`_strip_height` rows; each strip's first and last rows are walked
    with all lines, its other rows with the lines that no line on those
    two envelopes beats at the strip's four corners (the argument is in
    :func:`ma_measure_oracle`).  The strips go in groups whose edge rows
    and corner scores fit a block; candidate rows are padded with a line
    of intercept -inf.  Returns the counts per node and the number of line
    evaluations (scores, crossings and corner comparisons), a
    machine-independent measure of the work.
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
    # line n pads the candidate rows: the least slope and intercept -inf
    a = np.append(a, a[-1])
    x = np.append(pts[order, 0] if len(axes) == 2 else np.zeros(n), 0.0)
    v = np.append(vals[order], np.inf)
    p = axes[0] if len(axes) == 2 else np.zeros(1)      # 1D: a single row

    counts = np.zeros(n, dtype=np.int64)
    scored = 0

    def scan(rows, cols):
        """Count the grid ``rows``, each against its row of ``cols`` (line
        indices, increasing, padded with n); return every envelope
        segment's grid row and line."""
        nonlocal counts, scored
        b = p[rows][:, None] * x[cols] - v[cols]
        segments, work = _envelope_walk(t, a[cols], b)
        scored += work
        seg, col, left, right, d_left, d_right, par = segments
        line = cols[seg, col]
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
        at = rows[np.repeat(np.concatenate([seg, seg]), size)]
        ks = (np.arange(size.sum())
              + np.repeat(start - np.cumsum(size) + size, size))
        scored += len(at) * n
        step = max(1, _BLOCK // n)
        for s in range(0, len(at), step):
            r, k = at[s:s + step], ks[s:s + step]
            if len(axes) == 1:
                win = (np.outer(t[k], pts[:, 0]) - vals).argmax(axis=1)
            else:
                P = np.column_stack([p[r], t[k]])
                if len(P) == 1 and len(p) > 1:
                    # BLAS rounds a one-row product (matrix times vector)
                    # unlike the rows of the grid's matrix product
                    P = np.repeat(P, 2, axis=0)
                win = (P @ pts.T - vals).argmax(axis=1)[:len(r)]
            counts += np.bincount(win, minlength=n)
        return rows[seg], line

    height = _strip_height(len(p))
    # the strips of a group: their edge rows and corner scores fit a block
    group = height * max(1, _BLOCK // (4 * (n + 1)))
    for g0 in range(0, len(p), group):
        first = np.arange(g0, min(g0 + group, len(p)), height)
        last = np.minimum(first + height, len(p)) - 1
        edges = np.union1d(first, last)
        row, line = scan(edges, np.broadcast_to(np.arange(n),
                                                (len(edges), n)))
        inner = np.setdiff1d(np.arange(g0, last[-1] + 1), edges)
        if not inner.size:
            continue
        key = np.unique((row - g0) // height * (n + 1) + line)
        K = _padded(key // (n + 1), key % (n + 1), len(first), n)
        # each strip's corners: its least and greatest p, t's ends
        lo = np.minimum.reduceat(p[g0:last[-1] + 1], first - g0)
        hi = np.maximum.reduceat(p[g0:last[-1] + 1], first - g0)
        pc = np.column_stack([lo, lo, hi, hi])[:, :, None]
        tc = np.array([t[0], t[-1], t[0], t[-1]])[:, None]
        C = pc * x + tc * a - v                     # strip, corner, line
        Ck = np.take_along_axis(C, K[:, None, :], axis=2)
        keep = np.empty((len(first), n), dtype=bool)
        step = max(1, _BLOCK // Ck.size)
        for j in range(0, n, step):
            # dropped: a dominator ahead by twice the slack at every corner
            span = slice(j, min(j + step, n))
            beat = Ck[:, :, :, None] - C[:, :, None, span]
            keep[:, span] = ~(beat.min(axis=1) > 2 * slack).any(axis=1)
            scored += beat.size
        lines = _padded(*np.nonzero(keep), len(first), n)
        strip = (inner - g0) // height
        step = max(1, _BLOCK // lines.shape[1])
        for i in range(0, len(inner), step):
            scan(inner[i:i + step], lines[strip[i:i + step]])
    return counts, scored


def _strip_height(rows):
    """Rows per strip of :func:`_scan_counts` for R rows, about sqrt(2 R).

    Each of the R / height strips pays two full-width edge walks and a
    prune, and each row of a taller strip walks more candidates; both
    costs scale alike in n, so their balance is at a height of order
    sqrt(R) for any n (on jittered grids of 25 to 2,500 nodes the times
    were flat from sqrt(R / 2) to sqrt(8 R) rows).
    """
    return max(2, math.isqrt(2 * rows))


def _padded(owner, item, rows, fill):
    """The items of each owner (``owner`` sorted) as the rows of a matrix,
    padded on the right with ``fill``."""
    size = np.bincount(owner, minlength=rows)
    out = np.full((rows, size.max(initial=0)), fill)
    out[owner, np.arange(len(owner))
        - np.repeat(np.cumsum(size) - size, size)] = item
    return out


def _rival(values, own, side):
    """Per row, the max over the lines in ``side`` of value_j - own; the max
    is taken first, since rounding a difference is monotone in it."""
    return values.max(axis=1, where=side, initial=-np.inf) - own


def _envelope_walk(t, a, b):
    """Upper-envelope segments of the lines ``a[r, j] t + b[r, j]`` over t.

    Gift wrapping, one numpy step per envelope edge for all rows r at once:
    from the winner at ``t[0]`` (ties to the steepest, each row of ``a`` is
    sorted descending) step to the line crossing first among the steeper
    ones.  Each segment [left, right) of a line also records, for
    certification, the worst rival score minus its own at ``left`` among
    shallower lines and at ``min(right, t[-1])`` among steeper lines, and
    the worst intercept minus its own among the other lines of its slope.
    The last segment of a row has ``right`` = inf.  Returns the segments as
    arrays (row, column, left, right, d_left, d_right, parallel) and the
    number of line evaluations.
    """
    live = np.arange(len(b))
    left = np.full(len(b), t[0])
    scores = a * t[0] + b
    line = scores.argmax(axis=1)
    work = scores.size
    segments = []
    while live.size:
        here = np.arange(live.size)
        rise = a - a[here, line][:, None]       # slope minus the line's
        ahead = rise > 0
        d_left = _rival(scores, scores[here, line], rise < 0)
        own = b[here, line]
        cross = np.full(b.shape, np.inf)
        np.divide(own[:, None] - b, rise, out=cross, where=ahead)
        nxt = cross.argmin(axis=1)
        right = np.maximum(cross[here, nxt], left)
        last = right > t[-1]
        scores = a * np.minimum(right, t[-1])[:, None] + b
        parallel = rise == 0
        parallel[here, line] = False
        segments.append((live, line, left, np.where(last, np.inf, right),
                         d_left, _rival(scores, scores[here, line], ahead),
                         _rival(b, own, parallel)))
        work += cross.size + scores.size
        left, line = right, nxt
        if last.any():
            go = ~last
            live, left, line, scores = live[go], left[go], line[go], scores[go]
            a, b = a[go], b[go]
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
    masses = [float(m) for m in measure.masses]
    scale = max([abs(m) for m in masses] + [1.0])
    inside = [i for i, it in enumerate(measure.interior) if it]
    big = [m > tol * scale for m in masses]
    strict = [i for i in inside if big[i]]
    singular = [i for i in inside if not big[i]]

    # singular nodes on one supporting plane are in one component: the
    # components of the graph joining each plane to the nodes on it
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    g, b = cpl._envelope_planes()
    ftol = 1e-9 * max(1.0, np.abs(cpl._vals).max())
    sing = np.array(singular, dtype=int)
    pts, vals = cpl._record.points[sing], cpl._vals[sing]
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


def _cell_slopes_1d(slopes):
    """Every 1D dual cell's ends in node order, in the form of ``slopes``
    (a :class:`_Slopes1D`), as two pairs (ends, points): the largest slopes
    to a point on the left and those points, then the smallest to one on
    the right, None where there is none.  One pass each way over the
    sorted points: the extreme slope to the points passed so far is taken
    at the tangent point of their lower chain, which the monotone-chain
    pops leave on top (the farthest among equal slopes), so it is linear.
    """
    slope, le, n = slopes.slope, slopes.le, len(slopes.order)

    def sweep(seq, steps, worse):
        ends, tangent, chain = [None] * n, [None] * n, []  # (point, slope)
        for i, s in zip(seq, steps):
            while len(chain) > 1 and worse(chain[-1][1], s):
                chain.pop()
                s = slope(i, chain[-1][0])
            if chain:
                ends[i], tangent[i] = s, chain[-1][0]
            chain.append((i, s))
        return ends, tangent

    return (sweep(slopes.order, [None] + slopes.steps, lambda s, t: le(t, s)),
            sweep(slopes.order[::-1], [None] + slopes.steps[::-1], le))


def _cell_ends_1d(nodes, values):
    """The ends of :func:`_cell_slopes_1d` as numbers: one reduced
    Fraction per end of rational input."""
    slopes = _Slopes1D([nd[0] for nd in nodes], values)
    (left, below), (right, above) = _cell_slopes_1d(slopes)
    ends = _Pair([None if s is None else slopes.read(*s) for s in end]
                 for end in (left, right))
    ends.below, ends.above = below, above
    return ends


@dataclass(frozen=True)
class TargetMeasure:
    """Node masses prescribing the discrete Monge-Ampere equation.

    ``masses`` maps node tuples to nonnegative masses; ``density`` records
    the density they came from (the totals must then agree, see
    :meth:`from_density`).  Lookups go through float node keys, so exact and
    float forms of a node agree; a solve looks each of its nodes up once
    (:meth:`validate_masses`).  Masses keep the arithmetic they came in.
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
        return exact_sum(self.masses.values())

    @classmethod
    def from_density(cls, domain, nodes, density):
        """Integrate a constant density over the Voronoi regions of the nodes.

        The Voronoi cell of a node is its dual cell for the paraboloid lift
        ``|x|^2 / 2`` clipped to the domain, so the construction reuses the
        exact cell machinery and the masses add up to density * volume
        exactly in rational mode.  In 2D the cells come off the facet
        gradients (:meth:`FacetCells.areas_within`): a cell inside the
        domain is its fan's polygon, and, for rational nodes and domain,
        the part in the domain of the cell of a node on the rim of the
        triangulation is its fan closed by the midpoints of its rim edges,
        when its gradients lie in the closed domain.  Only the other nodes,
        and every node when the hull checks fail, take the domain polygon
        cut as :meth:`FacetCells.cut` decides.  In 1D the cells come from
        the one sorted pass of every 1D reader (:func:`_cell_slopes_1d`),
        bounded by the midpoints, and are clipped to the interval as slope
        pairs: on ints for rational input, with one Fraction per mass.  A
        node given twice, or two of one float node, is a ValueError.
        """
        density = _coerce(density)
        nodes = [tuple(_coerce(c) for c in nd) for nd in nodes]
        record = NodeSet(nodes, np.array(nodes, dtype=float).reshape(
            -1, domain.dim))
        # float keys: the target's table could not tell two apart either
        _distinct(nodes, map(tuple, record.points.tolist()))
        exact = isinstance(density, Fraction) and record.exact
        if domain.dim == 1:
            values = [Fraction(x.numerator ** 2, 2 * x.denominator ** 2)
                      if exact else 0.5 * (x * x) for x, in nodes]
            slopes = _Slopes1D([nd[0] for nd in nodes], values)
            lo, hi, (p, q) = map(slopes.pair, (domain.lo, domain.hi, density))
            (left, _), (right, _) = _cell_slopes_1d(slopes)
            masses = {}
            for nd, l, r in zip(nodes, left, right):
                l = lo if l is None or l[0] * lo[1] < lo[0] * l[1] else l
                r = hi if r is None or hi[0] * r[1] < r[0] * hi[1] else r
                a, b = r[0] * l[1], l[0] * r[1]
                masses[nd] = slopes.read(p * (a - b if a > b else 0),
                                         q * l[1] * r[1])
        elif domain.dim == 2:
            corners = list(domain.vertices)
            half = Fraction(1, 2) if exact else 0.5
            cells = FacetCells(record, None if exact and domain._exact else [
                sum(c * c for c in nd) * half for nd in nodes], corners)
            masses = {nd: density * (cells.cut(i, corners).volume
                                     if area is None else area)
                      for i, (nd, area) in enumerate(
                          zip(nodes, cells.areas_within(corners)))}
        else:
            raise NotImplementedError("density targets support dims 1 and 2")
        return cls(masses, density)

    def validate_total(self, domain):
        if self.density is None:
            return
        expected, got = self.density * domain.volume(), self.total()
        if isinstance(got, Fraction) and isinstance(expected, Fraction):
            ok = got == expected
        else:
            ok = abs(float(got) - float(expected)) <= 1e-9 * max(
                1.0, abs(float(expected)))
        if not ok:
            raise ValueError(
                f"target total {got} != density * volume = {expected}")

    def validate_masses(self, nodes, interior=()):
        """The masses at the nodes of a solve, each looked up once (``nodes``
        maps float node tuples to nodes).  Rejects a negative mass at any
        node, a nonzero one at a node not in ``nodes`` (the solve would drop
        it), and, given the interior flags of the nodes of a 2D solve, a
        zero one at an interior node (the damped Newton keeps every
        interior cell of positive area)."""
        for (nd, mass), key in zip(self.masses.items(), self._table):
            if mass < 0:
                raise ValueError(f"negative target mass {mass} at node "
                                 f"{_named(nd)}")
            if mass != 0 and key not in nodes:
                raise ValueError(f"target mass {mass} at node {_named(nd)}, "
                                 "which is not a solve node")
        masses = [self._table.get(key, 0) for key in nodes]
        for nd, mass, inside in zip(nodes.values(), masses, interior):
            if inside and mass == 0:
                raise ValueError(f"zero target mass at interior node "
                                 f"{_named(nd)}")
        return masses


class Evaluation(NamedTuple):
    """One cell-map evaluation of a solve: its residual, its step length
    ``tau`` (None at the start), the smallest interior mass (None with no
    interior node) and its verdict: ``"start"``, ``"accepted"``,
    ``"mass"`` (a mass fell below eps), ``"residual"`` (the decrease was
    too small) or, for the one pass of a 1D solve, ``"direct"``."""

    residual: float
    tau: float | None
    min_mass: float | None
    verdict: str


@dataclass(frozen=True)
class SolveResult:
    solution: ConvexPL
    residual: float          # max-norm mass residual relative to mean target
    iterations: int          # 2D: cell-map evaluations; 1D: 1
    converged: bool
    method: str
    cell_fallbacks: int = 0  # 2D cells that took the full clip
    masses: tuple = ()       # per solution node, 0 on the boundary
    history: tuple = ()      # one Evaluation per cell-map evaluation, in order


def solve(domain, target, boundary, nodes=None, tol=1e-8):
    """Solve the discrete Monge-Ampere Dirichlet problem on a node set.

    Finds the convex PL function with prescribed subgradient masses at the
    interior nodes and prescribed boundary values.  In 1D the slope on
    [x_k, x_k+1] is s_0 plus the masses of x_1..x_k, and s_0 follows from
    the slopes times the steps adding up to v_hi - v_lo: two prefix sums
    on integers, exact for rational data and, for float data, the exact
    solve of the floats rounded once per value.  In 2D it is the damped
    Newton method of Kitagawa, Merigot and Thibert (JEMS 2019,
    arXiv:1603.05579) on the cell-area map, second order in practice on
    this (Oliker-Prussner) scheme:

    * the start is ``env_b - c psi``: env_b is the lower envelope of the
      boundary data, and psi a concave bump, zero on the boundary: the
      harmonic mean k / sum 1/d_i of a node's distances d_i to the
      domain's k edges, whose slope is at most k, so that the cells next
      to the edges do not start with far too much mass, plus 0.01 times
      the geometric mean of the d_i, so that a node a rounding error off
      an edge starts with a cell of some area; c = 1, doubled while some
      starting cell has zero area;
    * a step solves the sparse Jacobian system (dual-edge length over
      primal-edge length) and halves its length tau from 1 until every
      mass is at least eps = 1/2 min(start masses, targets) and the
      max-norm residual is at most (1 - tau/2) times the last one;
    * tau below a fixed floor, or a fixed cap on steps, ends the solve.

    Every accepted step lowers the residual, so the last iterate is the
    best one.  A cell-map evaluation is one lower hull and every interior
    cell; ``history`` records each one, in order, as an
    :class:`Evaluation`.  Before any of it, one pass checks and classifies
    the nodes and reads each coordinate into a float once; every step, and
    the solution's :meth:`ConvexPL.interior_mask`, reads its flags.

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
        Two nodes of one float node, a node outside the domain, a domain
        vertex that is no node of the solution and a 1D node that a float
        domain's tolerance puts on the boundary between the end nodes (it
        would take a third Dirichlet value) are a ValueError naming them.
    tol : float
        Max-norm mass residual, relative to the mean target mass.

    Returns
    -------
    SolveResult
        The last iterate with its masses (slope jumps in 1D) and residual,
        also unconverged: slow convergence raises no exception.
    """
    if isinstance(target, dict):
        target = TargetMeasure({tuple(k): v for k, v in target.items()})
    target.validate_total(domain)
    if nodes is None:
        extra = boundary if isinstance(boundary, dict) else domain.vertices
        nodes = {tuple(float(c) for c in pt): pt
                 for pt in [*target.masses, *extra]}.values()
    record, index = _node_set(domain, nodes, rounded=True)
    masses = target.validate_masses(
        index, record.interior if domain.dim == 2 else ())
    boundary = boundary if callable(boundary) else boundary.__getitem__
    if domain.dim == 1:
        return _solve_1d(domain, record, masses, boundary, tol)
    return _solve_2d(domain, record, masses, boundary, tol)


def _solve_1d(domain, record, masses, boundary, tol):
    nodes, interior, masses, points = zip(*sorted(zip(
        record.nodes, record.interior, masses, record.points.tolist())))
    if not all(interior[1:-1]):
        raise ValueError(f"node {_named(nodes[interior.index(False, 1)])} is "
                         "on the domain's boundary between the end nodes; "
                         "a 1D solve takes Dirichlet values at the ends only")
    xs = [nd[0] for nd in nodes]
    mus = [_coerce(m) for m in masses[1:-1]]
    ends = [_coerce(boundary(nd)) for nd in (nodes[0], nodes[-1])]
    exact = all(isinstance(c, Fraction) for c in xs + mus + ends)
    if not exact:
        xs, mus, ends = ([float(c) for c in seq] for seq in (xs, mus, ends))
        _finite("target mass", [(x,) for x in xs[1:-1]], mus)
        _finite("boundary value", [(xs[0],), (xs[-1],)], ends)
    if (xs[0], xs[-1]) != (domain.lo, domain.hi):
        raise ValueError(f"end nodes ({xs[0]}) and ({xs[-1]}) of the "
                         f"{'exact' if exact else 'float'} solve are not the "
                         f"domain vertices ({domain.lo}) and ({domain.hi})")
    V, m = _direct_values(xs, mus, *ends)
    try:
        values = [Fraction(v, m) for v in V] if exact else [v / m for v in V]
    except OverflowError:
        raise ValueError("a node value of the solution leaves the float "
                         "range") from None
    jumps = discrete_slope_jumps(xs, values)
    mean = sum(float(m) for m in mus) / max(1, len(mus)) or 1.0
    residual = max((abs(float(j) - float(m)) for j, m in zip(jumps, mus)),
                   default=0.0) / mean
    cpl = ConvexPL.__new__(ConvexPL)._keep(domain, NodeSet(
        [(x,) for x in xs], np.array(points), interior), values)
    low = min(map(float, jumps), default=None)
    return SolveResult(cpl, residual, 1, residual <= tol, "direct",
                       masses=(0, *jumps, 0),
                       history=(Evaluation(residual, None, low, "direct"),))


def _direct_values(xs, mus, v_lo, v_hi):
    """The node values of the 1D direct solve on ints, (V, m) with value k
    V_k / m, for rationals or finite floats (each its exact value).  Slope
    k is s_0 plus the masses of nodes 1..k, and the slopes times the steps
    add up to v_hi - v_lo.  With x_k = X_k / q, the prefix mass sums R_k /
    l and v_lo = a / b, v_hi = c / e: s_0 = sn / sd, V_0 = a q sd l, V_k+1
    = V_k + (X_k+1 - X_k)(sn l + R_k sd) b and m = b q sd l.
    """
    xr = [x.as_integer_ratio() for x in xs]
    q = math.lcm(*(d for _, d in xr))
    X = [n * (q // d) for n, d in xr]
    mr = [mu.as_integer_ratio() for mu in mus]
    l = math.lcm(*(d for _, d in mr))
    R = list(itertools.accumulate((n * (l // d) for n, d in mr), initial=0))
    steps = [b - a for a, b in zip(X, X[1:])]
    (a, b), (c, e) = v_lo.as_integer_ratio(), v_hi.as_integer_ratio()
    sn = (c * b - a * e) * q * l - b * e * sum(h * r for h, r in zip(steps, R))
    sd = b * e * l * (X[-1] - X[0])
    return list(itertools.accumulate(
        (h * (sn * l + r * sd) * b for h, r in zip(steps, R)),
        initial=a * q * sd * l)), b * q * sd * l


def _cells_2d(record, values, interior_idx):
    """Masses, dual edges and full-clip count of the interior cells; the
    edges are arrays (i, j, length) as :meth:`FacetCells.dual_edges`."""
    cells = FacetCells(record, values)
    whole = cells.closed[interior_idx]
    masses = np.where(whole, cells.area[interior_idx], 0.0)
    i, j, ell = cells.dual_edges()
    inside = np.zeros(len(values), dtype=bool)
    inside[interior_idx] = True
    edges = [(i[inside[i]], j[inside[i]], ell[inside[i]])]
    full = np.nonzero(~whole)[0]
    for k in full:
        cell = cells.full_clip(interior_idx[k], bounded=True)
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


# damped Newton: at most _START_DOUBLINGS doublings of c and _NEWTON_STEPS
# steps, and a step whose length would fall below _TAU_FLOOR ends the solve
_START_DOUBLINGS = 30
_NEWTON_STEPS = 50
_TAU_FLOOR = 2.0 ** -12
# the start bump's weight on the geometric mean of the distances (solve)
_GEOMETRIC_WEIGHT = 0.01


def _solve_2d(domain, record, targets, boundary, tol):
    from scipy.sparse.linalg import spsolve

    nodes, interior, pts = record.nodes, record.interior, record.points
    # classified before rounding, which may move a node off the boundary
    interior_idx = np.flatnonzero(interior).tolist()
    boundary_idx = [i for i, inside in enumerate(interior) if not inside]
    if not interior_idx:
        raise ValueError("no interior nodes to solve for")
    b_values = [float(boundary(nodes[i])) for i in boundary_idx]
    mus = [float(targets[i]) for i in interior_idx]
    _finite("boundary value", [nodes[i] for i in boundary_idx], b_values)
    _finite("target mass", [nodes[i] for i in interior_idx], mus)
    b_values, mus = np.array(b_values), np.array(mus)
    dist = np.maximum([(pts[interior_idx] @ row[:2] - row[2])
                       / math.hypot(*row[:2]) for row in domain._floats], 0.0)
    with np.errstate(divide="ignore"):
        psi = len(dist) / (1 / dist).sum(axis=0)
    psi += _GEOMETRIC_WEIGHT * np.prod(dist, axis=0) ** (1 / len(dist))
    grid = NodeSet(list(map(tuple, pts.tolist())), pts, interior)

    b_pts = pts[boundary_idx]
    g, b = facet_planes(b_pts, b_values, lower_facets(b_pts, b_values)[0])
    env = (pts @ g.T + b).max(axis=1)
    scale = max(1.0, np.abs(b_values).max())
    if np.any(env[boundary_idx] < b_values - 1e-9 * scale):
        bad = boundary_idx[int(np.argmin(env[boundary_idx] - b_values))]
        raise InfeasibleBoundary(
            f"boundary node {grid.nodes[bad]} lies above the envelope of the "
            "other boundary data; no convex extension exists")

    mean_mu = mus.mean()
    values = np.zeros(len(nodes))
    values[boundary_idx] = b_values
    history, fallbacks = [], 0

    def cells(interior_values):
        nonlocal fallbacks
        values[interior_idx] = interior_values
        masses, edges, n_full = _cells_2d(grid, values, interior_idx)
        fallbacks += n_full
        return masses, edges, float(np.abs(masses - mus).max() / mean_mu)

    c = 1.0
    for _ in range(_START_DOUBLINGS):
        v = env[interior_idx] - c * psi
        masses, edges, res = cells(v)
        history.append(Evaluation(res, None, float(masses.min()), "start"))
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
            verdict = ("mass" if t_masses.min() < eps else "residual"
                       if t_res > (1 - tau / 2) * res else "accepted")
            history.append(Evaluation(t_res, tau, float(t_masses.min()),
                                      verdict))
            if verdict == "accepted":
                break
            tau /= 2
        else:
            break
        v, masses, edges, res = v + tau * delta, t_masses, t_edges, t_res

    values[interior_idx] = v
    final = np.zeros(len(nodes))
    final[interior_idx] = masses
    # the float nodes on a float copy of the domain, with the solve's flags
    cpl = ConvexPL.__new__(ConvexPL)._keep(
        Polygon(domain._corners), grid, values.tolist())
    return SolveResult(cpl, res, len(history), res <= tol, "newton",
                       fallbacks, tuple(final.tolist()), tuple(history))
