"""The facet-gradient cell engine against the full clip of every node.

``ma_measure``, ``gradient_cells``, ``from_density`` and the solver read
each 2D cell off the gradients of the lifted lower-hull facets around its
node.  The box-free full clip against all other nodes in Fraction
arithmetic (``dual_cell_2d`` of ``tests/oracles.py``) is the oracle: exact
inputs must agree with it exactly, and float inputs with its exact answer
for the same data, every float being a Fraction.
"""

import hashlib
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nama import (ConvexPL, Interval, Polygon, TargetMeasure, box_polygon,
                  gradient_cells, ma_measure, ma_measure_oracle,
                  strict_convexity_report)
from nama import convexgeom, realma
from nama.convexgeom import Cell, cut_cell
from oracles import dual_cell_2d

F = Fraction
EXACT = settings(max_examples=60)
FLOAT = settings(max_examples=40)


def full_clip(cpl, box=None):
    inside = cpl.interior_mask()
    return [dual_cell_2d(i, cpl.nodes, cpl.values, box=box,
                         expect_bounded=box is None and inside[i])
            for i in range(len(cpl.nodes))]


def assert_exact_agreement(cpl):
    measure = ma_measure(cpl)
    cells = full_clip(cpl)
    assert measure.on_envelope == tuple(not c.empty for c in cells)
    assert measure.masses == tuple(
        c.volume if inside and not c.empty else 0
        for c, inside in zip(cells, measure.interior))
    assert all(isinstance(m, Fraction) for m in measure.masses)
    box = (-4, 4, -4, 4)
    tiles = gradient_cells(cpl, clip_box=box)
    assert [c.volume for c in tiles] == [c.volume
                                         for c in full_clip(cpl, box)]
    assert sum(c.volume for c in tiles) == 64
    return measure


def lattice(n, h=F(1, 16), shift=(0, 0)):
    """(x^2 + y^2)/2 on a square lattice: every grid quad is flat."""
    nodes = [(h * i, h * j) for i in range(n) for j in range(n)]
    values = [(x * x + y * y) / 2 + shift[0] * x + shift[1] * y
              for x, y in nodes]
    w = h * (n - 1)
    return ConvexPL(box_polygon(0, w, 0, w), nodes, values)


rationals = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))


@st.composite
def exact_functions(draw):
    """Rational node sets on [0, 2]^2 with four kinds of values: random
    lifts, maxima of affine pieces (nodes coplanar inside facets), one
    affine piece (flat data) and pieces plus lifts strictly above."""
    grid = st.tuples(st.integers(0, 8), st.integers(0, 8))
    inner = draw(st.sets(grid, min_size=1, max_size=12))
    corners = {(0, 0), (8, 0), (8, 8), (0, 8)}
    nodes = [(F(i, 4), F(j, 4)) for i, j in sorted(corners | inner)]
    kind = draw(st.sampled_from(("random", "pieces", "affine", "lifted")))
    if kind == "random":
        return nodes, [draw(rationals) for _ in nodes]
    count = 1 if kind == "affine" else draw(st.integers(2, 4))
    pieces = [draw(st.tuples(rationals, rationals, rationals))
              for _ in range(count)]
    values = [max(a * x + b * y + c for a, b, c in pieces) for x, y in nodes]
    if kind == "lifted":
        values = [v + draw(st.sampled_from((0, 0, F(1, 8), 1)))
                  for v in values]
    return nodes, values


@EXACT
@given(exact_functions())
def test_exact_cells_equal_the_full_clip(data):
    nodes, values = data
    assert_exact_agreement(ConvexPL(box_polygon(0, 2, 0, 2), nodes, values))


def test_a_cell_outside_the_default_box_keeps_its_mass():
    # node 7's facet gradients all have p_y <= -12, outside the full clip's
    # default box [-11, 11]^2, which must grow instead of reporting no cell
    nodes = [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1), (F(1, 2), F(3, 2)),
             (1, F(3, 2)), (F(3, 2), F(1, 4)), (F(7, 4), F(1, 2)),
             (2, F(1, 2)), (F(5, 2), F(1, 2))]
    values = [0, 6, F(-2, 3), 1, F(-3, 2), 2, -4, 1, 0, F(-2, 3), 3]
    cpl = ConvexPL(Polygon(nodes[:5]), nodes, values)
    assert dual_cell_2d(7, cpl.nodes, cpl.values,
                        expect_bounded=True).volume == F(4, 9)
    assert assert_exact_agreement(cpl).masses[7] == F(4, 9)


def test_a_corner_whose_cell_misses_the_default_box_is_on_the_envelope():
    # corner (2, 0)'s unbounded cell misses the full clip's default box
    # [-8, 8]^2, which must grow instead of reporting no cell
    corners = [(0, 0), (2, 0), (3, 1), (1, 2), (-1, 1)]
    cpl = ConvexPL(Polygon(corners), corners, [-2, 1, -6, 0, F(-1, 3)])
    assert not dual_cell_2d(1, cpl.nodes, cpl.values).empty
    assert assert_exact_agreement(cpl).on_envelope == (True,) * 5


@settings(max_examples=25)
@given(st.integers(3, 6), rationals, rationals)
def test_flat_lattice_quads_are_certified(n, a, b):
    measure = assert_exact_agreement(lattice(n, F(1, 3), (a, b)))
    assert measure.cell_fallbacks == 0


@st.composite
def near_tie_lattices(draw):
    """x^2 + y^2 + k / 10^20, k in 0..9 per node, plus a rational linear
    shift, on an n x n lattice of [-1, 1]^2: the ties of its flat quads
    break below float resolution, so the exact checks often reject the
    hull of the floats."""
    n = draw(st.integers(3, 9))
    a, b = draw(rationals), draw(rationals)
    nodes = [(F(2 * i, n - 1) - 1, F(2 * j, n - 1) - 1)
             for i in range(n) for j in range(n)]
    ks = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
    values = [x * x + y * y + F(k, 10 ** 20) + a * x + b * y
              for (x, y), k in zip(nodes, ks)]
    return ConvexPL(box_polygon(-1, 1, -1, 1), nodes, values)


def test_near_tie_lattices_equal_the_full_clip():
    # the integer full clip of the nodes the hull does not vouch for
    # against the Fraction one; some draws must take it
    fallbacks = []

    @settings(max_examples=12)
    @given(near_tie_lattices())
    def check(cpl):
        measure = ma_measure(cpl)
        cells = full_clip(cpl)
        assert measure.on_envelope == tuple(not c.empty for c in cells)
        assert measure.masses == tuple(
            c.volume if inside and not c.empty else 0
            for c, inside in zip(cells, measure.interior))
        assert measure.cell_fallbacks == (~cpl._envelope().good).sum()
        fallbacks.append(measure.cell_fallbacks)

    check()
    assert max(fallbacks) > 0


@st.composite
def polygon_functions(draw):
    """Random rational values k/d (|k| <= 6, d <= 3) on a random lattice
    polygon, the hull of 3 to 7 points of [-3, 3]^2: the nodes are those
    points and the ones of up to 12 half-lattice points inside it."""
    pts = draw(st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=3, max_size=7))
    corners = lattice_hull(pts)
    assume(len(corners) >= 3)
    domain = Polygon(corners)
    halves = draw(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                          max_size=12))
    nodes = sorted({(F(x), F(y)) for x, y in pts}
                   | {(F(x, 2), F(y, 2)) for x, y in halves
                      if domain.contains((F(x, 2), F(y, 2)))})
    values = [F(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
              for _ in nodes]
    return ConvexPL(domain, nodes, values)


def lattice_hull(pts):
    """The corners of the convex hull of integer points, ccw."""
    pts = sorted(pts)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and convexgeom._orient(out[-2], out[-1],
                                                      p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


@settings(max_examples=60)
@given(polygon_functions())
def test_on_envelope_is_the_box_free_full_clip(cpl):
    # a cell has interior or not, whatever box the clip starts from; every
    # domain corner is an extreme node, so its cell always has interior
    measure = assert_exact_agreement(cpl)
    for corner in cpl.domain.vertices:
        assert measure.on_envelope[cpl.nodes.index(corner)]


def test_lifted_pieces_take_no_full_clip(monkeypatch, count_calls):
    # nodes inside flat facets and nodes lifted above them lie off the
    # certified triangulation: their cells are empty without a clip
    calls = count_calls(convexgeom.FacetCells, "full_clip")
    nodes = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]
    values = [max(x + 2 * y, 3 * x - y + F(1, 2), -x + F(1, 4), F(1, 8))
              + F(i % 3, 8) for i, (x, y) in enumerate(nodes)]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes, values)
    measure = ma_measure(cpl)
    assert calls == [] and measure.cell_fallbacks == 0
    monkeypatch.undo()
    assert measure == assert_exact_agreement(cpl)


def test_affine_data_takes_no_full_clip():
    # Qhull rejects a flat lift, whose lower hull is every triangulation of
    # the nodes: the cells are read off the Delaunay one, checked exactly
    nodes = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes,
                   [x - 2 * y for x, y in nodes])
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == 0
    assert measure.degenerate


def float_grid(n, f):
    """``f`` on an n x n float grid of the unit square."""
    nodes = [(float(x), float(y)) for x in np.linspace(0.0, 1.0, n)
             for y in np.linspace(0.0, 1.0, n)]
    return ConvexPL(box_polygon(0.0, 1.0, 0.0, 1.0), nodes,
                    [f(x, y) for x, y in nodes])


def flagged(measure):
    return {nd for nd, on in zip(measure.nodes, measure.on_envelope) if on}


CORNERS = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}


@pytest.mark.parametrize("n", [9, 17, 33])
def test_float_dyadic_affine_data_has_the_exact_flags(n):
    # the values are exact in floats, so the flags must be the exact ones;
    # the float full clip flags rounding slivers on the edges x = 0 and 1
    cpl = float_grid(n, lambda x, y: 0.25 * x - 0.5 * y + 1)
    measure = ma_measure(cpl)
    assert measure.cell_fallbacks == 0 and measure.degenerate
    assert flagged(measure) == CORNERS
    assert measure.on_envelope == ma_measure(in_fractions(cpl)).on_envelope


def test_float_data_flat_to_rounding_has_no_mass():
    # affine only to rounding: Qhull takes the lift as flat, and one
    # gradient for every facet leaves no rounding-noise area (near 1e-30,
    # enough to flag 90 of the 100 nodes)
    measure = ma_measure(float_grid(10, lambda x, y: 0.1 * x + 0.3 * y + 0.7))
    assert measure.cell_fallbacks == 0 and measure.degenerate
    assert set(measure.masses) == {0.0}
    assert flagged(measure) == CORNERS


def test_exact_data_flat_only_to_rounding_takes_the_full_clip():
    # the Fractions of float affine values are not affine: Qhull rounds
    # their lift to flat, the exact checks reject the Delaunay triangles,
    # and every node takes the full clip
    cpl = in_fractions(float_grid(5, lambda x, y: 0.1 * x + 0.3 * y + 0.7))
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == len(cpl.nodes) == 25
    # the hull is built once, and a second measure counts its own clips
    assert ma_measure(cpl) == measure


def test_float_near_flat_data_takes_no_nan_arithmetic():
    # 1e-12 (x^2 + y^2) + 0.5: Qhull leaves zero-det facets, whose inf and
    # nan gradients stay out of the shoelace and the boundary flags; the
    # digests pin the masses and flags the sums gave when they read them
    base = np.linspace(-1, 1, 65)
    nodes = [(float(x), float(y)) for x in base for y in base]
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes,
                   [1e-12 * (x * x + y * y) + 0.5 for x, y in nodes])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        measure = ma_measure(cpl)
    assert measure.cell_fallbacks == 3 and sum(measure.on_envelope) == 558
    assert [hashlib.sha256(np.array(a).tobytes()).hexdigest()[:16]
            for a in (measure.masses, measure.on_envelope)] == [
        "db4893f13ba5ecbc", "ef0b58b655b40f05"]


def record_qhull(monkeypatch, fail=()):
    """Record the options of each Qhull call; calls with options in
    ``fail`` raise QhullError."""
    import scipy.spatial
    real, calls = scipy.spatial.ConvexHull, []

    def hull(points, qhull_options=None):
        calls.append(qhull_options)
        if qhull_options in fail:
            raise scipy.spatial.QhullError(f"{qhull_options} made to fail")
        return real(points, qhull_options=qhull_options)

    monkeypatch.setattr(scipy.spatial, "ConvexHull", hull)
    return calls


def test_qhull_runs_merged_only_when_the_unmerged_pass_fails(monkeypatch):
    cpl = lattice(5)
    want = ma_measure(cpl)
    calls = record_qhull(monkeypatch)
    assert ma_measure(ConvexPL(cpl.domain, cpl.nodes, cpl.values)) == want
    assert calls == ["Q0"]
    calls = record_qhull(monkeypatch, fail={"Q0"})
    got = ma_measure(ConvexPL(cpl.domain, cpl.nodes, cpl.values))
    assert calls == ["Q0", None] and got == want
    assert got.cell_fallbacks == 0 and not got.degenerate
    # both fail: the lift reads as flat, and its Delaunay triangles stand in
    calls = record_qhull(monkeypatch, fail={"Q0", None})
    pts = np.array(cpl.nodes, dtype=float)
    vals = np.array(cpl.values, dtype=float)
    tri, flat = convexgeom.lower_facets(pts, vals)
    assert calls == ["Q0", None] and flat and len(tri) == 2 * 4 * 4


def test_the_merged_pass_holds_a_lift_the_unmerged_one_rejects(monkeypatch):
    # the near-flat data of test_float_near_flat_data_takes_no_nan_arithmetic:
    # its pinned masses and fallbacks come from the merged hull
    base = np.linspace(-1, 1, 65)
    pts = np.array([(x, y) for x in base for y in base])
    calls = record_qhull(monkeypatch)
    hull = convexgeom.lifted_hull(pts, 1e-12 * (pts ** 2).sum(axis=1) + 0.5)
    assert calls == ["Q0", None] and hull is not None


def near_tie_lattice(n, seed):
    """A near_tie_lattices draw: x^2 + y^2 + k / 10^20 + x / 3 - y / 7,
    k in 0..9 from ``seed``, on an n x n lattice of [-1, 1]^2."""
    rnd = np.random.default_rng(seed)
    nodes = [(F(2 * i, n - 1) - 1, F(2 * j, n - 1) - 1)
             for i in range(n) for j in range(n)]
    values = [x * x + y * y + F(int(k), 10 ** 20) + x / 3 - y / 7
              for (x, y), k in zip(nodes, rnd.integers(0, 10, n * n))]
    return ConvexPL(box_polygon(-1, 1, -1, 1), nodes, values)


def test_unmerged_hulls_give_the_merged_ones_exact_cells(monkeypatch):
    # the exact density targets of a paraboloid lattice, whose flat quads
    # Qhull merges by default, near-tie measures, whose hulls the checks
    # reject, and jittered exact measures, whose hulls they certify: the
    # same rationals and fallbacks either way
    nodes = [(F(i, 8), F(j, 8)) for i in range(9) for j in range(9)]
    jittered = [
        ConvexPL(box_polygon(-1, 1, -1, 1), [tuple(map(F, nd)) for nd in pts],
                 [F(v) for v in vals])
        for pts, vals in (jittered_quadratic(9, seed, 0.01)
                          for seed in range(2))]

    def outputs():
        target = TargetMeasure.from_density(box_polygon(0, 1, 0, 1),
                                            nodes, 1)
        measures = [ma_measure(near_tie_lattice(9, seed))
                    for seed in range(4)] + [
            ma_measure(ConvexPL(c.domain, c.nodes, c.values))
            for c in jittered]
        return target.masses, [(m.masses, m.cell_fallbacks)
                               for m in measures]

    unmerged = outputs()
    monkeypatch.setattr(convexgeom, "_QHULL_OPTIONS", (None,))
    assert outputs() == unmerged
    assert [fallbacks for _, fallbacks in unmerged[1]] == [81] * 4 + [0, 0]


@pytest.mark.parametrize("exact", [True, False])
def test_every_reader_of_a_function_takes_its_one_hull(monkeypatch, exact):
    # the flat quads of (x^2 + y^2) / 2 with a node on a quad's plane and
    # one above the envelope, so the report has singular nodes to group
    nodes = [(F(i, 2), F(j, 2)) for i in range(5) for j in range(5)]
    nodes += [(F(1, 4), F(1, 4)), (F(3, 4), F(5, 4))]
    values = [(x * x + y * y) / 2 for x, y in nodes[:25]] + [F(1, 8), 2]
    if not exact:
        nodes = [tuple(map(float, nd)) for nd in nodes]
        values = [float(v) for v in values]
    calls, real = [], convexgeom.lifted_hull
    monkeypatch.setattr(convexgeom, "lifted_hull",
                        lambda pts, vals: calls.append(len(pts))
                        or real(pts, vals))
    box = box_polygon(0, 2, 0, 2)
    report = strict_convexity_report(ConvexPL(box, nodes, values))
    assert calls == [27] and report.components == ((25,), (26,))
    cpl = ConvexPL(box, nodes, values)
    first = ma_measure(cpl)
    ma_measure_oracle(cpl, resolution=50)
    assert np.allclose(cpl.evaluate(nodes[:25]),
                       [float(v) for v in values[:25]], rtol=0, atol=1e-15)
    assert sum(c.volume for c in gradient_cells(cpl, (-4, 4, -4, 4))) == 64
    assert ma_measure(cpl) == first
    assert calls == [27, 27]


def test_1d_readers_take_one_set_of_cell_ends(monkeypatch):
    # node 1/2 lies above the envelope, whose slopes are -1, 1 and 3
    calls = []
    real = realma._cell_ends_1d
    monkeypatch.setattr(realma, "_cell_ends_1d",
                        lambda *a: calls.append(1) or real(*a))
    cpl = ConvexPL(Interval(0, 2), [(0,), (F(1, 2),), (1,), (F(3, 2),), (2,)],
                   [0, 1, -1, F(-1, 2), 1])
    measure = ma_measure(cpl)
    assert measure.masses == (0, 0, 2, 2, 0)
    assert measure.on_envelope == (True, False, True, True, True)
    assert cpl.evaluate([(0,), (0.5,), (1,), (1.25,), (2,)]).tolist() == [
        0.0, -0.5, -1.0, -0.75, 1.0]
    assert strict_convexity_report(cpl).singular == (1,)
    assert ma_measure(cpl) == measure and len(calls) == 1


def test_a_second_evaluate_builds_no_lines():
    # the 1D lines are built once: without the nodes and values a rebuild
    # would fail
    cpl = ConvexPL(Interval(0, 2), [(0,), (F(1, 2),), (1,), (F(3, 2),), (2,)],
                   [0, 1, -1, F(-1, 2), 1])
    first = cpl.evaluate([(0.25,), (1.75,)]).tolist()
    planes = cpl._envelope_planes()
    cpl.nodes = cpl.values = None
    assert cpl.evaluate([(0.25,), (1.75,)]).tolist() == first == [-0.25, 0.25]
    assert cpl._envelope_planes() is planes


def scramble_hull(monkeypatch, n):
    """Make ``lifted_hull`` return the hull of other values at n nodes."""
    real = convexgeom.lifted_hull
    scrambled = np.arange(n) * 7 % 11 / 11.0
    monkeypatch.setattr(convexgeom, "lifted_hull",
                        lambda pts, vals: real(pts, vals + scrambled))


def test_a_wrong_hull_fails_certification(monkeypatch):
    # a hull of other values: the exact checks must reject its triangles
    nodes = [(F(i, 4) + F((i * j) % 3 - 1, 24) * (0 < i < 4 and 0 < j < 4),
              F(j, 4)) for i in range(5) for j in range(5)]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes,
                   [x * x + 3 * y * y + x * y for x, y in nodes])
    scramble_hull(monkeypatch, len(nodes))
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == len(nodes)


def test_exact_density_targets_under_a_wrong_hull_are_unchanged(
        monkeypatch):
    # no node is vouched for, so every cell is the domain cut by all others
    box = box_polygon(0, 1, 0, 1)
    nodes = [(F(i, 5) + F((i * j) % 3 - 1, 30) * (0 < i < 5 and 0 < j < 5),
              F(j, 5)) for i in range(6) for j in range(6)]
    want = TargetMeasure.from_density(box, nodes, F(3))
    scramble_hull(monkeypatch, len(nodes))
    values = [(x * x + y * y) / 2 for x, y in nodes]
    assert not convexgeom.FacetCells(node_set(nodes), values,
                                     box.vertices).good.any()
    got = TargetMeasure.from_density(box, nodes, F(3))
    assert got.masses == want.masses and got.total() == 3


def test_exact_density_targets_match_the_full_clip():
    box = box_polygon(0, 1, 0, 1)
    nodes = [(F(i, 10), F(j, 10)) for i in range(11) for j in range(11)]
    target = TargetMeasure.from_density(box, nodes, F(3))
    assert target.total() == 3
    values = [(x * x + y * y) / 2 for x, y in nodes]
    assert list(target.masses.values()) == [
        3 * dual_cell_2d(i, nodes, values, box=(0, 1, 0, 1)).volume
        for i in range(len(nodes))]
    edge = [v for (x, y), v in target.masses.items()
            if x == 0 and 0 < y < 1]
    assert set(edge) == {F(3, 200)}
    assert target.masses[(F(1, 2), F(1, 2))] == F(3, 100)


def node_set(nodes):
    """The :class:`~nama.convexgeom.NodeSet` of distinct 2D nodes, read
    into floats as ``from_density`` reads them."""
    return convexgeom.NodeSet(nodes, np.array(nodes, dtype=float))


def cut_loop_targets(domain, nodes, density):
    """Exact density masses as every node's :meth:`FacetCells.cut` of the
    domain polygon: the per-node loop the fan areas replace."""
    values = [(x * x + y * y) / 2 for x, y in nodes]
    corners = list(domain.vertices)
    cells = convexgeom.FacetCells(node_set(nodes), values, corners)
    return {nd: density * cells.cut(i, corners).volume
            for i, nd in enumerate(nodes)}


# the grid-solve benchmark's lattices: (nodes per side, step)
LATTICES = [(9, F(1, 10)), (11, F(1, 8)), (13, F(1, 12)), (9, F(1, 8)),
            (11, F(1, 10))]


@pytest.mark.parametrize("n, h", LATTICES)
def test_lattice_density_targets_equal_the_cut_loop(n, h):
    for x0 in (F(-1, 2), F(-1, 4), F(0)):
        for y0 in (F(-1, 2), F(-1, 4), F(0)):
            w = h * (n - 1)
            box = box_polygon(x0, x0 + w, y0, y0 + w)
            nodes = [(x0 + h * i, y0 + h * j)
                     for i in range(n) for j in range(n)]
            target = TargetMeasure.from_density(box, nodes, F(1))
            assert target.masses == cut_loop_targets(box, nodes, F(1))
            assert target.total() == w * w


def test_lattice_density_targets_take_no_cut(count_calls):
    calls = count_calls(convexgeom.FacetCells, "cut")
    nodes = [(F(i, 12), F(j, 12)) for i in range(13) for j in range(13)]
    target = TargetMeasure.from_density(box_polygon(0, 1, 0, 1), nodes, F(1))
    assert calls == [] and target.total() == 1
    assert sum(m == F(1, 576) for m in target.masses.values()) == 4


SKEW = Polygon([(F(-1, 3), F(0)), (F(5, 2), F(-1, 7)), (F(3), F(2)),
                (F(1, 5), F(9, 4))])


@st.composite
def density_nodes(draw):
    """Rational nodes k/d (d <= 7) in the unit box or in ``SKEW``, with
    points on its sides and, mostly, its corners."""
    domain = draw(st.sampled_from((box_polygon(0, 1, 0, 1), SKEW)))
    point = st.builds(lambda a, b, d: (F(a, d), F(b, d)), st.integers(-3, 21),
                      st.integers(-1, 16), st.integers(1, 7))
    inner = {p for p in draw(st.lists(point, max_size=14))
             if domain.contains(p)}
    corners = domain.vertices
    on_sides = {tuple(p + t * (q - p) for p, q in zip(corners[k],
                                                      corners[(k + 1) % 4]))
                for k, t in draw(st.lists(st.tuples(
                    st.integers(0, 3), st.builds(F, st.integers(1, 6),
                                                 st.integers(7, 8))),
                    max_size=6))}
    drop = draw(st.sampled_from((None,) * 5 + tuple(corners)))
    nodes = sorted((set(corners) - {drop}) | inner | on_sides)
    return domain, nodes, draw(st.builds(F, st.integers(1, 5),
                                         st.integers(1, 3)))


def test_fan_density_targets_equal_the_cut_loop(count_calls):
    # rim nodes read off their fans and nodes the fans cannot give, which
    # take the cut: both must be reached, and agree with the cut loop
    paths = set()
    calls = count_calls(convexgeom.FacetCells, "cut")

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(density_nodes())
    def check(data):
        domain, nodes, density = data
        corners = list(domain.vertices)
        values = [(x * x + y * y) / 2 for x, y in nodes]
        cells = convexgeom.FacetCells(node_set(nodes), values, corners)
        fan = cells.inside(corners) & ~cells.closed
        calls.clear()
        target = TargetMeasure.from_density(domain, nodes, density)
        if fan.any():
            paths.add("fan")
        if calls:
            paths.add("cut")
        assert target.masses == cut_loop_targets(domain, nodes, density)
        assert target.total() == density * domain.volume()

    check()
    assert paths == {"fan", "cut"}


def square_lattice(n):
    return [(F(i, n - 1), F(j, n - 1)) for i in range(n) for j in range(n)]


def triangle_lattice(n):
    """n nodes a side of the triangle (0, 0), (3, 0), (0, 7)."""
    return [(F(3 * i, n - 1), F(7 * j, n - 1))
            for i in range(n) for j in range(n - i)]


TRIANGLE = [(0, 0), (3, 0), (0, 7)]
FLOAT_DOMAIN_TARGETS = [
    (box_polygon(0, 1, 0, 1), square_lattice(17), F(1)),
    (box_polygon(0, 1, 0, 1), square_lattice(10), F(1)),
    (Polygon(TRIANGLE), triangle_lattice(9), F(3, 7)),
    (Polygon(TRIANGLE), triangle_lattice(10), F(3, 7)),
    (Polygon(TRIANGLE), triangle_lattice(17), F(3, 7))]


@pytest.mark.parametrize("domain, nodes, density", FLOAT_DOMAIN_TARGETS,
                         ids=["square 17", "square 10", "triangle 9",
                              "triangle 10", "triangle 17"])
def test_exact_targets_read_a_float_domain_as_its_rationals(domain, nodes,
                                                           density):
    floats = Polygon([tuple(map(float, v)) for v in domain.vertices])
    got = TargetMeasure.from_density(floats, nodes, density)
    want = TargetMeasure.from_density(domain, nodes, density)
    assert list(got.masses.items()) == list(want.masses.items())
    assert all(type(m) is F for m in got.masses.values())
    assert got.total() == density * domain.volume()


def test_exact_targets_on_a_float_square_make_no_float_cut(count_calls):
    # no rim cell is cut (in Fraction x float arithmetic, 64 of them were),
    # and one float conversion per node coordinate for the record and one
    # for the target's table make 4 n^2 (4,262 were made)
    cuts = count_calls(convexgeom, "cut_cell")
    floats = count_calls(Fraction, "__float__")
    TargetMeasure.from_density(box_polygon(0.0, 1.0, 0.0, 1.0),
                               square_lattice(17), F(1))
    assert cuts == [] and len(floats) <= 4 * 17 * 17


def numbers_of(kind, cells):
    """The vertex coordinates and volumes of ``cells`` of type ``kind``."""
    return [c for cell in cells for v in cell.vertices for c in v
            if isinstance(c, kind)] + [
        cell.volume for cell in cells if isinstance(cell.volume, kind)]


@pytest.mark.parametrize("domain, nodes, box", [
    (Interval(0, 1), [(F(i, 4),) for i in range(5)], (0.1, 1.5)),
    (box_polygon(0, 1, 0, 1), square_lattice(5), (0.1, 0.9, -0.5, 1.75))],
    ids=["1D", "2D"])
def test_exact_cells_read_a_float_box_as_its_rationals(domain, nodes, box):
    cpl = ConvexPL(domain, nodes, [sum(k * c * c for k, c in enumerate(
        nd, 1)) / 2 for nd in nodes])
    got = gradient_cells(cpl, box)
    assert got == gradient_cells(cpl, tuple(map(F, box)))
    assert numbers_of(float, got) == []
    assert any(type(cell.volume) is F for cell in got)


def test_an_exact_cell_the_box_holds_whole_has_an_exact_volume():
    # no cut makes a vertex of the centre's cell in the box
    nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 2), F(1, 2))]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes, [1, 1, 1, 1, 0])
    centre = gradient_cells(cpl, (0, 1, 0, 1))[4]
    assert centre.vertices == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert type(centre.volume) is F and centre.volume == 1


@pytest.mark.parametrize("exact_nodes", [True, False],
                         ids=["exact nodes, float values",
                              "float nodes, exact values"])
def test_cuts_of_mixed_input_run_in_floats(monkeypatch, exact_nodes):
    # no node is vouched for, so every cell is cut by every other node:
    # on the float nodes and values, as the all-float input's are
    nodes = square_lattice(5)
    values = [(x * x + 2 * y * y) / 2 for x, y in nodes]
    floats = ConvexPL(box_polygon(0, 1, 0, 1), [tuple(map(float, nd))
                                                for nd in nodes],
                      list(map(float, values)))
    cpl = ConvexPL(box_polygon(0, 1, 0, 1),
                   nodes if exact_nodes else floats.nodes,
                   list(map(float, values)) if exact_nodes else values)
    scramble_hull(monkeypatch, len(nodes))
    assert not cpl._envelope().good.any()
    box = (F(-1, 3), F(7, 3), F(-1, 2), F(5, 2))
    got = gradient_cells(cpl, box)
    assert got == gradient_cells(floats, tuple(map(float, box)))
    assert numbers_of(Fraction, got) == []
    measure = ma_measure(cpl)
    assert measure.cell_fallbacks == len(nodes)
    assert list(measure.masses) == list(ma_measure(floats).masses)
    assert not [m for m in measure.masses if isinstance(m, Fraction)]


@st.composite
def skew_functions(draw):
    """Rational nodes k/d (d <= 7) in a quadrilateral that is no box, so
    the facet dets differ, lifted to a strictly convex quadratic, to it
    plus lifts of 0 or 1/8, or to random values."""
    point = st.builds(lambda a, b, d: (F(a, d), F(b, d)), st.integers(-3, 21),
                      st.integers(-1, 16), st.integers(1, 7))
    inner = draw(st.lists(point, min_size=1, max_size=14))
    nodes = sorted(set(SKEW.vertices) | {p for p in inner
                                         if SKEW.contains(p)})
    kind = draw(st.sampled_from(("quadratic", "lifted", "random")))
    if kind == "random":
        values = [draw(rationals) for _ in nodes]
    else:
        values = [x * x + x * y / 3 + 2 * y * y for x, y in nodes]
    if kind == "lifted":
        values = [v + draw(st.sampled_from((0, 0, F(1, 8)))) for v in values]
    return ConvexPL(SKEW, nodes, values)


def hull_star(cells, i):
    """The nodes :meth:`FacetCells.cut` clips node i's cell by."""
    if not cells.good[i]:
        return [j for j in range(len(cells.pts)) if j != i]
    fan = np.nonzero(cells.src == i)[0]
    return sorted(set(cells.dst[fan].tolist() + cells.apex[fan].tolist()))


def check_integer_cells(cpl):
    """The integer passes of exact ``FacetCells`` against the Fraction full
    clip: the integer full clip of every node, to the last label, closed
    areas, the solid flags of boundary cells, and the integer cut of a box,
    which must also be :func:`cut_cell` to the last label."""
    nodes, values = cpl.nodes, cpl.values
    cells = convexgeom.FacetCells(cpl._record, values, cpl.domain.vertices)
    assert not cells.good.any() or all(type(a) is Fraction
                                      for a in cells.area)
    # the checks flag nothing exactly when the hull vouches for a node
    edges, off = cells.flagged
    assert (len(edges) + len(off) == 0) == cells.good.any()
    box = [(-4, -4), (4, -4), (4, 4), (-4, 4)]
    for i in range(len(nodes)):
        bounded = bool(cells.closed[i])
        clip = dual_cell_2d(i, nodes, values, expect_bounded=bounded)
        assert cells.full_clip(i, bounded) == clip
        if cells.closed[i]:
            assert cells.area[i] == (0 if clip.empty else clip.volume)
        elif cells.good[i]:
            assert cells.solid[i] == (not clip.empty)
        got = cells.cut(i, box)
        want = dual_cell_2d(i, nodes, values, box=(-4, 4, -4, 4))
        assert (got.volume, got.empty) == (want.volume, want.empty)
        star = hull_star(cells, i)
        assert got == (cut_cell(i, nodes, values, box, star) if star
                       else Cell(2, [], 0, {}, False, True))
    return cells


@EXACT
@given(st.one_of(exact_functions().map(
    lambda d: ConvexPL(box_polygon(0, 2, 0, 2), *d)), polygon_functions(),
    skew_functions()))
def test_integer_cells_equal_the_fraction_clip(cpl):
    check_integer_cells(cpl)


def clip_boxes():
    """Rational boxes (lo0, hi0, lo1, hi1) that cut cells of the functions
    above, miss some and hold others whole."""
    side = st.lists(rationals, min_size=2, max_size=2, unique=True)
    return st.tuples(side, side).map(lambda s: (*sorted(s[0]), *sorted(s[1])))


@EXACT
@given(st.one_of(exact_functions().map(
    lambda d: ConvexPL(box_polygon(0, 2, 0, 2), *d)), polygon_functions(),
    skew_functions()), clip_boxes())
def test_gradient_cells_tile_any_clip_box(cpl, box):
    lo0, hi0, lo1, hi1 = box
    cells = gradient_cells(cpl, box)
    assert sum(c.volume for c in cells) == (hi0 - lo0) * (hi1 - lo1)
    assert all(type(c.volume) is Fraction or c.volume == 0 for c in cells)


PRIMES = [9967, 9973, 10007, 10009, 10037, 10039, 10061, 10067, 10069,
          10079, 10091, 10093, 10099, 10103]


@pytest.mark.parametrize("seed", range(4))
def test_integer_cells_with_a_prime_denominator_per_node(seed):
    # each node over its own large prime: the lcm of the whole input has
    # 14 of them, a facet's only those of its own nodes
    rnd = np.random.default_rng(seed)
    inner = {(F(int(rnd.integers(0, 3 * p)), p),
              F(int(rnd.integers(0, 2 * p)), p)) for p in PRIMES}
    nodes = sorted(set(SKEW.vertices) | {q for q in inner if SKEW.contains(q)})
    lift = [F(int(rnd.integers(0, 3)), int(rnd.choice(PRIMES))) for _ in nodes]
    values = [x * x + x * y / 3 + 2 * y * y + d
              for (x, y), d in zip(nodes, lift)]
    cells = check_integer_cells(ConvexPL(SKEW, nodes, values))
    assert cells.good.all() and cells.closed.sum() == len(nodes) - 4


@settings(max_examples=40)
@given(skew_functions(), st.randoms(use_true_random=False))
def test_scrambled_hulls_are_rejected_whole(cpl, rnd):
    # the hull of shuffled values: no node is vouched for, or the hull is
    # the true one and every cell is right
    real = convexgeom.lifted_hull
    shuffled = rnd.sample(range(len(cpl.nodes)), len(cpl.nodes))

    def scrambled(pts, vals):
        return real(pts, vals[shuffled])

    with mock.patch.object(convexgeom, "lifted_hull", scrambled):
        cells = check_integer_cells(cpl)
    want = convexgeom.FacetCells(cpl._record, cpl.values,
                                 cpl.domain.vertices)
    if cells.good.any():
        assert (cells.good == want.good).all()
        assert list(cells.area) == list(want.area)


# per bump of the centre node 12, the edges and nodes the checks flag, from
# Qhull's triangles of the bumped floats: raised, node 12 is off them and
# below the facets around it; lowered, it is joined to the corners by edges
# that are not convex, and the ring around it is off and below the facets
BUMP_FLAGS = {F(1, 4): (set(), [12]),
              F(-1, 4): ({(0, 12), (4, 12), (12, 20), (12, 24)},
                         [6, 7, 8, 11, 13, 16, 17, 18])}


@pytest.mark.parametrize("bump", [F(1, 4), F(-1, 4)])
def test_a_hull_that_is_not_convex_is_rejected_whole(monkeypatch, bump):
    # Qhull sees the centre node raised (off the triangulation, though it
    # lies below the envelope) or lowered (a reflex vertex of the true data)
    nodes = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]
    values = [(x * x + 2 * y * y) / 2 for x, y in nodes]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes, values)
    real = convexgeom.lifted_hull
    bumped = np.where(np.arange(len(nodes)) == 12, float(bump), 0.0)
    monkeypatch.setattr(convexgeom, "lifted_hull",
                        lambda pts, vals: real(pts, vals + bumped))
    cells = convexgeom.FacetCells(cpl._record, values, cpl.domain.vertices)
    assert not cells.good.any()
    edges, off = cells.flagged
    assert ({tuple(sorted(e)) for e in zip(cells.src[edges].tolist(),
                                           cells.dst[edges].tolist())},
            off.tolist()) == BUMP_FLAGS[bump]
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == len(nodes)


def jittered_quadratic(k, seed, noise):
    """A jittered k x k grid on [-1, 1]^2 with a random convex quadratic
    plus ``noise`` times uniform lifts, so some nodes sit above the
    envelope."""
    rng = np.random.default_rng(seed)
    base = np.linspace(-1.0, 1.0, k)
    nodes = []
    for i, x in enumerate(base):
        for j, y in enumerate(base):
            p = np.array([x, y])
            if 0 < i < k - 1 and 0 < j < k - 1:
                p = p + rng.uniform(-0.3, 0.3, 2) * (base[1] - base[0])
            nodes.append(tuple(float(c) for c in p))
    a, c = rng.uniform(0.2, 2.0, 2)
    b = rng.uniform(-0.9, 0.9) * min(a, c)
    values = [float(a * x * x + 2 * b * x * y + c * y * y
                    + noise * rng.uniform()) for x, y in nodes]
    return nodes, values


@st.composite
def float_functions(draw):
    """Jittered 3 x 3 to 7 x 7 grids with noise 0, 0.01 or 0.3."""
    k = draw(st.integers(3, 7))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return jittered_quadratic(k, seed, draw(st.sampled_from((0.0, 0.01,
                                                              0.3))))


def close(got, want):
    return abs(float(got) - float(want)) <= 1e-12 * abs(float(want))


def in_fractions(cpl):
    """The same function in exact arithmetic: every float is a Fraction."""
    return ConvexPL(Polygon([tuple(map(F, v)) for v in cpl.domain.vertices]),
                    [tuple(map(F, nd)) for nd in cpl.nodes],
                    [F(v) for v in cpl.values])


@FLOAT
@example(jittered_quadratic(6, 31, 0.3))
@given(float_functions())
def test_float_cells_agree_with_the_full_clip(data):
    # the float masses against the exact clip of the same data: in the
    # example the float clip of node 14 (a cell of mass 2e-8) errs 1.5e-11
    # relative, the facet-gradient mass 2.9e-13
    nodes, values = data
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes, values)
    measure = ma_measure(cpl)
    cells = full_clip(in_fractions(cpl))
    for m, cell, inside in zip(measure.masses, cells, measure.interior):
        assert close(m, cell.volume if inside and not cell.empty else 0)
    assert measure.on_envelope == tuple(not c.empty for c in cells)
    box = (-3.0, 3.0, -3.0, 3.0)
    tiles = gradient_cells(cpl, clip_box=box)
    for got, want in zip(tiles, full_clip(cpl, box)):
        assert close(got.volume, want.volume)
    assert abs(sum(c.volume for c in tiles) - 36.0) <= 1e-12 * 36.0


def check_dual_edges(cpl):
    """The solver's cell edges against the full clip's, key by key, and the
    Jacobian built from them against the one the clip's edges give.  Edge
    ends are gradients, so lengths agree to 1e-12 of the largest gradient
    coordinate; a rounding-level clip edge is a zero-length one."""
    inside = [i for i, it in enumerate(cpl.interior_mask()) if it]
    _, edges, _ = realma._cells_2d(cpl._record, cpl.values, inside)
    got = {i: {} for i in inside}
    for i, j, ell in zip(*edges):
        got[int(i)][int(j)] = ell
    clips = {i: dual_cell_2d(i, cpl.nodes, cpl.values, expect_bounded=True)
             for i in inside}
    tol = 1e-12 * max([abs(c) for cell in clips.values()
                       for v in cell.vertices for c in v] + [1.0])
    pts = np.array(cpl.nodes, dtype=float)
    pos = {i: k for k, i in enumerate(inside)}
    want = np.zeros((len(inside), len(inside)))
    near = np.inf
    for k, i in enumerate(inside):
        clip = clips[i].edges
        assert ({j for j, ell in got[i].items() if ell > tol}
                == {j for j, ell in clip.items() if ell > tol})
        for j in set(got[i]) | set(clip):
            assert abs(got[i].get(j, 0.0) - clip.get(j, 0.0)) <= tol
        for j, ell in clip.items():
            dist = np.hypot(*(pts[i] - pts[j]))
            near = min(near, dist)
            want[k, k] -= ell / dist
            if j in pos:
                want[k, pos[j]] += ell / dist
    jac = realma._mass_jacobian(pts, inside, edges).toarray()
    assert np.abs(jac - want).max() <= 8 * tol / near


def test_float_cells_under_a_wrong_hull_take_the_full_clip(monkeypatch):
    # the float checks reject a hull of other values, so every interior
    # node takes the full clip in the solver's cells
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0),
                   *jittered_quadratic(6, 7, 0.0))
    inside = [i for i, it in enumerate(cpl.interior_mask()) if it]
    scramble_hull(monkeypatch, len(cpl.nodes))
    masses, _, fallbacks = realma._cells_2d(cpl._record, np.array(cpl.values),
                                            inside)
    assert fallbacks == len(inside)
    assert masses.tolist() == [
        dual_cell_2d(i, cpl.nodes, cpl.values, expect_bounded=True).volume
        for i in inside]
    check_dual_edges(cpl)


@FLOAT
@given(float_functions())
def test_dual_edges_and_jacobian_equal_the_full_clip(data):
    nodes, values = data
    check_dual_edges(ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes,
                              values))


def test_flat_quad_diagonals_have_no_dual_edge():
    # (x^2 + y^2) / 2 on a dyadic float lattice: every grid quad is flat
    h = 0.25
    nodes = [(h * i - 1, h * j - 1) for i in range(9) for j in range(9)]
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes,
                   [(x * x + y * y) / 2 for x, y in nodes])
    check_dual_edges(cpl)
    _, (i, j, _), _ = realma._cells_2d(cpl._record, cpl.values, [40])
    assert sorted(j[i == 40]) == [31, 39, 41, 49]      # no diagonal


def test_lattice_measures_and_float_cells_make_no_clips(count_calls):
    # every clip, exact or float, runs _clip; a missing name fails the patch
    calls = [count_calls(owner, name) for owner, name in (
        (convexgeom, "_clip"), (convexgeom, "clip_halfplane"),
        (convexgeom.FacetCells, "full_clip"))]
    for n in (17, 33):
        measure = ma_measure(lattice(n))
        assert measure.cell_fallbacks == 0
        assert set(m for m, inside in zip(measure.masses, measure.interior)
                   if inside) == {F(1, 256)}
    rng = np.random.default_rng(3)
    base = np.linspace(-1.0, 1.0, 33)
    pts = np.array([(x, y) for x in base for y in base])
    inside = [k for k, (x, y) in enumerate(pts) if abs(x) < 1 and abs(y) < 1]
    pts[inside] += rng.uniform(-0.02, 0.02, (len(inside), 2))
    values = (pts ** 2 * (1.3, 0.8)).sum(axis=1) + 0.2 * pts.prod(axis=1)
    masses, _, fallbacks = realma._cells_2d(
        node_set(pts.tolist()), values, inside)
    assert fallbacks == 0 and masses.min() > 0
    # float flat regions: nodes off the triangulation, on the envelope
    grid = [(i / 8 - 1, j / 8 - 1) for i in range(17) for j in range(17)]
    measure = ma_measure(ConvexPL(
        box_polygon(-1.0, 1.0, -1.0, 1.0), grid,
        [max(x + 2 * y, 3 * x - y + 0.5, -x + 0.25, 0.125) for x, y in grid]))
    assert measure.cell_fallbacks == 0
    assert abs(measure.total() - 7.0) <= 1e-12
    assert calls == [[], [], []]


def test_more_nodes_than_int32_half_edge_keys_hold():
    # 216^2 nodes: a half-edge key src * n + dst passes 2^31
    base = np.linspace(0.0, 1.0, 216)
    nodes = [(x, y) for x in base for y in base]
    target = TargetMeasure.from_density(box_polygon(0.0, 1.0, 0.0, 1.0),
                                        nodes, 1.0)
    assert abs(target.total() - 1.0) <= 1e-9
