"""The hull-star cell engine against the full clip of every node.

``ma_measure``, ``gradient_cells`` and ``from_density`` clip each 2D cell
only against its neighbours in the lifted lower hull.  The full clip
against all other nodes (``dual_cell_2d`` without candidates) is the
oracle: exact inputs must agree with it exactly, float inputs to rounding.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import (ConvexPL, TargetMeasure, box_polygon, gradient_cells,
                  ma_measure)
from nama import convexgeom, realma
from nama.convexgeom import dual_cell_2d
from nama.realma import _HullStar

F = Fraction
EXACT = settings(max_examples=60, deadline=None, derandomize=True)
FLOAT = settings(max_examples=40, deadline=None, derandomize=True)


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(3, 6), rationals, rationals)
def test_flat_lattice_quads_are_certified(n, a, b):
    measure = assert_exact_agreement(lattice(n, F(1, 3), (a, b)))
    assert measure.cell_fallbacks == 0


def test_affine_data_takes_the_full_clip():
    nodes = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes,
                   [x - 2 * y for x, y in nodes])
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == len(nodes)
    assert measure.degenerate


def test_a_wrong_hull_fails_certification(monkeypatch):
    # a hull of other values: the exact checks must reject its triangles
    nodes = [(F(i, 4) + F((i * j) % 3 - 1, 24) * (0 < i < 4 and 0 < j < 4),
              F(j, 4)) for i in range(5) for j in range(5)]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes,
                   [x * x + 3 * y * y + x * y for x, y in nodes])
    real = realma._lifted_hull
    scrambled = np.arange(len(nodes)) * 7 % 11 / 11.0
    monkeypatch.setattr(realma, "_lifted_hull",
                        lambda pts, vals: real(pts, vals + scrambled))
    measure = assert_exact_agreement(cpl)
    assert measure.cell_fallbacks == len(nodes)


def test_exact_density_targets_match_the_full_clip():
    box = box_polygon(0, 1, 0, 1)
    nodes = [(F(i, 10), F(j, 10)) for i in range(11) for j in range(11)]
    target = TargetMeasure.from_density(box, nodes, F(3))
    assert target.total() == 3
    edge = [v for (x, y), v in target.masses.items()
            if x == 0 and 0 < y < 1]
    assert set(edge) == {F(3, 200)}
    assert target.masses[(F(1, 2), F(1, 2))] == F(3, 100)


@st.composite
def float_functions(draw):
    """Jittered k x k grids on [-1, 1]^2 with a random convex quadratic
    plus nonnegative noise, so some nodes sit above the envelope."""
    k = draw(st.integers(3, 7))
    seed = draw(st.integers(0, 2 ** 32 - 1))
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
    noise = draw(st.sampled_from((0.0, 0.01, 0.3)))
    values = [float(a * x * x + 2 * b * x * y + c * y * y
                    + noise * rng.uniform()) for x, y in nodes]
    return nodes, values


def close(got, want):
    return abs(float(got) - float(want)) <= 1e-12 * abs(float(want))


@FLOAT
@given(float_functions())
def test_float_cells_agree_with_the_full_clip(data):
    nodes, values = data
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes, values)
    measure = ma_measure(cpl)
    cells = full_clip(cpl)
    for m, cell, inside in zip(measure.masses, cells, measure.interior):
        assert close(m, cell.volume if inside and not cell.empty else 0)
    assert measure.on_envelope == tuple(not c.empty for c in cells)
    box = (-3.0, 3.0, -3.0, 3.0)
    tiles = gradient_cells(cpl, clip_box=box)
    for got, want in zip(tiles, full_clip(cpl, box)):
        assert close(got.volume, want.volume)
    assert abs(sum(c.volume for c in tiles) - 36.0) <= 1e-12 * 36.0


@FLOAT
@given(float_functions())
def test_float_check_widens_wrong_candidates(data):
    nodes, values = data
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes, values)
    star = _HullStar(cpl.nodes, cpl.values, cpl.domain)
    inside = cpl.interior_mask()
    for i, cell in enumerate(full_clip(cpl)):
        if star.cands[i]:
            star.cands[i] = star.cands[i][-1:]  # the farthest one only
        got = star.cell(i, expect_bounded=inside[i])
        assert got.empty == cell.empty
        assert close(got.volume, cell.volume)


def test_clip_count_grows_linearly_on_exact_lattices(monkeypatch):
    clips = [0]
    real = convexgeom.clip_halfplane

    def counting(*args):
        clips[0] += 1
        return real(*args)

    monkeypatch.setattr(convexgeom, "clip_halfplane", counting)
    counts = []
    for n in (17, 33):
        clips[0] = 0
        measure = ma_measure(lattice(n))
        assert measure.cell_fallbacks == 0
        assert set(m for m, inside in zip(measure.masses, measure.interior)
                   if inside) == {F(1, 256)}
        counts.append(clips[0])
    # 3.8x the nodes; the full clip of every cell grew 14x
    assert counts[1] <= 5 * counts[0]
