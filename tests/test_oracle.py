"""The scanline oracle against the dense argmax it replaced.

``ma_measure_oracle`` finds each grid row's winners as segments of an upper
envelope of lines and re-scores only the points it cannot certify.  The
dense argmax over every grid point and every node, kept here as the
reference, must give the same counts bit for bit: the same winner, the
same lowest-index tie rule, the same rounding of near ties.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import ConvexPL, Interval, box_polygon, ma_measure_oracle
from nama.realma import _scan_counts, _slope_grid, _strip_height

F = Fraction
SETTINGS = settings(max_examples=80)


def dense_counts(axes, pts, vals):
    """Every grid point scored against every node, as the oracle once did."""
    if len(axes) == 1:
        scores = np.outer(axes[0], pts[:, 0]) - vals
        return np.bincount(scores.argmax(axis=1), minlength=len(pts))
    P = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    scores = P @ pts.T - vals
    return np.bincount(scores.argmax(axis=1), minlength=len(pts))


def dense_oracle(cpl, resolution):
    axes, cellvol = _slope_grid(cpl, resolution)
    pts = np.array([[float(c) for c in nd] for nd in cpl.nodes])
    vals = np.array([float(v) for v in cpl.values])
    counts = dense_counts(axes, pts, vals)
    return np.where(np.array(cpl.interior_mask()), counts * cellvol, 0.0)


def assert_same_as_dense(cpl, resolutions=(1, 2, 3, 7, 16, 41)):
    for r in resolutions:
        assert np.array_equal(ma_measure_oracle(cpl, resolution=r),
                              dense_oracle(cpl, r)), r


# -- synthetic grids: exact ties at grid points, shared slopes, near ties --

small = st.integers(-4, 4)
scales = st.sampled_from((1.0, 3.0, 4.0, 10.0))


@st.composite
def line_sets(draw):
    """Nodes, values and slope axes on small lattices, so that scores tie
    exactly at many grid points and many nodes share a coordinate."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 10))
    pts = np.array(draw(st.lists(st.tuples(*[small] * d), min_size=n,
                                 max_size=n)), dtype=float)
    pts /= draw(scales)
    vals = np.array(draw(st.lists(small, min_size=n, max_size=n)),
                    dtype=float) / draw(scales)
    if draw(st.booleans()):                 # ties broken by one rounding
        vals += np.array(draw(st.lists(st.sampled_from((-1, 0, 1)),
                                       min_size=n, max_size=n))) * 1e-16
    axes = []
    for _ in range(d):
        size = draw(st.integers(1, 12))
        axes.append(np.sort(np.array(draw(st.lists(
            st.integers(-6, 6), min_size=size, max_size=size)),
            dtype=float) / draw(scales)))
    if draw(st.booleans()):
        # every node ties at one grid point up to rounding, and nodes with
        # the same last coordinate tie along that point's whole row
        star = np.array([draw(st.sampled_from(list(ax))) for ax in axes])
        vals = pts @ star + vals * draw(st.sampled_from((0.0, 1e-15)))
    return axes, pts, vals


@settings(max_examples=300)
@given(line_sets())
def test_counts_equal_the_dense_argmax_on_tied_lattices(case):
    axes, pts, vals = case
    counts, _ = _scan_counts(axes, pts, vals)
    assert np.array_equal(counts, dense_counts(axes, pts, vals))


# -- oracle calls: float jittered grids, rational ties, affine data, 1D --


@st.composite
def jittered_grids(draw, kmax=5):
    k = draw(st.integers(2, kmax))
    digits = draw(st.integers(1, 6))        # few digits: shared coordinates
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = np.linspace(-1.0, 1.0, k)
    nodes = set()
    for i, x in enumerate(base):
        for j, y in enumerate(base):
            p = np.array([x, y])
            if 0 < i < k - 1 and 0 < j < k - 1:
                p += rng.uniform(-0.3, 0.3, 2) * (base[1] - base[0])
            nodes.add(tuple(float(c) for c in np.round(p, digits)))
    nodes = sorted(nodes)
    A = rng.uniform(0.2, 2.0, 3)
    values = [float(A[0] * x * x + A[1] * y * y + A[2] * x * y / 4)
              for x, y in nodes]
    return ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0), nodes, values)


@SETTINGS
@given(jittered_grids())
def test_oracle_equals_the_dense_oracle_on_jittered_grids(cpl):
    assert_same_as_dense(cpl)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("shape", ["quadratic", "pyramid", "affine", "ridge"])
def test_oracle_equals_the_dense_oracle_on_rational_lattices(k, shape):
    f = {"quadratic": lambda x, y: x * x + y * y,
         "pyramid": lambda x, y: max(abs(x), abs(y)),
         "affine": lambda x, y: 2 * x - y + 1,
         "ridge": lambda x, y: abs(x) + y / 2}[shape]
    nodes = [(F(2 * i, k - 1) - 1, F(2 * j, k - 1) - 1)
             for i in range(k) for j in range(k)]
    cpl = ConvexPL(box_polygon(-1, 1, -1, 1), nodes,
                   [f(x, y) for x, y in nodes])
    assert_same_as_dense(cpl, resolutions=(1, 2, 3, 8, 16, 33, 64))


@SETTINGS
@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8),
                max_size=6),
       st.sampled_from(["square", "kink", "affine"]), st.booleans())
def test_oracle_equals_the_dense_oracle_in_1d(inner, shape, exact):
    xs = sorted({F(0), F(1), *inner})
    f = {"square": lambda x: x * x, "kink": lambda x: abs(x - F(1, 2)),
         "affine": lambda x: 3 * x + 1}[shape]
    values = [f(x) for x in xs]
    if not exact:
        xs, values = [float(x) for x in xs], [float(v) for v in values]
    cpl = ConvexPL(Interval(xs[0], xs[-1]), [(x,) for x in xs], values)
    assert_same_as_dense(cpl, resolutions=(1, 2, 4, 9, 16, 50))


# -- the strips' prune: several strips, near-margin pairs, parallel lines --


@st.composite
def strip_cases(draw):
    """Slope grids of several strips, R not a multiple of the strip height,
    on jittered grids up to 7 x 7 or rational lattices (rows of nodes with
    one last coordinate: parallel lines in every strip), with one node
    duplicated at a value a few ulps of the scale up or down, so that a
    pair sits on either side of the prune's margin."""
    R = draw(st.integers(64, 300).filter(lambda r: r % _strip_height(r)))
    if draw(st.booleans()):
        cpl = draw(jittered_grids(kmax=7))
    else:
        k = draw(st.integers(2, 7))
        f = draw(st.sampled_from([lambda x, y: x * x + y * y,
                                  lambda x, y: max(abs(x), abs(y)),
                                  lambda x, y: abs(x) + y / 2]))
        nodes = [(F(2 * i, k - 1) - 1, F(2 * j, k - 1) - 1)
                 for i in range(k) for j in range(k)]
        cpl = ConvexPL(box_polygon(-1, 1, -1, 1), nodes,
                       [f(x, y) for x, y in nodes])
    axes, _ = _slope_grid(cpl, R)
    pts = np.array([[float(c) for c in nd] for nd in cpl.nodes])
    vals = np.array([float(v) for v in cpl.values])
    scale = sum(np.abs(ax).max() * np.abs(pts[:, i]).max()
                for i, ax in enumerate(axes)) + np.abs(vals).max()
    i = draw(st.integers(0, len(vals) - 1))
    ulps = draw(st.sampled_from((-300, -3, 1, 2, 5, 250, 256, 260, 520)))
    pts = np.vstack([pts, pts[i]])
    vals = np.append(vals, vals[i] + ulps * np.spacing(scale))
    return axes, pts, vals


@settings(max_examples=40, derandomize=True, deadline=None)
@given(strip_cases())
def test_counts_equal_the_dense_argmax_across_strips(case):
    axes, pts, vals = case
    counts, _ = _scan_counts(axes, pts, vals)
    assert np.array_equal(counts, dense_counts(axes, pts, vals))


def test_counts_equal_the_dense_argmax_when_nothing_is_pruned():
    # every node on x = 0: each cell is a band of t across every row, so
    # it crosses every strip and no line of the envelope can be dropped
    y = np.sort(np.random.default_rng(3).uniform(-1.0, 1.0, 40))
    pts = np.column_stack([np.zeros(40), y])
    vals = y * y + y / 10
    axes = [np.linspace(-1.0, 1.0, 150), np.linspace(-2.5, 2.5, 150)]
    counts, _ = _scan_counts(axes, pts, vals)
    assert np.array_equal(counts, dense_counts(axes, pts, vals))
    assert np.count_nonzero(counts) > 10


# -- work: linear in the resolution, and invalid input --


def test_doubling_the_resolution_at_most_doubles_the_scores():
    rng = np.random.default_rng(7)
    base = np.linspace(-1.0, 1.0, 6)
    pts = np.array([(x, y) for x in base for y in base])
    inner = (np.abs(pts) < 1).all(axis=1)
    pts[inner] += rng.uniform(-0.1, 0.1, (inner.sum(), 2))
    vals = (pts ** 2).sum(axis=1) + 0.2 * np.exp(pts[:, 0] - pts[:, 1])
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0),
                   [tuple(p) for p in pts], list(vals))
    work = []
    for r in (400, 800, 1600):
        axes, _ = _slope_grid(cpl, r)
        counts, scored = _scan_counts(axes, pts, vals)
        assert counts.sum() == r * r
        work.append(scored)
    assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1]
    assert work[2] < 1600 * 1600 * len(pts) / 20     # far below dense


# The line evaluations on the input below at 2,000 slopes a side when every
# row was walked with all 36 lines, before the strips' prune: the ``scored``
# that _scan_counts returned on it then.
UNPRUNED_SCORED = 1_007_784


def test_the_prune_halves_the_line_evaluations():
    # the 6 x 6 jittered grid of the test above, at the benchmark's 2,000
    # slopes; the count includes the strip-edge walks and the corner tests
    rng = np.random.default_rng(7)
    base = np.linspace(-1.0, 1.0, 6)
    pts = np.array([(x, y) for x in base for y in base])
    inner = (np.abs(pts) < 1).all(axis=1)
    pts[inner] += rng.uniform(-0.1, 0.1, (inner.sum(), 2))
    vals = (pts ** 2).sum(axis=1) + 0.2 * np.exp(pts[:, 0] - pts[:, 1])
    cpl = ConvexPL(box_polygon(-1.0, 1.0, -1.0, 1.0),
                   [tuple(p) for p in pts], list(vals))
    axes, _ = _slope_grid(cpl, 2000)
    counts, scored = _scan_counts(axes, pts, vals)
    assert counts.sum() == 2000 * 2000
    assert scored <= UNPRUNED_SCORED / 2


def test_non_finite_values_are_rejected():
    axes = [np.linspace(-1.0, 1.0, 5)]
    with pytest.raises(ValueError):
        _scan_counts(axes, np.array([[0.0], [1.0]]), np.array([0.0, np.nan]))
