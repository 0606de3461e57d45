"""Subgradient measures, oracles and the Dirichlet solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nama import (ConvexPL, InfeasibleBoundary, Interval, Polygon,
                  TargetMeasure, box_polygon, discrete_slope_jumps,
                  gradient_cells, ma_measure, ma_measure_oracle, solve,
                  strict_convexity_report)
from nama import realma

F = Fraction
UNIT = box_polygon(0, 1, 0, 1)
HALVES = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
TINY = F(1, 10 ** 30)           # below a float's resolution at 1/2


def kink_function():
    return ConvexPL(Interval(0, 1), [(0,), (F(1, 2),), (1,)],
                    [0, F(-1, 8), 0])


def square_pyramid():
    dom = box_polygon(-1, 1, -1, 1)
    nodes = [(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)]
    return ConvexPL(dom, nodes, [1, 1, 1, 1, 0])


def test_domains_classify_points():
    iv = Interval(0, 1)
    assert iv.contains((F(1, 3),)) and not iv.on_boundary((F(1, 3),))
    assert iv.on_boundary((0,)) and iv.on_boundary((1,))
    assert not iv.contains((2,))
    assert iv.volume() == 1

    box = box_polygon(0, 2, 0, 1)
    assert box.volume() == 2
    assert box.contains((1, F(1, 2)))
    assert box.on_boundary((0, F(1, 2)))
    assert box.on_boundary((2, 1))
    assert not box.contains((3, 0))


def test_polygon_tests_agree_with_the_exact_slack():
    # points on the edges with denominators near 2^60, and 1e-16 h, 1e-12 h
    # and h/3 off them either way: the float pre-test must leave the points
    # within rounding distance of an edge line to the exact slack.  Points
    # on an edge line past the edge are outside, and not on the boundary
    rng = np.random.default_rng(5)
    corners = [(F(-1, 3), F(0)), (F(5, 2), F(-1, 7)), (F(3), F(2)),
               (F(1, 5), F(9, 4))]
    dom = Polygon(corners)
    h, big = F(1, 16), 2 ** 60
    points = list(corners)
    for p, q in zip(corners, corners[1:] + corners[:1]):
        inward = (p[1] - q[1], q[0] - p[0])
        points += [(p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
                   for t in (F(-1, 2), F(3, 2))]
        for _ in range(25):
            t = F(int(rng.integers(big)), big - int(rng.integers(1, 9)))
            on = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            for off in (0, F(1, 10 ** 16), F(-1, 10 ** 16), F(1, 10 ** 12),
                        F(-1, 10 ** 12), F(1, 3), F(-1, 3)):
                points.append((on[0] + off * h * inward[0],
                               on[1] + off * h * inward[1]))
    flags = set()
    for pt in points:
        slack = [a[0] * pt[0] + a[1] * pt[1] - c for a, c in dom.halfplanes()]
        inside = min(slack) >= 0
        assert dom.contains(pt) == inside
        assert dom.on_boundary(pt) == (inside and 0 in slack)
        flags.add((inside, 0 in slack))
    assert flags == {(True, True), (True, False), (False, False),
                     (False, True)}
    # one classify pass equals the one-point calls: on the points, on them
    # as floats or with a float y, on a float copy of the polygon and on an
    # interval.  The oracle is Python's scalar arithmetic, which takes a
    # rational met by a float as its float, with the domain's tolerance
    floats = [tuple(map(float, pt)) for pt in points]
    mixed = [(x, float(y)) for x, y in points]
    flat = Polygon([tuple(map(float, v)) for v in corners])
    line = Interval(F(-1, 3), F(3))
    cases = [(dom, points, 0), (dom, floats, 0), (dom, mixed, 0),
             (flat, points, 1e-12 * 3), (flat, floats, 1e-12 * 3),
             (line, [pt[:1] for pt in points], 0),
             (line, [pt[:1] for pt in floats], 0)]
    for domain, pts, tol in cases:
        inside, boundary = domain.classify(pts)
        assert inside.tolist() == [domain.contains(pt) for pt in pts]
        assert boundary.tolist() == [domain.on_boundary(pt) for pt in pts]
        assert not (boundary & ~inside).any()
        for pt, it, on in zip(pts, inside, boundary):
            slack = [sum(ak * xk for ak, xk in zip(a, pt)) - c
                     for a, c in domain.halfplanes()]
            assert it == (min(slack) >= -tol)
            assert on == (it and min(map(abs, slack)) <= tol)
    # the float corner is on the exact boundary, and so inside
    assert dom.contains((3.0, 2.0)) and dom.on_boundary((3.0, 2.0))


def test_convexpl_validates_its_input():
    iv = Interval(0, 1)
    with pytest.raises(ValueError, match="one value per node"):
        ConvexPL(iv, [(0,), (1,)], [0])
    with pytest.raises(ValueError, match=r"^node \(0\) is given twice$"):
        ConvexPL(iv, [(0,), (0,), (1,)], [0, 0, 0])
    with pytest.raises(ValueError, match=r"^node \(2\) lies outside"):
        ConvexPL(iv, [(0,), (2,)], [0, 0])
    with pytest.raises(ValueError, match=r"^domain vertex \(1\) must be"):
        ConvexPL(iv, [(0,), (F(1, 2),)], [0, 0])
    with pytest.raises(ValueError, match=r"^node \(0, 1\) is not of dim"):
        ConvexPL(iv, [(0,), (0, 1), (1,)], [0, 0, 0])
    # exact nodes closer than a float apart are distinct nodes here
    tiny = F(1, 10 ** 30)
    ConvexPL(iv, [(0,), (F(1, 2),), (F(1, 2) + tiny,), (1,)], [0, -1, -1, 0])


def test_discrete_slope_jumps_second_difference():
    jumps = discrete_slope_jumps([0, F(1, 2), 1], [0, F(-1, 8), 0])
    assert jumps == [F(1, 2)]
    # a non-convex profile reports a negative jump; no envelope is taken
    assert discrete_slope_jumps([0, 1, 2], [0, 1, 0]) == [-2]
    with pytest.raises(ValueError):
        discrete_slope_jumps([0, 0, 1], [0, 0, 0])


@pytest.mark.parametrize("number", [F, float])
def test_discrete_slope_jumps_needs_one_value_per_point(number):
    for xs, values in (([0, 1, 2, 3], [0, 1, 0]), ([0, 1, 2], [0, 1, 0, 5])):
        with pytest.raises(ValueError, match=f"^{len(xs)} points but "
                                             f"{len(values)} values$"):
            discrete_slope_jumps(list(map(number, xs)),
                                 list(map(number, values)))


def test_ma_measure_1d_kink():
    measure = ma_measure(kink_function())
    assert measure.masses == (0, F(1, 2), 0)
    assert measure.interior == (False, True, False)
    assert measure.on_envelope == (True, True, True)
    assert not measure.degenerate
    assert measure.total() == F(1, 2)
    atoms = measure.atomic()
    assert atoms.support == ((F(1, 2),),) and atoms.masses == (F(1, 2),)


def test_ma_measure_1d_off_envelope_node():
    lifted = ConvexPL(Interval(0, 1), [(0,), (F(1, 2),), (1,)],
                      [0, F(1, 4), 0])
    measure = ma_measure(lifted)
    assert measure.masses[1] == 0
    assert measure.on_envelope == (True, False, True)
    assert measure.degenerate


def test_ma_measure_2d_pyramid_and_oracle_agree():
    cpl = square_pyramid()
    measure = ma_measure(cpl)
    assert measure.masses[4] == 2
    assert measure.total() == 2
    oracle = ma_measure_oracle(cpl, resolution=400)
    assert abs(float(oracle[4]) - 2.0) < 5e-2
    assert all(m == 0 for m in oracle[:4])


def test_ma_measure_is_exact_in_rational_mode():
    dom = box_polygon(0, 1, 0, 1)
    nodes = [(0, 0), (1, 0), (1, 1), (0, 1), (F(1, 3), F(2, 5))]
    values = [F(1, 2) * (x * x + y * y) for x, y in nodes[:4]] + [F(0)]
    cpl = ConvexPL(dom, nodes, values)
    measure = ma_measure(cpl)
    assert isinstance(measure.masses[4], Fraction)
    assert measure.masses[4] > 0


def test_gradient_cells_tile_a_clip_box():
    cpl = square_pyramid()
    cells = gradient_cells(cpl, clip_box=(-3, 3, -3, 3))
    assert sum(c.volume for c in cells) == 36


def test_evaluate_returns_the_envelope():
    cpl = kink_function()
    vals = cpl.evaluate([(0.25,), (0.5,), (1.0,)])
    assert abs(vals[0] + 1 / 16) < 1e-12
    assert abs(vals[1] + 1 / 8) < 1e-12
    assert abs(vals[2]) < 1e-12


def test_evaluate_skips_a_node_above_the_envelope_1d():
    cpl = ConvexPL(Interval(0, 2), [(0,), (F(1, 2),), (1,), (2,)],
                   [0, 1, -1, 1])
    vals = cpl.evaluate([(0,), (0.5,), (1,), (1.5,)])
    assert np.allclose(vals, [0, -0.5, -1, 0], rtol=0, atol=1e-15)


def test_evaluate_reproduces_the_envelope_nodes_2d():
    nodes = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]
    values = [x * x + x * y / 3 + 2 * y * y for x, y in nodes]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes, values)
    assert np.allclose(cpl.evaluate(nodes), [float(v) for v in values],
                       rtol=0, atol=1e-14)


def test_evaluate_returns_affine_data_2d():
    # a flat lift: every facet is the one plane
    rng = np.random.default_rng(5)
    nodes = [(0, 0), (1, 0), (1, 1), (0, 1)] + [
        tuple(p) for p in rng.uniform(0, 1, (12, 2))]
    cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes,
                   [0.3 * x - 0.7 * y + 0.2 for x, y in nodes])
    q = rng.uniform(0, 1, (50, 2))
    assert np.allclose(cpl.evaluate(q), q @ (0.3, -0.7) + 0.2, rtol=0,
                       atol=1e-14)


def test_evaluate_skips_a_node_above_the_envelope_2d():
    pyramid = square_pyramid()
    cpl = ConvexPL(pyramid.domain, pyramid.nodes + [(F(1, 2), F(1, 2))],
                   pyramid.values + [1])
    assert np.allclose(cpl.evaluate([(0.5, 0.5), (0, 0), (-0.5, 0.25)]),
                       [0.5, 0, 0.5], rtol=0, atol=1e-15)


def test_strict_convexity_report_groups_flat_regions():
    cpl = square_pyramid()
    rep = strict_convexity_report(cpl)
    assert rep.strict == (4,) and rep.singular == ()

    # nodes 1 and 2 lie inside the segment of slope -1, node 4 inside the
    # one of slope 1
    line = ConvexPL(Interval(0, 5), [(k,) for k in range(6)],
                    [0, -1, -2, -3, -2, -1])
    rep = strict_convexity_report(line)
    assert (rep.strict, rep.singular, rep.components) == (
        (3,), (1, 2, 4), ((1, 2), (4,)))

    # the flat quads of (x^2 + y^2) / 2 on a lattice: nodes 9 and 10 on the
    # plane of one quad, 11 on that of another, 12 lifted above the envelope
    lattice = [(i, j) for i in range(3) for j in range(3)]
    extra = [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(3, 2), F(3, 2)),
             (F(3, 2), F(1, 2))]
    values = ([F(x * x + y * y, 2) for x, y in lattice]
              + [F(1, 2), F(1, 2), F(5, 2), F(5, 2)])
    rep = strict_convexity_report(ConvexPL(box_polygon(0, 2, 0, 2),
                                           lattice + extra, values))
    assert (rep.strict, rep.singular, rep.components) == (
        (4,), (9, 10, 11, 12), ((9, 10), (11,), (12,)))
    assert not rep.degenerate


def test_strict_convexity_components_equal_a_loop_grouping(monkeypatch):
    # the flat quads of (x^2 + y^2) / 2 on a lattice, with up to two nodes
    # per quad on its plane or above the envelope, grouped plane by plane
    # with sets as the reference; one plane per block of the report
    monkeypatch.setattr(realma, "_BLOCK", 1)
    rng = np.random.default_rng(11)
    h = F(1, 4)
    lattice = [(h * i, h * j) for i in range(5) for j in range(5)]
    sizes = set()
    for _ in range(6):
        nodes = list(lattice)
        values = [(x * x + y * y) / 2 for x, y in nodes]
        for i in range(4):
            for j in range(4):
                for dx, dy in rng.permutation([(2, 2), (1, 3)])[
                        :rng.integers(0, 3)].tolist():
                    x, y = h * (i + F(dx, 4)), h * (j + F(dy, 4))
                    nodes.append((x, y))
                    values.append((h * (2 * i + 1) * x - h * h * i * (i + 1)
                                   + h * (2 * j + 1) * y - h * h * j * (j + 1))
                                  / 2 + F(int(rng.integers(0, 3) == 0), 8))
        cpl = ConvexPL(box_polygon(0, 1, 0, 1), nodes, values)
        rep = strict_convexity_report(cpl)
        assert len(rep.strict) == 9
        pts = np.array(nodes, dtype=float)
        vals = np.array(values, dtype=float)
        groups = [{i} for i in rep.singular]
        for g, b in zip(*cpl._envelope_planes()):
            on = {i for i in rep.singular if abs(pts[i] @ g + b - vals[i])
                  <= 1e-9 * max(1.0, np.abs(vals).max())}
            if on:
                groups = [s for s in groups if not s & on] + [
                    on.union(*(s for s in groups if s & on))]
        assert rep.components == tuple(sorted(tuple(sorted(s))
                                              for s in groups))
        sizes.update(map(len, rep.components))
    assert sizes == {1, 2}


def test_target_measure_from_density_is_exact():
    dom = Interval(0, 1)
    nodes = [(F(k, 4),) for k in range(5)]
    target = TargetMeasure.from_density(dom, nodes, F(2))
    assert target.total() == 2
    assert target.mass_at((0.25,)) == F(1, 2)
    assert target.mass_at((0,)) == F(1, 4)     # half cell at the endpoint
    target.validate_total(dom)

    box = box_polygon(0, 1, 0, 1)
    grid = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    t2 = TargetMeasure.from_density(box, grid, F(4))
    assert t2.total() == 4
    assert t2.mass_at((0.5, 0.5)) == 1


@pytest.mark.parametrize("domain, nodes, message", [
    (Interval(0, 1), [(0,), (F(1, 2),), (F(1, 2),), (1,)], r"\(1/2\)"),
    (UNIT, [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]
     + [(F(1, 2), F(3, 4))], r"\(1/2, 3/4\)")])
def test_from_density_rejects_a_repeated_node(domain, nodes, message):
    with pytest.raises(ValueError, match=f"^node {message} is given twice$"):
        TargetMeasure.from_density(domain, nodes, 1)


def test_a_function_and_its_readers_convert_each_number_once(count_calls):
    # 17 x 17 exact nodes: one conversion per coordinate (578), value and
    # mass (289 each); the parent made 2,890
    n = 17
    nodes = [(F(i, n - 1), F(j, n - 1)) for i in range(n) for j in range(n)]
    floats = count_calls(Fraction, "__float__")
    cpl = ConvexPL(UNIT, nodes, [(x * x + 2 * y * y) / 2 for x, y in nodes])
    assert len(floats) <= 2 * n * n
    ma_measure(cpl)
    ma_measure_oracle(cpl, resolution=100)
    strict_convexity_report(cpl)
    assert len(floats) <= 4 * n * n


def test_target_measure_rejects_colliding_nodes():
    third = float(F(1, 3))
    with pytest.raises(ValueError):
        TargetMeasure({(F(1, 3),): 1, (third,): 1})
    # lookups succeed through either representation of the same point
    target = TargetMeasure({(F(1, 3),): F(2, 7)})
    assert target.mass_at((third,)) == F(2, 7)


def test_solve_1d_quadratic_is_exact():
    dom = Interval(0, 1)
    nodes = [(F(k, 8),) for k in range(9)]
    target = TargetMeasure.from_density(dom, nodes, 2)
    result = solve(dom, target, {(F(0),): F(0), (F(1),): F(0)}, nodes=nodes)
    assert result.converged
    assert result.method == "direct"
    check_the_solves_flags(result, dom, nodes)
    for (x,), v in zip(result.solution.nodes, result.solution.values):
        assert v == x * x - x


def test_float_1d_solve_matches_the_exact_solve_of_its_nodes():
    # the same jittered nodes, masses and boundary values as Fractions
    rng = np.random.default_rng(0)
    xs = (np.arange(41) + np.r_[0, rng.uniform(-0.3, 0.3, 39), 0]) / 40
    nodes = [(float(x),) for x in xs]
    target = TargetMeasure.from_density(Interval(0.0, 1.0), nodes, 2.0)
    got = solve(Interval(0.0, 1.0), target, {(0.0,): 0.25, (1.0,): -0.5},
                nodes=nodes)
    want = solve(Interval(0, 1), TargetMeasure(
        {(F(x),): F(m) for (x,), m in target.masses.items()}),
        {(0,): F(1, 4), (1,): F(-1, 2)}, nodes=[(F(x),) for x in xs])
    assert got.converged and got.residual <= 1e-12
    assert all(isinstance(v, float) for v in got.solution.values)
    # each value is the exact one, rounded once
    assert got.solution.values == [float(v) for v in want.solution.values]
    assert got.masses[1:-1] == tuple(discrete_slope_jumps(
        xs, got.solution.values))
    check_the_solves_flags(got, Interval(0.0, 1.0), nodes)
    check_the_solves_flags(want, Interval(0, 1), [(F(x),) for x in xs])


@pytest.mark.parametrize("mass, ends, message", [
    (math.inf, (0.0, 0.0), r"target mass inf at node \(0.0\)"),
    (math.nan, (0.0, 0.0), r"target mass nan at node \(0.0\)"),
    (1.0, (-math.inf, 0.0), r"boundary value -inf at node \(-1e\+300\)"),
    (1.0, (0.0, math.nan), r"boundary value nan at node \(1e\+300\)"),
    (1e10, (0.0, 0.0), "leaves the float range")])
def test_float_1d_solve_rejects_what_floats_cannot_hold(mass, ends, message):
    # the last: the value at 0 is -mass * 1e300 / 2
    nodes = [(-1e300,), (0.0,), (1e300,)]
    with pytest.raises(ValueError, match=message):
        solve(Interval(-1e300, 1e300), {(0.0,): mass},
              dict(zip(nodes[::2], ends)), nodes=nodes)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_float_is_an_error_naming_its_node(bad):
    # a one-line ValueError before any numpy arithmetic, which would warn:
    # values of a 1D or 2D ConvexPL, a 2D solve's target masses and
    # boundary values (the 1D solve's are the test above)
    with pytest.raises(ValueError, match=rf"^value {bad} at node \(0.5\) "
                                         "is not finite$"):
        ConvexPL(Interval(0.0, 1.0), [(0.0,), (0.5,), (1.0,)], [0, bad, 0])
    grid = [(i / 4, j / 4) for i in range(5) for j in range(5)]
    with pytest.raises(ValueError, match=rf"^value {bad} at node "
                                         r"\(0.5, 0.25\) is not finite$"):
        ConvexPL(box_polygon(0.0, 1.0, 0.0, 1.0), grid,
                 [bad if nd == (0.5, 0.25) else 0.0 for nd in grid])
    ring = {nd: 0.0 for nd in grid if 0 in nd or 1 in nd}
    target = {nd: 1 / 9 for nd in grid if nd not in ring}
    with pytest.raises(ValueError, match=rf"^boundary value {bad} at node "
                                         r"\(1.0, 0.5\) is not finite$"):
        solve(UNIT, target, {**ring, (1.0, 0.5): bad}, nodes=grid)
    # -inf is caught as a negative mass first
    message = (r"^negative target mass -inf at node \(0.5, 0.5\)$" if bad < 0
               else rf"^target mass {bad} at node \(0.5, 0.5\) is not finite$")
    with pytest.raises(ValueError, match=message):
        solve(UNIT, {**target, (0.5, 0.5): bad}, ring, nodes=grid)


def test_solve_default_nodes_come_from_target_and_boundary():
    dom = Interval(0, 1)
    nodes = [(F(k, 4),) for k in range(5)]
    target = TargetMeasure.from_density(dom, nodes, 2)
    result = solve(dom, target, {(F(0),): F(0), (F(1),): F(0)})
    assert sorted(result.solution.nodes) == sorted(nodes)
    assert result.converged
    check_the_solves_flags(result, dom, nodes)


def check_the_solves_flags(result, domain, nodes):
    """The solution's interior flags are the ones the solve classified
    (before rounding) and acted on; in 2D its measure is the solve's last
    masses, exactly, as both read one FacetCells of the same floats."""
    sol = result.solution
    flags = (~domain.classify(sorted(nodes) if domain.dim == 1
                              else nodes)[1]).tolist()
    assert list(sol.interior_mask()) == flags
    if domain.dim == 2:
        assert flags == [m > 0 for m in result.masses]
        assert ma_measure(sol).masses == result.masses


def test_solve_2d_uniform_square():
    dom = box_polygon(0, 1, 0, 1)
    per = 5
    nodes = [(F(i, per - 1), F(j, per - 1))
             for i in range(per) for j in range(per)]
    target = TargetMeasure.from_density(dom, nodes, 1)

    def boundary(nd):
        x, y = nd
        return (x * x + y * y) / 2

    result = solve(dom, target, boundary, nodes=nodes, tol=1e-8)
    assert result.converged
    assert result.residual <= 1e-8
    check_the_solves_flags(result, dom, nodes)
    sol = dict(zip(result.solution.nodes, result.solution.values))
    exact = (0.5 ** 2 + 0.5 ** 2) / 2
    assert abs(sol[(0.5, 0.5)] - exact) < 0.02


def test_solve_2d_on_an_exact_non_dyadic_box():
    dom = box_polygon(0, F(4, 5), 0, F(4, 5))
    nodes = [(F(i, 10), F(j, 10)) for i in range(9) for j in range(9)]
    target = TargetMeasure.from_density(dom, nodes, 1)
    bnd = {nd: (nd[0] ** 2 + nd[1] ** 2) / 2 for nd in nodes
           if dom.on_boundary(nd)}
    result = solve(dom, target, bnd, nodes=nodes, tol=1e-8)
    assert result.converged
    assert result.solution.domain.vertices[2] == (0.8, 0.8)
    for (x, y), v in zip(result.solution.nodes, result.solution.values):
        assert abs(v - (x * x + y * y) / 2) < 1e-9
    measure = ma_measure(result.solution)
    assert sum(measure.interior) == 49
    check_the_solves_flags(result, dom, nodes)
    # the grid-solve benchmark's calls: a float box, exact h = 1/10 nodes
    # and an exact density target on the exact box; then a function on
    # the solution's own domain and nodes, lowered at the centre
    flat = box_polygon(0.0, 0.8, 0.0, 0.8)
    result = solve(flat, target, lambda nd: (nd[0] ** 2 + nd[1] ** 2) / 2,
                   nodes=nodes, tol=1e-8)
    sol = result.solution
    assert result.converged and sol.domain == flat
    check_the_solves_flags(result, flat, nodes)
    values = list(sol.values)
    values[40] -= 1e-4
    lowered = ConvexPL(sol.domain, sol.nodes, values)
    assert lowered.interior_mask() == sol.interior_mask()
    assert ma_measure(lowered).masses[40] > result.masses[40]


def test_solve_2d_rejects_concave_boundary_data():
    dom = box_polygon(0, 1, 0, 1)
    per = 3
    nodes = [(F(i, 2), F(j, 2)) for i in range(per) for j in range(per)]
    target = TargetMeasure.from_density(dom, nodes, 1)

    def boundary(nd):
        x, y = nd
        return -(x - 0.5) ** 2 - (y - 0.5) ** 2

    with pytest.raises(InfeasibleBoundary):
        solve(dom, target, boundary, nodes=nodes)


def exp_solve(per, tol=1e-8):
    """u = exp(|x|^2 / 2) on the unit square, det D^2 u = e^{|x|^2}
    (1 + |x|^2): node masses f(x_i) h^2, Dirichlet data u.  Returns the
    result, the target and the sup error at the nodes."""
    dom = box_polygon(0, 1, 0, 1)
    h = F(1, per - 1)
    nodes = [(h * i, h * j) for i in range(per) for j in range(per)]

    def r2(nd):
        return float(nd[0]) ** 2 + float(nd[1]) ** 2

    def u(nd):
        return math.exp(r2(nd) / 2)

    target = TargetMeasure({
        nd: math.exp(r2(nd)) * (1 + r2(nd)) * float(h) ** 2
        for nd in nodes if not dom.on_boundary(nd)})
    result = solve(dom, target, u, nodes=nodes, tol=tol)
    sup = max(abs(v - u(nd)) for nd, v in zip(result.solution.nodes,
                                               result.solution.values))
    return result, target, sup


@pytest.fixture(scope="module")
def exp_solves():
    return {per: exp_solve(per) for per in (9, 17, 33, 65)}


def test_solver_is_second_order_on_a_non_polynomial_solution(exp_solves):
    # measured: sup errors 1.37e-3, 3.51e-4, 8.81e-5, 2.21e-5
    assert all(r.converged and r.residual <= 1e-8
               for r, _, _ in exp_solves.values())
    sups = [exp_solves[per][2] for per in (9, 17, 33, 65)]
    for coarse, fine in zip(sups, sups[1:]):
        assert math.log2(coarse / fine) >= 1.8
    assert sups[2] < 1e-4 and sups[3] < 3e-5


def test_solve_returns_the_masses_of_its_last_iterate(exp_solves):
    for result in (exp_solves[9][0], solve(
            Interval(0, 1), {(F(1, 3),): 1, (F(1, 2),): F(1, 2)},
            {(0,): 0, (1,): 1})):
        assert result.masses == ma_measure(result.solution).masses
    for per, (result, _, _) in exp_solves.items():
        check_the_solves_flags(result, UNIT, [
            (F(i, per - 1), F(j, per - 1))
            for i in range(per) for j in range(per)])


def test_a_node_off_the_edge_by_a_float_tolerance_stays_interior():
    # the exact square calls (1/2, 1e-13) interior, a float copy of it
    # calls it boundary: the solution keeps the flags the solve acted on
    nodes = HALVES + [(F(1, 2), F(1, 10 ** 13))]
    masses = {(F(1, 2), F(1, 2)): F(1, 6), nodes[-1]: F(1, 6)}
    result = solve(UNIT, masses, lambda nd: 0, nodes=nodes)
    assert result.converged and result.solution.interior_mask()[-1]
    assert result.masses[-1] == pytest.approx(1 / 6)
    check_the_solves_flags(result, UNIT, nodes)


def test_a_33_by_33_solve_takes_at_most_30_cell_evaluations(exp_solves):
    assert exp_solves[33][0].iterations <= 30


def check_the_history(result):
    """One entry per evaluation: the starts, then trials whose accepted
    residuals strictly decrease, the last of them the result's."""
    history = result.history
    assert len(history) == result.iterations
    verdicts = [h.verdict for h in history]
    starts = verdicts.count("start")
    assert starts >= 1 and set(verdicts[:starts]) == {"start"}
    assert {"accepted", "mass", "residual"} >= set(verdicts[starts:])
    assert all((h.tau is None) == (h.verdict == "start") for h in history)
    kept = [history[starts - 1].residual] + [
        h.residual for h in history if h.verdict == "accepted"]
    assert all(a > b for a, b in zip(kept, kept[1:]))
    assert kept[-1] == result.residual


def lattice_problem(k, per):
    """The three lattice problems of the solver's evaluation counts: exact
    n x n lattice nodes, exact density targets."""
    box, density, boundary = [
        ((0, 1, 0, 1), 1, lambda nd: (nd[0] ** 2 + nd[1] ** 2) / 2),
        ((-1, 1, -1, F(1, 2)), 3,
         lambda nd: (nd[0] ** 2 + nd[1] ** 2) / 2 + nd[0] - nd[1]),
        ((0, 1, 0, 1), 1, lambda nd: (4 * nd[0] ** 2 + 2 * nd[0] * nd[1]
                                      + nd[1] ** 2 / 4) / 2)][k]
    lo0, hi0, lo1, hi1 = map(F, box)
    nodes = [(lo0 + (hi0 - lo0) * F(i, per - 1),
              lo1 + (hi1 - lo1) * F(j, per - 1))
             for i in range(per) for j in range(per)]
    dom = box_polygon(*box)
    target = TargetMeasure.from_density(dom, nodes, density)
    return solve(dom, target, boundary, nodes=nodes)


# a slanted side from (1, 1/4) to (1/2, 1): most lattice nodes near it lie
# off it at small distances
PENTAGON = Polygon([(0, 0), (1, 0), (1, F(1, 4)), (F(1, 2), 1), (0, 1)])


def pentagon_solve(per):
    nodes = [(F(i, per - 1), F(j, per - 1)) for i in range(per)
             for j in range(per)]
    nodes = [nd for nd in nodes if PENTAGON.contains(nd)]
    target = TargetMeasure.from_density(PENTAGON, nodes, 1)
    return solve(PENTAGON, target, lambda nd: (nd[0] ** 2 + nd[1] ** 2) / 2,
                 nodes=nodes)


# measured with the harmonic-mean start; the geometric-mean start took
# 13, 8, 9, 16, 11, 22, 26, 15 and 21
@pytest.mark.parametrize("run,bound", [
    (lambda _: lattice_problem(0, 17), 11),
    (lambda _: lattice_problem(1, 17), 7),
    (lambda _: lattice_problem(2, 17), 7),
    (lambda _: lattice_problem(0, 33), 16),
    (lambda _: lattice_problem(1, 33), 9),
    (lambda _: lattice_problem(2, 33), 8),
    (lambda exp_solves: exp_solves[65][0], 16),
    (lambda _: pentagon_solve(17), 8),
    (lambda _: pentagon_solve(33), 12)],
    ids=["square-17", "box-17", "skew-17", "square-33", "box-33", "skew-33",
         "exp-65", "pentagon-17", "pentagon-33"])
def test_the_start_bounds_the_cell_evaluations(exp_solves, run, bound):
    result = run(exp_solves)
    assert result.converged and result.cell_fallbacks == 0
    assert result.iterations <= bound
    check_the_history(result)


def test_every_solve_records_its_evaluations(exp_solves):
    for result, _, _ in exp_solves.values():
        check_the_history(result)
    # the node 1e-13 off an edge starts far from its target mass
    nodes = HALVES + [(F(1, 2), F(1, 10 ** 13))]
    result = solve(UNIT, {(F(1, 2), F(1, 2)): F(1, 6), nodes[-1]: F(1, 6)},
                   lambda nd: 0, nodes=nodes)
    check_the_history(result)
    line = solve(Interval(0, 1), {(F(1, 3),): 1, (F(1, 2),): F(1, 2)},
                 {(0,): 0, (1,): 1})
    assert line.history == (realma.Evaluation(line.residual, None, 0.5,
                                              "direct"),)


def test_solve_with_zero_tolerance_stops_with_its_last_iterate():
    result, target, sup = exp_solve(5, tol=0.0)
    assert result.iterations <= 40
    check_the_history(result)
    assert result.history[-1].verdict in ("mass", "residual")
    check_the_solves_flags(result, UNIT, [
        (F(i, 4), F(j, 4)) for i in range(5) for j in range(5)])
    assert result.converged == (result.residual <= 0.0)
    assert result.residual < 1e-12 and sup < 1e-2
    # the reported residual is the returned function's
    measure = ma_measure(result.solution)
    pairs = [(float(m), target.mass_at(nd)) for nd, m, inside
             in zip(measure.nodes, measure.masses, measure.interior)
             if inside]
    mean = sum(mu for _, mu in pairs) / len(pairs)
    assert result.residual == pytest.approx(
        max(abs(m - mu) for m, mu in pairs) / mean, rel=1e-6)


def test_solve_rejects_negative_and_zero_interior_masses():
    square = box_polygon(0, 1, 0, 1)
    nodes = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    with pytest.raises(ValueError, match=r"zero target mass at interior "
                                         r"node \(1/2, 1/2\)"):
        solve(square, {(F(1, 2), F(1, 2)): 0}, lambda nd: 0, nodes=nodes)
    with pytest.raises(ValueError, match="negative target mass -1"):
        solve(square, {(F(1, 2), F(1, 2)): -1}, lambda nd: 0, nodes=nodes)
    line = Interval(0, 1)
    with pytest.raises(ValueError, match=r"negative .* at node \(1/2\)"):
        solve(line, {(F(1, 2),): F(-1, 4)}, {(0,): 0, (1,): 0})
    # a zero mass in 1D is a kink-free node
    result = solve(line, {(F(1, 2),): 0, (F(1, 4),): 1}, {(0,): 0, (1,): 0})
    assert result.converged


def test_solve_rejects_a_mass_off_its_nodes():
    line, ends = Interval(0, 1), {(0,): 0, (1,): 0}
    grid = [(F(k, 2),) for k in range(3)]
    with pytest.raises(ValueError, match=r"target mass 1 at node \(1/3\), "
                                         r"which is not a solve node"):
        solve(line, {(F(1, 3),): 1}, ends, nodes=grid)
    square = box_polygon(0, 1, 0, 1)
    nodes = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)]
    masses = {(F(1, 2), F(1, 2)): 1, (F(1, 4), F(1, 2)): F(1, 8)}
    with pytest.raises(ValueError, match=r"\(1/4, 1/2\), which is not"):
        solve(square, masses, lambda nd: 0, nodes=nodes)
    # a zero mass off the nodes asks for nothing
    result = solve(line, {(F(1, 3),): 0, (F(1, 2),): 1}, ends, nodes=grid)
    assert result.converged



def test_solve_rejects_a_node_outside_its_domain():
    # the outside node used to get a mass equation and fail in the cell
    # geometry with "cell did not close up under box enlargement"
    square = box_polygon(0, 1, 0, 1)
    far = (F(3, 2), F(1, 2))
    nodes = [(F(i, 2), F(j, 2)) for i in range(3) for j in range(3)] + [far]
    masses = {(F(1, 2), F(1, 2)): F(1, 4), far: F(1, 4)}
    with pytest.raises(ValueError, match=r"^node \(3/2, 1/2\) lies outside "
                                         r"the domain$"):
        solve(square, masses, lambda nd: 0, nodes=nodes)
    line = Interval(0, 1)
    with pytest.raises(ValueError, match=r"^node \(2\) lies outside"):
        solve(line, {(F(1, 2),): 1}, lambda nd: 0,
              nodes=[(0,), (F(1, 2),), (1,), (2,)])

# a node set solve rejects: domain, nodes, target masses, message
LINE = [(F(0),), (F(1, 2),), (F(1),)]
BAD_NODE_SETS = {
    "2d given twice": (UNIT, HALVES + [(F(1, 2), F(1, 2))],
                       r"node \(1/2, 1/2\) is given twice"),
    "2d one float node": (UNIT, HALVES + [(F(1, 2) + TINY, F(1, 2))],
                          r"nodes \(1/2, 1/2\) and \(\d+/\d+, 1/2\) "
                          r"round to one float node \(0\.5, 0\.5\)"),
    "2d no vertex": (UNIT, HALVES[:-1], r"domain vertex \(1, 1\) must be"),
    "2d outside": (UNIT, HALVES + [(F(3, 2), F(1, 2))],
                   r"node \(3/2, 1/2\) lies outside the domain"),
    "1d given twice": (Interval(0, 1), LINE + [(F(1, 2),)],
                       r"node \(1/2\) is given twice"),
    "1d one float node": (Interval(0, 1), LINE + [(F(1, 2) + TINY,)],
                          r"nodes \(1/2\) and \(\d+/\d+\) round to one "
                          r"float node \(0\.5\)"),
    "1d no vertex": (Interval(0, 1), LINE[:-1],
                     r"domain vertex \(1\) must be a node"),
    "1d outside": (Interval(0, 1), LINE + [(F(2),)],
                   r"node \(2\) lies outside the domain"),
    # a float domain's tolerance puts 1e-13 on its boundary
    "1d boundary inside": (Interval(0.0, 1.0), LINE + [(1e-13,)],
                           r"node \(1e-13\) is on the domain's boundary "
                           r"between the end nodes"),
    # the float solve's end node 1/3 is not the vertex 1/3
    "1d float end": (Interval(0, F(1, 3)), [(F(0),), (F(1, 6),), (F(1, 3),)],
                     r"end nodes \(0\.0\) and \(0\.3+\d\) of the float "
                     r"solve are not the domain vertices \(0\) and \(1/3\)"),
    # the exact solve's end node 1/10 is not the float vertex 0.1
    "1d exact end": (Interval(0.0, 0.1), [(F(0),), (F(1, 20),), (F(1, 10),)],
                     r"end nodes \(0\) and \(1/10\) of the exact solve"),
}


@pytest.mark.parametrize("case", BAD_NODE_SETS)
def test_solve_rejects_a_bad_node_set_before_any_work(case, count_calls):
    domain, nodes, message = BAD_NODE_SETS[case]
    inner = nodes[1]
    masses = {inner: 1.0 if case == "1d float end" else 1}
    cells = count_calls(realma, "FacetCells")
    direct = count_calls(realma, "_direct_values")
    with pytest.raises(ValueError, match=f"^{message}") as info:
        solve(domain, masses, lambda nd: 0, nodes=nodes)
    assert "\n" not in str(info.value)
    assert cells == direct == []


def test_a_solve_classifies_once_and_converts_each_coordinate_once(
        count_calls):
    n = 33
    nodes = [(F(i, n - 1), F(j, n - 1)) for i in range(n) for j in range(n)]
    target = TargetMeasure.from_density(UNIT, nodes, 1)
    boundary = {nd: 0.0 for nd in nodes if UNIT.on_boundary(nd)}
    classify = count_calls(realma._Domain, "classify")
    floats = count_calls(Fraction, "__float__")
    result = solve(UNIT, target, boundary, nodes=nodes)
    # one per node coordinate and one per interior target mass (the
    # parent made 11,367: about 5.2 per coordinate)
    assert result.converged and len(classify) == 1
    assert len(floats) <= 2 * n * n + (n - 2) ** 2
    classify.clear()
    result = solve(Interval(0, 1), {(F(1, 3),): 1, (F(1, 2),): F(1, 2)},
                   {(0,): 0, (1,): 1})
    assert result.converged and len(classify) == 1


def test_oracle_matches_exact_measure_on_random_data():
    import random

    rng = random.Random(5)
    dom = box_polygon(-1, 1, -1, 1)
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    inner = [(F(rng.randint(-7, 7), 8), F(rng.randint(-7, 7), 8))
             for _ in range(6)]
    nodes = corners + sorted(set(inner))
    values = [F(1, 2) * (x * x + y * y) + F(rng.randint(-2, 2), 16)
              for x, y in nodes]
    cpl = ConvexPL(dom, nodes, values)
    exact = ma_measure(cpl)
    approx = ma_measure_oracle(cpl, resolution=600)
    for m_exact, m_grid, it in zip(exact.masses, approx, exact.interior):
        if it:
            assert abs(float(m_exact) - float(m_grid)) < 2e-2
