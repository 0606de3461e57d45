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
    with pytest.raises(ValueError):
        ConvexPL(iv, [(0,), (1,)], [0])            # value count
    with pytest.raises(ValueError):
        ConvexPL(iv, [(0,), (0,), (1,)], [0, 0, 0])  # duplicate node
    with pytest.raises(ValueError):
        ConvexPL(iv, [(0,), (2,)], [0, 0])         # outside the domain
    with pytest.raises(ValueError):
        ConvexPL(iv, [(0,), (F(1, 2),)], [0, 0])   # missing domain vertex


def test_discrete_slope_jumps_second_difference():
    jumps = discrete_slope_jumps([0, F(1, 2), 1], [0, F(-1, 8), 0])
    assert jumps == [F(1, 2)]
    # a non-convex profile reports a negative jump; no envelope is taken
    assert discrete_slope_jumps([0, 1, 2], [0, 1, 0]) == [-2]
    with pytest.raises(ValueError):
        discrete_slope_jumps([0, 0, 1], [0, 0, 0])


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
    for v, exact in zip(got.solution.values, want.solution.values):
        assert abs(v - float(exact)) <= 1e-12 * abs(float(exact))
    assert got.masses[1:-1] == tuple(discrete_slope_jumps(
        xs, got.solution.values))


def test_solve_default_nodes_come_from_target_and_boundary():
    dom = Interval(0, 1)
    nodes = [(F(k, 4),) for k in range(5)]
    target = TargetMeasure.from_density(dom, nodes, 2)
    result = solve(dom, target, {(F(0),): F(0), (F(1),): F(0)})
    assert sorted(result.solution.nodes) == sorted(nodes)
    assert result.converged


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


def test_a_33_by_33_solve_takes_at_most_30_cell_evaluations(exp_solves):
    assert exp_solves[33][0].iterations <= 30


def test_solve_with_zero_tolerance_stops_with_its_last_iterate():
    result, target, sup = exp_solve(5, tol=0.0)
    assert result.iterations <= 40
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
