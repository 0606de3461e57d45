"""Cycle identities, face densities, wall matching and mass audits."""

from fractions import Fraction

import pytest

from nama import (FaceMassTerm, FacePotential, InconsistentDegrees,
                  IntersectionTable, NotAdjacent, ResidueData, TransitionMap,
                  cycle_model, cycle_table, determinant, Divisor, build_model,
                  gradient_matching_residual, lower_face_density,
                  na_pde_residual, total_mass_check, transition_between,
                  vilsmeier_check_1d)

F = Fraction


def segment_model():
    return build_model([Divisor(0), Divisor(1)], [(0,), (1,), (0, 1)],
                       dimension=1, semistable=True)


def segment_table():
    return IntersectionTable(1, [
        (1, {}, (), 2),
        (1, {}, (0,), 1),
        (1, {}, (1,), 1),
        (0, {}, (0, 1), 1),
        (0, {0: 1}, (0,), -1),
        (0, {1: 1}, (0,), 1),
        (0, {0: 1}, (1,), 1),
        (0, {1: 1}, (1,), -1),
    ])


def quad_model():
    """Two triangles glued along the wall (1, 2), n = 2."""
    return build_model(
        [Divisor(i) for i in range(4)],
        [(0,), (1,), (2,), (3,),
         (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
         (0, 1, 2), (1, 2, 3)],
        dimension=2, semistable=True)


def test_cycle_model_and_table_shape():
    model = cycle_model([1, 2, 3])
    assert model.dimension == 1
    assert len(model.divisors) == 3
    assert model.has_face((0, 2))     # the wrap-around edge
    table = cycle_table([1, 2, 3])
    assert table.top_self_intersection() == 6
    assert table.value(0, {1: 1}, (1,)) == -2
    assert table.value(0, {0: 1}, (1,)) == 1
    assert table.value(0, {0: 1}, (2,)) == 1   # cyclic neighbors wrap
    # non-neighbors pair to structural zeros, which are not stored
    five = cycle_table([1] * 5)
    assert len(five) == 4 * 5 + 1
    assert not five.has(0, {3: 1}, (0,))


def test_cycle_model_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle_model([1, 2])


def test_vilsmeier_identity_specific_cycle():
    degrees = [1, 2, 1]
    coeffs = {0: 0, 1: F(1, 2), 2: F(1, 3)}
    rep = vilsmeier_check_1d(cycle_model(degrees), cycle_table(degrees),
                             coeffs)
    assert rep.holds
    assert rep.max_discrepancy == 0
    assert rep.na_masses == (F(11, 6), F(4, 3), F(5, 6))
    assert rep.na_masses == rep.real_masses
    assert rep.total_na == 4


def test_vilsmeier_identity_holds_for_negative_masses_too():
    degrees = [2, 2, 2]
    coeffs = {0: 5, 1: 0, 2: 0}    # steep enough to push a mass negative
    rep = vilsmeier_check_1d(cycle_model(degrees), cycle_table(degrees),
                             coeffs)
    assert rep.holds
    assert min(rep.na_masses) < 0
    assert rep.total_na == 6


def test_vilsmeier_rejects_mismatched_degree_sum():
    degrees = [1, 1, 1]
    table = cycle_table(degrees)
    model = cycle_model([1, 1, 2])   # degree data disagrees with the table
    with pytest.raises(InconsistentDegrees):
        vilsmeier_check_1d(model, table, {0: 0, 1: 0, 2: 0})


def test_determinant_small_matrices():
    assert determinant([]) == 1
    assert determinant([[F(3, 2)]]) == F(3, 2)
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24


def test_lower_face_density_on_a_vertex():
    model = segment_model()
    table = segment_table()
    pot = FacePotential(gradient=lambda x: {0: F(1, 5), 1: F(2, 5)},
                        hessian=lambda x: [])
    density = lower_face_density(model, table, (0,), pot)
    x = model.face((0,)).vertex_point(0)
    # (L - g_0 O(E_0) - g_1 O(E_1)) . E_0 = 1 + 1/5 - 2/5
    assert density(x) == F(4, 5)


def test_lower_face_density_scales_with_the_hessian():
    model = segment_model()
    table = segment_table()
    pot = FacePotential(gradient=lambda x: {0: 0, 1: 0},
                        hessian=lambda x: [[F(3, 7)]])
    density = lower_face_density(model, table, (0, 1), pot)
    face = model.face((0, 1))
    for x in face.grid_points(2):
        # top faces pair through (E_J) = 1, so the density is 1! * det(D2)
        assert density(x) == F(3, 7)


def test_residue_data_normalization_and_uniformity():
    model = segment_model()
    res = ResidueData({(0, 1): F(3)})
    assert res.value((1, 0)) == 3
    assert res.normalization_for(model) == 3
    fixed = ResidueData({(0, 1): 3}, normalization=F(5))
    assert fixed.normalization_for(model) == 5
    with pytest.raises(ValueError):
        ResidueData({(0, 1): 0})


def test_residue_uniformity_enforced_on_semistable_maximal():
    model = build_model([Divisor(i) for i in range(3)],
                        [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)],
                        dimension=1, semistable=True)
    with pytest.raises(ValueError):
        ResidueData({(0, 1): 1, (1, 2): 2, (0, 2): 1}).validate_uniform(model)
    ResidueData({(0, 1): 2, (1, 2): 2, (0, 2): 2}).validate_uniform(model)


def test_na_pde_residual_vanishes_for_the_balanced_hessian():
    model = segment_model()
    table = segment_table()
    pot = FacePotential(gradient=lambda x: {0: 0, 1: 0},
                        hessian=lambda x: [[2]])
    residues = ResidueData({(0, 1): 1})
    residual = na_pde_residual(model, table, (0, 1), pot, residues,
                               table.top_self_intersection())
    assert residual.rhs == 2
    face = model.face((0, 1))
    assert all(residual(x) == 0 for x in face.grid_points(3))

    off = FacePotential(gradient=lambda x: {0: 0, 1: 0},
                        hessian=lambda x: [[1]])
    res2 = na_pde_residual(model, table, (0, 1), off, residues,
                           table.top_self_intersection())
    assert res2(face.barycenter()) == -1


def test_transition_map_is_an_integral_involution():
    t = TransitionMap((2, -1))
    x = (F(1, 3), F(1, 5), F(2, 7))
    y = t.apply(x)
    assert y == (F(-1, 3), F(1, 5) + F(2, 3), F(2, 7) - F(1, 3))
    assert t.apply(y) == x
    m = t.linear_part()
    assert m[0] == [-1, 0, 0] and m[1][0] == 2 and m[2][0] == -1
    with pytest.raises(ValueError):
        TransitionMap((F(1, 2),))


def test_transition_between_reads_the_wall():
    model = quad_model()
    t = transition_between(model, (0, 1, 2), (1, 2, 3), {1: 2})
    assert t.degrees == (2,)
    with pytest.raises(NotAdjacent):
        transition_between(model, (0, 1, 2), (0, 1, 2), {1: 0})
    with pytest.raises(NotAdjacent):
        transition_between(model, (0, 1), (1, 2, 3), {1: 0})


def test_gradient_matching_exact_for_a_transported_quadratic():
    # phi_b = phi_a composed with the wall crossing map: residuals vanish
    d = 2
    t = TransitionMap((d,))
    A = [[F(1), F(0)], [F(0), F(2)]]
    b = [F(0), F(1, 3)]

    def grad_a(x):
        return tuple(sum(A[i][j] * x[j] for j in range(2)) + b[i]
                     for i in range(2))

    def grad_b(y):
        x = t.apply(y)     # involution: pull back to side a coordinates
        ga = grad_a(x)
        return (-ga[0] + d * ga[1], ga[1])

    rep = gradient_matching_residual(grad_a, grad_b, t,
                                     [(F(0),), (F(1, 4),), (F(1, 2),)])
    assert rep.matched
    assert rep.max_residual == 0
    assert all(p == 0 for p in rep.class_pairings)


def test_gradient_matching_detects_a_mismatch():
    t = TransitionMap((1,))

    def grad_a(x):
        return (x[0], x[1])

    def grad_b(y):
        return (y[0], y[1])     # not transported: normal condition fails

    rep = gradient_matching_residual(grad_a, grad_b, t, [(F(1, 2),)])
    assert not rep.matched
    assert rep.normal[0] == F(-1, 2)
    assert rep.class_pairings[0] == F(1, 2)
    assert rep.tangential[0] == (0,)


def test_face_mass_terms_exact_and_quadrature():
    model = segment_model()
    exact = FaceMassTerm.from_constant(model, (0, 1), F(2))
    assert exact.integral == 2

    sampled = FaceMassTerm.from_callable(model, (0, 1), lambda x: 2,
                                         resolution=10)
    assert abs(float(sampled.integral) - 2) < 1e-9

    varying = FaceMassTerm.from_callable(model, (0, 1), lambda x: x[1],
                                         resolution=2000)
    assert abs(float(varying.integral) - 0.5) < 1e-3


def test_total_mass_check_exact_and_approximate():
    model = segment_model()
    terms = [FaceMassTerm.from_constant(model, (0, 1), F(3, 2))]
    rep = total_mass_check(terms, [F(1, 2)], 2)
    assert rep.passed and rep.discrepancy == 0

    bad = total_mass_check(terms, [], 2, tol=1e-9)
    assert not bad.passed
    assert bad.discrepancy == F(-1, 2)
