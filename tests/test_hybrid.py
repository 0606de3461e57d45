"""Local models, measure sampling and volume growth."""

import math
from fractions import Fraction

import numpy as np
import pytest

from nama import hybrid
from nama import (LocalModel, MultiPoly, dyadic_cell_volumes,
                  estimate_volume, exact_flat_volume, ks_statistic,
                  parse_poly, pushforward_distance, sample_cy_measure,
                  volume_from_batch, volume_growth_exponent)



def maximal_model(n, t_exp=20.0, u=None, weights=None):
    return LocalModel((1,) * (n + 1), math.exp(-t_exp), n, u, weights)


def test_parse_poly_grammar():
    p = parse_poly("1 + z0 - 2.5*z1^2*z2", 3)
    assert p.nvars == 3
    assert p.constant_term() == 1
    z = np.array([[0.0 + 0j, 0.0, 0.0], [1.0, 2.0, 3.0]])
    vals = p(z)
    assert vals[0] == 1
    assert abs(vals[1] - (1 + 1 - 2.5 * 4 * 3)) < 1e-12

    with pytest.raises(ValueError):
        parse_poly("z3", 3)          # variable out of range
    with pytest.raises(ValueError):
        parse_poly("1 + + z0", 2)


def test_multipoly_constant_and_call():
    c = MultiPoly.constant(2)
    assert c.constant_term() == 1
    z = np.zeros((4, 2), dtype=complex)
    assert np.all(c(z) == 1)


def test_local_model_validation():
    with pytest.raises(ValueError):
        LocalModel((1, 0), 0.1, 1)             # nonpositive multiplicity
    with pytest.raises(ValueError):
        LocalModel((1,), 1.5, 1)               # |t| >= 1
    with pytest.raises(ValueError):
        LocalModel((1, 1, 1, 1), 0.1, 2)       # more coordinates than dims
    with pytest.raises(ValueError):
        LocalModel((1, 1), 0.1, 2, parse_poly("z0", 3))   # u(0) = 0
    with pytest.raises(ValueError):
        LocalModel((1, 1), 0.1, 1, None, (0.0,))  # weight count

    m = LocalModel((2, 4), 0.01, 3)
    assert m.depth == 1
    assert m.fiber_count == 2
    assert m.sheets == 2
    assert abs(m.log_scale - math.log(100)) < 1e-12


def test_expected_growth_counts_undamped_directions():
    m = maximal_model(2)
    assert m.expected_growth_exponent() == 2
    damped = LocalModel((1, 1, 1), 0.01, 2, None, (0.0, 1.0, 0.5))
    assert damped.expected_growth_exponent() == 0


def test_sampling_is_deterministic_and_chart_exact():
    m = maximal_model(2, u=parse_poly("1+z0", 3))
    a = sample_cy_measure(m, 3000, seed=11)
    b = sample_cy_measure(m, 3000, seed=11)
    assert np.array_equal(a.numerators, b.numerators)
    assert np.array_equal(a.weights, b.weights)
    assert a.chart_sums_exact()
    c = sample_cy_measure(m, 3000, seed=12)
    assert not np.array_equal(a.numerators, c.numerators)


def test_sampling_is_chunk_stable():
    # Complete chunks are reproduced verbatim inside a longer run, so the
    # prefix covering whole chunks agrees across different sample counts.
    # Within a partially filled final chunk only the radial numerators are
    # shared, because they are drawn before the angles in each chunk.
    chunk = 1 << 16
    m = maximal_model(1)
    short = sample_cy_measure(m, chunk + 4000, seed=4)
    long = sample_cy_measure(m, 2 * chunk + 300, seed=4)
    assert np.array_equal(long.numerators[:chunk + 4000], short.numerators)
    assert np.array_equal(long.thetas[:chunk], short.thetas[:chunk])


def test_sample_coordinates_satisfy_the_chart_relation():
    m = LocalModel((2, 3), math.exp(-25), 2)
    batch = sample_cy_measure(m, 5000, seed=0)
    lhs = batch.xs @ np.array(m.multiplicities, dtype=float)
    assert np.abs(lhs - 1).max() < 1e-12
    assert batch.fiber.shape == (5000, 1)
    assert np.abs(batch.fiber).max() <= 1.0
    assert np.all(batch.weights == 1.0)


def test_ks_statistic_of_a_half_sample():
    pts = np.array([0.0, 0.5])
    w = np.array([1.0, 1.0])
    # empirical cdf jumps to 1/2 at 0 and to 1 at 1/2: sup gap is 1/2
    assert abs(ks_statistic(pts, w) - 0.5) < 1e-12


def test_dyadic_cell_volumes_tile_the_simplex():
    for p in (1, 2, 3):
        for level in (1, 2):
            vols = dyadic_cell_volumes(p, level)
            assert len(vols) == (1 << level) ** p
            # masses are normalized by the simplex volume, so they tile 1
            assert sum(vols) == 1
            assert all(isinstance(v, Fraction) for v in vols)


def test_pushforward_distance_point_case():
    m = LocalModel((1,), 0.01, 1)
    batch = sample_cy_measure(m, 1000, seed=0)
    rep = pushforward_distance(batch)
    assert rep.distance == 0.0
    assert rep.statistic == "point"


def test_pushforward_distance_shrinks_with_t():
    m = maximal_model(2, t_exp=20.0, u=parse_poly("1+z0", 3))
    d20 = pushforward_distance(sample_cy_measure(m, 200000, seed=1))
    d40 = pushforward_distance(
        sample_cy_measure(m.with_t(math.exp(-40.0)), 200000, seed=1))
    assert d40.distance < d20.distance
    assert d20.standard_error > 0


def test_flat_volume_estimator_is_exact_for_trivial_u():
    m = maximal_model(2, t_exp=30.0)
    est = estimate_volume(m, 2000, seed=9)
    exact = exact_flat_volume(m)
    T = 30.0
    assert abs(exact - 2 ** 2 * (2 * math.pi) ** 2 * T ** 2 / 2) < 1e-9
    # u = 1 gives constant weights: the estimate collapses to the exact value
    assert abs(est - exact) < 1e-9 * exact


def test_volume_from_batch_matches_estimate_volume():
    m = maximal_model(1, u=parse_poly("1+0.25*z0", 2))
    batch = sample_cy_measure(m, 20000, seed=3)
    assert volume_from_batch(batch) == estimate_volume(m, 20000, seed=3)


def test_exact_flat_volume_handles_multiplicities():
    m = LocalModel((2, 3), math.exp(-10.0), 2)
    # depth 1, T = 10: 2 (2 pi)^2 T / (2 * 3) times (2 pi)^? fiber factor
    got = exact_flat_volume(m)
    T = 10.0
    expected = 2 * (2 * math.pi) ** 2 * T / 6
    assert abs(got - expected) < 1e-9


def test_growth_exponent_recovers_the_dimension():
    m = maximal_model(2)
    rep = volume_growth_exponent(m, [math.exp(-e) for e in (20, 40, 80)],
                                 count=20000, seed=0)
    assert rep.expected == 2
    assert abs(rep.exponent - 2) < 1e-6    # zero-variance estimator
    assert rep.within(0.1)


def test_growth_exponent_sees_damping():
    damped = LocalModel((1, 1, 1), math.exp(-20.0), 2, None, (0.0, 1.0, 1.0))
    rep = volume_growth_exponent(damped,
                                 [math.exp(-e) for e in (20, 40, 80)],
                                 count=40000, seed=0)
    assert rep.expected == 0
    # the estimator is noisy at this sample size; the point is that the
    # damping pulls the slope far below the undamped dimension value 2
    assert abs(rep.exponent) < 0.5


def test_overlapping_chunk_streams_are_rejected_before_drawing(monkeypatch):
    big = maximal_model(600)
    draws = []
    monkeypatch.setattr(hybrid, "_chunk_generator",
                        lambda *a: draws.append(a))
    with pytest.raises(ValueError, match="random stream"):
        sample_cy_measure(big, 2 * hybrid._CHUNK, 0)
    assert draws == []
    hybrid.check_streams(big, hybrid._CHUNK)        # one chunk cannot overlap
    hybrid.check_streams(maximal_model(500), 10 ** 6)


def test_words_per_sample_bound_the_words_a_chunk_draws(monkeypatch):
    generators = []
    make = hybrid._chunk_generator

    def keep(seed, index):
        generators.append(make(seed, index))
        return generators[-1]

    monkeypatch.setattr(hybrid, "_chunk_generator", keep)
    for model in (LocalModel((2, 1, 3), 0.01, 3),
                  LocalModel((1, 1), 0.01, 1),
                  LocalModel((3,), 0.01, 2)):
        generators.clear()
        sample_cy_measure(model, 1000, 5)
        state = generators[0].bit_generator.state
        used = 4 * int(state["state"]["counter"][0]) \
            - (4 - state["buffer_pos"])
        assert 0 < used <= 1000 * hybrid._words_per_sample(model)
