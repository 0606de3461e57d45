"""Local models, measure sampling and volume growth."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nama import hybrid
from nama import (LocalModel, MultiPoly, box_simplex_volume,
                  dyadic_cell_volumes,
                  estimate_volume, exact_flat_volume, ks_statistic,
                  parse_poly, pushforward_distance, sample_cy_measure,
                  volume_from_batch, volume_growth_exponent)


def maximal_model(n, t_exp=20.0, u=None, weights=None):
    return LocalModel((1,) * (n + 1), math.exp(-t_exp), n, u, weights)


def on_threads(monkeypatch, workers):
    """Let the sampler run its chunks on up to ``workers`` threads, however
    few CPUs this process may use."""
    monkeypatch.setattr(hybrid, "_MAX_WORKERS", workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)


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
    # |u(0)|^2 underflows, |u|^2 or a weight |u|^2 / |u(0)|^2 could overflow
    for terms in ({(0, 0): 1e-170}, {(0, 0): 1e300},
                  {(0, 0): 1, (1, 0): 1e200}, {(0, 0): 1e-160, (0, 1): 1}):
        with pytest.raises(ValueError, match="underflows|float range"):
            LocalModel((1, 1), 0.1, 1, MultiPoly(2, terms))
    LocalModel((1, 1), 0.1, 1, MultiPoly(2, {(0, 0): 1e150, (0, 1): 1e-150}))

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


@pytest.mark.parametrize("model, ts, count", [
    (maximal_model(2, u=parse_poly("1+0.4*z0-0.3*z2^2", 3)),
     [math.exp(-e) for e in (20, 40, 80)], 3000),
    # complex t of different phases, and sheets (b_0 > 1)
    (LocalModel((3, 2, 1), 0.3, 4, parse_poly("1+0.3*z1*z4-0.1*z0^2", 5)),
     [0.3 * np.exp(2.0j), 0.01 * np.exp(-1.0j), -1e-5, 1e-3j], 2000),
    # nonzero damping weights over two chunks and a part
    (LocalModel((1, 1, 1), 0.1, 2, parse_poly("1+z0+z2", 3),
                (0.0, 1.5, 0.25)),
     [0.3, 0.01j, 1e-5], 2 * hybrid._CHUNK + 300),
], ids=["real-t", "phases-and-sheets", "damping-three-chunks"])
def test_growth_volumes_equal_the_per_t_estimates(model, ts, count,
                                                  monkeypatch):
    on_threads(monkeypatch, 2)
    fitted = []
    volume = hybrid._volume
    monkeypatch.setattr(hybrid, "_volume",
                        lambda *args: fitted.append(volume(*args))
                        or fitted[-1])
    rep = volume_growth_exponent(model, ts, count=count, seed=6)
    monkeypatch.setattr(hybrid, "_volume", volume)
    want = [estimate_volume(model.with_t(t), count, 6) for t in ts]
    assert fitted == want
    # the report carries exp(log(volume)), the values the fit used
    assert rep.volumes == tuple(math.exp(math.log(v)) for v in want)


def test_a_count_past_the_cap_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than the 4194304"):
            sample_cy_measure(maximal_model(1), hybrid.MAX_SAMPLES + 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20      # the batch would take about 200 MB


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
    generators = {}
    make = hybrid._chunk_generator

    def keep(seed, index):
        generators[index] = make(seed, index), threading.current_thread()
        return generators[index][0]

    monkeypatch.setattr(hybrid, "_chunk_generator", keep)
    on_threads(monkeypatch, 3)
    chunk = hybrid._CHUNK
    for model in (LocalModel((2, 1, 3), 0.01, 3),
                  LocalModel((1, 1), 0.01, 1),
                  LocalModel((3,), 0.01, 2)):
        for count in (1000, 2 * chunk + 1000):
            generators.clear()
            sample_cy_measure(model, count, 5)
            assert sorted(generators) == list(range(-(-count // chunk)))
            for index, (g, _) in generators.items():
                state = g.bit_generator.state
                steps = int(state["state"]["counter"][0]) \
                    - index * hybrid._COUNTERS_PER_CHUNK
                used = 4 * steps - (4 - state["buffer_pos"])
                m = min(chunk, count - index * chunk)
                assert 0 < used <= m * hybrid._words_per_sample(model)
            threads = {thread for _, thread in generators.values()}
            # one chunk runs inline; three take one thread each
            if count <= chunk:
                assert threads == {threading.main_thread()}
            else:
                assert len(threads) == 3


def test_a_failing_chunk_raises_in_the_caller_after_every_join(monkeypatch):
    make = hybrid._chunk_generator
    failed_on = []

    def fail_at_2(seed, index):
        if index == 2:
            failed_on.append(threading.current_thread())
            raise RuntimeError("chunk 2 failed")
        return make(seed, index)

    monkeypatch.setattr(hybrid, "_chunk_generator", fail_at_2)
    on_threads(monkeypatch, 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 2 failed"):
        sample_cy_measure(maximal_model(1), 5 * hybrid._CHUNK, 0)
    assert threading.active_count() == before
    # worker w takes chunks w, w + 3, ...: chunk 2 failed on a helper
    assert failed_on and failed_on[0] is not threading.main_thread()


def reference_sample(model, count, seed):
    """The sampler as first written: every coordinate of every chunk, z for
    all n + 1 variables, chunk lists joined at the end."""
    bs = np.array(model.multiplicities, dtype=np.int64)
    p, nf, T = model.depth, model.fiber_count, model.log_scale
    one = hybrid._DYADIC_ONE
    u0 = abs(model.u.constant_term()) ** 2
    nums, thetas_all, fibers, weights = [], [], [], []
    for start in range(0, count, hybrid._CHUNK):
        m = min(hybrid._CHUNK, count - start)
        g = hybrid._chunk_generator(seed, start // hybrid._CHUNK)
        cuts = g.integers(0, one + 1, size=(m, p), dtype=np.int64)
        cuts.sort(axis=1)
        padded = np.concatenate(
            [np.zeros((m, 1), dtype=np.int64), cuts,
             np.full((m, 1), one, dtype=np.int64)], axis=1)
        num = np.diff(padded, axis=1)
        free_thetas = g.uniform(0.0, 2.0 * math.pi, size=(m, p))
        if model.multiplicities[0] > 1:
            sheet = g.integers(0, model.multiplicities[0], size=m)
        else:
            sheet = np.zeros(m, dtype=np.int64)
        theta0 = (math.atan2(model.t.imag, model.t.real)
                  - free_thetas @ bs[1:].astype(float)
                  + 2.0 * math.pi * sheet) / bs[0]
        theta = np.concatenate([theta0[:, None] % (2.0 * math.pi),
                                free_thetas], axis=1)
        if nf:
            radii = np.sqrt(g.uniform(0.0, 1.0, size=(m, nf)))
            fphase = g.uniform(0.0, 2.0 * math.pi, size=(m, nf))
            fib = radii * np.exp(1j * fphase)
        else:
            fib = np.zeros((m, 0), dtype=complex)
        x = (num / float(one)) / bs
        zdiv = np.exp(-T * x) * np.exp(1j * theta)
        w = np.abs(model.u(np.concatenate([zdiv, fib], axis=1))) ** 2 / u0
        nums.append(num)
        thetas_all.append(theta)
        fibers.append(fib)
        weights.append(w)
    numerators = np.concatenate(nums)
    return dict(numerators=numerators,
                xs=(numerators / float(one)) / bs,
                thetas=np.concatenate(thetas_all),
                fiber=np.concatenate(fibers),
                weights=np.concatenate(weights))


@pytest.mark.parametrize("model, count", [
    # b_0 > 1: sheet draws, and a divisor variable past z_0 in u
    (LocalModel((3, 2, 1), 0.3 * np.exp(2.0j), 4,
                parse_poly("1+0.3*z1*z4-0.1*z0^2", 5)), 3000),
    (LocalModel((2,), np.exp(-5.0), 2, parse_poly("1+0.5*z1", 3)), 2000),
    (LocalModel((1, 2, 1), np.exp(-7.0), 2, parse_poly("1+z1^2", 3)), 2000),
    (LocalModel((1, 1), np.exp(-9.0), 3, MultiPoly.constant(4, 2.5)), 2000),
    (LocalModel((1, 1), np.exp(-9.0), 3, parse_poly("1-0.7*z3^3", 4)),
     2000),
    (LocalModel((1, 1, 1), np.exp(-4.0), 2, parse_poly("1+z0+z2", 3),
                (0.0, 1.5, 0.25)), 2000),
    (LocalModel((1, 1, 1), np.exp(-30.0), 3, parse_poly("1+0.4*z0-z3^2", 4)),
     hybrid._CHUNK + 300),
    (LocalModel((2, 1), 0.2 * np.exp(1.0j), 2,
                parse_poly("1+0.5*z0-0.3*z1*z2^2", 3)), 3 * hybrid._CHUNK + 17),
], ids=["sheets", "depth-0", "no-fiber", "constant-u", "fiber-only-u",
        "damping", "chunk-plus-300", "three-chunks-plus-17"])
def test_sampler_matches_the_reference_bit_for_bit(model, count, monkeypatch):
    want = reference_sample(model, count, seed=21)
    interval = sys.getswitchinterval()
    threads = threading.active_count()
    for workers in (1, 2, 3):
        on_threads(monkeypatch, workers)
        # hand the interpreter lock between the workers as often as it goes
        sys.setswitchinterval(1e-6)
        try:
            batch = sample_cy_measure(model, count, seed=21)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        for name, value in want.items():
            got = getattr(batch, name)
            assert got.dtype == value.dtype and got.shape == value.shape, \
                (workers, name)
            assert np.array_equal(got, value), (workers, name)


def oracle_cell_volumes(p, level):
    """Per-cell inclusion-exclusion over the box corners."""
    side = Fraction(1, 1 << level)
    k = 1 << level
    return [box_simplex_volume([side] * p, [Fraction(1)] * p,
                               1 - side * sum(idx)) * math.factorial(p)
            for idx in np.ndindex((k,) * p)]


@settings(max_examples=25)
@given(p=st.integers(0, 4), level=st.integers(0, 3), data=st.data())
def test_dyadic_cell_volumes_match_the_corner_oracle(p, level, data):
    vols = dyadic_cell_volumes(p, level)
    assert list(vols) == oracle_cell_volumes(p, level)
    assert all(isinstance(v, Fraction) for v in vols)
    assert sum(vols) == 1
    k = 1 << level
    axes = data.draw(st.permutations(range(p)))
    grid = vols.reshape((k,) * p)
    assert np.array_equal(grid, grid.transpose(axes))


@settings(max_examples=50)
@given(st.lists(st.one_of(st.integers(0, 6),
                          st.sampled_from([0, hybrid._DYADIC_ONE]),
                          st.integers(0, hybrid._DYADIC_ONE)),
                min_size=1, max_size=60))
def test_packed_order_equals_the_stable_argsort(keys):
    keys = np.array(keys, dtype=np.int64)
    got, order = hybrid._sorted_with_order(keys)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(got, np.sort(keys))


@pytest.mark.parametrize("keys", [[-1, 0], [0, hybrid._DYADIC_ONE + 1]])
def test_packed_order_rejects_keys_outside_the_dyadic_range(keys):
    with pytest.raises(ValueError, match="KS order"):
        hybrid._sorted_with_order(np.array(keys, dtype=np.int64))


def test_ks_distance_with_tied_numerators_matches_the_stable_reference():
    m = maximal_model(1, u=parse_poly("1+0.6*z0", 2))
    batch = sample_cy_measure(m, 20000, seed=8)
    rng = np.random.default_rng(0)
    nums = batch.numerators.copy()
    # each copied row repeats a draw with its own weight: many tied keys
    nums[rng.integers(0, 20000, 5000)] = nums[rng.integers(0, 20000, 5000)]
    tied = dataclasses.replace(batch, numerators=nums)
    assert len(np.unique(nums[:, 1])) < 17000
    ys = nums[:, 1:] / float(hybrid._DYADIC_ONE)
    order = np.argsort(ys[:, 0], kind="stable")
    want = hybrid.DistanceReport(
        ks_statistic(ys[order, 0], batch.weights[order]),
        1.0 / math.sqrt(batch.effective_sample_size()), "ks")
    assert pushforward_distance(tied) == want
