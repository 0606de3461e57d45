"""Monte Carlo checks of hybrid-limit statements on local polydisc models.

A local model carries coordinates z_0..z_p tied by ``prod z_i^{b_i} = t``
plus n-p free unit-disc coordinates, a holomorphic factor u as a polynomial
with u(0) != 0, and nonnegative damping exponents a_i (the factor
``prod |z_i|^{2 a_i}`` in the volume form).  In log-polar coordinates
``x_i = log|z_i| / log|t|`` the flat part of the volume form becomes
Lebesgue measure on the simplex ``sum b_i x_i = 1``, so sampling is done
there with importance weights ``|u|^2 / |u(0)|^2``.

Sampling uses a counter-based generator addressed by seed and chunk index
(Philox, Salmon et al., SC'11): identical (model, count, seed) inputs give
bit-identical batches.  The chunks are generated in parallel on threads
(numpy releases the interpreter lock in the draws, the sort and the
ufuncs), and the batch is the same bit for bit for any number of them.
Each chunk writes its rows of the preallocated batch arrays in place, and
the coordinates z_i are formed only for the variables that u reads.

The exact dyadic cell volumes of :func:`pushforward_distance` come from a
closed form in the cell's index sum, so there are p(2^level - 1) + 1
distinct values, each an integer over 2^(level p).
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

_DYADIC_BITS = 40
_DYADIC_ONE = 1 << _DYADIC_BITS
_CHUNK = 1 << 16
_COUNTERS_PER_CHUNK = 1 << 24
# a Philox4x64 counter step yields four 64-bit words
_WORDS_PER_CHUNK = 4 * _COUNTERS_PER_CHUNK
# threads that draw the chunks of one sample_cy_measure call, the caller
# among them.  Each holds about 6 MB of chunk temporaries: a 10^6-sample
# batch at depth 1 to 3 peaks 6-8 MB above its arrays on one thread, 13 MB
# on two, 17-20 MB on four, and 25-53 MB on six to eight
_MAX_WORKERS = 4


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial in variables z_0..z_{nvars-1} with complex
    coefficients, stored as exponent tuple -> coefficient."""

    nvars: int
    terms: dict

    def __post_init__(self):
        cleaned = {}
        for exps, coeff in dict(self.terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError(
                    f"exponent tuple {exps} needs {self.nvars} entries")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = complex(coeff)
            if c != 0:
                cleaned[exps] = cleaned.get(exps, 0) + c
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def constant(cls, nvars, value=1):
        return cls(nvars, {(0,) * nvars: value})

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0j)

    def variables(self):
        """Indices of the variables that occur in some term, ascending."""
        return sorted({i for exps in self.terms
                       for i, e in enumerate(exps) if e})

    def __call__(self, zs):
        """Evaluate on an array of shape (..., nvars)."""
        zs = np.asarray(zs, dtype=complex)
        return self.on_columns({i: zs[..., i] for i in self.variables()},
                               zs.shape[:-1])

    def on_columns(self, columns, shape):
        """Evaluate from ``columns``, a map from each of :meth:`variables`
        to its values as a complex array of ``shape``."""
        out = np.zeros(shape, dtype=complex)
        for exps, coeff in self.terms.items():
            term = np.full(shape, coeff, dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    term = term * columns[i] ** e
            out += term
        return out


def parse_poly(text, nvars):
    """Parse expressions like ``1 + z0 - 2.5*z1^2*z2`` into a MultiPoly."""
    import re

    terms = {}
    cleaned = text.replace(" ", "").replace("**", "^")
    if not cleaned:
        raise ValueError("empty polynomial")
    pieces = re.findall(r"[+-]?[^+-]+", cleaned)
    if "".join(pieces) != cleaned:
        raise ValueError(f"cannot parse polynomial {text!r}")
    for piece in pieces:
        sign = 1.0
        body = piece
        if body[0] in "+-":
            sign = -1.0 if body[0] == "-" else 1.0
            body = body[1:]
        coeff = sign
        exps = [0] * nvars
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"cannot parse term {piece!r}")
            m = re.fullmatch(r"z(\d+)(?:\^(\d+))?", factor)
            if m:
                idx, power = int(m.group(1)), int(m.group(2) or 1)
                if idx >= nvars:
                    raise ValueError(
                        f"variable z{idx} out of range (nvars={nvars})")
                exps[idx] += power
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValueError(f"cannot parse factor {factor!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + coeff
    return MultiPoly(nvars, terms)


@dataclass(frozen=True)
class LocalModel:
    """One polydisc chart of a degenerating family near a depth-p stratum.

    ``multiplicities`` are the exponents b_0..b_p of the divisor coordinates
    in ``prod z_i^{b_i} = t``; ``u`` is the holomorphic factor, a polynomial
    in all n+1 coordinates; ``weights`` are the damping exponents a_0..a_p.
    """

    multiplicities: tuple
    t: complex
    dimension: int
    u: MultiPoly = None
    weights: tuple = None

    def __post_init__(self):
        bs = tuple(int(b) for b in self.multiplicities)
        if not bs or any(b < 1 for b in bs):
            raise ValueError("multiplicities must be integers >= 1")
        object.__setattr__(self, "multiplicities", bs)
        t = complex(self.t)
        if not 0 < abs(t) < 1:
            raise ValueError("t must satisfy 0 < |t| < 1")
        object.__setattr__(self, "t", t)
        n = int(self.dimension)
        if n + 1 < len(bs):
            raise ValueError("more divisor coordinates than dimensions")
        object.__setattr__(self, "dimension", n)
        u = self.u if self.u is not None else MultiPoly.constant(n + 1)
        if u.nvars != n + 1:
            raise ValueError(f"u must be a polynomial in {n + 1} variables")
        if abs(u.constant_term()) == 0:
            raise ValueError("u must not vanish at the origin")
        object.__setattr__(self, "u", u)
        ws = self.weights if self.weights is not None else (0,) * len(bs)
        ws = tuple(float(w) for w in ws)
        if len(ws) != len(bs):
            raise ValueError("one damping weight per divisor coordinate")
        if any(w < 0 for w in ws):
            raise ValueError("damping weights must be nonnegative")
        object.__setattr__(self, "weights", ws)

    @property
    def depth(self):
        """Number p of divisor coordinates minus one."""
        return len(self.multiplicities) - 1

    @property
    def fiber_count(self):
        return self.dimension - self.depth

    @property
    def sheets(self):
        return math.gcd(*self.multiplicities) \
            if len(self.multiplicities) > 1 else self.multiplicities[0]

    @property
    def log_scale(self):
        """T = |log|t||."""
        return -math.log(abs(self.t))

    def with_t(self, t):
        return LocalModel(self.multiplicities, t, self.dimension,
                          self.u, self.weights)

    def expected_growth_exponent(self):
        return sum(1 for w in self.weights if w == 0) - 1


@dataclass(frozen=True)
class SampleBatch:
    """Samples of the volume measure in log-polar chart coordinates.

    ``numerators`` are the dyadic integer coordinates of the simplex point
    (row sums are exactly 2^40), ``xs`` the float coordinates x_i with
    ``sum b_i x_i = 1``, ``thetas`` the divisor phases, ``fiber`` the free
    unit-disc coordinates, ``weights`` the importance weights
    |u|^2 / |u(0)|^2.
    """

    model: LocalModel
    seed: int
    count: int
    numerators: np.ndarray
    xs: np.ndarray
    thetas: np.ndarray
    fiber: np.ndarray
    weights: np.ndarray

    def effective_sample_size(self):
        s = float(self.weights.sum())
        q = float((self.weights ** 2).sum())
        return s * s / q if q > 0 else 0.0

    def mean_weight(self):
        return float(self.weights.mean())

    def chart_sums_exact(self):
        """True when every sample satisfies the simplex relation exactly."""
        return bool((self.numerators.sum(axis=1) == _DYADIC_ONE).all())


def _words_per_sample(model):
    """64-bit words one sample of ``model`` draws from its stream.

    One per simplex cut and per free phase, two per fiber coordinate, and
    at most one for the sheet when b_0 > 1 (32-bit draws).  The bounded
    integer draws redraw on rejection, with probability below 2^-24 for
    the cuts; :func:`check_streams` leaves room for that.
    """
    return 2 * model.depth + 2 * model.fiber_count \
        + (model.multiplicities[0] > 1)


def check_streams(model, count):
    """Raise ValueError when sampling ``count`` points of ``model`` would
    let a chunk's draws run into the next chunk's Philox stream.

    Chunk k starts ``_COUNTERS_PER_CHUNK`` counter steps after chunk k-1;
    a full chunk's words plus one word per sample of headroom for
    rejections must fit in them.  A single chunk cannot overlap.
    """
    words = _CHUNK * _words_per_sample(model)
    if count > _CHUNK and words + _CHUNK > _WORDS_PER_CHUNK:
        raise ValueError(
            f"a chunk of {_CHUNK} samples at depth {model.depth} with "
            f"{model.fiber_count} fiber coordinates draws {words} 64-bit "
            f"words plus {_CHUNK} of headroom, more than the "
            f"{_WORDS_PER_CHUNK} of its random stream; sample at most "
            f"{_CHUNK} points or lower the dimension")


def _chunk_generator(seed, chunk_index):
    bg = np.random.Philox(key=seed)
    if chunk_index:
        bg = bg.advance(chunk_index * _COUNTERS_PER_CHUNK)
    return np.random.Generator(bg)


def _run_chunks(chunk, count):
    """Call ``chunk(k)`` for k in range(count) on W threads, W at most
    ``_MAX_WORKERS`` and the CPUs this process may use, the calling thread
    among them; worker w takes chunks w, w + W, w + 2W, ...  One chunk runs
    inline.  The first exception raised in a chunk re-raises here once
    every helper has been joined; the workers start no chunk after it."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, count, _MAX_WORKERS)
    errors = []

    def work(first):
        try:
            for k in range(first, count, workers):
                if errors:
                    return
                chunk(k)
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=work, args=(w,))
               for w in range(1, workers)]
    for h in helpers:
        h.start()
    work(0)
    for h in helpers:
        h.join()
    if errors:
        raise errors[0]


def sample_cy_measure(model, count, seed):
    """Draw ``count`` samples of the local volume measure.

    The simplex point is uniform with respect to the chart Lebesgue measure
    (drawn on a dyadic 2^-40 grid so the constraint sum b_i x_i = 1 is exact
    in integer arithmetic), divisor phases are uniform subject to
    ``sum b_i theta_i = arg t`` with the sheet chosen uniformly, fiber
    coordinates are uniform on the unit disc, and the weight is
    |u(z)|^2 / |u(0)|^2.  Identical inputs give bit-identical batches,
    whatever the number of threads that drew the chunks.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    check_streams(model, count)
    bs = np.array(model.multiplicities, dtype=np.int64)
    free_bs = bs[1:].astype(float)
    p = model.depth
    nf = model.fiber_count
    T = model.log_scale
    phase_t = cmath.phase(model.t)
    u0 = abs(model.u.constant_term()) ** 2
    # z_i is formed only for the variables u reads: divisor coordinates
    # exp(-T x_i + i theta_i) for i <= p, fiber coordinates after them
    used = model.u.variables()
    divisors = [i for i in used if i <= p]
    fibers = [i for i in used if i > p]

    numerators = np.empty((count, p + 1), dtype=np.int64)
    xs = np.empty((count, p + 1))
    thetas = np.empty((count, p + 1))
    fiber = np.empty((count, nf), dtype=complex)
    weights = np.empty(count)

    def chunk(k):
        start = k * _CHUNK
        stop = min(start + _CHUNK, count)
        m = stop - start
        g = _chunk_generator(seed, k)

        cuts = g.integers(0, _DYADIC_ONE + 1, size=(m, p), dtype=np.int64)
        cuts.sort(axis=1)
        num = numerators[start:stop]
        num[:, :p] = cuts
        num[:, p] = _DYADIC_ONE
        np.subtract(num[:, 1:], cuts, out=num[:, 1:])
        x = xs[start:stop]
        np.divide(num, float(_DYADIC_ONE), out=x)
        x /= bs

        free_thetas = g.uniform(0.0, 2.0 * math.pi, size=(m, p))
        if model.multiplicities[0] > 1:
            sheet = g.integers(0, model.multiplicities[0], size=m)
        else:
            sheet = np.zeros(m, dtype=np.int64)
        theta0 = (phase_t - free_thetas @ free_bs
                  + 2.0 * math.pi * sheet) / bs[0]
        theta = thetas[start:stop]
        np.remainder(theta0, 2.0 * math.pi, out=theta[:, 0])
        theta[:, 1:] = free_thetas

        fib = fiber[start:stop]
        if nf:
            radii = g.uniform(0.0, 1.0, size=(m, nf))
            np.sqrt(radii, out=radii)
            fphase = np.multiply(1j, g.uniform(0.0, 2.0 * math.pi,
                                               size=(m, nf)))
            np.exp(fphase, out=fphase)
            np.multiply(radii, fphase, out=fib)

        # z_i = exp(-T x_i) exp(i theta_i) in place: one complex array per
        # divisor variable that u reads, one real scratch array
        zs = {}
        modulus = np.empty(m)
        for i in divisors:
            z = zs[i] = np.multiply(1j, theta[:, i])
            np.exp(z, out=z)
            np.multiply(x[:, i], -T, out=modulus)
            np.exp(modulus, out=modulus)
            z *= modulus
        zs.update((i, fib[:, i - p - 1]) for i in fibers)
        w = weights[start:stop]
        np.abs(model.u.on_columns(zs, (m,)), out=w)
        np.square(w, out=w)
        w /= u0

    _run_chunks(chunk, -(-count // _CHUNK))
    return SampleBatch(model, int(seed), count, numerators, xs, thetas,
                       fiber, weights)


# ---------------------------------------------------------------------------
# distance to the uniform measure


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    standard_error: float
    statistic: str
    cells: tuple = ()

    def within(self, multiple=3.0):
        return self.distance <= multiple * self.standard_error


def ks_statistic(sorted_points, weights):
    """Weighted Kolmogorov-Smirnov distance to the uniform law on [0, 1]."""
    cum = np.cumsum(weights)
    total = cum[-1]
    upper = np.abs(cum / total - sorted_points)
    lower = np.abs(np.concatenate([[0.0], cum[:-1]]) / total - sorted_points)
    return float(max(upper.max(), lower.max()))


def cell_statistic(empirical, exact):
    """Sup deviation between two discrete mass vectors."""
    emp = np.asarray(empirical, dtype=float)
    exa = np.asarray(exact, dtype=float)
    if emp.shape != exa.shape:
        raise ValueError("mass vectors must have equal length")
    return float(np.abs(emp - exa).max())


def dyadic_cell_volumes(p, level):
    """Exact relative volumes of dyadic cells intersected with the simplex.

    Cells are the boxes of side 2^-level in the free coordinates y_1..y_p,
    the simplex is ``sum y_i <= 1``; volumes are normalized by the simplex
    volume 1/p! and returned as a flat array indexed like ravel of the
    (2^level)^p grid.

    A cell's volume depends only on its index sum s: scaled by k = 2^level
    it is a unit cube cut by ``sum w_i <= k - s``, so its relative volume
    is ``sum_j (-1)^j C(p, j) max(k - s - j, 0)^p / k^p`` in integers.
    """
    k = 1 << level
    by_sum = np.array([
        Fraction(sum((-1) ** j * math.comb(p, j) * max(k - s - j, 0) ** p
                     for j in range(p + 1)), k ** p)
        for s in range(p * (k - 1) + 1)], dtype=object)
    index_sums = sum(np.ix_(*[np.arange(k)] * p), np.zeros((), np.int64))
    return by_sum[index_sums.ravel()]


def dyadic_cells(batch, level):
    """Flat index of the dyadic cell of side 2^-level holding each sample's
    free coordinates y_1..y_p, in ravel order of the (2^level)^p grid."""
    k = 1 << level
    idx = batch.numerators[:, 1:] >> (_DYADIC_BITS - level)
    np.minimum(idx, k - 1, out=idx)
    return np.ravel_multi_index(tuple(idx.T), (k,) * batch.model.depth)


def _stable_order(keys):
    """``np.argsort(keys, kind="stable")`` for an integer array.

    The default sort is several times faster on integers; runs of equal
    keys then get their indices back in ascending order.
    """
    order = np.argsort(keys)
    ranked = keys[order]
    tied = np.zeros(len(keys), dtype=bool)
    equal = ranked[1:] == ranked[:-1]
    tied[1:] |= equal
    tied[:-1] |= equal
    at = np.flatnonzero(tied)
    order[at] = order[at][np.lexsort((order[at], ranked[at]))]
    return order


def pushforward_distance(batch, level=2):
    """Sup-distance between the weighted empirical law of the simplex
    coordinates and the uniform one.

    In one free dimension this is a weighted Kolmogorov-Smirnov statistic;
    in higher dimension it is the sup over a fixed dyadic partition of the
    difference between empirical and exact cell masses.  The reported
    standard error uses the effective sample size of the weights.
    """
    p = batch.model.depth
    neff = batch.effective_sample_size()
    if p == 0:
        return DistanceReport(0.0, 0.0, "point")
    if p == 1:
        order = _stable_order(batch.numerators[:, 1])
        ys = batch.numerators[order, 1] / float(_DYADIC_ONE)
        d = ks_statistic(ys, batch.weights[order])
        return DistanceReport(d, 1.0 / math.sqrt(neff), "ks")
    emp = np.bincount(dyadic_cells(batch, level), weights=batch.weights,
                      minlength=(1 << level) ** p)
    emp = emp / batch.weights.sum()
    exact = dyadic_cell_volumes(p, level).astype(float)
    d = cell_statistic(emp, exact)
    worst = float(np.max(np.sqrt(exact * (1.0 - exact)))) / math.sqrt(neff)
    return DistanceReport(d, worst, "dyadic-cells",
                          cells=tuple(zip(emp.tolist(), exact.tolist())))


# ---------------------------------------------------------------------------
# volume estimates and growth order


def estimate_volume(model, count, seed):
    """Monte Carlo estimate of the local volume integral.

    The flat prefactor integrates the log-polar form exactly; the sample
    mean carries the |u|^2 correction and the ``|z_i|^{2 a_i}`` damping.
    """
    batch = sample_cy_measure(model, count, seed)
    return volume_from_batch(batch)


def _flat_volume(model):
    """2^p (2 pi)^n T^p / (p! prod b_i) |u(0)|^2: the volume for u constant
    and zero damping weights, and the prefactor of every estimate."""
    p = model.depth
    norm = math.factorial(p)
    for b in model.multiplicities:
        norm *= b
    return (2.0 ** p) * (2.0 * math.pi) ** model.dimension \
        * model.log_scale ** p / norm * abs(model.u.constant_term()) ** 2


def volume_from_batch(batch):
    model = batch.model
    a = np.array(model.weights)
    damping = (np.exp(-2.0 * model.log_scale * (batch.xs @ a)) if a.any()
               else 1.0)
    return _flat_volume(model) * float(np.mean(batch.weights * damping))


def exact_flat_volume(model):
    """Closed-form volume for u constant and zero damping weights."""
    if model.u.terms != {(0,) * (model.dimension + 1):
                         model.u.constant_term()}:
        raise ValueError("exact volume needs a constant u")
    if any(model.weights):
        raise ValueError("exact volume needs zero damping weights")
    return _flat_volume(model)


@dataclass(frozen=True)
class GrowthReport:
    exponent: float
    expected: int
    log_scales: tuple
    volumes: tuple

    def within(self, tol=0.1):
        return abs(self.exponent - self.expected) <= tol


def volume_growth_exponent(model, t_values, count=100000, seed=0):
    """Fit the growth order of the local volume in T = |log|t||.

    Estimates the volume for each t, then least-squares fits
    log(volume) against log(T).  The expected exponent is the number of
    zero damping weights minus one.
    """
    ts = [complex(t) for t in t_values]
    if len(set(abs(t) for t in ts)) < 2:
        raise ValueError("need at least two distinct |t| values")
    logT, logV = [], []
    for t in ts:
        variant = model.with_t(t)
        v = estimate_volume(variant, count, seed)
        logT.append(math.log(variant.log_scale))
        logV.append(math.log(v))
    slope = float(np.polyfit(logT, logV, 1)[0])
    return GrowthReport(slope, model.expected_growth_exponent(),
                        tuple(math.exp(u) for u in logT), tuple(
                            math.exp(v) for v in logV))
