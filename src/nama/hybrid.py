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
the coordinates z_i are formed only for the variables that u reads.  A
chunk's work is two steps: the draws, none of which depends on t, and the
t part, theta_0 and the weights.  A growth fit draws once and redoes only
the t part for each t.

The exact dyadic cell volumes of :func:`pushforward_distance` come from a
closed form in the cell's index sum, so there are p(2^level - 1) + 1
distinct values, each an integer over 2^(level p).
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CheckFailed

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
# samples of one batch: the KS order packs a 41-bit numerator and a 22-bit
# index into one int64.  A depth-1 batch of 2^22 samples and its KS
# distance peak at about 490 MB (2^21 at 265 MB)
MAX_SAMPLES = 1 << 22


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
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient {coeff} is not finite")
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
    """Parse expressions like ``1 + z0 - 2.5e-3*z1^2*z2`` into a MultiPoly.

    Terms split at every ``+`` and ``-`` except the sign of an exponent,
    one right after a digit or point and an ``e`` or ``E``.
    """
    import re

    terms = {}
    cleaned = text.replace(" ", "").replace("**", "^")
    if not cleaned:
        raise ValueError("empty polynomial")
    pieces = re.findall(r"[+-]?(?:[0-9.][eE][+-]|[^+-])+", cleaned)
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
        c0 = abs(u.constant_term())
        if c0 == 0:
            raise ValueError("u must not vanish at the origin")
        # on the chart every |z_i| <= 1, so |u|^2 is at most (sum |c|)^2 and
        # a weight |u|^2 / |u(0)|^2 at most (sum |c| / |u(0)|)^2
        if c0 * c0 == 0:
            raise ValueError(f"|u(0)|^2 = {c0!r}^2 underflows to 0")
        total = sum(abs(c) for c in u.terms.values())
        bound = total / c0
        if not (total * total < math.inf and bound * bound < math.inf):
            raise ValueError(
                f"the weights |u|^2 / |u(0)|^2 may leave the float range: "
                f"sum |c| = {total!r} and |u(0)| = {c0!r}")
        object.__setattr__(self, "u", u)
        ws = self.weights if self.weights is not None else (0,) * len(bs)
        ws = tuple(float(w) for w in ws)
        if len(ws) != len(bs):
            raise ValueError("one damping weight per divisor coordinate")
        if not all(0 <= w < math.inf for w in ws):
            raise ValueError("damping weights must be finite and "
                             "nonnegative")
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


class _Draws:
    """The part of a batch read from its Philox streams: the simplex
    points, the free phases, the sheets and the fiber coordinates.  None
    of it depends on t.  ``thetas[:, 0]`` holds ``sum_{i >= 1} b_i
    theta_i``, from which :meth:`weigh` forms theta_0 at each t."""

    def __init__(self, model, count, seed):
        count = int(count)
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > MAX_SAMPLES:
            raise ValueError(f"count {count} is more than the {MAX_SAMPLES} "
                             f"samples of one batch")
        check_streams(model, count)
        p = model.depth
        self.model, self.count, self.seed = model, count, int(seed)
        self.rows = [slice(start, min(start + _CHUNK, count))
                     for start in range(0, count, _CHUNK)]
        self.numerators = np.empty((count, p + 1), dtype=np.int64)
        self.xs = np.empty((count, p + 1))
        self.thetas = np.empty((count, p + 1))
        self.fiber = np.empty((count, model.fiber_count), dtype=complex)
        self.sheets = np.empty(count, dtype=np.int64) \
            if model.multiplicities[0] > 1 else None
        # z_i is formed only for the variables u reads: divisor coordinates
        # exp(-T x_i + i theta_i) for i <= p, fiber coordinates after them
        used = model.u.variables()
        self.divisors = [i for i in used if i <= p]
        self.fibers = [i for i in used if i > p]
        self.u0 = abs(model.u.constant_term()) ** 2

    def draw(self, k):
        """Fill chunk k's rows from its stream."""
        model = self.model
        bs = np.array(model.multiplicities, dtype=np.int64)
        p, nf = model.depth, model.fiber_count
        rows = self.rows[k]
        num, x = self.numerators[rows], self.xs[rows]
        m = len(num)
        g = _chunk_generator(self.seed, k)

        cuts = g.integers(0, _DYADIC_ONE + 1, size=(m, p), dtype=np.int64)
        cuts.sort(axis=1)
        num[:, :p] = cuts
        num[:, p] = _DYADIC_ONE
        np.subtract(num[:, 1:], cuts, out=num[:, 1:])
        np.divide(num, float(_DYADIC_ONE), out=x)
        x /= bs

        free_thetas = g.uniform(0.0, 2.0 * math.pi, size=(m, p))
        theta = self.thetas[rows]
        theta[:, 0] = free_thetas @ bs[1:].astype(float)
        theta[:, 1:] = free_thetas
        if self.sheets is not None:
            self.sheets[rows] = g.integers(0, model.multiplicities[0],
                                           size=m)

        if nf:
            fib = self.fiber[rows]
            radii = g.uniform(0.0, 1.0, size=(m, nf))
            np.sqrt(radii, out=radii)
            fphase = np.multiply(1j, g.uniform(0.0, 2.0 * math.pi,
                                               size=(m, nf)))
            np.exp(fphase, out=fphase)
            np.multiply(radii, fphase, out=fib)

    def weigh(self, model, weights, k):
        """The t part of chunk k for ``model``, this batch's model at some
        t: theta_0 from arg t, then the weights |u(z)|^2 / |u(0)|^2 into
        ``weights``.  Returns theta_0 and leaves the draws as they were."""
        rows = self.rows[k]
        x, theta, fib = self.xs[rows], self.thetas[rows], self.fiber[rows]
        m = len(x)
        theta0 = cmath.phase(model.t) - theta[:, 0]
        if self.sheets is not None:
            theta0 += 2.0 * math.pi * self.sheets[rows]
        theta0 /= model.multiplicities[0]
        np.remainder(theta0, 2.0 * math.pi, out=theta0)

        # z_i = exp(-T x_i) exp(i theta_i) in place: one complex array per
        # divisor variable that u reads, one real scratch array
        zs = {}
        modulus = np.empty(m)
        for i in self.divisors:
            z = zs[i] = np.multiply(1j, theta[:, i] if i else theta0)
            np.exp(z, out=z)
            np.multiply(x[:, i], -model.log_scale, out=modulus)
            np.exp(modulus, out=modulus)
            z *= modulus
        zs.update((i, fib[:, i - model.depth - 1]) for i in self.fibers)
        w = weights[rows]
        np.abs(model.u.on_columns(zs, (m,)), out=w)
        np.square(w, out=w)
        w /= self.u0
        return theta0


def sample_cy_measure(model, count, seed):
    """Draw ``count`` samples of the local volume measure.

    The simplex point is uniform with respect to the chart Lebesgue measure
    (drawn on a dyadic 2^-40 grid so the constraint sum b_i x_i = 1 is exact
    in integer arithmetic), divisor phases are uniform subject to
    ``sum b_i theta_i = arg t`` with the sheet chosen uniformly, fiber
    coordinates are uniform on the unit disc, and the weight is
    |u(z)|^2 / |u(0)|^2.  Identical inputs give bit-identical batches,
    whatever the number of threads that drew the chunks.  ``count`` lies
    in [1, MAX_SAMPLES].
    """
    draws = _Draws(model, count, seed)
    weights = np.empty(draws.count)

    def chunk(k):
        draws.draw(k)
        draws.thetas[draws.rows[k], 0] = draws.weigh(model, weights, k)

    _run_chunks(chunk, len(draws.rows))
    return SampleBatch(model, draws.seed, draws.count, draws.numerators,
                       draws.xs, draws.thetas, draws.fiber, weights)


# ---------------------------------------------------------------------------
# distance to the uniform measure


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    standard_error: float
    statistic: str
    cells: tuple = ()


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


def _sorted_with_order(keys):
    """``np.sort(keys)`` and ``np.argsort(keys, kind="stable")`` from one
    sort of ``key << b | index``, b the bit length of the largest index:
    the high bits are the sorted keys, the low b bits the order.  Takes at
    most MAX_SAMPLES int64 keys in [0, 2^40], so the packed keys fit in 63
    bits.
    """
    if len(keys) > MAX_SAMPLES or keys.min() < 0 or keys.max() > _DYADIC_ONE:
        raise ValueError(f"the KS order takes at most {MAX_SAMPLES} keys in "
                         f"[0, 2^{_DYADIC_BITS}]")
    b = (len(keys) - 1).bit_length()
    packed = keys << b
    packed |= np.arange(len(keys))
    packed.sort()
    return packed >> b, packed & ((1 << b) - 1)


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
        keys, order = _sorted_with_order(batch.numerators[:, 1])
        d = ks_statistic(keys / float(_DYADIC_ONE), batch.weights[order])
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
    return _volume(batch.model, batch.xs, batch.weights)


def _volume(model, xs, weights):
    a = np.array(model.weights)
    damping = np.exp(-2.0 * model.log_scale * (xs @ a)) if a.any() else 1.0
    return _flat_volume(model) * float(np.mean(weights * damping))


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
    zero damping weights minus one.  The draws do not depend on t: they
    are made once, and for each t only theta_0 and the weights are
    recomputed, so each volume equals ``estimate_volume(model.with_t(t),
    count, seed)`` bit for bit and the fit holds one batch.
    """
    ts = [complex(t) for t in t_values]
    if len(set(abs(t) for t in ts)) < 2:
        raise ValueError("need at least two distinct |t| values")
    variants = [model.with_t(t) for t in ts]
    draws = _Draws(model, count, seed)
    _run_chunks(draws.draw, len(draws.rows))
    weights = np.empty(draws.count)
    logT, logV = [], []
    for variant in variants:
        _run_chunks(functools.partial(draws.weigh, variant, weights),
                    len(draws.rows))
        v = _volume(variant, draws.xs, weights)
        if v == 0:
            raise CheckFailed(f"the volume estimate at T = "
                              f"{variant.log_scale} underflows to 0")
        logT.append(math.log(variant.log_scale))
        logV.append(math.log(v))
    slope = float(np.polyfit(logT, logV, 1)[0])
    return GrowthReport(slope, model.expected_growth_exponent(),
                        tuple(math.exp(u) for u in logT), tuple(
                            math.exp(v) for v in logV))
