"""Hermitian form algebra in logarithmic and fiber coordinates.

A (1,1)-form is represented by its Hermitian coefficient matrix in declared
coordinates, each coordinate tagged as torus-logarithmic (``dlog z``) or
fiber-holomorphic (``dz``).  Every identity checked here is pointwise linear
algebra: restriction to torus fibers, top-power determinants, the Calabi
ordinary differential equation, and the large-scale volume identity of the
block ansatz with base, fiber, and coupling blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveX, NotPositive, NotSymmetric

LOG = "log"
FIBER = "fiber"


@dataclass(frozen=True)
class HermitianForm:
    """A (1,1)-form ``sum H_jk (i/2) dw_j ^ conj(dw_k)``.

    ``tags`` declare each coordinate as torus-logarithmic or
    fiber-holomorphic; ``scale`` records the degeneration scale L used to
    build the form.
    """

    matrix: np.ndarray
    tags: tuple
    scale: float = 1.0

    def __post_init__(self):
        h = np.array(self.matrix, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise DimensionMismatch("coefficient matrix must be square")
        if not np.array_equal(h, h.conj().T):
            raise NotSymmetric("coefficient matrix must be Hermitian")
        tags = tuple(self.tags)
        if len(tags) != h.shape[0]:
            raise DimensionMismatch("one coordinate tag per dimension")
        if any(t not in (LOG, FIBER) for t in tags):
            raise ValueError(f"tags must be {LOG!r} or {FIBER!r}")
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def smallest_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def is_positive(self):
        return self.smallest_eigenvalue() > 0

    def evaluate(self, u, v):
        """The 2-form on two tangent vectors given by complex coefficients.

        A vector with coefficients ``u_j`` is ``sum u_j d/dw_j + conjugate``;
        the result is real.
        """
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        if u.shape != (self.dimension,) or v.shape != (self.dimension,):
            raise DimensionMismatch("vectors must match the form dimension")
        val = 0.5j * (u @ self.matrix @ v.conj()
                      - v @ self.matrix @ u.conj())
        return float(val.real)

    def determinant(self):
        return complex(np.linalg.det(self.matrix))


@dataclass(frozen=True)
class FiberFrame:
    """Tangent basis of a torus fiber at a fixed-modulus base point.

    ``vectors`` holds one basis vector per row, as complex coefficients in
    the same coordinates as the form it will be paired with.
    """

    base_point: tuple
    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=complex)
        if v.ndim != 2:
            raise DimensionMismatch("vectors must form a matrix")
        if np.linalg.matrix_rank(v) < v.shape[0]:
            raise ValueError("frame vectors must be linearly independent")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "base_point", tuple(self.base_point))

    @property
    def rank(self):
        return self.vectors.shape[0]


def standard_torus_frame(n, base_point=None):
    """The angular directions d/dtheta_j, which read ``i`` in log
    coordinates (and in holomorphic coordinates on the unit torus)."""
    base = base_point if base_point is not None else (1.0,) * n
    return FiberFrame(tuple(base), 1j * np.eye(n))


def semiflat_form(hessian, scale):
    """Kaehler form of the flat torus fibration over one face chart.

    The coefficient matrix is the real Hessian divided by ``4 pi L^2`` in
    ``dlog z`` coordinates; it is positive exactly when the Hessian is.
    """
    h = np.array(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch("Hessian must be square")
    if not np.array_equal(h, h.T):
        raise NotSymmetric("Hessian must be symmetric")
    L = float(scale)
    if L <= 0:
        raise ValueError("scale must be positive")
    return HermitianForm(h / (4.0 * math.pi * L * L),
                         (LOG,) * h.shape[0], L)


def fiber_lagrangian_residual(form, frame):
    """Sup of |form(e_i, e_j)| over pairs of fiber frame vectors.

    Vanishes exactly when the fiber is Lagrangian for the form; for any
    form with a real symmetric coefficient matrix and the standard torus
    frame the value is zero up to rounding.
    """
    if frame.vectors.shape[1] != form.dimension:
        raise DimensionMismatch(
            f"frame lives in dimension {frame.vectors.shape[1]}, "
            f"form in {form.dimension}")
    worst = 0.0
    k = frame.rank
    for i in range(k):
        for j in range(i + 1, k):
            worst = max(worst, abs(form.evaluate(frame.vectors[i],
                                                 frame.vectors[j])))
    return worst


@dataclass(frozen=True)
class PhaseReport:
    phase: float
    residual: float


def _normalize_angle(theta):
    out = math.fmod(theta, 2.0 * math.pi)
    if out <= -math.pi:
        out += 2.0 * math.pi
    elif out > math.pi:
        out -= 2.0 * math.pi
    return out


def fiber_phase_residual(n, frame):
    """Calibration phase of the product holomorphic form on a torus fiber.

    Evaluates ``prod_j dlog z_j`` (equivalently ``prod dz_j`` on the unit
    torus) on the frame, returns the angle theta making
    ``e^{i theta} * value`` real, and the worst imaginary part after that
    rotation over all supplied frames.  The expected angle is ``-n pi / 2``
    modulo pi.
    """
    frames = frame if isinstance(frame, (list, tuple)) else [frame]
    if not frames:
        raise ValueError("need at least one frame")
    values = []
    for fr in frames:
        if fr.vectors.shape != (n, n):
            raise DimensionMismatch(f"need an n x n frame for n={n}")
        values.append(complex(np.linalg.det(fr.vectors.T)))
    theta = _normalize_angle(-cmath.phase(values[0]))
    residual = max(abs((cmath.exp(1j * theta) * v).imag) for v in values)
    return PhaseReport(theta, residual)


# ---------------------------------------------------------------------------
# the Calabi ordinary differential equation


@dataclass(frozen=True)
class PotentialTriple:
    """A scalar potential with analytically known first two derivatives."""

    value: object
    first: object
    second: object


def power_law_potential(n):
    """The exact solution x^((n+1)/n), with its invariant constant."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    e = (n + 1) / n
    triple = PotentialTriple(
        lambda x: x ** e,
        lambda x: e * x ** (e - 1.0),
        lambda x: e * (e - 1.0) * x ** (e - 2.0))
    constant = (n + 1) ** n / n ** (n + 1)
    return triple, constant


def _derivative_pair(phi):
    if isinstance(phi, PotentialTriple):
        return phi.first, phi.second
    if isinstance(phi, (list, tuple)) and len(phi) == 3:
        return phi[1], phi[2]
    # black-box scalar function: central finite differences
    def first(x, h=None):
        h = h or (np.finfo(float).eps ** (1.0 / 3.0)) * max(abs(x), 1.0)
        return (phi(x + h) - phi(x - h)) / (2.0 * h)

    def second(x, h=None):
        h = h or (np.finfo(float).eps ** (1.0 / 3.0)) * max(abs(x), 1.0)
        return (phi(x + h) - 2.0 * phi(x) + phi(x - h)) / (h * h)

    return first, second


@dataclass(frozen=True)
class CalabiReport:
    constant: float
    values: tuple
    residual: float
    degenerate: bool


def calabi_ode_residual(n, phi, x_list):
    """Constancy check of ``phi'' * (phi')^(n-1)`` on positive points.

    Returns the value at the first point, all values, the largest deviation
    from the first value, and a degeneracy flag raised when the product is
    identically zero (affine potentials).
    """
    xs = [float(x) for x in x_list]
    if not xs:
        raise ValueError("need at least one evaluation point")
    if any(x <= 0 for x in xs):
        raise NonPositiveX("evaluation points must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    d1, d2 = _derivative_pair(phi)
    values = [float(d2(x)) * float(d1(x)) ** (n - 1) for x in xs]
    c0 = values[0]
    residual = max(abs(v - c0) for v in values)
    degenerate = all(v == 0 for v in values)
    return CalabiReport(c0, tuple(values), residual, degenerate)


# ---------------------------------------------------------------------------
# the block ansatz with base, fiber, and coupling blocks


def generalized_calabi_form(base_hessian, fiber_block, coupling, scale):
    """Block Hermitian form [[P/(4 pi L), B/L], [B*/L, Q]].

    ``base_hessian`` P is real symmetric (torus-log block), ``fiber_block``
    Q is Hermitian (holomorphic fiber block), ``coupling`` B is the
    off-diagonal term suppressed by one power of the scale.
    """
    P = np.array(base_hessian, dtype=float)
    Q = np.array(fiber_block, dtype=complex)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch("base block must be square")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch("fiber block must be square")
    p_tol = 1e-12 * max(1.0, float(np.abs(P).max()) if P.size else 0.0)
    q_tol = 1e-12 * max(1.0, float(np.abs(Q).max()) if Q.size else 0.0)
    if P.size and np.abs(P - P.T).max() > p_tol:
        raise NotSymmetric("base block must be symmetric")
    if Q.size and np.abs(Q - Q.conj().T).max() > q_tol:
        raise NotSymmetric("fiber block must be Hermitian")
    P = 0.5 * (P + P.T)
    Q = 0.5 * (Q + Q.conj().T)
    m, f = P.shape[0], Q.shape[0]
    B = np.array(coupling, dtype=complex)
    if B.size == 0:
        B = np.zeros((m, f), dtype=complex)
    if B.shape != (m, f):
        raise DimensionMismatch(
            f"coupling must have shape ({m}, {f}), got {B.shape}")
    L = float(scale)
    if L <= 0:
        raise ValueError("scale must be positive")
    top = np.concatenate([P / (4.0 * math.pi * L), B / L], axis=1)
    bottom = np.concatenate([B.conj().T / L, Q], axis=1)
    h = np.concatenate([top, bottom], axis=0)
    h = 0.5 * (h + h.conj().T)     # symmetrize away float roundoff
    return HermitianForm(h, (LOG,) * m + (FIBER,) * f, L)


@dataclass(frozen=True)
class VolumeIdentityReport:
    scales: tuple
    relative_errors: tuple
    slope: object
    exact: bool
    limit: float

    def slope_within(self, target=-1.0, tol=0.05):
        if self.exact:
            return True
        return self.slope is not None and abs(self.slope - target) <= tol


def volume_identity_check(base_hessian, fiber_block, coupling, scales):
    """Convergence of ``det H(L) * (4 pi L)^m`` to ``det P * det Q``.

    The coupling enters at order 1/L, so the relative error decays with
    slope -1 in log-log; with zero coupling the identity is exact for
    every scale.
    """
    P = np.array(base_hessian, dtype=float)
    Q = np.array(fiber_block, dtype=complex)
    for name, blk in (("base", P), ("fiber", Q)):
        if blk.size and np.linalg.eigvalsh(blk)[0] <= 0:
            raise NotPositive(f"{name} block must be positive definite")
    limit = float(np.linalg.det(P).real if P.size else 1.0) \
        * float(np.linalg.det(Q).real if Q.size else 1.0)
    m = P.shape[0] if P.ndim == 2 else 0
    Ls = [float(L) for L in scales]
    if not Ls:
        raise ValueError("need at least one scale")
    errors = []
    for L in Ls:
        form = generalized_calabi_form(P, Q, coupling, L)
        scaled = form.determinant().real * (4.0 * math.pi * L) ** m
        errors.append(abs(scaled / limit - 1.0))
    exact = all(e <= 1e-13 for e in errors)
    slope = None
    if not exact and len(Ls) >= 2 and all(e > 0 for e in errors):
        slope = float(np.polyfit(np.log(Ls), np.log(errors), 1)[0])
    return VolumeIdentityReport(tuple(Ls), tuple(errors), slope, exact,
                                limit)


# ---------------------------------------------------------------------------
# real antisymmetric representation and Pfaffian cross-check


def real_antisymmetric_representation(form):
    """The 2-form as a real antisymmetric matrix in the interleaved basis
    (Re w_1, Im w_1, Re w_2, Im w_2, ...), so its Pfaffian equals det of
    the coefficient matrix."""
    h = form.matrix
    S = h.real
    A = h.imag
    n = form.dimension
    top = np.concatenate([-A, S], axis=1)
    bottom = np.concatenate([-S, -A], axis=1)
    block = np.concatenate([top, bottom], axis=0)
    perm = [j + k * n for j in range(n) for k in (0, 1)]
    return block[np.ix_(perm, perm)]


def pfaffian(matrix):
    """Pfaffian of a real antisymmetric matrix by Parlett-Reid elimination.

    Each step swaps the largest entry below the diagonal of column ``k``
    into row ``k + 1`` (rows and columns together, which flips the sign) and
    eliminates with the Gauss transform that keeps the trailing block
    antisymmetric; the Pfaffian is the product of the pivots ``A[k, k+1]``
    (Wimmer, ACM TOMS 38, 2012, algorithm 1).  O(k^3).
    """
    m = np.array(matrix, dtype=float)
    k = m.shape[0]
    if m.shape != (k, k) or not np.allclose(m, -m.T, atol=1e-12):
        raise ValueError("matrix must be square antisymmetric")
    if k % 2 == 1:
        return 0.0
    pf = 1.0
    for c in range(0, k - 1, 2):
        p = c + 1 + int(np.argmax(np.abs(m[c + 1:, c])))
        if p != c + 1:
            m[[c + 1, p], :] = m[[p, c + 1], :]
            m[:, [c + 1, p]] = m[:, [p, c + 1]]
            pf = -pf
        if m[c + 1, c] == 0.0:
            return 0.0
        pf *= m[c, c + 1]
        if c + 2 < k:
            tau = m[c, c + 2:] / m[c, c + 1]
            col = m[c + 2:, c + 1]
            m[c + 2:, c + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)
