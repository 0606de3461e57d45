"""Cross-checks tying intersection-theoretic masses to convex-analytic ones.

The central objects are densities of the form

    p! * det(Hessian) * (class(gradient)^(n-p) . E_J)

on a p-dimensional face: a real Monge-Ampere determinant corrected by an
intersection number that is polynomial in the gradient.  The module provides
the one-dimensional cycle identity (where both sides are elementary and must
agree exactly), the face density and PDE residual evaluators, gradient
matching across adjacent top faces, and a total-mass audit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InconsistentDegrees, NotAdjacent
from .measures import exact_sum
from .potential import IntersectionTable, model_function, na_ma_model_metric, \
    stratum_class
from .realma import discrete_slope_jumps
from .skeleton import Divisor, as_fraction, build_model


# ---------------------------------------------------------------------------
# cycle models (degenerations of an elliptic curve into a cycle of lines)


def cycle_model(degrees):
    """The cycle of N rational curves as a one-dimensional model.

    Vertex i carries the degree ``degrees[i]`` of the polarization on the
    i-th component; edges join cyclically adjacent vertices.  Needs N >= 3
    so that the edge set is simplicial.
    """
    ds = [as_fraction(d) for d in degrees]
    N = len(ds)
    if N < 3:
        raise ValueError("a simplicial cycle needs at least 3 components")
    divisors = [Divisor(i, 1, 0, degree=d) for i, d in enumerate(ds)]
    faces = [[i] for i in range(N)]
    faces += [sorted((i, (i + 1) % N)) for i in range(N)]
    return build_model(divisors, faces, dimension=1, semistable=True)


def cycle_table(degrees):
    """Intersection numbers of the cycle: self-intersection -2, neighbors 1.

    Stores the 4N + 1 on-face entries: the fibre total (L) = sum of
    degrees, (L . E_i) = degrees[i], and the pairings (E_j . E_i) for j = i
    and its two neighbors.  The other N^2 - 3N pairings are structural
    zeros, neither stored nor read (see :class:`IntersectionTable`).
    """
    ds = [as_fraction(d) for d in degrees]
    N = len(ds)
    if N < 3:
        raise ValueError("a simplicial cycle needs at least 3 components")
    table = IntersectionTable(1)
    table.insert((1, (), ()), exact_sum(ds))
    self_pairing, neighbour = Fraction(-2), Fraction(1)
    for i in range(N):      # keys in canonical form, as the table keeps them
        table.insert((1, (), (i,)), ds[i])
        table.insert((0, ((i, 1),), (i,)), self_pairing)
        table.insert((0, (((i + 1) % N, 1),), (i,)), neighbour)
        table.insert((0, (((i - 1) % N, 1),), (i,)), neighbour)
    return table


@dataclass(frozen=True)
class CycleComparison:
    """Both sides of the one-dimensional comparison, exactly."""

    vertex_order: tuple
    na_masses: tuple
    real_masses: tuple
    degrees: tuple
    max_discrepancy: Fraction
    total_na: Fraction
    total_real: Fraction

    @property
    def holds(self):
        return self.max_discrepancy == 0


def vilsmeier_check_1d(model, table, coefficients):
    """Check that the atomic masses of a model metric on a cycle equal the
    discrete real Monge-Ampere masses of its potential.

    The intersection-theory side is ``b_i (L'. E_i)`` expanded through the
    table.  The convex-analysis side evaluates the potential at the cycle's
    vertices, unrolls the cycle into a line with unit edge lengths, and adds
    the slope jumps of the reference metric (the per-vertex degrees) to the
    second differences.  Both sides are exact rationals and the discrepancy
    must be zero.

    Raises
    ------
    InconsistentDegrees
        If the per-vertex degrees do not add up to the stored total (L).
    """
    if model.dimension != 1:
        raise ValueError("the cycle identity is one-dimensional")
    divisors = sorted(model.divisors, key=lambda d: d.id)
    if any(d.degree is None for d in divisors):
        raise ValueError("every divisor needs a polarization degree")
    degrees = [d.degree for d in divisors]
    total = table.top_self_intersection()
    if exact_sum([b.multiplicity * d
                  for b, d in zip(divisors, degrees)]) != total:
        raise InconsistentDegrees(
            f"sum of degrees {sum(degrees)} != stored total {total}")

    na = na_ma_model_metric(model, table, coefficients)
    order = [d.id for d in divisors]
    na_masses = [na.mass_of(i) for i in order]

    # convex-analysis side: vertex values of the potential, cycle unrolled
    pot = model_function(model, coefficients)
    vals = []
    for d in divisors:
        face = model.face((d.id,))
        vals.append(pot.value(face, face.vertex_point(d.id)))
    N = len(vals)
    xs = [Fraction(k) for k in range(-1, N + 1)]
    unrolled = [vals[-1]] + vals + [vals[0]]
    jumps = discrete_slope_jumps(xs, unrolled)
    real_masses = [d + j for d, j in zip(degrees, jumps)]

    diffs = [abs(a - b) for a, b in zip(na_masses, real_masses)]
    return CycleComparison(tuple(order), tuple(na_masses),
                           tuple(real_masses), tuple(degrees),
                           max(diffs), exact_sum(na_masses),
                           exact_sum(real_masses))


# ---------------------------------------------------------------------------
# face densities and the PDE residual


def determinant(matrix):
    """Determinant by Bareiss fraction-free elimination (Bareiss 1968).

    Rational entries (ints, Fractions) are eliminated as Fractions, where
    every Bareiss quotient is exact, so the result is the exact
    determinant; float entries run the same elimination in floats.  Rows
    are pivoted on the largest entry of the column.
    """
    rows = [list(r) for r in matrix]
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise ValueError("square matrix required")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if all(isinstance(v, numbers.Rational) for r in rows for v in r):
        rows = [[Fraction(v) for v in r] for r in rows]
    sign, prev = 1, 1
    for c in range(k - 1):
        p = max(range(c, k), key=lambda r: abs(rows[r][c]))
        if not rows[p][c]:
            return rows[p][c]
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        piv, top = rows[c][c], rows[c]
        for row in rows[c + 1:]:
            lead = row[c]
            for j in range(c + 1, k):
                row[j] = (row[j] * piv - lead * top[j]) / prev
        prev = piv
    return sign * rows[k - 1][k - 1]


@dataclass(frozen=True)
class FacePotential:
    """A twice-differentiable potential on one face chart.

    ``gradient(x)`` returns a mapping from divisor id to the partial
    derivative of the overparametrized potential (entries required for every
    divisor meeting the stratum); ``hessian(x)`` returns the square Hessian
    matrix over the face's free coordinates.
    """

    gradient: object
    hessian: object


def lower_face_density(model, table, index_set, potential):
    """Density of the intersection-corrected Monge-Ampere measure on a face.

    Returns the function

        x -> p! * det(hessian(x)) * (class(gradient(x))^(n-p) . E_J)

    per unit volume in the face's free coordinates.  Negative pairings are
    returned as they are; they diagnose a gradient leaving the nef region.
    """
    J = tuple(sorted(index_set))
    face = model.face(J)
    p = face.dim

    def density(x):
        pairing = stratum_class(model, table, potential.gradient(x), J)
        hess = potential.hessian(x)
        return math.factorial(p) * determinant(hess) * pairing.pairing

    return density


@dataclass(frozen=True)
class ResidueData:
    """Per-face volume weights of the limit measure, plus a normalization.

    ``entries`` maps face index sets to positive weights (the volume of the
    holomorphic residue form on the corresponding stratum).  When the
    normalization is not given explicitly it is the total mass
    ``sum entries[J] * chart_volume(J)``, which makes the weighted Lebesgue
    measure a probability measure.
    """

    entries: dict
    normalization: object = None

    def __post_init__(self):
        cleaned = {tuple(sorted(k)): as_fraction(v) if isinstance(
            v, (int, Fraction, str)) else float(v)
            for k, v in dict(self.entries).items()}
        if any(v <= 0 for v in cleaned.values()):
            raise ValueError("residue weights must be positive")
        object.__setattr__(self, "entries", cleaned)

    def value(self, index_set):
        key = tuple(sorted(index_set))
        if key not in self.entries:
            raise KeyError(f"no residue weight for face {key}")
        return self.entries[key]

    def normalization_for(self, model):
        if self.normalization is not None:
            return self.normalization
        total = 0
        for key, v in sorted(self.entries.items()):
            total = total + v * model.face(key).chart_volume()
        return total

    def validate_uniform(self, model):
        """In the semistable maximal case all weights must coincide."""
        from .skeleton import essential_skeleton

        if not model.semistable:
            return
        sk = essential_skeleton(model)
        if not sk.is_maximal:
            return
        vals = set(self.entries.values())
        if len(vals) > 1:
            raise ValueError(
                "semistable maximal degeneration requires equal residue "
                f"weights, got {sorted(vals)}")


def na_pde_residual(model, table, index_set, potential, residues,
                    top_intersection):
    """Pointwise residual of the second-order equation on one skeleton face.

    Returns the function

        x -> det(hessian) * pairing(gradient) - T/m! * res_J / Z

    with T the top self-intersection, m the face dimension, and Z the
    residue normalization.  Zero residual at x means the equation holds
    there.
    """
    J = tuple(sorted(index_set))
    face = model.face(J)
    m = face.dim
    residues.validate_uniform(model)
    rhs = (as_fraction(top_intersection) * residues.value(J)
           / (math.factorial(m) * residues.normalization_for(model)))

    def residual(x):
        pairing = stratum_class(model, table, potential.gradient(x), J)
        hess = potential.hessian(x)
        return determinant(hess) * pairing.pairing - rhs

    residual.rhs = rhs
    return residual


# ---------------------------------------------------------------------------
# gradient matching across a wall


@dataclass(frozen=True)
class TransitionMap:
    """Integral affine identification of two top-face charts across a wall.

    Coordinates on either side are ``(x0, x1, ..., x_{n-1})`` with ``x0``
    normal to the wall.  The map sends

        x0' = -x0,    xi' = xi + degrees[i-1] * x0,

    and composed with itself gives the identity.
    """

    degrees: tuple

    def __post_init__(self):
        ds = tuple(as_fraction(d) for d in self.degrees)
        if any(d.denominator != 1 for d in ds):
            raise ValueError("transition degrees must be integers")
        object.__setattr__(self, "degrees", ds)

    @property
    def dim(self):
        return len(self.degrees) + 1

    def apply(self, x):
        x = tuple(x)
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        return (-x[0],) + tuple(xi + d * x[0]
                                for xi, d in zip(x[1:], self.degrees))

    def linear_part(self):
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = -1
        for i in range(1, n):
            rows[i][0] = int(self.degrees[i - 1])
            rows[i][i] = 1
        return rows


def transition_between(model, face_a, face_b, degrees):
    """Build the wall-crossing map between two adjacent top faces.

    ``degrees`` maps wall divisor ids to their transition integers; the last
    wall divisor (sorted by id) is the eliminated coordinate and needs no
    entry.  Raises NotAdjacent unless both faces are top-dimensional and
    share a codimension-one wall that is itself a face.
    """
    A = tuple(sorted(face_a))
    B = tuple(sorted(face_b))
    n = model.dimension
    fa, fb = model.face(A), model.face(B)
    if fa.dim != n or fb.dim != n:
        raise NotAdjacent("both faces must be top-dimensional")
    wall = tuple(sorted(set(A) & set(B)))
    if len(wall) != n or not model.has_face(wall):
        raise NotAdjacent(
            f"faces {A} and {B} do not share a codimension-one wall")
    tangential = wall[:-1]
    degrees = dict(degrees)
    missing = [i for i in tangential if i not in degrees]
    if missing:
        raise ValueError(f"transition degrees missing for divisors {missing}")
    return TransitionMap(tuple(degrees[i] for i in tangential))


@dataclass(frozen=True)
class MatchingReport:
    """Residuals of the gradient matching conditions at wall points."""

    points: tuple
    tangential: tuple        # per point: (n-1)-tuple of residuals
    normal: tuple            # per point: scalar residual
    class_pairings: tuple    # per point: the wall pairing (zero iff matched)
    max_residual: object

    @property
    def matched(self):
        return self.max_residual == 0


def gradient_matching_residual(grad_a, grad_b, transition, wall_points):
    """Residuals of gradient continuity across a wall between two top faces.

    ``grad_a`` and ``grad_b`` evaluate the full gradient tuple
    ``(d/dx0, ..., d/dx_{n-1})`` in each side's own coordinates; wall points
    are tangential tuples ``(x1, ..., x_{n-1})`` (the normal coordinate is 0
    on the wall, where both charts agree).  The tangential conditions say
    the derivatives along the wall match; the normal condition

        d phi'/dx0' + d phi/dx0 - sum_i degrees[i] * d phi/dx_i = 0

    is the vanishing of the wall class pairing, which is also returned.
    """
    n = transition.dim
    pts, tang, norm, pairings = [], [], [], []
    worst = 0
    for w in wall_points:
        w = tuple(w)
        if len(w) != n - 1:
            raise ValueError(f"wall points need {n - 1} coordinates")
        x = (0,) + w
        ga = tuple(grad_a(x))
        gb = tuple(grad_b(transition.apply(x)))
        if len(ga) != n or len(gb) != n:
            raise ValueError("gradients must have one entry per coordinate")
        t = tuple(gb[i] - ga[i] for i in range(1, n))
        drift = sum(d * ga[i]
                    for i, d in zip(range(1, n), transition.degrees))
        nr = gb[0] + ga[0] - drift
        pts.append(w)
        tang.append(t)
        norm.append(nr)
        pairings.append(-nr)
        worst = max(worst, max((abs(v) for v in t), default=0), abs(nr))
    return MatchingReport(tuple(pts), tuple(tang), tuple(norm),
                          tuple(pairings), worst)


# ---------------------------------------------------------------------------
# total mass audit


@dataclass(frozen=True)
class FaceMassTerm:
    """One face's contribution to the total measure."""

    face_key: tuple
    integral: object

    @classmethod
    def from_constant(cls, model, index_set, density):
        key = tuple(sorted(index_set))
        vol = model.face(key).chart_volume()
        d = as_fraction(density) if isinstance(
            density, (int, str, Fraction)) else float(density)
        return cls(key, d * vol)

    @classmethod
    def from_callable(cls, model, index_set, fn, resolution=64):
        """Riemann sum of a density over the face chart (float).

        Cells are uniform in the scaled coordinates b_i x_i; centers outside
        the simplex are skipped.  Accuracy is O(1/resolution) for bounded
        densities; build ``FaceMassTerm(key, integral)`` from an exact
        integral when one is known.
        """
        key = tuple(sorted(index_set))
        face = model.face(key)
        free = face.free_indices
        if not free:
            return cls(key, float(fn(face.vertex_point(key[0]))))
        import itertools
        h = 1.0 / resolution
        total = 0.0
        cellvol = 1.0
        for i in free:
            cellvol *= h / face.multiplicity_of(i)
        for ks in itertools.product(range(resolution), repeat=len(free)):
            ys = [(k + 0.5) * h for k in ks]
            if sum(ys) >= 1.0:
                continue
            pt = {i: y / face.multiplicity_of(i) for i, y in zip(free, ys)}
            full = face.complete(pt)
            total += float(fn(full)) * cellvol
        return cls(key, total)


@dataclass(frozen=True)
class MassCheckReport:
    total: object
    expected: object
    discrepancy: object
    tolerance: float
    passed: bool


def total_mass_check(face_terms, atomic_masses, top_intersection, tol=1e-8):
    """Audit that face integrals plus atomic masses exhaust the total mass.

    ``face_terms`` is an iterable of FaceMassTerm; ``atomic_masses`` is an
    AtomicMeasure or an iterable of masses.  Exact inputs stay exact, so a
    rational-mode pass reports discrepancy identically zero.
    """
    total = 0
    for term in face_terms:
        total = total + term.integral
    masses = getattr(atomic_masses, "masses", atomic_masses)
    for m in masses:
        total = total + m
    expected = top_intersection
    disc = total - expected
    passed = abs(disc) <= tol if not isinstance(disc, Fraction) \
        else abs(disc) <= as_fraction(tol) if disc else True
    return MassCheckReport(total, expected, disc, tol, passed)
