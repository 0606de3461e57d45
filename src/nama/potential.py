"""Piecewise-affine potentials of model metrics and their atomic measures.

The non-archimedean Monge-Ampere measure of a model metric is supported on
the divisorial points of the central fibre: twisting a polarization L by a
vertical divisor ``sum c_i E_i`` puts mass ``b_i (L'^n . E_i)`` at the vertex
of ``E_i``, where the intersection numbers come from a user-supplied table
and the twisted powers expand multilinearly.  All mass computations are exact
in rational arithmetic, carried on Python ints with one reduced Fraction
built per mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (EmptySections, MassMismatch, MissingTableEntry)
from .measures import AtomicMeasure
from .skeleton import as_fraction, monomial_valuation


@dataclass(frozen=True)
class AffinePiece:
    """An affine function ``constant + sum coeffs[i] * x_i`` on a face chart."""

    constant: Fraction
    coeffs: tuple   # sorted ((divisor id, coefficient), ...)

    def __call__(self, x):
        return self.constant + sum(c * x[i] for i, c in self.coeffs)


def affine_piece(constant, coeffs):
    return AffinePiece(as_fraction(constant),
                       tuple(sorted((i, as_fraction(c))
                                    for i, c in dict(coeffs).items())))


@dataclass(frozen=True, eq=False)
class PLPotential:
    """Per-face maxima of finitely many affine functions.

    ``pieces`` maps a face index set to the tuple of its affine pieces; the
    value on that face is their pointwise maximum, so every restriction is
    convex by construction.  Continuity across shared subfaces holds whenever
    the pieces agree there; see :func:`check_continuity`.
    """

    pieces: dict

    def value(self, face, x):
        ps = self.pieces[tuple(sorted(face.index_set))]
        return max(p(x) for p in ps)


def model_function(model, coefficients):
    """The potential of the vertical twist ``D = sum c_i E_i``.

    On the face J it restricts to ``sum_{i in J} c_i x_i`` (the sign
    convention is fixed so that the twist by the central fibre itself, c = b,
    gives the constant function 1).
    """
    c = {i: as_fraction(v) for i, v in dict(coefficients).items()}
    zero = Fraction(0)
    # index sets are sorted, so each piece is in affine_piece's form already
    return PLPotential({f.index_set: (AffinePiece(zero, tuple(
        (i, c.get(i, zero)) for i in f.index_set)),) for f in model.faces})


class IntersectionTable:
    """User-supplied intersection numbers ``(L^a . prod O(E_i)^{k_i} . E_J)``.

    Entries are keyed by the power ``a`` of the polarization, a multi-index of
    divisor powers and the stratum index set J.  The dimension rule is
    ``a + sum k_i + |J| - 1 = n``; an empty stratum denotes intersection
    against the fibre class and obeys ``a + sum k_i = n`` (in particular the
    top self-intersection (L^n) is the entry with empty stratum and a = n).

    The table is symmetric by construction: keys are canonical, made so
    by :meth:`add` or built so by the caller of :meth:`insert`.  Entries
    off the face lattice of the model are structural zeros: when the
    divisors of the powers together with the stratum do not span a face,
    the intersection is empty and the number vanishes.  They are never
    required and never read, may be supplied as zeros, and a supplied
    *nonzero* off-face entry is an inconsistent table, rejected by
    :meth:`check_faces`.  A generated table stores none of them: the
    N-cycle's :func:`~nama.comparison.cycle_table` holds its 4N + 1
    on-face entries, not the N^2 + N + 1 of the full matrix.  Only nonzero
    entries are indexed (per stratum), so that check costs O(nonzero
    entries).

    Linearity relations ``sum_i b_i (.. O(E_i) ..) = 0`` coming from the
    triviality of the central-fibre bundle are validated opportunistically by
    :meth:`check_relations`: relations whose entries are incomplete are
    counted as unchecked rather than failed.
    """

    def __init__(self, dimension, entries=()):
        self.dimension = dimension
        self._entries = {}
        self._nonzero = {}      # stratum -> keys of its nonzero entries
        for (a, powers, stratum, value) in entries:
            self.add(a, powers, stratum, value)

    def add(self, a, powers, stratum, value):
        """:meth:`insert` of an entry in any form: powers as a mapping or
        pairs, the stratum in any order."""
        self.insert(_table_key(a, powers, stratum), as_fraction(value))

    def insert(self, key, value):
        """Store the Fraction ``value`` under a canonical ``key`` (int
        power, int ``(id, power)`` pairs by id with nonzero powers, sorted
        stratum): check the dimension rule, reject a conflicting duplicate,
        skip an identical one, and index a nonzero value."""
        a, powers, stratum = key
        total, negative = a, a < 0
        for _, k in powers:
            total += k
            negative = negative or k < 0
        if negative:
            raise ValueError("negative powers in table entry")
        expected = self.dimension if not stratum \
            else self.dimension - (len(stratum) - 1)
        if total != expected:
            raise ValueError(
                f"entry {key}: total degree {total} != {expected} "
                "(dimension rule)")
        if key in self._entries:
            if self._entries[key] != value:
                raise ValueError(f"conflicting values for entry {key}")
            return
        self._entries[key] = value
        if value:
            support = set(stratum).union(i for i, _ in powers)
            self._nonzero.setdefault(stratum, []).append((key, support))

    def check_faces(self, model, strata=None):
        """Reject nonzero entries off the face lattice of ``model``.

        An entry lies off the lattice when its stratum together with the
        divisors of its powers is not a face.  Only the nonzero entries of
        the given strata (all strata when None) are visited.

        Raises
        ------
        ValueError
            Naming the first offending entry.
        """
        groups = self._nonzero.values() if strata is None else \
            (self._nonzero.get(tuple(sorted(J)), ()) for J in strata)
        for entries in groups:
            for key, support in entries:
                if support and not model.has_face(support):
                    raise ValueError(
                        f"entry {key} has value {self._entries[key]} but "
                        f"{tuple(sorted(support))} is not a face of the "
                        "model; off-face intersection numbers vanish")

    def has(self, a, powers, stratum):
        return _table_key(a, powers, stratum) in self._entries

    def __len__(self):
        return len(self._entries)

    def value(self, a, powers, stratum):
        try:        # a canonical key costs one probe
            return self._entries[a, powers, stratum]
        except (KeyError, TypeError):
            key = _table_key(a, powers, stratum)
        if key not in self._entries:
            raise MissingTableEntry(
                f"intersection number for L^{key[0]}, powers {key[1]}, "
                f"stratum {key[2]} not supplied")
        return self._entries[key]

    def top_self_intersection(self):
        """(L^n): the entry with empty stratum and no divisor powers."""
        return self.value(self.dimension, {}, ())

    def entries(self):
        return dict(self._entries)

    def check_relations(self, model):
        """Validate ``sum_i b_i (base . O(E_i)) = 0`` where entries allow.

        The bases are the entries with one divisor power lowered.  A bumped
        entry off the face lattice is a structural zero, so only the
        divisors ``d`` with ``{d} u support`` a face are visited: the
        support itself and the neighbours of one of its divisors.  A base
        whose support is not a face has only zero terms and is skipped; one
        with a missing on-face entry is counted as unchecked.

        Returns ``(checked, violations, unchecked)`` where ``violations`` is
        a list of offending base keys.
        """
        checked, unchecked, violations = 0, 0, []
        bases = set()
        for (a, powers, stratum) in self._entries:
            for i, _ in powers:     # lower the power of i by one
                key = tuple((j, kk - (j == i)) for j, kk in powers
                            if j != i or kk > 1)
                bases.add((a, key, stratum))
        multiplicity = {d.id: d.multiplicity for d in model.divisors}
        neighbours = model.neighbours
        for (a, powers, stratum) in bases:
            support = set(stratum).union(i for i, _ in powers)
            if not support:
                near = multiplicity
            elif model.has_face(support):
                near = support.union(neighbours[min(support)])
            else:
                continue
            total = Fraction(0)
            for d in near:
                if not model.has_face(support | {d}):
                    continue
                bumped = dict(powers)
                bumped[d] = bumped.get(d, 0) + 1
                if not self.has(a, bumped, stratum):
                    unchecked += 1
                    break
                total += multiplicity[d] * self.value(a, bumped, stratum)
            else:
                checked += 1
                if total != 0:
                    violations.append((a, powers, stratum))
        return checked, violations, unchecked


def _table_key(a, powers, stratum):
    """The canonical table key of an entry given in any form."""
    powers = tuple(sorted((int(i), int(k)) for i, k in dict(powers).items()
                          if int(k) != 0))
    return (int(a), powers, tuple(sorted(stratum)))


def _face_monomials(model, ids, degree, stratum):
    """Multi-indices over the sorted ``ids`` of total degree <= ``degree``
    whose support together with ``stratum`` is a face of ``model``.

    Yields ``(total degree, powers)``, with ``powers`` the canonical
    ``((id, power), ...)`` table key read off the sorted combination; the
    others pair to structural zeros and are skipped.
    """
    base = set(stratum)
    for r in range(degree + 1):
        for combo in itertools.combinations_with_replacement(ids, r):
            support = base.union(combo)
            if support == base or model.has_face(support):
                powers = []
                for j in combo:
                    if powers and powers[-1][0] == j:
                        powers[-1] = (j, powers[-1][1] + 1)
                    else:
                        powers.append((j, 1))
                yield r, tuple(powers)


def _multinomial(n, powers):
    """``n! / (prod k! (n - sum k)!)`` over the powers of a table key."""
    coeff = math.factorial(n)
    r = 0
    for _, k in powers:
        coeff //= math.factorial(k)
        r += k
    return coeff // math.factorial(n - r)


def na_ma_model_metric(model, table, coefficients):
    """Atomic Monge-Ampere measure of the model metric of ``L + sum c_i E_i``.

    The mass at the vertex of ``E_i`` is ``b_i (L'^n . E_i)`` with
    ``L' = L + sum_j c_j E_j`` expanded multilinearly through the table.  The
    expansion is face-local: a monomial ``prod_j E_j^{k_j}`` meets ``E_i``
    only when ``{i} u supp k`` is a face, so only the neighbours of ``i``
    enter and the other entries are structural zeros, never read.  The cost
    is linear in the size of the model for bounded vertex degrees.  The
    total is checked against the stored (L^n): twisting by vertical divisors
    does not change the restriction to the generic fibre.

    Returns
    -------
    AtomicMeasure
        Supported on divisor ids, masses exact rationals, with
        ``expected_total`` set to (L^n).

    Raises
    ------
    MissingTableEntry
        If a required on-face expanded monomial is absent.
    ValueError
        If the table holds a nonzero entry off the face lattice, or a
        nonzero coefficient names a divisor outside the model.
    MassMismatch
        If the masses do not add up to (L^n): the table is inconsistent.
    """
    n = model.dimension
    table.check_faces(model)
    c = {}      # divisor id -> (numerator, denominator) of a nonzero c_i
    for i, v in dict(coefficients).items():
        v = as_fraction(v)
        if v:
            c[i] = (v.numerator, v.denominator)
    neighbours = model.neighbours
    unknown = sorted(set(c) - set(neighbours))
    if unknown:
        raise ValueError(f"coefficients for divisors {unknown} that are not "
                         "in the model")
    support, masses = [], []
    for d in model.divisors:
        stratum = (d.id,)
        ids = sorted(j for j in neighbours[d.id] + stratum if j in c)
        # the sum of the terms as num / den on ints, den the lcm of theirs
        num, den = 0, 1
        for r, powers in _face_monomials(model, ids, n, stratum):
            value = table.value(n - r, powers, stratum)
            tn = _multinomial(n, powers) * value.numerator
            td = value.denominator
            for j, k in powers:
                cn, cd = c[j]
                tn *= cn ** k
                td *= cd ** k
            g = math.gcd(den, td)
            num, den = num * (td // g) + tn * (den // g), den // g * td
        support.append(d.id)
        masses.append(Fraction(d.multiplicity * num, den))
    measure = AtomicMeasure(tuple(support), tuple(masses),
                            expected_total=table.top_self_intersection())
    measure.validate_total()
    return measure


@dataclass(frozen=True)
class Section:
    """A section datum for tropical Fubini-Study potentials.

    ``support`` maps face index sets to finite sets of exponent tuples
    (aligned with the face's sorted index set); ``norm_exponent`` is the
    rational t-exponent e of the section's norm.
    """

    support: dict
    norm_exponent: Fraction


def tropical_fs_potential(model, sections, power=1):
    """Tropicalized Fubini-Study potential of finitely many sections of mL.

    On each face the potential is ``max_j (-val_x(s_j) - e_j) / m``: a finite
    maximum of affine functions with rational coefficients, hence convex on
    every face.  Scaling every norm by ``t^kappa`` shifts the potential by
    the constant ``-kappa / m``.

    Raises
    ------
    EmptySections
        If no section has a nonempty exponent set on some face.
    """
    sections = list(sections)
    if not sections:
        raise EmptySections("no sections supplied")
    m = int(power)
    pieces = {}
    for f in model.faces:
        face_pieces = []
        for s in sections:
            e = as_fraction(s.norm_exponent)
            for alpha in s.support.get(f.index_set, ()):
                if len(alpha) != len(f.index_set):
                    raise ValueError("exponent tuple length must match face")
                face_pieces.append(affine_piece(
                    Fraction(-e, m),
                    {i: Fraction(-as_fraction(a), m)
                     for i, a in zip(f.index_set, alpha)}))
        if not face_pieces:
            raise EmptySections(
                f"no section restricts nontrivially to face {f.index_set}")
        pieces[f.index_set] = tuple(face_pieces)
    return PLPotential(pieces)


@dataclass(frozen=True)
class ConvexityReport:
    face: object
    convex: bool
    witness: object   # None, or (x, y, midpoint, gap) with gap > 0


def check_face_convexity(fn, face, resolution=4):
    """Midpoint-convexity test of a function on one face chart.

    Parameters
    ----------
    fn : PLPotential or callable
        Callables take a chart point (dict divisor id -> Fraction).
    face : Face
    resolution : int
        Grid fineness; all grid-point pairs are tested against their chart
        midpoint.

    Returns
    -------
    ConvexityReport
        ``convex`` is False iff some midpoint lies strictly above the chord;
        the first witness triple is reported.
    """
    evaluate = fn.value if isinstance(fn, PLPotential) else None
    pts = list(face.grid_points(resolution))
    for xa, xb in itertools.combinations(pts, 2):
        mid = {i: (xa[i] + xb[i]) / 2 for i in xa}
        if evaluate is not None:
            va, vb, vm = (evaluate(face, xa), evaluate(face, xb),
                          evaluate(face, mid))
        else:
            va, vb, vm = fn(xa), fn(xb), fn(mid)
        gap = vm - (va + vb) / 2
        if gap > 0:
            return ConvexityReport(face, False, (xa, xb, mid, gap))
    return ConvexityReport(face, True, None)


def check_continuity(model, potential, resolution=3):
    """Verify that face data of a PLPotential agree on shared subfaces.

    Returns the maximal absolute mismatch over all (face, subface) pairs and
    grid points of the subface (exact rationals; 0 means continuous).
    """
    worst = Fraction(0)
    for sub in model.faces:
        for f in model.faces:
            if sub is f or not set(sub.index_set) < set(f.index_set):
                continue
            for x in sub.grid_points(resolution):
                extended = {i: x.get(i, Fraction(0)) for i in f.index_set}
                gap = abs(potential.value(f, extended)
                          - potential.value(sub, x))
                worst = max(worst, gap)
    return worst


@dataclass(frozen=True)
class StratumClass:
    """A (1,1)-class on the stratum E_J: c1(L) plus divisor corrections.

    ``base_coeff`` multiplies c1(L) (always 1 here); ``divisor_coeffs`` maps
    divisor id i to the coefficient of c1(O(E_i)) (namely -grad_i, possibly
    shifted by a twist).
    """

    stratum: tuple
    base_coeff: Fraction
    divisor_coeffs: dict


@dataclass(frozen=True)
class StratumClassPairing:
    cls: StratumClass
    pairing: object      # (class^{n-p} . E_J)


def stratum_class(model, table, gradients, index_set, base_twist=None):
    """The gradient-corrected polarization class on a stratum, paired.

    Parameters
    ----------
    model : SncModel
    table : IntersectionTable
    gradients : mapping divisor id -> value
        Partial derivatives of the overparametrized potential; required for
        every divisor whose component meets E_J (an absent entry raises,
        never silently defaults to zero).
    index_set : iterable
        The stratum J.
    base_twist : mapping divisor id -> value, optional
        Twists the base polarization to ``L + sum t_i E_i``; the induced
        class is invariant under the simultaneous gauge shift
        ``t -> t + d, gradients -> gradients + d``.

    Returns
    -------
    StratumClassPairing
        The class record and the intersection number
        ``(class^{n-p} . E_J)`` evaluated through the table.
    """
    J = tuple(sorted(index_set))
    face = model.face(J)
    p = face.dim
    n = model.dimension
    twist = {i: as_fraction(v) for i, v in dict(base_twist or {}).items()}

    table.check_faces(model, (J,))
    relevant = set(J).union(j for j in model.neighbours[J[0]]
                            if model.has_face(J + (j,)))
    missing = sorted(i for i in relevant if i not in gradients)
    if missing:
        raise ValueError(
            f"gradient entries required for divisors {missing} meeting "
            f"stratum {J}; refusing to default them to zero")

    coeffs = {}
    for i in sorted(relevant):
        coeffs[i] = twist.get(i, Fraction(0)) - gradients[i]
    cls = StratumClass(J, Fraction(1), coeffs)

    power = n - p
    pairing = 0
    for r, powers in _face_monomials(model, sorted(relevant), power, J):
        prod = Fraction(_multinomial(power, powers))
        for j, kj in powers:
            prod = prod * (coeffs[j] ** kj)
        pairing = pairing + prod * table.value(power - r, powers, J)
    return StratumClassPairing(cls, pairing)


@dataclass(frozen=True)
class LinearFunctional:
    """A linear test functional on stratum classes.

    Value = base * base_coeff + sum_i divisor[i] * divisor_coeffs[i]
    + constant.  Used to express nef-type inequalities supplied by the user.
    """

    base: Fraction
    divisor: dict
    constant: Fraction = Fraction(0)
    name: str = ""

    def __call__(self, cls):
        val = as_fraction(self.base) * cls.base_coeff + as_fraction(self.constant)
        for i, w in self.divisor.items():
            val += as_fraction(w) * cls.divisor_coeffs.get(i, Fraction(0))
        return val


@dataclass(frozen=True)
class NefReport:
    satisfied: bool
    values: tuple
    first_violation: object   # None or (index, value)
    boundary: tuple           # indices where the functional vanishes


def nef_check(cls, functionals):
    """Evaluate user-supplied linear inequalities on a stratum class.

    All functionals must be >= 0 for a pass; exact zeros are flagged as
    boundary cases (the class sits on the nef boundary for that test).
    """
    values = tuple(f(cls) for f in functionals)
    first = None
    boundary = []
    for k, v in enumerate(values):
        if v < 0 and first is None:
            first = (k, v)
        if v == 0:
            boundary.append(k)
    return NefReport(first is None, values, first, tuple(boundary))
