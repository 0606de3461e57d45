"""Combinatorial data of an snc degeneration and its dual complex.

A degeneration is described purely combinatorially: a set of central-fibre
divisor components with multiplicities, adjunction weights and optional
degree data, plus the list of index sets J for which the stratum
``E_J = cap_{i in J} E_i`` is nonempty.  The dual complex has one vertex per
divisor and one (|J|-1)-face per stratum; the face carries the chart

    { (x_i)_{i in J} : sum_i b_i x_i = 1,  0 <= x_i <= 1 }

with exact rational coordinates.  The essential skeleton is the subcomplex
spanned by vertices of weight zero.

Points of the ambient space away from the complex retract onto it; the
retraction used to state measure-convergence facts is fixed by the monomial
valuation convention below (coordinatewise log-modulus ratios).  Nothing in
this module depends on resolving the retraction ambiguity off the skeleton;
it is a documentation convention only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (BadMultiplicity, EmptySupport, MissingSubface, NotMaximal,
                     NotSemistable)


def as_fraction(value):
    """Coerce ints, strings like '3/4' and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


@dataclass(frozen=True)
class Divisor:
    """One component of the central fibre.

    Parameters
    ----------
    id : int
        Label, unique within a model.
    multiplicity : int
        Coefficient b in the central fibre ``sum b_i E_i``; positive.
    weight : Fraction
        Adjunction weight a >= 0; the essential skeleton lives where a = 0.
    degree : Fraction or None
        Optional degree of the polarization restricted to this component
        (used by the one-dimensional cycle checks).
    """

    id: int
    multiplicity: int = 1
    weight: Fraction = Fraction(0)
    degree: object = None

    def __post_init__(self):
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise BadMultiplicity(
                f"divisor {self.id}: multiplicity {self.multiplicity!r} "
                "must be a positive integer")
        object.__setattr__(self, "weight", as_fraction(self.weight))
        if self.weight < 0:
            raise ValueError(f"divisor {self.id}: weight must be >= 0")
        if self.degree is not None:
            object.__setattr__(self, "degree", as_fraction(self.degree))


@dataclass(frozen=True)
class Face:
    """A face of the dual complex, with its rational chart.

    The chart keeps all coordinates ``x_i, i in index_set`` subject to
    ``sum b_i x_i = 1``; the first (smallest) index is the eliminated one
    when a free coordinate system is needed.
    """

    index_set: tuple
    multiplicities: tuple

    def __post_init__(self):
        ids = tuple(sorted(self.index_set))
        if len(set(ids)) != len(ids) or not ids:
            raise ValueError(f"face {self.index_set!r}: indices must be "
                             "distinct and nonempty")
        object.__setattr__(self, "index_set", ids)
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if len(self.multiplicities) != len(ids):
            raise ValueError("one multiplicity per index required")

    @property
    def dim(self):
        return len(self.index_set) - 1

    @property
    def free_indices(self):
        """Indices whose coordinates remain after eliminating the first one."""
        return self.index_set[1:]

    def multiplicity_of(self, i):
        return self.multiplicities[self.index_set.index(i)]

    def contains(self, x):
        """True if the mapping ``x`` is a chart point of this face."""
        if set(x) != set(self.index_set):
            return False
        total = sum(self.multiplicity_of(i) * x[i] for i in self.index_set)
        return total == 1 and all(0 <= x[i] <= 1 for i in self.index_set)

    def complete(self, free):
        """Extend values of the free coordinates to a full chart point."""
        i0 = self.index_set[0]
        rest = sum(self.multiplicity_of(i) * free[i] for i in self.free_indices)
        x = dict(free)
        x[i0] = (1 - rest) / Fraction(self.multiplicity_of(i0)) \
            if isinstance(rest, Fraction) else (1 - rest) / self.multiplicity_of(i0)
        return x

    def vertex_point(self, i):
        """The chart point of the vertex belonging to divisor ``i``."""
        x = {j: Fraction(0) for j in self.index_set}
        x[i] = Fraction(1, self.multiplicity_of(i))
        return x

    def barycenter(self):
        k = len(self.index_set)
        return {i: Fraction(1, k * self.multiplicity_of(i))
                for i in self.index_set}

    def chart_volume(self):
        """Euclidean volume of the chart in the free coordinates."""
        p = self.dim
        vol = Fraction(1)
        for i in self.free_indices:
            vol /= self.multiplicity_of(i)
        for k in range(2, p + 1):
            vol /= k
        return vol

    def grid_points(self, resolution):
        """Rational sample points: free coordinates on a 1/resolution grid.

        Yields full chart points (dicts keyed by divisor id).  The grid is
        uniform in the scaled coordinates ``b_i x_i``, which tile the unit
        simplex exactly.
        """
        free = self.free_indices
        if not free:
            yield self.vertex_point(self.index_set[0])
            return
        for ks in itertools.product(range(resolution + 1), repeat=len(free)):
            if sum(ks) > resolution:
                continue
            pt = {i: Fraction(k, resolution * self.multiplicity_of(i))
                  for i, k in zip(free, ks)}
            yield self.complete(pt)


@dataclass(frozen=True, eq=False)
class SncModel:
    """Validated combinatorial model: divisors plus the dual complex."""

    divisors: tuple
    faces: tuple
    dimension: int
    semistable: bool = False

    @cached_property
    def _face_index(self):
        return {f.index_set: f for f in self.faces}

    @cached_property
    def neighbours(self):
        """Divisor id -> sorted ids of the divisors sharing an edge with it."""
        adjacent = {d.id: set() for d in self.divisors}
        for f in self.faces:
            if f.dim == 1:
                i, j = f.index_set
                adjacent[i].add(j)
                adjacent[j].add(i)
        return {i: tuple(sorted(js)) for i, js in adjacent.items()}

    def face(self, index_set):
        key = tuple(sorted(index_set))
        try:
            return self._face_index[key]
        except KeyError:
            raise MissingSubface(f"no face with index set {key}") from None

    def has_face(self, index_set):
        return tuple(sorted(index_set)) in self._face_index


def build_model(divisors, face_index_sets, dimension, semistable=False):
    """Assemble and validate an :class:`SncModel`.

    Parameters
    ----------
    divisors : iterable of Divisor (or dicts accepted by Divisor)
    face_index_sets : iterable of iterables of divisor ids
        Index sets J of the nonempty strata.  Must be closed under passing
        to nonempty subsets and contain every singleton.
    dimension : int
        Relative dimension n; faces may have dimension at most n.
    semistable : bool
        Declares all multiplicities equal to 1; validated here.

    Raises
    ------
    MissingSubface, BadMultiplicity, NotSemistable, ValueError
    """
    divisors = tuple(d if isinstance(d, Divisor) else Divisor(**d)
                     for d in divisors)
    ids = [d.id for d in divisors]
    if len(set(ids)) != len(ids):
        raise ValueError("divisor ids must be distinct")
    by_id = {d.id: d for d in divisors}

    if min(d.weight for d in divisors) != 0:
        raise ValueError("weights must be normalized so that min a_i = 0")
    if semistable and any(d.multiplicity != 1 for d in divisors):
        raise NotSemistable("semistable models need every multiplicity = 1")

    sets = []
    seen = set()
    for js in face_index_sets:
        key = tuple(sorted(js))
        if len(set(key)) != len(key):
            raise ValueError(f"face {js!r} repeats an index")
        if key in seen:
            raise ValueError(f"face {key!r} listed twice")
        for j in key:
            if j not in by_id:
                raise ValueError(f"face {key!r} references unknown divisor {j}")
        if len(key) - 1 > dimension:
            raise ValueError(f"face {key!r} has dimension > n = {dimension}")
        seen.add(key)
        sets.append(key)

    for key in sets:
        if len(key) == 1:
            continue
        for sub in itertools.combinations(key, len(key) - 1):
            if tuple(sorted(sub)) not in seen:
                raise MissingSubface(
                    f"face {key!r} present but subface {sub!r} missing")
    for d in divisors:
        if (d.id,) not in seen:
            raise MissingSubface(f"divisor {d.id} has no vertex face")

    faces = tuple(Face(key, tuple(by_id[j].multiplicity for j in key))
                  for key in sorted(sets, key=lambda k: (len(k), k)))
    return SncModel(divisors, faces, dimension, semistable)


@dataclass(frozen=True)
class Skeleton:
    """Essential skeleton: faces all of whose vertices have weight zero."""

    faces: tuple
    dim: int
    is_maximal: bool


def essential_skeleton(model):
    """Faces of the dual complex spanned by weight-zero vertices."""
    zero = {d.id for d in model.divisors if d.weight == 0}
    faces = tuple(f for f in model.faces if set(f.index_set) <= zero)
    dim = max((f.dim for f in faces), default=-1)
    return Skeleton(faces, dim, dim == model.dimension)


def monomial_valuation(face, x, support):
    """Valuation at a chart point of a function with given exponent support.

    Parameters
    ----------
    face : Face
    x : mapping divisor id -> Fraction
        Chart point of ``face``.
    support : iterable of exponent tuples
        Each tuple is aligned with ``face.index_set``; the function is a sum
        of monomials with those exponents (coefficients are irrelevant: only
        the exponents enter the valuation).

    Returns
    -------
    Fraction
        ``min_alpha sum_i alpha_i x_i``.
    """
    support = list(support)
    if not support:
        raise EmptySupport("valuation of an empty exponent set")
    vals = []
    for alpha in support:
        if len(alpha) != len(face.index_set):
            raise ValueError("exponent tuple length must match the face")
        vals.append(sum(a * x[i] for a, i in zip(alpha, face.index_set)))
    return min(vals)


@dataclass(frozen=True)
class SkeletonMeasure:
    """Uniform Lebesgue probability measure on the top faces of the skeleton."""

    faces: tuple
    density: Fraction       # per unit of free-coordinate volume, same on each face
    face_mass: Fraction

    def total(self):
        return self.face_mass * len(self.faces)


def lebesgue_measure(model):
    """The weak-limit measure of a maximally degenerate semistable model.

    Uniform over the n-faces of the essential skeleton, normalized to total
    mass 1; with unit multiplicities each n-face chart has volume 1/n!, so k
    faces give per-face mass 1/k and density n!/k.

    Raises
    ------
    NotSemistable
        If the model is not flagged (and validated) semistable.
    NotMaximal
        If the essential skeleton has dimension < n.
    """
    if not model.semistable:
        raise NotSemistable("Lebesgue limit measure needs a semistable model")
    sk = essential_skeleton(model)
    if not sk.is_maximal:
        raise NotMaximal(
            f"skeleton dimension {sk.dim} < n = {model.dimension}")
    top = tuple(f for f in sk.faces if f.dim == model.dimension)
    k = len(top)
    nfact = 1
    for i in range(2, model.dimension + 1):
        nfact *= i
    return SkeletonMeasure(top, Fraction(nfact, k), Fraction(1, k))
