"""Atomic measures: finite lists of weighted points.

Used both for measures supported on vertices of a dual complex (labels are
divisor ids) and for discrete subgradient measures (labels are node
coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import MassMismatch


def exact_sum(values):
    """The sum of ``values``; when every one is a Fraction it accumulates on
    ints over the lcm of the denominators and builds one reduced Fraction,
    equal to the Fraction sum."""
    values = list(values)
    if not values or any(type(v) is not Fraction for v in values):
        return sum(values)
    num, den = 0, 1
    for v in values:
        n, d = v.numerator, v.denominator
        g = math.gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return Fraction(num, den)


@dataclass(frozen=True)
class AtomicMeasure:
    """A measure of the form ``sum_k masses[k] * delta_{support[k]}``.

    Parameters
    ----------
    support : tuple
        Hashable labels of the atoms (divisor ids, node coordinates, ...).
    masses : tuple
        One mass per atom; exact rationals or floats.
    expected_total : optional
        A target total mass the measure is supposed to carry.
    """

    support: tuple
    masses: tuple
    expected_total: object = None

    def __post_init__(self):
        if len(self.support) != len(self.masses):
            raise ValueError("support and masses must have equal length")

    def total(self):
        return exact_sum(self.masses)

    @cached_property
    def _mass_by_label(self):
        index = {}
        for lab, m in zip(self.support, self.masses):
            index.setdefault(lab, m)
        return index

    def mass_of(self, label):
        """Mass carried by ``label`` (0 if absent; the first atom if the
        label repeats)."""
        return self._mass_by_label.get(label, 0)

    def validate_total(self):
        """Raise :class:`MassMismatch` unless the total equals the target exactly."""
        if self.expected_total is None:
            return
        if self.total() != self.expected_total:
            raise MassMismatch(
                f"total mass {self.total()} != expected {self.expected_total}")
