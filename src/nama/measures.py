"""Atomic measures: finite lists of weighted points.

Used both for measures supported on vertices of a dual complex (labels are
divisor ids) and for discrete subgradient measures (labels are node
coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MassMismatch


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
        return sum(self.masses)

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
