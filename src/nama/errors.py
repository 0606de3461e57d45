"""Exception types shared across the toolkit.

Failures raise subclasses of :class:`ToolkitError`.  The command line
exits with status 1 on a :class:`ConfigError`, which is what its parse
layer raises for every invalid input (including a model or intersection
table the toolkit rejects), and with status 2 on any other
``ToolkitError``, raised by a computation whose check did not pass.
"""


class ToolkitError(Exception):
    """Base class for all validation and computation errors."""


class ConfigError(ToolkitError):
    """Malformed or unknown fields in a configuration document."""


# -- degeneration models ----------------------------------------------------

class MissingSubface(ToolkitError):
    """A face is present whose subface is missing: the complex is not closed."""


class BadMultiplicity(ToolkitError):
    """A divisor multiplicity is not a positive integer."""


class NotSemistable(ToolkitError):
    """An operation requiring unit multiplicities met a multiplicity > 1."""


class NotMaximal(ToolkitError):
    """The essential skeleton has dimension < n, so there is no top-dimensional
    Lebesgue measure."""


class EmptySupport(ToolkitError):
    """A monomial valuation was requested for an empty exponent set."""


# -- intersection tables and potentials -------------------------------------

class MissingTableEntry(ToolkitError):
    """An intersection number needed by an expansion is absent from the table."""


class MassMismatch(ToolkitError):
    """Total atomic mass disagrees with the stored top self-intersection."""


class EmptySections(ToolkitError):
    """No section has a nonempty restriction to some face."""


# -- real Monge-Ampere ------------------------------------------------------

class InfeasibleBoundary(ToolkitError):
    """Dirichlet data admits no convex extension over the node set."""


# -- comparison checks -------------------------------------------------------

class InconsistentDegrees(ToolkitError):
    """Cycle degrees do not sum to the stored degree of the polarization."""


class NotAdjacent(ToolkitError):
    """Two faces do not share a codimension-one wall."""


# -- metric forms ------------------------------------------------------------

class NotSymmetric(ToolkitError):
    """A matrix expected to be (Hermitian) symmetric is not."""


class DimensionMismatch(ToolkitError):
    """Array shapes do not match the declared dimensions."""


class NonPositiveX(ToolkitError):
    """The Calabi model ordinary differential expression needs x > 0."""


class NotPositive(ToolkitError):
    """A matrix expected to be positive definite is not."""


class CheckFailed(ToolkitError):
    """A mathematical check ran to completion and did not pass."""
