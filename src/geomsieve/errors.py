"""Exception types shared across the package."""


class GeomsieveError(Exception):
    """Base class for all errors raised by this package."""


class LatticeError(GeomsieveError, ValueError):
    """A structure fed to the lattice builder is not a valid input."""


class Cyclic(LatticeError):
    """The cover relation contains a directed cycle."""


class NotALattice(LatticeError):
    """Some pair of elements has no meet or no join."""


class MultipleMinima(NotALattice):
    """More than one minimal element (no bottom)."""


class MultipleMaxima(NotALattice):
    """More than one maximal element (no top)."""


class NotGraded(LatticeError):
    """Longest-chain ranks are inconsistent with the cover relation."""


class NotComparable(LatticeError):
    """An element is not below the sieve target (raised by count_above)."""


class NotGeometric(GeomsieveError, ValueError):
    """An operation requiring a geometric lattice got something else."""


class MatroidError(GeomsieveError, ValueError):
    """Invalid matroid input or unsupported operation."""


class NotSimple(MatroidError):
    """The matroid has loops or parallel elements."""


class TooLarge(GeomsieveError, ValueError):
    """An enumeration would exceed the configured size cap."""


class NegativeEntry(GeomsieveError, ValueError):
    """A sequence that must be non-negative has a negative entry."""


class HypothesisViolated(GeomsieveError, ValueError):
    """A checker's precondition failed; carries which one and a witness."""

    def __init__(self, which, witness):
        self.which = which
        self.witness = witness
        super().__init__(f"hypothesis violated: {which} (witness {witness!r})")


class BrunViolation(GeomsieveError, AssertionError):
    """A proven sign pattern failed; indicates a bug, not bad input."""


class NoConvergence(GeomsieveError, RuntimeError):
    """Iterative solver exceeded its iteration cap."""
