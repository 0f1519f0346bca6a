"""Exception types shared across the package, and its size caps."""


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


# -- size caps ---------------------------------------------------------------
# Every size cap and its reason.  The site that enforces a cap reads it
# here and refuses a request over it with TooLarge, before the work.
ELEMENT_CAP = 5000        # lattice elements: the order masks grow as n^2
TRIANGLE_DEPTH_CAP = 500  # Whitney rows: 0..500 form in 0.05 s, CSV 2.6 s
NUMBERS_N_CAP = 2000      # exact D_{m,r}(n): n <= 2000 takes 2.5 s, 5 MB
DIGITS_CAP = 1000         # saddle-point digits: cost grows superlinearly
SUBSET_CAP = 20           # a 2^n subset walk: 2^20 rank calls and ranks


def shown(value):
    """str(value), or for an int too long to print exactly (past the
    int-to-str digit limit) the power of two its size reaches: ">=2^k",
    or "<=-2^k" when negative."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit
        power = f"2^{abs(value).bit_length() - 1}"
        return f"<=-{power}" if value < 0 else f">={power}"


def refuse_over(what, sizes, cap_elements):
    """Return sizes, increasing lower bounds on the size of what, as a
    list, or raise TooLarge at the first over the cap, forming no later
    one.  A size too long to print exactly is worded as a power of two."""
    read = []
    for size in sizes:
        if size > cap_elements:
            raise TooLarge(f"{what} has at least "
                           f"{shown(size).removeprefix('>=')} elements, "
                           f"over the cap {cap_elements}")
        read.append(size)
    return read


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
