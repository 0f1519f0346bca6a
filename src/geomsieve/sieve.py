"""A combinatorial sieve on geometric lattices.

An instance fixes a geometric lattice L of rank n, a finite multiset A
of elements, a set T of atoms with join tau, a density table f indexed
by co-rank, and a positive scale X.  The sifted count is the number of
a in A whose meet with tau is the bottom.  The main term replaces each
up-set count #A_y by X * f(corank(y)) and sums against the Whitney
numbers of [bottom, tau]; the error certificate is the matching sum of
absolute values, and Brun-style rank truncation gives two-sided bounds
on the exact count.

All arithmetic is exact (ints and Fractions).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotComparable, NotGeometric
from .generators import DEFAULT_CAP, load_lattice
from .poset import _is_index, lattice_to_json

__all__ = [
    "SieveInstance",
    "sifted_count_exact",
    "count_above",
    "sieve_main_term",
    "sieve_error_bound",
    "brun_bounds",
    "sieve_instance_to_json",
    "sieve_instance_from_json",
    "parse_fraction",
]


def parse_fraction(value):
    """Exact rational from an int or a 'p' / 'p/q' string."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise ValueError(f"cannot read {value!r} as an exact rational")


@dataclass(frozen=True)
class SieveInstance:
    """Validated sieve data; tau is computed as the join of T."""

    lattice: object
    A: tuple
    T: tuple
    f: tuple
    X: Fraction
    tau: int = field(init=False)

    def __post_init__(self):
        lat = self.lattice
        object.__setattr__(self, "A", tuple(self.A))
        object.__setattr__(self, "T", tuple(self.T))
        object.__setattr__(self, "f",
                           tuple(parse_fraction(v) for v in self.f))
        object.__setattr__(self, "X", parse_fraction(self.X))
        atoms = set(lat.atoms())
        for t in self.T:
            if not _is_index(t) or t not in atoms:
                raise ValueError(f"T entry {t} is not an atom")
        for a in self.A:
            if not _is_index(a) or not 0 <= a < lat.n_elems:
                raise ValueError(f"A entry {a} is not an element index")
        n = lat.top_rank
        if len(self.f) != n + 1:
            raise ValueError(
                f"f must have one entry per co-rank 0..{n} "
                f"(got {len(self.f)})")
        for s, v in enumerate(self.f):
            if v < 0:
                raise ValueError(f"f[{s}] is negative")
        if self.X <= 0:
            raise ValueError("X must be positive")
        object.__setattr__(self, "tau", lat.join_all(self.T))


def sifted_count_exact(inst):
    """#{a in A : a meet tau = bottom}, counted with multiplicity."""
    lat = inst.lattice
    bottom = lat.bottom
    tau = inst.tau
    return sum(1 for a in inst.A if lat.meet(a, tau) == bottom)


def count_above(inst, y):
    """#{a in A : y <= a}; y must lie below tau."""
    lat = inst.lattice
    if not lat.leq(y, inst.tau):
        raise NotComparable(f"{y} is not below tau={inst.tau}")
    return sum(1 for a in inst.A if lat.leq(y, a))


def _interval_whitney(inst):
    lat = inst.lattice
    chk = lat._geometric_below(inst.tau)
    if not chk:
        raise NotGeometric(
            f"[bottom, tau] fails {chk.failure} at {chk.witness}")
    return lat._whitney_below(inst.tau)


def sieve_main_term(inst):
    """X * sum_k f(n - k) w_k([bottom, tau]) as an exact Fraction."""
    n = inst.lattice.top_rank
    w = _interval_whitney(inst)
    return inst.X * sum(inst.f[n - k] * w[k] for k in range(len(w)))


def sieve_error_bound(inst):
    """Certificate sum_k (n - k) f(n - k) |w_k([bottom, tau])|.

    This is the quantity the instance's error hypothesis is measured
    against (with constant one); nothing is asserted about it here.
    """
    n = inst.lattice.top_rank
    w = _interval_whitney(inst)
    return sum((n - k) * inst.f[n - k] * abs(w[k]) for k in range(len(w)))


def brun_bounds(inst, cutoff):
    """Two-sided truncation bounds on the exact sifted count.

    The upper bound truncates the Mobius expansion at rank 2*cutoff,
    the lower at rank 2*cutoff + 1.  Both equal the exact count once
    the truncation rank reaches rank(tau).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    lat = inst.lattice
    mu = lat.mobius_table(lat.bottom)
    upper = lower = 0
    for y in lat.down_set(inst.tau):
        r = lat.rank[y]
        if r > 2 * cutoff + 1:
            continue
        term = mu[y] * count_above(inst, y)
        if r <= 2 * cutoff:
            upper += term
        lower += term
    return lower, upper


# -- JSON ------------------------------------------------------------------

def sieve_instance_to_json(inst, lattice_name=None):
    out = {
        "lattice": (lattice_name if lattice_name is not None
                    else lattice_to_json(inst.lattice)),
        "A": list(inst.A),
        "T": list(inst.T),
        "f": [str(v) for v in inst.f],
        "X": str(inst.X),
    }
    return out


def sieve_instance_from_json(data, cap_elements=DEFAULT_CAP):
    """Read an instance; "lattice" is inline JSON or a generator name,
    sized against the cap before it is built, and "A" may be the
    string "all"."""
    if not isinstance(data, dict):
        raise ValueError("sieve JSON must be an object")
    for key in ("lattice", "A", "T", "f", "X"):
        if key not in data:
            raise ValueError(f'sieve JSON needs "{key}"')
    if not isinstance(data["lattice"], (str, dict)):
        raise ValueError(
            'sieve JSON "lattice" must be a generator name or an object')
    a = data["A"]
    if not (isinstance(a, list) or a == "all"):
        raise ValueError('sieve JSON "A" must be a list or "all"')
    for key in ("T", "f"):
        if not isinstance(data[key], list):
            raise ValueError(f'sieve JSON "{key}" must be a list')
    lat = load_lattice(data["lattice"], cap_elements)
    if a == "all":
        a = list(range(lat.n_elems))
    return SieveInstance(lattice=lat, A=a, T=data["T"],
                         f=data["f"], X=data["X"])
