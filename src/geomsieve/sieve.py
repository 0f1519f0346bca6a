"""A combinatorial sieve on geometric lattices.

An instance fixes a geometric lattice L of rank n, a finite multiset A
of elements, a set T of atoms with join tau, a density table f indexed
by co-rank, and a positive scale X.  The sifted count is the number of
a in A whose meet with tau is the bottom.  The main term replaces each
up-set count #A_y by X * f(corank(y)) and sums against the Whitney
numbers of [bottom, tau]; the error certificate is the matching sum of
absolute values, and Brun-style rank truncation gives two-sided bounds
on the exact count.

The bounds come from one walk of down(tau) that sums mu(bottom, y) #A_y
by rank y.  At cutoff c the upper bound is the prefix sum up to rank
2c and the lower bound the one up to rank 2c + 1: brun_bounds walks only
as far as rank 2c + 1, and brun_profile walks once for every cutoff.
A is read once per walk into (position, multiplicity) pairs of its
distinct elements, and each #A_y is then one bit test per pair against
the up-set mask of y.

All arithmetic is exact (ints and Fractions).
"""

import re
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import ELEMENT_CAP, NotComparable, NotGeometric
from .generators import load_lattice
from .poset import _is_index, lattice_to_json

__all__ = [
    "SieveInstance",
    "sifted_count_exact",
    "count_above",
    "sieve_main_term",
    "sieve_error_bound",
    "brun_bounds",
    "brun_profile",
    "sieve_instance_to_json",
    "sieve_instance_from_json",
    "parse_fraction",
]


def parse_fraction(value):
    """Exact rational from an int or a 'p' / 'p/q' string; a run of
    digits past the int-to-str digit limit is refused before it is read."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        run = limit and re.search(rf"\d{{{limit + 1},}}", value)
        if run:
            raise ValueError(f"a {len(run[0])}-digit integer is past the "
                             f"{limit}-digit limit on exact values")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise ValueError(f"cannot read {value!r} as an exact rational")


class SieveInstance(namedtuple("SieveInstance", "lattice A T f X tau")):
    """Validated sieve data; tau is computed as the join of T.

    _make and _replace go back through the checks, so a new T gets its
    own tau; _make takes the five fields before tau.
    """

    __slots__ = ()

    def __new__(cls, lattice, A, T, f, X):
        A = tuple(A)
        T = tuple(T)
        f = tuple(_read_exact(f"f[{s}]", v) for s, v in enumerate(f))
        X = _read_exact("X", X)
        atoms = set(lattice.atoms())
        for t in T:
            if not _is_index(t) or t not in atoms:
                raise ValueError(f"T entry {t} is not an atom")
        # the whole list first; entry by entry only to name a bad one
        if not (set(map(type, A)) <= {int} and min(A, default=0) >= 0
                and max(A, default=0) < lattice.n_elems):
            for a in A:
                if not _is_index(a) or not 0 <= a < lattice.n_elems:
                    raise ValueError(f"A entry {a} is not an element index")
        n = lattice.top_rank
        if len(f) != n + 1:
            raise ValueError(
                f"f must have one entry per co-rank 0..{n} (got {len(f)})")
        for s, v in enumerate(f):
            if v < 0:
                raise ValueError(f"f[{s}] is negative")
        if X <= 0:
            raise ValueError("X must be positive")
        return super().__new__(cls, lattice, A, T, f, X, lattice.join_all(T))

    def __getnewargs__(self):
        return self[:5]

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields[:5], self)), **changes})


def _read_exact(key, value):
    """parse_fraction(value), its refusal prefixed with the key."""
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def sifted_count_exact(inst):
    """#{a in A : a meet tau = bottom}, counted with multiplicity."""
    lat = inst.lattice
    bottom = lat.bottom
    tau = inst.tau
    return sum(1 for a in inst.A if lat.meet(a, tau) == bottom)


def count_above(inst, y):
    """#{a in A : y <= a}, counted with multiplicity; y must lie below
    tau.  The same count as each term of the bounds' walk."""
    lat = inst.lattice
    if not lat.leq(y, inst.tau):
        raise NotComparable(f"{y} is not below tau={inst.tau}")
    return _count_up(lat, y, _position_counts(inst))


def _position_counts(inst):
    """A as (position, multiplicity) pairs, one per distinct element."""
    pos_of = inst.lattice._pos_of
    return [(pos_of[a], k) for a, k in Counter(inst.A).items()]


def _count_up(lat, y, pairs):
    """#A_y from A's (position, multiplicity) pairs: the multiplicities
    whose position is set in the up-set mask of y."""
    up = lat._up[lat._pos_of[y]]
    return sum(k for p, k in pairs if up >> p & 1)


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


def _rank_sums(inst, top):
    """S_k = sum of mu(bottom, y) * #A_y over the y <= tau of rank k,
    for k = 0..min(top, rank tau): one walk of down(tau), which ascends
    by rank, stopped at the first y of rank > top.  A is read into its
    (position, multiplicity) pairs once, and each #A_y costs one bit
    test per distinct element of A; every y is below tau by
    construction, so no order test is made."""
    lat = inst.lattice
    mu = lat.mobius_table(lat.bottom)
    rank = lat.rank
    pairs = _position_counts(inst)
    sums = [0] * (min(top, rank[inst.tau]) + 1)
    for y in lat.down_set(inst.tau):
        r = rank[y]
        if r > top:
            break
        sums[r] += mu[y] * _count_up(lat, y, pairs)
    return sums


def brun_bounds(inst, cutoff):
    """Two-sided truncation bounds (lower, upper) on the exact sifted
    count.

    The upper bound truncates the Mobius expansion at rank 2*cutoff,
    the lower at rank 2*cutoff + 1.  Both equal the exact count once
    the truncation rank reaches rank(tau).  Only the y <= tau of rank
    <= 2*cutoff + 1 are counted; brun_profile gives every cutoff at
    the price of the largest.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    sums = _rank_sums(inst, 2 * cutoff + 1)
    return sum(sums), sum(sums[:2 * cutoff + 1])


def brun_profile(inst):
    """brun_bounds(inst, c) for c = 0..ceil(rank tau / 2), from one
    walk of down(tau).  The last entry is (exact, exact), and every
    larger cutoff has the same bounds."""
    partial = list(accumulate(_rank_sums(inst, inst.lattice.rank[inst.tau])))
    last = len(partial) - 1
    return tuple((partial[min(2 * c + 1, last)], partial[min(2 * c, last)])
                 for c in range((last + 1) // 2 + 1))


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


def sieve_instance_from_json(data, cap_elements=ELEMENT_CAP):
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
