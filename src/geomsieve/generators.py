"""Stock lattices and named-generator parsing for the CLI.

Generator names understood by parse_named():

    boolean:n      subset lattice of an n-set
    partition:n    set partitions of an n-set under refinement
    dowling:n:m    Dowling lattice of rank n over the cyclic group Z_m
    uniform:k:n    lattice of flats of the uniform matroid U_{k,n}
    graphic:k4     lattice of flats of the graphic matroid of K_4 (or k5)
    chain:r        a chain with ranks 0..r (not geometric for r >= 2)
    divisor:N      divisors of N under divisibility

Partitions are enumerated and covered on key codes: a partition is
the tuple of its blocks' bitmasks in least-element order, and merging
two blocks ors their masks in the place of the earlier one, so each
cover is a tuple slice and one dict lookup, with no sort.  Sorted
blocks and labels come from one table of every subset's elements.

load_lattice() is the one admission path for lattice sources: it takes
a generator name or a lattice-JSON dict and refuses, with TooLarge, any
source over the element cap before building it.  Names are sized from
small lower bounds, so a huge parameter never forms a huge number.
"""

import sys
from functools import lru_cache
from itertools import accumulate
from math import comb

from .errors import ELEMENT_CAP, TooLarge, refuse_over
from .poset import build_lattice, lattice_from_json

__all__ = [
    "boolean_lattice",
    "partition_lattice",
    "chain_lattice",
    "divisor_lattice",
    "load_lattice",
    "parse_named",
    "set_partitions",
]


def _members(n):
    """members[s]: the elements of the subset with bitmask s, ascending,
    for every s < 2^n."""
    members = [()]
    for i in range(n):
        members += [subset + (i,) for subset in members]
    return members


@lru_cache(maxsize=None)
def boolean_lattice(n):
    """Subsets of {0..n-1}; element index is the subset bitmask."""
    if n < 0:
        raise ValueError("n must be >= 0")
    bits = [1 << e for e in range(n)]
    covers = [(s, s | b) for s in range(1 << n) for b in bits if not s & b]
    labels = ["{" + ",".join(map(str, m)) + "}" for m in _members(n)]
    return build_lattice(1 << n, covers, labels)


def _partition_keys(n):
    """Every partition of {0..n-1} as the tuple of its blocks' bitmasks,
    blocks in least-element order, in set_partitions' order.

    Element i joins each block of a partition of {0..i-1} in turn and
    then starts a block of its own; growing all partitions one element
    at a time keeps that order.
    """
    keys = [()]
    for i in range(n):
        bit = 1 << i
        nxt = []
        for p in keys:
            nxt += [p[:j] + (p[j] | bit,) + p[j + 1:] for j in range(len(p))]
            nxt.append(p + (bit,))
        keys = nxt
    return keys


def set_partitions(n):
    """All partitions of {0..n-1} as tuples of sorted-tuple blocks,
    blocks ordered by least element, in a deterministic order."""
    members = _members(n)
    return [tuple(map(members.__getitem__, p)) for p in _partition_keys(n)]


@lru_cache(maxsize=None)
def partition_lattice(n):
    """Partitions of an n-set ordered by refinement; rank n-1 overall.

    The bottom is the all-singletons partition and a cover merges two
    blocks.  Element i is set_partitions(n)[i]; merging block b into an
    earlier block a puts the or of their masks in a's place, which
    keeps the least-element order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    keys = _partition_keys(n)
    index = {p: i for i, p in enumerate(keys)}
    covers = [(i, index[p[:a] + (p[a] | p[b],) + p[a + 1:b] + p[b + 1:]])
              for i, p in enumerate(keys)
              for a in range(len(p))
              for b in range(a + 1, len(p))]
    text = [",".join(map(str, block)) for block in _members(n)]
    labels = ["|".join(map(text.__getitem__, p)) or "-" for p in keys]
    return build_lattice(len(keys), covers, labels)


@lru_cache(maxsize=None)
def chain_lattice(r):
    """A chain 0 < 1 < ... < r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return build_lattice(r + 1, [(i, i + 1) for i in range(r)])


@lru_cache(maxsize=None)
def divisor_lattice(n):
    """Divisors of n under divisibility (meet gcd, join lcm)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    divs = [d for d in range(1, n + 1) if n % d == 0]
    index = {d: i for i, d in enumerate(divs)}
    primes = [p for p in divs if p > 1
              and all(p % q for q in range(2, p)) ]
    covers = []
    for d in divs:
        for p in primes:
            if d * p in index:
                covers.append((index[d], index[d * p]))
    return build_lattice(len(divs), covers, [str(d) for d in divs])


def _bell_numbers(n):
    """Bell(0), ..., Bell(n), read off the Bell triangle row by row."""
    row = [1]
    yield 1
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        yield row[0]


def load_lattice(source, cap_elements=ELEMENT_CAP):
    """Build a lattice from a generator name or a lattice-JSON dict,
    refusing it before the build if it has more elements than the cap."""
    if isinstance(source, str):
        return parse_named(source, cap_elements)
    return lattice_from_json(source, cap_elements)


def _field(name, text):
    """An integer field of a generator name, refused by name if not one;
    past the int-to-str digit limit, refused by its digit count."""
    try:
        return int(text)
    except ValueError:
        field = text.strip()
        digits = field[1:] if field[:1] in ("+", "-") else field
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if 0 < limit < len(digits) and digits.isdecimal():
            raise TooLarge(
                f"{name.split(':')[0]} name has a {len(digits)}-digit "
                f"field, past the {limit}-digit limit on integers") from None
        if field.lstrip("+-").isdigit():  # '+-5', a superscript: int()'s
            raise
        raise ValueError(f"{name}: {text!r} is not an integer") from None


def parse_named(name, cap_elements=ELEMENT_CAP):
    """Build a lattice from a generator name, enforcing the size cap."""
    parts = name.split(":")
    kind = parts[0]

    if kind == "boolean" and len(parts) == 2:
        n = _field(name, parts[1])
        refuse_over(name, (1 << i for i in range(n + 1)), cap_elements)
        return boolean_lattice(n)
    if kind == "partition" and len(parts) == 2:
        n = _field(name, parts[1])
        refuse_over(name, _bell_numbers(n), cap_elements)
        return partition_lattice(n)
    if kind == "chain" and len(parts) == 2:
        r = _field(name, parts[1])
        refuse_over(name, [r + 1], cap_elements)
        return chain_lattice(r)
    if kind == "divisor" and len(parts) == 2:
        n = _field(name, parts[1])
        refuse_over(name, [n], cap_elements)
        return divisor_lattice(n)
    if kind == "dowling" and len(parts) == 3:
        from . import dowling
        n, m = (_field(name, p) for p in parts[1:])
        return dowling._admit(n, m, cap_elements)[2]
    if kind == "uniform" and len(parts) == 3:
        k, n = (_field(name, p) for p in parts[1:])
        # the flats of rank < k, none of rank over n, and the ground set
        sizes = (comb(n, i) for i in range(min(k, n + 1)))
        refuse_over(name, accumulate(sizes, initial=1), cap_elements)
        from . import matroid
        mat = matroid.Matroid.uniform(k, n)
        mat.cap_flats = cap_elements  # its flats were counted just above
        if k <= 1 and n > k:  # a loop (k = 0) or a parallel pair (k = 1)
            raise matroid._not_simple(mat)
        return matroid.flats_lattice(mat)
    if kind == "graphic" and len(parts) == 2:
        if parts[1] not in ("k4", "k5"):
            raise ValueError(f"unknown graph {parts[1]!r}")
        nv = 4 if parts[1] == "k4" else 5
        refuse_over(name, _bell_numbers(nv), cap_elements)
        from . import matroid
        return matroid.flats_lattice(matroid.Matroid.complete_graphic(nv))
    raise ValueError(f"unknown generator name {name!r}")
