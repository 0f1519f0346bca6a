"""Finite graded lattices with exact Mobius-function machinery.

A lattice is built from its cover relation.  Construction validates the
whole contract up front: acyclicity, unique bottom and top, gradedness
of the covers against longest-chain rank, and existence of all joins.
Before any of that, a cover list longer than a lattice on n elements
can have (see _refuse_dense) is refused.  After that every query method
may assume a genuine graded lattice.

Internally elements are re-sorted by rank into "positions" and the
order relation is stored as two bitmask rows per element (down-set and
up-set).  In that layout the meet of x and y is the highest set bit of
down[x] & down[y] and the join is the lowest set bit of up[x] & up[y].

The lattice property is certified locally, from cover pairs only: for
every element z and every two elements x, y covering z, the lowest set
bit j of up[x] & up[y] must have exactly that up-set, i.e. j = x v y.
This suffices in a finite poset with a bottom.  Every pair x, y then
has a common lower bound z, and induction downwards on z gives x v y:
pick covers z < x1 <= x and z < y1 <= y.  If x1 = y1 it is a higher
common lower bound.  Otherwise w = x1 v y1 exists, the pairs (x, w) and
(x v w, y) have the higher common lower bounds x1 and y1, and
(x v w) v y, which lies below every upper bound of x and y, is their
join.  With a top as well, all joins give all meets.

The same pairs certify semimodularity: a finite graded lattice is
semimodular iff x v y has rank r(z) + 2 whenever x and y cover z
(Stanley, EC1, Prop. 3.3.2).  The cover pairs inside [0, y] are those
whose join lies below y, so the scan keeps the first breaking pair per
join, and the first kept below y is the witness for [0, y].

The build walks the cover list a fixed number of times.  Whole-list
tests in C (pair shape and type, range, self-loops, repeats) check it;
only when one fails is it walked pair by pair, to name the first bad
pair.  One Python walk then lists the upper covers of each element and
counts its lower covers; the sorted lists give lat.covers.  Kahn's
topological sort over those lists is the cycle check and sets the
longest-chain ranks as it goes.  Every cover climbs at least one rank,
so gradedness is one sum: the climbs must add up to the number of
covers.  Positions come from rank buckets, and the upper covers are
relabelled to positions once; that one adjacency feeds the closure and
the cover scan, and the lower-cover counts give the atomistic mask
below.  The scan keeps its own up-sets with bits in reverse position
order, so the least element of up[x] & up[y] is read off its bit
length, where the lowest set bit costs a two's-complement pass over
the whole mask.

Atomistic, from lower-cover counts: an element of rank >= 2 covering a
single y has all its atoms below y, so it is no join of atoms; and the
first non-join of atoms in rank order covers a single element, since
covering y1 != y2 makes it y1 v y2, a join of atoms.  So [0, y] is
atomistic iff no such element lies below y; the first is the witness.

Mobius tables, by value masks: mu(x, z) = -sum of mu(x, y) over
x <= y < z.  Positions are settled in rank order, and for every nonzero
value v settled so far a position mask M_v is kept, so the sum is
sum_v v * popcount(below(z) & M_v).  That costs one big-integer AND per
mask, where walking the set bits of below(z) costs one Python step per
element.  Each element takes whichever is fewer: the number of masks or
the number of elements below it, both known before the sum.  So no sum
takes more Python steps than the plain walk would; the price is one OR
into a mask per nonzero value.  Geometric lattices have few values (2
on boolean lattices, at most 20 on partition:8 and dowling:6:2), so
their tables are summed almost entirely by masks.
"""

import contextlib
import sys
from collections import namedtuple
from itertools import chain
from math import isqrt
from operator import eq, mul

from .errors import (
    Cyclic,
    MultipleMaxima,
    MultipleMinima,
    NotALattice,
    NotGraded,
)

__all__ = [
    "FiniteLattice",
    "GeometricCheck",
    "build_lattice",
    "lattice_to_json",
    "lattice_from_json",
]


class GeometricCheck(namedtuple("GeometricCheck", "ok failure witness",
                                defaults=(None, None))):
    """Outcome of the geometric-lattice test.

    failure is None, "NotAtomistic" (witness: one element index that is
    not a join of atoms) or "NotSemimodular" (witness: an offending
    pair).
    """

    __slots__ = ()

    def __bool__(self):
        return self.ok


class FiniteLattice:
    """Immutable finite graded lattice.  Use build_lattice() to create one."""

    def __init__(self, n, covers, labels, rank, bottom, top,
                 pos_of, idx_of, down, up, semi_fail, lone):
        self.n_elems = n
        self.covers = covers
        self.labels = labels
        self.rank = rank
        self.bottom = bottom
        self.top = top
        self._pos_of = pos_of
        self._idx_of = idx_of
        self._down = down
        self._up = up
        self._semi_fail = semi_fail  # join position -> first breaking pair
        self._lone = lone  # positions not a join of atoms: one lower cover
        self._mobius_cache = {}

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return self.n_elems

    def __repr__(self):
        return (f"<FiniteLattice n={self.n_elems} "
                f"rank={self.rank[self.top]}>")

    @property
    def top_rank(self):
        return self.rank[self.top]

    def leq(self, x, y):
        return bool(self._up[self._pos_of[x]] >> self._pos_of[y] & 1)

    def down_set(self, x):
        """Indices of all y <= x, in increasing rank order."""
        return [self._idx_of[p] for p in _bits(self._down[self._pos_of[x]])]

    def up_set(self, x):
        """Indices of all y >= x, in increasing rank order."""
        return [self._idx_of[p] for p in _bits(self._up[self._pos_of[x]])]

    # -- lattice operations --------------------------------------------

    def meet(self, x, y):
        d = self._down[self._pos_of[x]] & self._down[self._pos_of[y]]
        return self._idx_of[d.bit_length() - 1]

    def join(self, x, y):
        u = self._up[self._pos_of[x]] & self._up[self._pos_of[y]]
        return self._idx_of[(u & -u).bit_length() - 1]

    def join_all(self, xs):
        """Join of any finite family; the empty join is the bottom."""
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    def atoms(self):
        """Elements covering the bottom (equivalently, rank 1)."""
        return sorted(y for x, y in self.covers if x == self.bottom)

    # -- geometric test -------------------------------------------------

    def is_geometric(self):
        """Check the two geometric-lattice axioms.

        Atomistic: every element is a join of atoms.  Semimodular:
        r(x ^ y) + r(x v y) <= r(x) + r(y) for every pair.  The first
        failed axiom is reported with a witness.
        """
        return self._geometric_below(self.top)

    def _geometric_below(self, y):
        """is_geometric for [bottom, y], witnesses as indices of self."""
        d = self._down[self._pos_of[y]]
        lone = self._lone & d
        if lone:
            return GeometricCheck(False, "NotAtomistic", (
                self._idx_of[(lone & -lone).bit_length() - 1],))
        for j, (px, py) in self._semi_fail.items():
            if d >> j & 1:
                return GeometricCheck(False, "NotSemimodular",
                                      (self._idx_of[px], self._idx_of[py]))
        return GeometricCheck(True)

    # -- Mobius function --------------------------------------------------

    def mobius_table(self, x):
        """Tuple of mu(x, y) indexed by element y, as exact integers;
        zero where y is not above x.  Memoized per base; the memo holds
        immutable tuples, so two threads racing on one base only repeat
        the work."""
        table = self._mobius_cache.get(x)
        if table is None:
            table = self._mobius_cache[x] = self._compute_mobius(x)
        return table

    def mobius(self, x, y):
        return self.mobius_table(x)[y]

    def _compute_mobius(self, x):
        px = self._pos_of[x]
        up_x = self._up[px]
        mu = [0] * self.n_elems
        mu[px] = 1
        masks = {1: 1 << px}  # value v -> positions settled with mu = v
        # positions ascend with rank, so every y < z is settled before z
        for p in _bits(up_x & ~(1 << px)):
            below = (self._down[p] & up_x) & ~(1 << p)
            if len(masks) < below.bit_count():
                s = sum(v * (below & m).bit_count() for v, m in masks.items())
            else:
                s = sum(map(mu.__getitem__, _bits(below)))
            if s:
                mu[p] = -s
                masks[-s] = masks.get(-s, 0) | 1 << p
        return tuple(map(mu.__getitem__, self._pos_of))

    # -- Whitney numbers ----------------------------------------------

    def whitney_first(self):
        """w_i = sum of mu(bottom, y) over elements of rank i."""
        return self._whitney_below(self.top)

    def _whitney_below(self, y):
        """whitney_first of [bottom, y], from this lattice's table."""
        table = self.mobius_table(self.bottom)
        w = [0] * (self.rank[y] + 1)
        for v in self.down_set(y):
            w[self.rank[v]] += table[v]
        return tuple(w)

    def whitney_second(self):
        """W_i = number of elements of rank i (the rank profile)."""
        w = [0] * (self.top_rank + 1)
        for y in range(self.n_elems):
            w[self.rank[y]] += 1
        return tuple(w)


def _bits(mask):
    """Positions of set bits, ascending."""
    s = bin(mask)[:1:-1]  # least significant bit first, "0b" dropped
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _transitive_closure(n, covers):
    """Reflexive-transitive closure of a cover relation on positions.

    Positions must be topologically sorted (x < y for every cover
    (x, y)).  Returns (down, up): down[i] is the bitmask of {j : j <= i}
    and up[i] the bitmask of {j : i <= j}.
    """
    parents = [[] for _ in range(n)]
    for x, y in covers:
        parents[x].append(y)
    return _closure(parents)


def _closure(parents):
    """(down, up) of _transitive_closure, from the upper covers of each
    position: down pushed up the covers, up pulled down them."""
    n = len(parents)
    down = [1 << i for i in range(n)]
    for x, ps in enumerate(parents):
        d = down[x]
        for y in ps:
            down[y] |= d
    up = [1 << i for i in range(n)]
    for x in range(n - 1, -1, -1):
        u = up[x]
        for p in parents[x]:
            u |= up[p]
        up[x] = u
    return down, up


def _cover_scan(parents, rank):
    """Check the join of every two upper covers of a common element.

    parents[z] lists the upper covers of position z.  Positions must
    refine rank order and the poset must have a unique bottom and top.
    Returns (join_fail, semi_fail): join_fail is the first cover pair
    without a join (the scan stops there), semi_fail maps each join
    position j, in scan order, to the first pair whose join is j and
    does not sit two ranks above the element they cover.

    The scan keeps its own up-sets with position p at bit n - 1 - p, so
    the least position j of an intersection is read off its bit length
    rather than found by a lowest-bit search over the whole mask.
    """
    n = len(parents)
    rup = [1 << (n - 1 - p) for p in range(n)]
    for x in range(n - 1, -1, -1):
        r = rup[x]
        for p in parents[x]:
            r |= rup[p]
        rup[x] = r
    semi_fail = {}
    for z, ps in enumerate(parents):
        rz2 = rank[z] + 2
        for i, x in enumerate(ps):
            rx = rup[x]
            for y in ps[i + 1:]:
                u = rx & rup[y]
                j = n - u.bit_length()
                if rup[j] != u:
                    return (x, y), None
                if rank[j] != rz2:
                    semi_fail.setdefault(j, (x, y))
    return None, semi_fail


def _refuse_dense(n, c):
    """Raise NotALattice if c covers on n elements exceed the Reiman
    bound n(1 + sqrt(4n - 3))/2.  In a lattice two elements have at
    most one common upper cover (both covers would be their join), so
    sum_y C(#lower covers of y, 2) <= C(n, 2), and convexity gives the
    bound; its floor is taken with an exact integer square root."""
    most = (n + isqrt(n * n * (4 * n - 3))) // 2
    if c > most:
        raise NotALattice(
            f"{c} covers on {n} elements, over the {most} a lattice can have")


def _shown(value):
    """A cover entry for a message: one too long to print exactly is
    worded by the power of two its size reaches."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit
        power = f"2^{abs(value).bit_length() - 1}"
        return f"<=-{power}" if value < 0 else f">={power}"


def _check_each_cover(n_elems, covers):
    """Raise ValueError naming the first cover that is out of range, a
    self-loop or a repeat."""
    seen = set()
    for pair in covers:
        x, y = pair
        if not (0 <= x < n_elems and 0 <= y < n_elems):
            try:
                shown = str(pair)
            except ValueError:  # an entry past the int-to-str digit limit
                shown = f"({_shown(x)}, {_shown(y)})"
            raise ValueError(f"cover {shown} out of range")
        if x == y:
            raise ValueError(f"cover {pair} is a self-loop")
        if (x, y) in seen:
            raise ValueError(f"duplicate cover {pair}")
        seen.add((x, y))


def _cover_ends(n_elems, covers):
    """(xs, ys): the lower and the upper end of each cover, checked.

    Whole-list tests come first (tuple pairs of ints in range, no
    self-loop, no repeat); only when one fails are the pairs checked one
    by one, which names the first bad pair and lets through what the
    tests are too strict for, such as list pairs or bools."""
    covers = list(covers)
    if set(map(type, covers)) <= {tuple} and set(map(len, covers)) <= {2}:
        flat = list(chain.from_iterable(covers))
        xs, ys = flat[::2], flat[1::2]
        if (set(map(type, flat)) <= {int}
                and min(flat, default=0) >= 0
                and max(flat, default=0) < n_elems
                and not any(map(eq, xs, ys))
                and len(set(covers)) == len(covers)):
            return xs, ys
    _check_each_cover(n_elems, covers)
    return [x for x, _y in covers], [y for _x, y in covers]


def build_lattice(n_elems, covers, labels=None):
    """Validate a cover relation and build the lattice it generates.

    Raises Cyclic, MultipleMinima/MultipleMaxima (both a kind of
    NotALattice), NotGraded, or NotALattice when validation fails.  A
    cover list longer than any lattice on n_elems elements can have is
    refused with NotALattice before the order is sorted or closed.
    """
    if n_elems < 1:
        raise ValueError("a lattice needs at least one element")
    if labels is not None and len(labels) != n_elems:
        raise ValueError("labels length must equal n_elems")
    xs, ys = _cover_ends(n_elems, covers)
    _refuse_dense(n_elems, len(xs))

    parents = [[] for _ in range(n_elems)]  # upper covers, by index
    lower = [0] * n_elems  # number of lower covers
    for x, y in zip(xs, ys):
        parents[x].append(y)
        lower[y] += 1
    for ps in parents:
        ps.sort()
    covers = tuple((x, y) for x, ps in enumerate(parents) for y in ps)

    # Kahn's topological sort is the cycle check; it pushes ranks up
    # the covers, so an element's rank is final when it is queued
    rank = [0] * n_elems
    indeg = lower.copy()
    minima = [v for v in range(n_elems) if not lower[v]]
    queue = minima.copy()
    settled = 0
    while queue:
        v = queue.pop()
        settled += 1
        r = rank[v] + 1
        for p in parents[v]:
            if rank[p] < r:
                rank[p] = r
            indeg[p] -= 1
            if not indeg[p]:
                queue.append(p)
    if settled != n_elems:
        raise Cyclic("cover relation contains a cycle")

    if len(minima) != 1:
        raise MultipleMinima(f"minimal elements {minima}")
    maxima = [v for v in range(n_elems) if not parents[v]]
    if len(maxima) != 1:
        raise MultipleMaxima(f"maximal elements {maxima}")
    bottom, top = minima[0], maxima[0]

    # every cover climbs at least one rank, so each climbs exactly one
    # iff the climbs add up to the number of covers
    climb = sum(map(mul, rank, lower)) - sum(map(mul, rank, map(len, parents)))
    if climb != len(covers):
        for x, y in covers:
            if rank[y] != rank[x] + 1:
                raise NotGraded(
                    f"cover ({x}, {y}) skips ranks {rank[x]} -> {rank[y]}")

    buckets = [[] for _ in range(rank[top] + 1)]
    for v in range(n_elems):
        buckets[rank[v]].append(v)
    order = list(chain.from_iterable(buckets))
    pos_of = [0] * n_elems
    for p, idx in enumerate(order):
        pos_of[idx] = p
    pos_parents = [[pos_of[y] for y in parents[idx]] for idx in order]
    pos_rank = list(map(rank.__getitem__, order))

    down, up = _closure(pos_parents)
    join_fail, semi_fail = _cover_scan(pos_parents, pos_rank)
    if join_fail is not None:
        a, b = (order[join_fail[0]], order[join_fail[1]])
        raise NotALattice(f"elements {a} and {b} have no join")

    # rank >= 2 and a single lower cover: not a join of atoms
    lone = sum(1 << p for p, idx in enumerate(order)
               if lower[idx] == 1 and rank[idx] >= 2)
    return FiniteLattice(
        n=n_elems,
        covers=covers,
        labels=list(labels) if labels is not None else None,
        rank=rank,
        bottom=bottom,
        top=top,
        pos_of=pos_of,
        idx_of=order,
        down=down,
        up=up,
        semi_fail=semi_fail,
        lone=lone,
    )


def lattice_to_json(lat):
    """Plain-dict form: {"n": ..., "covers": [[x, y], ...], "labels"?}."""
    out = {"n": lat.n_elems, "covers": [list(c) for c in lat.covers]}
    if lat.labels is not None:
        out["labels"] = list(lat.labels)
    return out


def _is_index(value):
    """An int that is not a bool: JSON true would otherwise read as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_size(data):
    """The checked "n" of a lattice-JSON object."""
    if not isinstance(data, dict) or "n" not in data or "covers" not in data:
        raise ValueError('lattice JSON needs "n" and "covers"')
    n = data["n"]
    if not _is_index(n):
        raise ValueError(
            f'lattice JSON "n" must be an integer, not {type(n).__name__}')
    return n


def _check_each_json_pair(covers):
    """Raise ValueError naming the first entry of a lattice-JSON
    "covers" list that is not a pair of integers."""
    for i, pair in enumerate(covers):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(map(_is_index, pair))):
            raise ValueError(
                f'lattice JSON "covers"[{i}] must be a pair of integers')


def lattice_from_json(data):
    """Build from the plain-dict form; "n" and every cover entry must
    be integers, "covers" a list of pairs and "labels", when present, a
    list with one entry per element, or ValueError names the field.  A
    "covers" list longer than a lattice on n elements can have is
    refused with NotALattice before its entries are read."""
    n = _json_size(data)
    covers = data["covers"]
    if not isinstance(covers, list):
        raise ValueError('lattice JSON "covers" must be a list of pairs')
    if n >= 1:  # refused by count before each pair is checked
        _refuse_dense(n, len(covers))
    # whole-list tests; the pairs are walked only to name a bad one
    if not (set(map(type, covers)) <= {list}
            and set(map(len, covers)) <= {2}
            and set(map(type, chain.from_iterable(covers))) <= {int}):
        _check_each_json_pair(covers)
    labels = data.get("labels")
    if "labels" in data and not (isinstance(labels, list)
                                 and len(labels) == n):
        raise ValueError(
            'lattice JSON "labels" must be a list with one entry per element')
    return build_lattice(n, list(map(tuple, covers)), labels)


@contextlib.contextmanager
def _exact_digits():
    """Lift the interpreter's int-to-str digit limit while exact values
    are written or read back, and restore the old setting afterwards
    (no-op on Pythons without the limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
