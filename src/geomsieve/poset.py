"""Finite graded lattices with exact Mobius-function machinery.

A lattice is built from its cover relation, and build_lattice is the one
place that checks it, for every source (generators, matroids, lattice
JSON).  A cover list longer than a lattice on n elements can have (see
_refuse_dense) is refused by its length first.  Then each cover must be
a pair (tuple or list) of non-bool ints in range, with no self-loop and
no repeat.  Then the whole contract is validated up front: acyclicity,
unique bottom and top, gradedness of the covers against longest-chain
rank, and existence of all joins.  After that every query method may
assume a genuine graded lattice.

Internally elements are re-sorted by rank into "positions", each rank
one run of them; the build records where each run starts.  The order is
one down-set and one up-set mask per element, each as long as the
positions on its side: down[p] holds each q <= p at bit q and up[p]
each q >= p at bit n - 1 - q.  The meet of x and y is the highest set
bit of down[x] & down[y], and the join the least position in
up[x] & up[y], read off its bit length too (a lowest-set-bit search
costs a two's-complement pass over the mask).  No cover list is kept:
lat.covers reads the upper covers of x off up[x], in the next rank.

The lattice property is certified locally, from cover pairs only: for
every element z and every two elements x, y covering z, the least
position j in up[x] & up[y] must have exactly that up-set, i.e.
j = x v y.  This suffices in a finite poset with a bottom.  Every pair
x, y then has a common lower bound z, and induction downwards on z
gives x v y: pick covers z < x1 <= x and z < y1 <= y.  If x1 = y1 it is
a higher common lower bound.  Otherwise w = x1 v y1 exists, the pairs
(x, w) and (x v w, y) have the higher common lower bounds x1 and y1,
and (x v w) v y, which lies below every upper bound of x and y, is
their join.  With a top as well, all joins give all meets.

The same pairs certify semimodularity: a finite graded lattice is
semimodular iff x v y has rank r(z) + 2 whenever x and y cover z
(Stanley, EC1, Prop. 3.3.2).  The cover pairs inside [0, y] are those
whose join lies below y, so the scan keeps the first breaking pair per
join, and the first kept below y is the witness for [0, y].

The build walks the cover list a fixed number of times.  One whole-list
test in C (pair shape and type, range, self-loops, repeats) checks it;
only when it fails is it walked pair by pair, to name the first bad
entry.  One Python walk then lists the upper covers of each element,
sorted (which fixes the scan order, and so the witnesses), and counts
its lower covers.  Kahn's topological sort over those lists is the
cycle check and sets the longest-chain ranks as it goes.  Every cover
climbs at least one rank, so gradedness is one sum: the climbs must add
up to the number of covers.  Positions come from rank buckets, and the
upper covers are relabelled to positions once; that one adjacency feeds
the closure, whose up-sets the cover scan reads, and the lower-cover
counts give the atomistic mask below.

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

Up-set counts of a multiset, by the same device: the sieve's #A_y is
sum_k k * popcount(up(y) & L_k), where L_k masks the elements of
multiplicity k in A.  That is one AND per distinct multiplicity, so an
empty A costs nothing and A = every element once costs one popcount.
"""

import contextlib
import sys
from collections import namedtuple
from itertools import accumulate, chain
from math import isqrt
from operator import eq, mul, sub

from .errors import (
    ELEMENT_CAP,
    Cyclic,
    MultipleMaxima,
    MultipleMinima,
    NotALattice,
    NotGraded,
    refuse_over,
    shown,
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

    def __init__(self, n, labels, rank, bottom, top, pos_of, idx_of,
                 starts, down, up, semi_fail, lone):
        self.n_elems = n
        self.labels = labels
        self.rank = rank
        self.bottom = bottom
        self.top = top
        self._pos_of = pos_of
        self._idx_of = idx_of
        self._starts = starts  # first position of each rank, then n
        self._down = down  # position q at bit q
        self._up = up  # position q at bit n - 1 - q
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

    @property
    def covers(self):
        """The cover pairs (x, y), sorted: x's upper covers are its up-set's
        part of the next rank's run, which ascends with the index."""
        n, s, idx_of, up = self.n_elems, self._starts, self._idx_of, self._up
        top, out = self.top_rank, []
        for x, (p, r) in enumerate(zip(self._pos_of, self.rank)):
            if r == top:
                continue
            lo, hi = s[r + 1], s[r + 2]
            run = f"{up[p] >> n - hi & (1 << hi - lo) - 1:0{hi - lo}b}"
            k = run.find("1")  # run[k] is position lo + k
            while k >= 0:
                out.append((x, idx_of[lo + k]))
                k = run.find("1", k + 1)
        return tuple(out)

    def leq(self, x, y):
        return bool(self._down[self._pos_of[y]] >> self._pos_of[x] & 1)

    def down_set(self, x):
        """Indices of all y <= x, in increasing rank order."""
        return [self._idx_of[p] for p in _bits(self._down[self._pos_of[x]])]

    def up_set(self, x):
        """Indices of all y >= x, in increasing rank order."""
        return [self._idx_of[p] for p in _bits(self._up_mask(x))]

    def _up_mask(self, x):
        """The up-set of x with position q at bit q, as down-sets have it."""
        p = self._pos_of[x]
        return int(f"{self._up[p]:0{self.n_elems - p}b}"[::-1], 2) << p

    # -- lattice operations --------------------------------------------

    def meet(self, x, y):
        d = self._down[self._pos_of[x]] & self._down[self._pos_of[y]]
        return self._idx_of[d.bit_length() - 1]

    def join(self, x, y):
        u = self._up[self._pos_of[x]] & self._up[self._pos_of[y]]
        return self._idx_of[self.n_elems - u.bit_length()]

    def join_all(self, xs):
        """Join of any finite family; the empty join is the bottom."""
        out = self.bottom
        for x in xs:
            out = self.join(out, x)
        return out

    def atoms(self):
        """Elements covering the bottom (equivalently, rank 1)."""
        s = self._starts
        return self._idx_of[s[1]:s[2]] if len(s) > 2 else []

    def _up_bits(self, counts):
        """(k, mask) layers from a Counter of elements, one per distinct
        multiplicity k: the mask holds the elements of multiplicity k in
        up-set bit order (position q at bit n - 1 - q)."""
        last, pos_of, masks = self.n_elems - 1, self._pos_of, {}
        for a, k in counts.items():
            masks[k] = masks.get(k, 0) | 1 << last - pos_of[a]
        return list(masks.items())

    def _count_above(self, y, layers):
        """Sum of the multiplicities of the elements above y: one AND and
        one popcount of y's up-set per _up_bits layer."""
        up = self._up[self._pos_of[y]]
        return sum(k * (up & mask).bit_count() for k, mask in layers)

    def _rank_profiles(self, x):
        """(upper, lower): the number of y >= x in each rank from rank(x)
        to the top, and of y <= x in each rank up to rank(x), each the
        difference of two popcounts of a mask cut at a rank run's ends."""
        p, r, n, s = self._pos_of[x], self.rank[x], self.n_elems, self._starts
        before = [(self._up[p] >> n - q).bit_count() for q in s]
        after = [(self._down[p] >> q).bit_count() for q in s]
        return (tuple(map(sub, before[r + 1:], before[r:-1])),
                tuple(map(sub, after[:r + 1], after[1:r + 2])))

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
        up_x = self._up_mask(x)
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
        """w_i = sum of mu(bottom, y) over elements of rank i: one sum
        of the bottom's Mobius table over each rank run of positions."""
        table, idx_of, s = (self.mobius_table(self.bottom), self._idx_of,
                            self._starts)
        return tuple(sum(map(table.__getitem__, idx_of[a:b]))
                     for a, b in zip(s, s[1:]))

    def _whitney_below(self, y):
        """whitney_first of [bottom, y], from this lattice's table."""
        table = self.mobius_table(self.bottom)
        w = [0] * (self.rank[y] + 1)
        for v in self.down_set(y):
            w[self.rank[v]] += table[v]
        return tuple(w)

    def whitney_second(self):
        """W_i = number of elements of rank i (the rank profile)."""
        return tuple(map(sub, self._starts[1:], self._starts[:-1]))


def _bits(mask):
    """Positions of set bits, ascending."""
    s = bin(mask)[:1:-1]  # least significant bit first, "0b" dropped
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _closure(parents):
    """(down, up) of the order on positions, from the upper covers of
    each position (positions topologically sorted): down[i] holds the
    j <= i with j at bit j, pushed up the covers, and up[i] the j >= i
    with j at bit n - 1 - j, pulled down them."""
    n = len(parents)
    down = [1 << i for i in range(n)]
    for x, ps in enumerate(parents):
        d = down[x]
        for y in ps:
            down[y] |= d
    up = [1 << n - 1 - i for i in range(n)]
    for x in range(n - 1, -1, -1):
        u = up[x]
        for p in parents[x]:
            u |= up[p]
        up[x] = u
    return down, up


def _cover_scan(parents, rank, up):
    """Check the join of every two upper covers of a common element.

    parents[z] lists the upper covers of position z and up holds the
    up-sets of _closure.  Positions must refine rank order and the poset
    must have a unique bottom and top.  Returns (join_fail, semi_fail):
    join_fail is the first cover pair without a join (the scan stops
    there), semi_fail maps each join position j, in scan order, to the
    first pair whose join is j and does not sit two ranks above the
    element they cover.
    """
    n = len(parents)
    semi_fail = {}
    for z, ps in enumerate(parents):
        rz2 = rank[z] + 2
        for i, x in enumerate(ps):
            ux = up[x]
            for y in ps[i + 1:]:
                u = ux & up[y]
                j = n - u.bit_length()
                if up[j] != u:
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


def _is_index(value):
    """An int that is not a bool: True would otherwise read as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_each_cover(n_elems, covers):
    """Raise ValueError naming the first bad cover: first any entry
    that is not a pair of non-bool ints, then the first out of range, a
    self-loop or a repeat."""
    for i, pair in enumerate(covers):
        if not isinstance(pair, (tuple, list)):
            what = type(pair).__name__
        elif len(pair) != 2:
            what = f"{len(pair)}-entry {type(pair).__name__}"
        else:
            what = next((type(v).__name__ for v in pair if not _is_index(v)),
                        None)
        if what is not None:
            raise ValueError(
                f"covers[{i}] must be a pair of integers, not {what}")
    seen = set()
    for x, y in covers:
        if not (0 <= x < n_elems and 0 <= y < n_elems):
            raise ValueError(f"cover ({shown(x)}, {shown(y)}) out of range")
        if x == y:
            raise ValueError(f"cover ({x}, {y}) is a self-loop")
        if (x, y) in seen:
            raise ValueError(f"duplicate cover ({x}, {y})")
        seen.add((x, y))


def _cover_ends(n_elems, covers):
    """(xs, ys): the lower and the upper end of each cover, checked.

    One whole-list test checks the contract (tuple or list pairs of
    ints in range, no self-loop, no repeat); only when it fails are the
    pairs checked one by one, which names the first bad entry and lets
    through int and tuple subclasses, which the test is too strict for."""
    types = set(map(type, covers))
    if types <= {tuple, list} and set(map(len, covers)) <= {2}:
        flat = list(chain.from_iterable(covers))
        xs, ys = flat[::2], flat[1::2]
        pairs = covers if types == {tuple} else zip(xs, ys)  # lists don't hash
        if (set(map(type, flat)) <= {int}
                and min(flat, default=0) >= 0
                and max(flat, default=0) < n_elems
                and not any(map(eq, xs, ys))
                and len(set(pairs)) == len(xs)):
            return xs, ys
    _check_each_cover(n_elems, covers)
    return [x for x, _y in covers], [y for _x, y in covers]


def build_lattice(n_elems, covers, labels=None):
    """Validate a cover relation and build the lattice it generates.

    Each cover is a pair (tuple or list) of ints, not bools, in
    range(n_elems), with no self-loop and no repeat; ValueError names
    the first entry that breaks this.  A cover list longer than any
    lattice on n_elems elements can have is refused with NotALattice by
    its length, before any pair is read.  Then Cyclic,
    MultipleMinima/MultipleMaxima (both a kind of NotALattice),
    NotGraded or NotALattice is raised when validation fails.
    """
    if n_elems < 1:
        raise ValueError("a lattice needs at least one element")
    if labels is not None and len(labels) != n_elems:
        raise ValueError("labels length must equal n_elems")
    if not isinstance(covers, (list, tuple)):
        covers = list(covers)
    _refuse_dense(n_elems, len(covers))
    xs, ys = _cover_ends(n_elems, covers)

    parents = [[] for _ in range(n_elems)]  # upper covers, by index
    lower = [0] * n_elems  # number of lower covers
    for x, y in zip(xs, ys):
        parents[x].append(y)
        lower[y] += 1
    for ps in parents:
        ps.sort()

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
    if climb != len(xs):
        for x, ps in enumerate(parents):
            for y in ps:
                if rank[y] != rank[x] + 1:
                    raise NotGraded(f"cover ({x}, {y}) skips ranks "
                                    f"{rank[x]} -> {rank[y]}")

    buckets = [[] for _ in range(rank[top] + 1)]
    for v in range(n_elems):
        buckets[rank[v]].append(v)
    starts = (0, *accumulate(map(len, buckets)))
    order = list(chain.from_iterable(buckets))
    pos_of = [0] * n_elems
    for p, idx in enumerate(order):
        pos_of[idx] = p
    pos_parents = [[pos_of[y] for y in parents[idx]] for idx in order]
    pos_rank = list(map(rank.__getitem__, order))

    down, up = _closure(pos_parents)
    join_fail, semi_fail = _cover_scan(pos_parents, pos_rank, up)
    if join_fail is not None:
        a, b = (order[join_fail[0]], order[join_fail[1]])
        raise NotALattice(f"elements {a} and {b} have no join")

    # rank >= 2 and a single lower cover: not a join of atoms
    lone = sum(1 << p for p, idx in enumerate(order)
               if lower[idx] == 1 and rank[idx] >= 2)
    return FiniteLattice(
        n=n_elems,
        labels=list(labels) if labels is not None else None,
        rank=rank,
        bottom=bottom,
        top=top,
        pos_of=pos_of,
        idx_of=order,
        starts=starts,
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


def lattice_from_json(data, cap_elements=ELEMENT_CAP):
    """Build from the plain-dict form; "n" must be an integer, "covers"
    a list and "labels", when present, a list with one entry per
    element, or ValueError names the field.  The cover entries are
    checked by build_lattice, as for every source.  An "n" over
    cap_elements is refused with TooLarge before the covers are read."""
    if not isinstance(data, dict) or "n" not in data or "covers" not in data:
        raise ValueError('lattice JSON needs "n" and "covers"')
    n, covers = data["n"], data["covers"]
    if not _is_index(n):
        raise ValueError(
            f'lattice JSON "n" must be an integer, not {type(n).__name__}')
    refuse_over("lattice JSON", [n], cap_elements)
    if not isinstance(covers, list):
        raise ValueError('lattice JSON "covers" must be a list of pairs')
    labels = data.get("labels")
    if "labels" in data and not (isinstance(labels, list)
                                 and len(labels) == n):
        raise ValueError(
            'lattice JSON "labels" must be a list with one entry per element')
    return build_lattice(n, covers, labels)


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
