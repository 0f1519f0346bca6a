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
import threading
from collections import Counter, namedtuple
from math import isqrt

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
                 pos_of, idx_of, down, up, semi_fail):
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
        lower = Counter(y for _x, y in covers)
        self._lone = sum(1 << pos_of[v] for v in range(n)
                         if rank[v] >= 2 and lower[v] == 1)
        self._mobius_cache = {}
        self._lock = threading.Lock()

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
        return [self._idx_of[p] for p in _bits(self._up[self._pos_of[x]])]

    def elements_of_rank(self, i):
        return [x for x in range(self.n_elems) if self.rank[x] == i]

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
        zero where y is not above x.  Memoized per base."""
        with self._lock:
            if x not in self._mobius_cache:
                self._mobius_cache[x] = self._compute_mobius(x)
            return self._mobius_cache[x]

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

    def partial_mobius_sum(self, k):
        """Sum of mu(bottom, y) over all y of rank <= k.

        Defined for every k >= 0; past the top rank the sum is constant
        (zero whenever the lattice has rank >= 1).
        """
        if k < 0:
            raise ValueError("cutoff must be >= 0")
        w = self.whitney_first()
        return sum(w[: k + 1])


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
    down = [1 << i for i in range(n)]
    up = [1 << i for i in range(n)]
    children = [[] for _ in range(n)]
    parents = [[] for _ in range(n)]
    for x, y in covers:
        children[y].append(x)
        parents[x].append(y)
    for y in range(n):
        d = down[y]
        for c in children[y]:
            d |= down[c]
        down[y] = d
    for x in range(n - 1, -1, -1):
        u = up[x]
        for p in parents[x]:
            u |= up[p]
        up[x] = u
    return down, up


def _cover_scan(n, covers, up, rank):
    """Check the join of every two upper covers of a common element.

    Positions must refine rank order and the poset must have a unique
    bottom and top.  Returns (join_fail, semi_fail): join_fail is the
    first cover pair without a join (the scan stops there), semi_fail
    maps each join position j, in scan order, to the first pair whose
    join is j and does not sit two ranks above the element they cover.
    """
    parents = [[] for _ in range(n)]
    for x, y in covers:
        parents[x].append(y)
    semi_fail = {}
    for z in range(n):
        ps = parents[z]
        rz2 = rank[z] + 2
        for i, x in enumerate(ps):
            ux = up[x]
            for y in ps[i + 1:]:
                u = ux & up[y]
                j = (u & -u).bit_length() - 1
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
    seen = set()
    for pair in covers:
        x, y = pair
        if not (0 <= x < n_elems and 0 <= y < n_elems):
            raise ValueError(f"cover {pair} out of range")
        if x == y:
            raise ValueError(f"cover {pair} is a self-loop")
        if (x, y) in seen:
            raise ValueError(f"duplicate cover {pair}")
        seen.add((x, y))
    _refuse_dense(n_elems, len(seen))
    covers = tuple(sorted(seen))

    children = [[] for _ in range(n_elems)]
    parents = [[] for _ in range(n_elems)]
    for x, y in covers:
        children[y].append(x)
        parents[x].append(y)

    # Kahn topological sort doubles as the cycle check
    indeg = [len(children[v]) for v in range(n_elems)]
    queue = [v for v in range(n_elems) if indeg[v] == 0]
    topo = []
    while queue:
        v = queue.pop()
        topo.append(v)
        for p in parents[v]:
            indeg[p] -= 1
            if indeg[p] == 0:
                queue.append(p)
    if len(topo) != n_elems:
        raise Cyclic("cover relation contains a cycle")

    minima = [v for v in range(n_elems) if not children[v]]
    if len(minima) != 1:
        raise MultipleMinima(f"minimal elements {sorted(minima)}")
    maxima = [v for v in range(n_elems) if not parents[v]]
    if len(maxima) != 1:
        raise MultipleMaxima(f"maximal elements {sorted(maxima)}")
    bottom, top = minima[0], maxima[0]

    rank = [0] * n_elems
    for v in topo:
        for c in children[v]:
            if rank[c] + 1 > rank[v]:
                rank[v] = rank[c] + 1
    for x, y in covers:
        if rank[y] != rank[x] + 1:
            raise NotGraded(
                f"cover ({x}, {y}) skips ranks {rank[x]} -> {rank[y]}")

    order = sorted(range(n_elems), key=lambda v: (rank[v], v))
    pos_of = [0] * n_elems
    for p, idx in enumerate(order):
        pos_of[idx] = p
    pos_covers = [(pos_of[x], pos_of[y]) for x, y in covers]
    pos_rank = [rank[idx] for idx in order]

    down, up = _transitive_closure(n_elems, pos_covers)
    join_fail, semi_fail = _cover_scan(n_elems, pos_covers, up, pos_rank)
    if join_fail is not None:
        a, b = (order[join_fail[0]], order[join_fail[1]])
        raise NotALattice(f"elements {a} and {b} have no join")

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
    for i, pair in enumerate(covers):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(map(_is_index, pair))):
            raise ValueError(
                f'lattice JSON "covers"[{i}] must be a pair of integers')
    labels = data.get("labels")
    if "labels" in data and not (isinstance(labels, list)
                                 and len(labels) == n):
        raise ValueError(
            'lattice JSON "labels" must be a list with one entry per element')
    return build_lattice(n, [tuple(pair) for pair in covers], labels)


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
