"""Matroids via rank functions, closure, flats, characteristic polynomial.

A matroid is its rank function on bitmasks of the ground set: uniform
and graphic matroids compute rank directly, and a caller may pass any
rank function to Matroid().  Independence, closure and flats are all
read from rank.  closure_mobius gives the Mobius function of the flats
by Rota's closure route, from one walk over the subsets.

Subsets are passed as any iterable of ground-element indices and
returned as frozensets.
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations

from . import errors
from .errors import MatroidError, NotSimple, TooLarge
from .poset import _bits, build_lattice

__all__ = [
    "Matroid",
    "flats_lattice",
    "char_poly",
    "closure_mobius",
    "ClosureMobius",
]

class Matroid:
    """A matroid on ground set {0..n-1}.

    The rank function never changes, so the flats and their covers are
    swept once per instance: flats(), flats_lattice() and the callers
    of either share the first sweep's result, which is refused with
    TooLarge past cap_flats flats.
    """

    cap_flats = errors.ELEMENT_CAP

    def __init__(self, n, rank_fn, kind, meta=None):
        if n < 0:
            raise MatroidError("ground set size must be >= 0")
        self.ground_size = n
        self._rank_fn = rank_fn
        self.kind = kind
        self.meta = meta or {}

    def __repr__(self):
        return f"<Matroid {self.kind} n={self.ground_size}>"

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, k, n):
        """U_{k,n}: a set is independent iff it has at most k elements."""
        if not (0 <= k <= n):
            raise MatroidError("need 0 <= k <= n")

        def rank(mask):
            return min(mask.bit_count(), k)

        return cls(n, rank, "uniform", {"k": k, "n": n})

    @classmethod
    def graphic(cls, n_vertices, edges):
        """Cycle matroid of a multigraph; ground elements are the edges."""
        edges = [tuple(e) for e in edges]
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise MatroidError(f"edge ({u}, {v}) out of range")

        def rank(mask):
            parent = list(range(n_vertices))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            r = 0
            for i, (u, v) in enumerate(edges):
                if mask >> i & 1:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        parent[ru] = rv
                        r += 1
            return r

        return cls(len(edges), rank, "graphic",
                   {"vertices": n_vertices, "edges": edges})

    @classmethod
    def complete_graphic(cls, n_vertices):
        edges = list(combinations(range(n_vertices), 2))
        return cls.graphic(n_vertices, edges)

    # -- rank and closure -------------------------------------------------

    def rank_of(self, subset):
        return self._rank_fn(_to_mask(subset, self.ground_size))

    @property
    def full_rank(self):
        return self._rank_fn((1 << self.ground_size) - 1)

    def is_independent(self, subset):
        mask = _to_mask(subset, self.ground_size)
        return self._rank_fn(mask) == mask.bit_count()

    def closure(self, subset):
        """All elements whose addition does not raise the rank."""
        mask = _to_mask(subset, self.ground_size)
        return _to_set(self._closure_mask(mask))

    def _closure_mask(self, mask):
        r = self._rank_fn(mask)
        out = mask
        for e in range(self.ground_size):
            if not mask >> e & 1 and self._rank_fn(mask | (1 << e)) == r:
                out |= 1 << e
        return out

    def is_flat(self, subset):
        mask = _to_mask(subset, self.ground_size)
        return self._closure_mask(mask) == mask

    def is_simple(self):
        """No loops and no two parallel elements, read off the sweep of
        flats(): cl(empty) is empty and every rank-1 flat, a flat
        covering cl(empty), is one element."""
        _masks, members, covers = self._flat_covers
        return not members[0] and all(len(members[j]) == 1
                                      for i, j in covers if not i)

    def flats(self):
        """Every flat, ordered by rank then lexicographically.

        The order matches the element indices of flats_lattice().
        """
        _masks, members, _pairs = self._flat_covers
        return [frozenset(t) for t in members]

    @cached_property
    def _flat_covers(self):
        """Flat masks in flats() order, the sorted elements of each, and
        the cover pairs (i, j) of flat i covered by flat j, as three
        tuples from one sweep up from cl(empty), taken on first use and
        kept.

        This needs a matroid rank function.  For a flat F of rank r and
        an element e outside it, F + e has rank r + 1 and its closure
        cl(F + e) covers F; the flats covering F partition the elements
        outside F.  So sweep level k holds the flats of rank k, each
        cover is met once from the least element outside the covers
        found so far, and its closure tests only the elements outside
        those covers, one rank call each.  A set of full rank closes to
        the ground set without a test.  Once the flats found exceed
        cap_flats the sweep is refused with TooLarge, after the flat
        whose covers crossed it.
        """
        rank_fn = self._rank_fn
        ground = (1 << self.ground_size) - 1
        top = self.full_rank
        level = [self._closure_mask(0)]
        members = {level[0]: tuple(_bits(level[0]))}  # flat -> its elements
        r = 0
        masks, pairs = [], []
        while level:
            level.sort(key=members.__getitem__)
            masks += level
            nxt = []
            for fl in level:
                covered = fl
                while covered != ground:
                    rest = ground ^ covered
                    low = rest & -rest
                    if r + 1 == top:
                        g = ground
                    else:
                        g = base = fl | low
                        rest ^= low
                        while rest:
                            bit = rest & -rest
                            rest ^= bit
                            if rank_fn(base | bit) == r + 1:
                                g |= bit
                    covered |= g
                    pairs.append((fl, g))
                    if g not in members:
                        members[g] = tuple(_bits(g))
                        nxt.append(g)
                if len(members) > self.cap_flats:
                    errors.refuse_over(f"the lattice of flats of {self!r}",
                                       [len(members)], self.cap_flats)
            level = nxt
            r += 1
        index = {m: i for i, m in enumerate(masks)}
        return (tuple(masks), tuple(map(members.__getitem__, masks)),
                tuple((index[f], index[g]) for f, g in pairs))

    @cached_property
    def _closure_mobius(self):
        """closure_mobius(self), taken on first use and kept."""
        ranks = _rank_table(self)
        ground = len(ranks) - 1
        top = ranks[ground]
        closed = [0] * len(ranks)  # cl(A), by the mask of A
        mobius = {}  # flat -> sum of (-1)^|A| over A with cl(A) = flat
        for a, r in enumerate(ranks):
            low = a & -a
            less = closed[a ^ low]
            if low and ranks[a ^ low] == r:
                cl = less
            elif r == top:
                cl = ground
            else:
                cl = a | less
                rest = ground ^ cl
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if ranks[a | bit] == r:
                        cl |= bit
            closed[a] = cl
            mobius[cl] = mobius.get(cl, 0) + (-1 if a.bit_count() & 1 else 1)
        return ClosureMobius(
            _whitney_first(ranks),
            tuple(mobius.get(m, 0) for m in self._flat_covers[0]))


def flats_lattice(matroid):
    """The lattice of flats, ordered by inclusion.

    Only defined for simple matroids (raises NotSimple otherwise).
    Element i of the lattice is matroid.flats()[i].
    """
    if not matroid.is_simple():
        raise _not_simple(matroid)
    masks, members, covers = matroid._flat_covers
    labels = ["{" + ",".join(map(str, t)) + "}" for t in members]
    return build_lattice(len(masks), covers, labels)


def _not_simple(matroid):
    return NotSimple(f"{matroid!r} has loops or parallel elements")


def _rank_table(matroid):
    """The rank of each of the 2^n subsets, by mask: one rank call each.

    The walk is refused with TooLarge past 2^20 subsets, before any rank
    call.
    """
    n = matroid.ground_size
    if n > errors.SUBSET_CAP:
        raise TooLarge(f"2^{n} subsets exceed the cap 2^{errors.SUBSET_CAP}")
    return list(map(matroid._rank_fn, range(1 << n)))


def _whitney_first(ranks):
    """(w_0, ..., w_r): the sum of (-1)^|A| over the subsets A of each
    rank, read from a rank table."""
    w = [0] * (ranks[-1] + 1)
    for mask, r in enumerate(ranks):
        w[r] += -1 if mask.bit_count() & 1 else 1
    return tuple(w)


def char_poly(matroid):
    """Characteristic polynomial by direct subset expansion: the tuple
    (w_0, ..., w_r) of first-kind Whitney numbers, top degree first.

    Enumerates all 2^n subsets, so the ground set is capped at 20
    (raises TooLarge beyond it).  A matroid with a loop gives zeros.
    """
    return _whitney_first(_rank_table(matroid))


ClosureMobius = namedtuple("ClosureMobius", "char_poly mobius")


def closure_mobius(matroid):
    """char_poly(matroid) and mu(cl(empty), F) for every flat F, in
    flats() order, from one walk over the 2^n subsets (Rota's closure
    route): mu(cl(empty), F) is the sum of (-1)^|A| over the subsets A
    whose closure is F.

    Each rank is read once into a table, and every subset is closed from
    that table alone: if dropping A's least element e keeps the rank,
    then e lies in cl(A - e) and cl(A) = cl(A - e); otherwise cl(A)
    holds cl(A - e) and A, and each element outside those is tested
    with one table lookup, unless A has full rank and closes to the
    ground set.  So the walk makes 2^n rank calls, and the flats' order
    comes from the sweep of flats().  Like char_poly it refuses a ground
    set over 20 elements with TooLarge, before any rank call.  The
    result is kept on the matroid; the tables are not.
    """
    return matroid._closure_mobius


# -- small helpers ---------------------------------------------------------

def _to_mask(subset, n):
    if isinstance(subset, int):
        raise TypeError("pass subsets as iterables of element indices")
    mask = 0
    for e in subset:
        if not 0 <= e < n:
            raise MatroidError(f"element {e} outside ground set 0..{n - 1}")
        mask |= 1 << e
    return mask


def _to_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)
