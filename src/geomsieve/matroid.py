"""Matroids via rank functions, closure, flats, characteristic polynomial.

Two backends share one interface.  An explicit matroid stores its
family of independent sets (validated against the independence axioms
at construction); rank is computed greedily, which the exchange axiom
makes correct.  Oracle matroids (uniform, graphic, simplifications)
supply rank directly.

Subsets are passed as any iterable of ground-element indices and
returned as frozensets.
"""

from functools import cached_property
from itertools import combinations

from .errors import MatroidError, NotAFlat, NotSimple, TooLarge
from .poset import build_lattice

__all__ = [
    "Matroid",
    "flats_lattice",
    "char_poly",
    "mobius_via_closure",
    "simplify",
    "matroid_to_json",
    "matroid_from_json",
]

# Largest n for which a 2^n subset walk is run by default.
_SUBSET_CAP = 20


class Matroid:
    """A matroid on ground set {0..n-1}.

    The rank function never changes, so the flats and their covers are
    swept once per instance: flats(), flats_lattice() and the callers
    of either share the first sweep's result.
    """

    def __init__(self, n, rank_fn, kind, meta=None, indep_masks=None):
        if n < 0:
            raise MatroidError("ground set size must be >= 0")
        self.ground_size = n
        self._rank_fn = rank_fn
        self.kind = kind
        self.meta = meta or {}
        self._indep_masks = indep_masks

    def __repr__(self):
        return f"<Matroid {self.kind} n={self.ground_size}>"

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, k, n):
        """U_{k,n}: a set is independent iff it has at most k elements."""
        if not (0 <= k <= n):
            raise MatroidError("need 0 <= k <= n")

        def rank(mask):
            return min(_popcount(mask), k)

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

    @classmethod
    def from_independents(cls, n, independents):
        """Explicit matroid from its list of independent sets.

        Validates all three axioms: the empty set is independent, the
        family is closed under subsets, and the exchange property holds.
        """
        masks = set()
        for s in independents:
            mask = _to_mask(s, n)
            masks.add(mask)
        if 0 not in masks:
            raise MatroidError("the empty set must be independent")
        for mask in masks:
            m = mask
            while m:
                low = m & -m
                if mask ^ low not in masks:
                    raise MatroidError(
                        f"family not subset-closed at {_to_set(mask)}")
                m ^= low
        # exchange: |A| < |B| implies some e in B-A with A+e independent
        for a in masks:
            pa = _popcount(a)
            for b in masks:
                if pa < _popcount(b):
                    ok = False
                    extra = b & ~a
                    while extra:
                        low = extra & -extra
                        if a | low in masks:
                            ok = True
                            break
                        extra ^= low
                    if not ok:
                        raise MatroidError(
                            f"exchange fails for {_to_set(a)} and "
                            f"{_to_set(b)}")

        def rank(mask):
            # greedy; correct because the family satisfies exchange
            cur = 0
            m = mask
            while m:
                low = m & -m
                if cur | low in masks:
                    cur |= low
                m ^= low
            return _popcount(cur)

        return cls(n, rank, "explicit", indep_masks=frozenset(masks))

    # -- rank and closure -------------------------------------------------

    def rank_of(self, subset):
        return self._rank_fn(_to_mask(subset, self.ground_size))

    @property
    def full_rank(self):
        return self._rank_fn((1 << self.ground_size) - 1)

    def is_independent(self, subset):
        mask = _to_mask(subset, self.ground_size)
        if self._indep_masks is not None:
            return mask in self._indep_masks
        return self._rank_fn(mask) == _popcount(mask)

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
        """No loops and no two parallel elements."""
        for e in range(self.ground_size):
            if self._rank_fn(1 << e) == 0:
                return False
        for e, f in combinations(range(self.ground_size), 2):
            if self._rank_fn((1 << e) | (1 << f)) == 1:
                return False
        return True

    def flats(self):
        """Every flat, ordered by rank then lexicographically.

        The order matches the element indices of flats_lattice().
        """
        masks, _ = self._flat_covers
        return [_to_set(m) for m in masks]

    @cached_property
    def _flat_covers(self):
        """Flat masks in flats() order, and the cover pairs (i, j) of
        flat i covered by flat j, as two tuples from one sweep up from
        cl(empty), taken on first use and kept.

        For a flat F and an element e outside it, cl(F + e) covers F,
        and the flats covering F partition the elements outside F.  So
        sweep level k holds the flats of rank k, and each cover is met
        once, skipping the elements of the covers already found.
        """
        level = [self._closure_mask(0)]
        seen = set(level)
        masks, pairs = [], []
        while level:
            masks.extend(sorted(level, key=_sorted_tuple))
            nxt = []
            for fl in level:
                covered = fl
                for e in range(self.ground_size):
                    if not covered >> e & 1:
                        g = self._closure_mask(fl | (1 << e))
                        covered |= g
                        pairs.append((fl, g))
                        if g not in seen:
                            seen.add(g)
                            nxt.append(g)
            level = nxt
        index = {m: i for i, m in enumerate(masks)}
        return tuple(masks), tuple((index[f], index[g]) for f, g in pairs)


def flats_lattice(matroid):
    """The lattice of flats, ordered by inclusion.

    Only defined for simple matroids (raises NotSimple otherwise).
    Element i of the lattice is matroid.flats()[i].
    """
    if not matroid.is_simple():
        raise NotSimple(f"{matroid!r} has loops or parallel elements")
    masks, covers = matroid._flat_covers
    labels = ["{" + ",".join(map(str, _sorted_tuple(m))) + "}"
              for m in masks]
    return build_lattice(len(masks), covers, labels)


def _refuse_subsets(n):
    """Refuse a walk over the 2^n subsets of an n-set past 2^_SUBSET_CAP."""
    if n > _SUBSET_CAP:
        raise TooLarge(f"2^{n} subsets exceed the cap 2^{_SUBSET_CAP}")


def char_poly(matroid):
    """Characteristic polynomial by direct subset expansion: the tuple
    (w_0, ..., w_r) of first-kind Whitney numbers, top degree first.

    Enumerates all 2^n subsets, so the ground set is capped at 20
    (raises TooLarge beyond it).  A matroid with a loop gives zeros.
    """
    n = matroid.ground_size
    _refuse_subsets(n)
    r = matroid.full_rank
    w = [0] * (r + 1)
    rank_fn = matroid._rank_fn
    for mask in range(1 << n):
        w[rank_fn(mask)] += -1 if _popcount(mask) & 1 else 1
    return tuple(w)


def mobius_via_closure(matroid, flat):
    """mu(closure(empty), F) computed without building the lattice:
    the sum of (-1)^|A| over the subsets A of F that span F (Rota's
    closure route).

    A subset A of a flat F has closure exactly F when r(A) = r(F), so
    each subset costs one rank evaluation and the whole sum 2^|F|.
    Raises NotAFlat when F is not closed, and TooLarge when |F| is over
    20, char_poly's cap, before any subset is visited.
    """
    mask = _to_mask(flat, matroid.ground_size)
    _refuse_subsets(_popcount(mask))
    if matroid._closure_mask(mask) != mask:
        raise NotAFlat(f"{sorted(_to_set(mask))} is not closed")
    rank_fn = matroid._rank_fn
    r = rank_fn(mask)
    total = 0
    sub = mask
    while True:  # every submask of mask, down to 0
        if rank_fn(sub) == r:
            total += -1 if _popcount(sub) & 1 else 1
        if not sub:
            return total
        sub = (sub - 1) & mask


def simplify(matroid):
    """Delete loops and collapse parallel classes to representatives.

    Returns (simple_matroid, mapping) where mapping[e] is the new index
    of ground element e, or None when e is a loop.
    """
    n = matroid.ground_size
    reps = []
    rep_of_class = {}
    mapping = [None] * n
    for e in range(n):
        if matroid._rank_fn(1 << e) == 0:
            continue
        cls_key = matroid._closure_mask(1 << e)
        if cls_key not in rep_of_class:
            rep_of_class[cls_key] = len(reps)
            reps.append(e)
        mapping[e] = rep_of_class[cls_key]

    rep_masks = reps

    def rank(mask):
        big = 0
        for i, e in enumerate(rep_masks):
            if mask >> i & 1:
                big |= 1 << e
        return matroid._rank_fn(big)

    simple = Matroid(len(reps), rank, "simplified",
                     {"of": matroid.kind, "representatives": list(reps)})
    return simple, mapping


# -- JSON ----------------------------------------------------------------

def matroid_to_json(matroid):
    if matroid.kind == "uniform":
        return {"type": "uniform", "k": matroid.meta["k"],
                "n": matroid.meta["n"]}
    if matroid.kind == "graphic":
        return {"type": "graphic", "vertices": matroid.meta["vertices"],
                "edges": [list(e) for e in matroid.meta["edges"]]}
    if matroid.kind == "explicit":
        return {"type": "explicit", "n": matroid.ground_size,
                "independents": [sorted(_to_set(m))
                                 for m in sorted(matroid._indep_masks)]}
    raise MatroidError(f"cannot serialize a {matroid.kind} matroid")


def matroid_from_json(data):
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError('matroid JSON needs a "type"')
    t = data["type"]
    if t == "uniform":
        return Matroid.uniform(int(data["k"]), int(data["n"]))
    if t == "graphic":
        return Matroid.graphic(int(data["vertices"]),
                               [tuple(e) for e in data["edges"]])
    if t == "explicit":
        return Matroid.from_independents(int(data["n"]),
                                         data["independents"])
    raise ValueError(f"unknown matroid type {t!r}")


# -- small helpers ---------------------------------------------------------

def _popcount(mask):
    return mask.bit_count()


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


def _sorted_tuple(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
