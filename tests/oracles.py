"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive and written against the
definitions, with different algorithms than the package (matrix-style
Mobius inversion instead of per-base recursion, quadratic bound scans
instead of bitmask tricks), so agreement is meaningful.

The per-entry forms of dowling's two triangle checks live here too,
as the references their column forms are compared against, and so do
the per-entry forms of brun's sequence checks.

It also holds test-only constructions the package does not ship: the
explicit matroid of a family of independent sets (from_independents)
and simplification (simplify), which build loopy, parallel and
simplified matroids for the matroid tests.
"""

from itertools import combinations, islice
from math import comb
from operator import itemgetter, mul

from geomsieve import dowling
from geomsieve.errors import MatroidError
from geomsieve.matroid import Matroid
from geomsieve.poset import build_lattice


def leq_matrix(n, covers):
    """Reflexive-transitive closure as a set of (x, y) pairs, by
    repeated relational squaring (no topological assumptions)."""
    rel = {(i, i) for i in range(n)}
    rel.update((x, y) for x, y in covers)
    while True:
        extra = {(a, d)
                 for a, b in rel for c, d in rel if b == c} - rel
        if not extra:
            break
        rel |= extra
    return rel


def naive_meet(n, rel, x, y):
    """Greatest lower bound by scanning all elements; None if the set of
    lower bounds has no greatest element."""
    lower = [z for z in range(n) if (z, x) in rel and (z, y) in rel]
    best = [z for z in lower if all((w, z) in rel for w in lower)]
    return best[0] if len(best) == 1 else None


def naive_join(n, rel, x, y):
    upper = [z for z in range(n) if (x, z) in rel and (y, z) in rel]
    best = [z for z in upper if all((z, w) in rel for w in upper)]
    return best[0] if len(best) == 1 else None


def naive_is_atomistic(n, rel, bottom):
    """Every element is the least upper bound of the atoms below it."""
    atoms = [a for a in range(n) if a != bottom
             and all(w in (bottom, a) for w in range(n) if (w, a) in rel)]
    for x in range(n):
        below = [a for a in atoms if (a, x) in rel]
        upper = [z for z in range(n) if all((a, z) in rel for a in below)]
        if not all((x, z) in rel for z in upper):
            return False
    return True


def scan_pairs(n, down, up, rank):
    """All-pairs lattice scan: the reference for build_lattice's cover
    certificate.

    Positions 0..n-1 must refine rank order; down/up are bitmask rows of
    the order relation.  One pass over all unordered pairs checks meets,
    joins, and the semimodular inequality r(meet) + r(join) <= r(x) +
    r(y).  Returns (meet_fail, join_fail, semi_fail), each None or the
    first offending pair in scan order.  Stops at the first meet/join
    failure; the semimodular scan runs to completion otherwise.
    """
    semi_fail = None
    for x in range(n):
        dx = down[x]
        ux = up[x]
        rx = rank[x]
        for y in range(x + 1, n):
            if ux >> y & 1:
                # comparable: meet is x, join is y, inequality is equality
                continue
            d = dx & down[y]
            if d == 0:
                return (x, y), None, None
            m = d.bit_length() - 1
            if down[m] != d:
                return (x, y), None, None
            u = ux & up[y]
            if u == 0:
                return None, (x, y), None
            j = (u & -u).bit_length() - 1
            if up[j] != u:
                return None, (x, y), None
            if semi_fail is None and rank[m] + rank[j] > rx + rank[y]:
                semi_fail = (x, y)
    return None, None, semi_fail


def all_pairs_verdict(n, rel, rank):
    """scan_pairs on an element-indexed relation; offending pairs are
    mapped back to element indices."""
    order = sorted(range(n), key=lambda v: (rank[v], v))
    down = [sum(1 << p for p, w in enumerate(order) if (w, v) in rel)
            for v in order]
    up = [sum(1 << p for p, w in enumerate(order) if (v, w) in rel)
          for v in order]
    result = scan_pairs(n, down, up, [rank[v] for v in order])
    return tuple(None if pair is None else (order[pair[0]], order[pair[1]])
                 for pair in result)


def check_covers(n_elems, covers):
    """Pair-by-pair check of a cover list under build_lattice's contract,
    from any source: the reference for its whole-list test.  Raises the
    ValueError that names the first entry that is not a tuple or list
    pair of non-bool ints, or else the first pair out of range, a
    self-loop or a repeat of an earlier pair."""
    for i, pair in enumerate(covers):
        if not isinstance(pair, (tuple, list)):
            what = type(pair).__name__
        elif len(pair) != 2:
            what = f"{len(pair)}-entry {type(pair).__name__}"
        else:
            bad = [v for v in pair
                   if not isinstance(v, int) or isinstance(v, bool)]
            what = type(bad[0]).__name__ if bad else None
        if what is not None:
            raise ValueError(
                f"covers[{i}] must be a pair of integers, not {what}")
    for i, (x, y) in enumerate(covers):
        if x not in range(n_elems) or y not in range(n_elems):
            raise ValueError(f"cover ({x}, {y}) out of range")
        if x == y:
            raise ValueError(f"cover ({x}, {y}) is a self-loop")
        if [x, y] in [list(p) for p in covers[:i]]:
            raise ValueError(f"duplicate cover ({x}, {y})")


def naive_mobius_matrix(n, rel):
    """mu(x, y) for all pairs by inverting zeta row by row."""
    mu = {}
    # order elements by the size of their down-set so predecessors of y
    # are handled before y regardless of index layout
    by_height = sorted(range(n), key=lambda v: sum((u, v) in rel
                                                   for u in range(n)))
    for x in range(n):
        for y in by_height:
            if (x, y) not in rel:
                mu[x, y] = 0
            elif x == y:
                mu[x, y] = 1
            else:
                mu[x, y] = -sum(mu[x, z] for z in range(n)
                                if (x, z) in rel and (z, y) in rel
                                and z != y)
    return mu


def naive_ranks(n, rel):
    """Rank of each element: the length of a longest chain from a
    minimal element up to it."""
    rank = {}
    for y in sorted(range(n), key=lambda v: sum((u, v) in rel
                                                for u in range(n))):
        rank[y] = max((rank[z] + 1 for z in range(n)
                       if (z, y) in rel and z != y), default=0)
    return rank


def naive_brun_bounds(n, rel, mu, A, tau, cutoff):
    """(lower, upper) from the definition: the sum over y <= tau of
    mu(bottom, y) #{a in A : y <= a}, truncated at rank 2*cutoff + 1
    for the lower bound and at rank 2*cutoff for the upper.  mu is
    naive_mobius_matrix(n, rel); A is a multiset of elements."""
    bottom = next(v for v in range(n) if all((v, w) in rel
                                             for w in range(n)))
    rank = naive_ranks(n, rel)

    def truncated(max_rank):
        return sum(mu[bottom, y] * naive_count_above(rel, A, y)
                   for y in range(n)
                   if (y, tau) in rel and rank[y] <= max_rank)

    return truncated(2 * cutoff + 1), truncated(2 * cutoff)


def naive_count_above(rel, A, y):
    """#{a in A : y <= a}, one order test per element of the multiset
    A; rel is leq_matrix's relation."""
    return sum(1 for a in A if (y, a) in rel)


def bell_numbers(n_max):
    """Bell(0..n_max) via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def r_dowling_numbers(m, r, n_max):
    """D_{m,r}(0..n_max) from D(n + 1) = r D(n) + sum_j C(n, j) m^j
    D(n - j), read off the exponential generating function
    exp(rz + (e^{mz} - 1)/m), whose derivative is (r + e^{mz}) times
    itself; no Whitney triangle is used."""
    out = [1]
    for n in range(n_max):
        out.append(r * out[n] + sum(comb(n, j) * m ** j * out[n - j]
                                    for j in range(n + 1)))
    return out


def bisect_delta(m, r, n, digits):
    """The positive root of delta (r + e^{m delta}) = n to 10^-(digits
    + 10) relative, by doubling an upper end until it brackets the root
    and then bisecting the bracket; no derivative is used."""
    import mpmath as mp

    with mp.workdps(digits + 20):
        def phi(d):
            return d * (r + mp.exp(m * d)) - n

        lo, hi = mp.mpf(0), mp.mpf(1)
        while phi(hi) < 0:
            lo, hi = hi, 2 * hi
        tol = mp.mpf(10) ** -(digits + 10)
        while hi - lo > lo * tol:
            mid = (lo + hi) / 2
            if phi(mid) < 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def stirling1_signed(n_max):
    """Signed Stirling numbers of the first kind s(n, k)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(n + 1):
            row[k] = (prev[k - 1] if k >= 1 else 0) \
                - (n - 1) * (prev[k] if k <= n - 1 else 0)
        rows.append(row)
    return rows


def stirling2(n_max):
    """Stirling numbers of the second kind S(n, k)."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(n + 1):
            row[k] = (prev[k - 1] if k >= 1 else 0) \
                + k * (prev[k] if k <= n - 1 else 0)
        rows.append(row)
    return rows


def entrywise_orthogonality_check(m, n_max):
    """dowling.conv_orthogonality_check entry by entry: both products of
    the two triangles, each entry (n, s) a sum over r from min(n, s) to
    max(n, s) with the triangles' zeros skipped, read in the order n,
    then s over 0..n_max, then second*first before first*second."""
    first = list(dowling.whitney_first_rows(m, n_max))
    second = list(dowling.whitney_second_rows(m, 1, n_max))
    for n in range(n_max + 1):
        for s in range(n_max + 1):
            want = 1 if n == s else 0
            lo, hi = min(n, s), max(n, s)
            a = sum(second[n][r_] * first[r_][s]
                    for r_ in range(lo, hi + 1) if r_ <= n and s <= r_)
            if a != want:
                return False, ("second*first", n, s)
            b = sum(first[n][r_] * second[r_][s]
                    for r_ in range(lo, hi + 1) if r_ <= n and s <= r_)
            if b != want:
                return False, ("first*second", n, s)
    return True, None


def entrywise_grid_check(m, n_max, t_max, s_max):
    """dowling.conv_grid_check one triple at a time: c_{n,t}(s) as a sum
    over k >= max(t - s, 0) of w(n, k) W(k + s, t), reading W's rows
    from the stream, against the series and W_{m,1+mn}(s, t - n), and
    stopping at the first (n, t, s) where they differ."""
    second = list(dowling.whitney_second_rows(m, 1, n_max + s_max))
    for n, first in enumerate(dowling.whitney_first_rows(m, n_max)):
        shifted = list(dowling.whitney_second_rows(m, 1 + m * n, s_max))
        for t in range(t_max + 1):
            series = dowling.conv_series(m, n, t, s_max)
            for s in range(s_max + 1):
                lo = max(t - s, 0)
                conv = sum(map(mul, first[lo:],
                               map(itemgetter(t), islice(second, lo + s, None))))
                direct = shifted[s][t - n] if 0 <= t - n <= s else 0
                if not conv == series[s] == direct:
                    return False, (n, t, s)
    return True, None


def naive_closure(mat, subset):
    """Definitional closure: every x whose addition keeps the rank."""
    subset = frozenset(subset)
    r = mat.rank_of(subset)
    return frozenset(x for x in range(mat.ground_size)
                     if mat.rank_of(subset | {x}) == r)


def naive_mobius_via_closure(mat, flat):
    """mu(cl(empty), F) by Rota's closure route, from the definition:
    the sum of (-1)^|A| over every subset A of F whose closure is F."""
    flat = frozenset(flat)
    return sum((-1) ** size
               for size in range(len(flat) + 1)
               for subset in combinations(sorted(flat), size)
               if naive_closure(mat, subset) == flat)


def naive_char_poly(mat):
    """(w_0, ..., w_r) from the definition: w_i is the sum of (-1)^|A|
    over the subsets A of rank i, each subset a tuple of elements."""
    w = [0] * (mat.full_rank + 1)
    for size in range(mat.ground_size + 1):
        for subset in combinations(range(mat.ground_size), size):
            w[mat.rank_of(subset)] += (-1) ** size
    return tuple(w)


def naive_flat_covers(mat, flats):
    """Cover pairs (i, j) of a list of flats: r(F_j) = r(F_i) + 1 and
    F_i a proper subset of F_j, by a scan over all pairs."""
    ranks = [mat.rank_of(f) for f in flats]
    return sorted((i, j) for i, fi in enumerate(flats)
                  for j, fj in enumerate(flats)
                  if ranks[j] == ranks[i] + 1 and fi < fj)


def _subset_mask(subset, n):
    mask = 0
    for e in subset:
        if not 0 <= e < n:
            raise MatroidError(f"element {e} outside ground set 0..{n - 1}")
        mask |= 1 << e
    return mask


def _elements(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def from_independents(n, independents):
    """Explicit matroid on {0..n-1} from its list of independent sets.

    Validates all three axioms, raising MatroidError: the empty set is
    independent, the family is closed under subsets, and the exchange
    property holds.  Rank is then computed greedily, which exchange
    makes correct.
    """
    masks = {_subset_mask(s, n) for s in independents}
    if 0 not in masks:
        raise MatroidError("the empty set must be independent")
    for mask in masks:
        m = mask
        while m:
            low = m & -m
            if mask ^ low not in masks:
                raise MatroidError(
                    f"family not subset-closed at {_elements(mask)}")
            m ^= low
    # exchange: |A| < |B| implies some e in B-A with A+e independent
    for a in masks:
        for b in masks:
            if a.bit_count() < b.bit_count():
                extra = b & ~a
                while extra:
                    low = extra & -extra
                    if a | low in masks:
                        break
                    extra ^= low
                else:
                    raise MatroidError(f"exchange fails for {_elements(a)} "
                                       f"and {_elements(b)}")

    def rank(mask):
        cur = 0
        m = mask
        while m:
            low = m & -m
            if cur | low in masks:
                cur |= low
            m ^= low
        return cur.bit_count()

    return Matroid(n, rank, "explicit")


def simplify(mat):
    """Delete loops and collapse parallel classes to representatives.

    Returns (simple_matroid, mapping) where mapping[e] is the new index
    of ground element e, or None when e is a loop.
    """
    reps = []
    rep_of_class = {}
    mapping = [None] * mat.ground_size
    for e in range(mat.ground_size):
        if mat.rank_of([e]) == 0:
            continue
        key = mat.closure([e])
        if key not in rep_of_class:
            rep_of_class[key] = len(reps)
            reps.append(e)
        mapping[e] = rep_of_class[key]

    def rank(mask):
        return mat.rank_of([e for i, e in enumerate(reps) if mask >> i & 1])

    simple = Matroid(len(reps), rank, "simplified",
                     {"of": mat.kind, "representatives": list(reps)})
    return simple, mapping


def naive_sifted_count(lat, A, tau):
    """Count of a in A with meet(a, tau) == bottom, via naive meets."""
    rel = {(x, y) for x in range(lat.n_elems) for y in range(lat.n_elems)
           if lat.leq(x, y)}
    return sum(1 for a in A
               if naive_meet(lat.n_elems, rel, a, tau) == lat.bottom)


def interval(lat, x, y):
    """[x, y] rebuilt as a lattice of its own from lat's leq, covers and
    rank alone: (sublattice, members), the members numbered in (rank,
    index) order and members[i] the element of lat at new index i."""
    members = sorted((v for v in range(lat.n_elems)
                      if lat.leq(x, v) and lat.leq(v, y)),
                     key=lambda v: (lat.rank[v], v))
    renum = {v: i for i, v in enumerate(members)}
    covers = [(renum[a], renum[b]) for a, b in lat.covers
              if a in renum and b in renum]
    labels = None if lat.labels is None else [lat.labels[v]
                                              for v in members]
    return build_lattice(len(members), covers, labels), members


def is_canonical_dowling_key(key, n, m):
    """A Dowling key (blocks, exps) of Q_n(Z_m) in canonical form: the
    blocks are nonempty, sorted, disjoint subsets of 0..n-1 ordered by
    least element, with exponents in 0..m-1 and the least element of
    each block at exponent 0."""
    blocks, exps = key
    if len(blocks) != len(exps):
        return False
    seen = []
    for b, e in zip(blocks, exps):
        if not b or len(b) != len(e) or list(b) != sorted(set(b)):
            return False
        if e[0] != 0 or not all(0 <= ex < m for ex in e):
            return False
        seen.extend(b)
    mins = [b[0] for b in blocks]
    return (mins == sorted(mins) and len(set(seen)) == len(seen)
            and all(0 <= x < n for x in seen))


def dowling_key_leq(p, q, m):
    """p <= q for Dowling keys (blocks, exps) of Q_n(Z_m), from the
    definition: every block of q is a union of blocks of p, each carried
    over with its labels shifted by one element of Z_m."""
    where = {x: i for i, b in enumerate(p[0]) for x in b}
    for b, ex in zip(*q):
        shifts = {}
        for x, beta in zip(b, ex):
            i = where.get(x)
            if i is None or not set(p[0][i]) <= set(b):
                return False
            shift = (beta - p[1][i][p[0][i].index(x)]) % m
            if shifts.setdefault(i, shift) != shift:
                return False
    return True


def set_partitions(n):
    """All partitions of {0..n-1} as tuples of sorted-tuple blocks,
    blocks ordered by least element, by a depth-first walk that puts
    element i in each block in turn and then in a block of its own."""
    if n == 0:
        return [()]
    out = []

    def extend(i, blocks):
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            extend(i + 1, blocks)
            b.pop()
        blocks.append([i])
        extend(i + 1, blocks)
        blocks.pop()

    extend(0, [])
    return out


def partition_lattice(n):
    """Pi_n with element i the i-th of set_partitions(n): each cover
    merges two blocks, re-sorts the merged block and then the blocks;
    the reference for generators.partition_lattice."""
    parts = set_partitions(n)
    index = {p: i for i, p in enumerate(parts)}
    covers = []
    for p in parts:
        blocks = list(p)
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                merged = tuple(sorted(blocks[i] + blocks[j]))
                rest = [b for t, b in enumerate(blocks) if t not in (i, j)]
                q = tuple(sorted(rest + [merged]))
                covers.append((index[p], index[q]))
    labels = ["|".join(",".join(map(str, b)) for b in p) or "-"
              for p in parts]
    return build_lattice(len(parts), covers, labels)


def dowling_keys(n, m):
    """Keys (blocks, exps) of Q_n(Z_m) by a depth-first walk: element i
    goes to the zero block, then starts a block, then joins each block
    with each exponent in turn."""
    out = []
    blocks = []

    def rec(i):
        if i == n:
            out.append((tuple(tuple(b) for b, _ in blocks),
                        tuple(tuple(e) for _, e in blocks)))
            return
        rec(i + 1)
        blocks.append(([i], [0]))
        rec(i + 1)
        blocks.pop()
        for b, e in blocks:
            for t in range(m):
                b.append(i)
                e.append(t)
                rec(i + 1)
                b.pop()
                e.pop()

    rec(0)
    return out


def dowling_upper_keys(blocks, exps, m):
    """The keys covering (blocks, exps) in Q_n(Z_m): each block absorbed
    into the zero block, then each pair of blocks i < j merged with j's
    labels shifted by t = 0..m-1, a merge re-sorting the two blocks'
    (element, exponent) pairs."""
    out = [(blocks[:i] + blocks[i + 1:], exps[:i] + exps[i + 1:])
           for i in range(len(blocks))]
    for i, (bi, ei) in enumerate(zip(blocks, exps)):
        for j in range(i + 1, len(blocks)):
            head_b, tail_b = blocks[:i], blocks[i + 1:j] + blocks[j + 1:]
            head_e, tail_e = exps[:i], exps[i + 1:j] + exps[j + 1:]
            for t in range(m):
                mb, me = zip(*sorted(zip(
                    bi + blocks[j], ei + tuple((e + t) % m for e in exps[j]))))
                out.append((head_b + (mb,) + tail_b, head_e + (me,) + tail_e))
    return out


def dowling_label(blocks, exps):
    """Block notation of a key: "0^0,2^1|1^0", or "~" for the top."""
    if not blocks:
        return "~"
    return "|".join(",".join(f"{x}^{e}" for x, e in zip(b, ex))
                    for b, ex in zip(blocks, exps))


def dowling_lattice(n, m):
    """(keys, lattice) of Q_n(Z_m) from dowling_keys and
    dowling_upper_keys: the reference for dowling._qn_data."""
    keys = dowling_keys(n, m)
    index = {key: i for i, key in enumerate(keys)}
    covers = [(i, index[up]) for i, key in enumerate(keys)
              for up in dowling_upper_keys(*key, m)]
    labels = [dowling_label(*key) for key in keys]
    return keys, build_lattice(len(keys), covers, labels)


def flat_covers(mat):
    """(flat masks, cover pairs) by the sweep up from cl(empty) that
    closes F + e over every element outside it, for each e outside the
    covers of F found so far: the reference for Matroid._flat_covers.
    Flats are ordered by rank, then by their sorted elements."""
    n = mat.ground_size

    def closure(mask):
        r = mat._rank_fn(mask)
        return mask | sum(1 << e for e in range(n) if not mask >> e & 1
                          and mat._rank_fn(mask | 1 << e) == r)

    level = [closure(0)]
    seen = set(level)
    masks, pairs = [], []
    while level:
        masks.extend(sorted(level, key=lambda f: sorted(_elements(f))))
        nxt = []
        for fl in level:
            covered = fl
            for e in range(n):
                if not covered >> e & 1:
                    g = closure(fl | 1 << e)
                    covered |= g
                    pairs.append((fl, g))
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
        level = nxt
    index = {f: i for i, f in enumerate(masks)}
    return masks, [(index[f], index[g]) for f, g in pairs]


def flats_lattice(mat):
    """The lattice of flats from flat_covers, labelled by sorted
    elements: the reference for matroid.flats_lattice."""
    masks, pairs = flat_covers(mat)
    labels = ["{" + ",".join(map(str, sorted(_elements(f)))) + "}"
              for f in masks]
    return build_lattice(len(masks), pairs, labels)


def entrywise_nonnegative(seq, negative):
    """brun._nonnegative entry by entry: TypeError at the first entry
    not an int or a Fraction, then negative(i) at the first negative."""
    from fractions import Fraction

    seq = list(seq)
    if not seq:
        raise ValueError("empty sequence")
    for i, v in enumerate(seq):
        if not isinstance(v, (int, Fraction)):
            raise TypeError(
                f"entry {i} is {type(v).__name__}; use int or Fraction")
    for i, v in enumerate(seq):
        if v < 0:
            raise negative(i)
    return seq


def entrywise_check_signs(partial):
    """brun._check_signs entry by entry: the first even cutoff with a
    negative partial sum or odd cutoff with a positive one."""
    from geomsieve.errors import BrunViolation

    for k, t in enumerate(partial):
        if k % 2 == 0 and t < 0:
            raise BrunViolation(f"even cutoff {k} gives {t} < 0")
        if k % 2 == 1 and t > 0:
            raise BrunViolation(f"odd cutoff {k} gives {t} > 0")


def entrywise_partial_sums_check(seq):
    """brun.alternating_partial_sums_check with every entry walked: the
    same hypotheses, in the same order, with the same witnesses."""
    from geomsieve.brun import _peak
    from geomsieve.errors import HypothesisViolated

    seq = entrywise_nonnegative(
        seq, lambda i: HypothesisViolated("non-negative", i))
    if _peak(seq) is None:
        raise HypothesisViolated("unimodal", tuple(seq))
    partial = []
    for i, v in enumerate(seq):
        term = v if i % 2 == 0 else -v
        partial.append(partial[-1] + term if partial else term)
    if partial[-1] != 0:
        raise HypothesisViolated("zero-alternating-sum", partial[-1])
    entrywise_check_signs(partial)
    return tuple(partial)
