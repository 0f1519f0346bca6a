"""The benchmark's own lattice generators and closed-form oracles.

Nothing here imports geomsieve: every answer the benchmark checks is
computed from these independent definitions.  A lattice is returned as
``(n, covers, rank, meta)`` with elements numbered 0..n-1 and ``meta``
holding whatever the oracles need (subset masks, set partitions, ...).
"""

import random
from itertools import combinations
from math import comb


# -- generators ----------------------------------------------------------------

def boolean(n):
    """Subsets of an n-set; element s is the subset bitmask."""
    size = 1 << n
    covers = [(s, s | 1 << e) for s in range(size) for e in range(n)
              if not s >> e & 1]
    rank = [bin(s).count("1") for s in range(size)]
    return size, covers, rank, list(range(size))


def set_partitions(n):
    """Partitions of {0..n-1} as tuples of sorted blocks, in a fixed order."""
    out = []

    def extend(i, blocks):
        if i == n:
            out.append(tuple(sorted(tuple(b) for b in blocks)))
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


def partition(n):
    """Set partitions of an n-set under refinement; a cover merges two blocks."""
    parts = set_partitions(n)
    index = {p: i for i, p in enumerate(parts)}
    covers = []
    for i, p in enumerate(parts):
        for a, b in combinations(range(len(p)), 2):
            rest = [blk for t, blk in enumerate(p) if t not in (a, b)]
            q = tuple(sorted(rest + [tuple(sorted(p[a] + p[b]))]))
            covers.append((i, index[q]))
    rank = [n - len(p) for p in parts]
    return len(parts), covers, rank, parts


def _normal_block(pairs, m):
    """A labelled block as sorted (element, label) pairs, smallest label 0."""
    pairs = sorted(pairs)
    shift = pairs[0][1]
    return tuple((x, (g - shift) % m) for x, g in pairs)


def dowling(n, m):
    """The Dowling lattice Q_n(Z_m) as partial Z_m-partitions.

    An element is (zero set, labelled blocks); the bottom has n singleton
    blocks and the rank is n minus the number of blocks.  A cover either
    merges two blocks under one of m relative shifts or moves a block into
    the zero set.
    """
    elems = []

    def rec(i, zero, blocks):
        if i == n:
            elems.append((tuple(zero),
                          tuple(sorted(tuple(b) for b in blocks))))
            return
        zero.append(i)
        rec(i + 1, zero, blocks)
        zero.pop()
        blocks.append([(i, 0)])
        rec(i + 1, zero, blocks)
        blocks.pop()
        for b in blocks:
            for g in range(m):
                b.append((i, g))
                rec(i + 1, zero, blocks)
                b.pop()

    rec(0, [], [])
    index = {e: i for i, e in enumerate(elems)}
    covers = []
    for i, (zero, blocks) in enumerate(elems):
        for a in range(len(blocks)):
            rest = blocks[:a] + blocks[a + 1:]
            up = (tuple(sorted(zero + tuple(x for x, _ in blocks[a]))), rest)
            covers.append((i, index[up]))
        for a, b in combinations(range(len(blocks)), 2):
            rest = [blk for t, blk in enumerate(blocks) if t not in (a, b)]
            for g in range(m):
                merged = _normal_block(
                    blocks[a] + tuple((x, (h + g) % m) for x, h in blocks[b]),
                    m)
                covers.append((i, index[(zero, tuple(sorted(rest + [merged])))]))
    rank = [n - len(blocks) for _zero, blocks in elems]
    return len(elems), covers, rank, elems


def uniform(k, n):
    """Flats of U_{k,n}: subsets of size < k, then the whole ground set."""
    small = [s for s in range(1 << n) if bin(s).count("1") < k]
    index = {s: i for i, s in enumerate(small)}
    top = len(small)
    covers = []
    for s in small:
        if bin(s).count("1") == k - 1:
            covers.append((index[s], top))
            continue
        for e in range(n):
            if not s >> e & 1:
                covers.append((index[s], index[s | 1 << e]))
    rank = [bin(s).count("1") for s in small] + [k]
    return top + 1, covers, rank, small + [(1 << n) - 1]


def chain(length):
    return length, [(i, i + 1) for i in range(length - 1)], \
        list(range(length)), None


def build(kind, *params):
    return {"boolean": boolean, "partition": partition, "dowling": dowling,
            "uniform": uniform}[kind](*params)


# -- closed-form Whitney numbers of the first kind ------------------------------

def _from_roots(roots):
    """Coefficients w_0.. of prod (t - r) read from the top degree down."""
    w = [1]
    for r in roots:
        w = [a - r * b for a, b in zip(w + [0], [0] + w)]
    return w


def whitney_first(kind, *params):
    """w_k = sum of mu(0, y) over rank k, from closed forms."""
    if kind == "boolean":
        (n,) = params
        return [(-1) ** k * comb(n, k) for k in range(n + 1)]
    if kind == "partition":
        # signed Stirling numbers of the first kind: w_k = s(n, n - k)
        (n,) = params
        return stirling1_signed(n)[::-1][:n]
    if kind == "dowling":
        # w_m(n, k) = w_m(n-1, k) - (1 + m(n-1)) w_m(n-1, k-1)
        n, m = params
        return _from_roots([1 + m * i for i in range(n)])
    if kind == "uniform":
        k, n = params
        w = [(-1) ** i * comb(n, i) for i in range(k)]
        return w + [-sum(w)]
    raise ValueError(kind)


def stirling1_signed(n):
    """Row n of the signed Stirling numbers of the first kind, s(n, 0..n)."""
    row = [1]
    for j in range(1, n + 1):
        row = [(row[k - 1] if k else 0) - (j - 1) * (row[k] if k < j else 0)
               for k in range(j + 1)]
    return row


def r_dowling_number(m, r, n):
    """D_{m,r}(n) = sum_k W_{m,r}(n, k) with
    W_{m,r}(n, k) = W_{m,r}(n-1, k-1) + (mk + r) W_{m,r}(n-1, k)."""
    row = [1]
    for j in range(1, n + 1):
        row = [(row[k - 1] if k else 0) + (m * k + r) * (row[k] if k < j else 0)
               for k in range(j + 1)]
    return sum(row)


# -- order-theoretic oracles from a cover relation -------------------------------

def order_of(n, covers):
    """(down, rank) of a graded poset given by its covers: down[y] is the
    bitmask of all x <= y and rank the longest-chain rank."""
    children = [[] for _ in range(n)]
    parents = [[] for _ in range(n)]
    for x, y in covers:
        children[y].append(x)
        parents[x].append(y)
    indeg = [len(c) for c in children]
    queue = [v for v in range(n) if not indeg[v]]
    down = [1 << i for i in range(n)]
    rank = [0] * n
    for v in queue:
        for c in children[v]:
            down[v] |= down[c]
            rank[v] = max(rank[v], rank[c] + 1)
        for p in parents[v]:
            indeg[p] -= 1
            if not indeg[p]:
                queue.append(p)
    return down, rank


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def interval_whitney(down, rank, top):
    """Whitney numbers of [bottom, top] by the defining Mobius recursion."""
    members = sorted(bits(down[top]), key=rank.__getitem__)
    mu = {}
    w = [0] * (rank[top] + 1)
    for y in members:
        mu[y] = 1 if rank[y] == 0 else -sum(mu[z] for z in bits(down[y])
                                             if z != y)
        w[rank[y]] += mu[y]
    return w


def has_join(down, x, y):
    """True when the upper bounds of x and y have a least element."""
    n = len(down)
    ups = [z for z in range(n) if down[z] >> x & 1 and down[z] >> y & 1]
    return any(all(down[z] >> u & 1 for z in ups) for u in ups)


# -- seeded inputs ------------------------------------------------------------------

def relabel(lattice, rng):
    """Permute element numbers and shuffle the cover list.

    Returns (json_dict, perm) where perm maps old to new numbers.
    """
    n, covers, _rank, _meta = lattice
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[perm[x], perm[y]] for x, y in covers]
    rng.shuffle(out)
    return {"n": n, "covers": out}, perm


def glue_bowtie(lattice, rng):
    """Add a second rank-2 element over two atoms, making a non-lattice.

    Two atoms a, b get a new upper cover c' beside their join c, and c'
    is placed under one rank-3 element above c.  Then a and b have two
    minimal upper bounds.  Returns the new (n, covers, rank, meta).
    """
    n, covers, rank, meta = lattice
    parents = [[] for _ in range(n)]
    for x, y in covers:
        parents[x].append(y)
    atoms = sorted(y for x, y in covers if rank[x] == 0)
    a, b = rng.sample(atoms, 2)
    c = next(y for y in parents[a] if y in parents[b])
    e = rng.choice(sorted(parents[c]))
    new = n
    glued = covers + [(a, new), (b, new), (new, e)]
    return n + 1, glued, rank + [2], meta


def dual(lattice):
    n, covers, rank, meta = lattice
    top = max(rank)
    return n, [(y, x) for x, y in covers], [top - r for r in rank], meta


def random_seed(seed, *salt):
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))
