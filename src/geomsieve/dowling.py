"""Dowling lattices over cyclic groups, Whitney triangles, and the
convolution identities connecting them.

Elements of Q_n(Z_m) are partial partitions of {0..n-1} into blocks
carrying Z_m exponent labels, in the canonical form where the least
element of each block has exponent 0.  Elements not covered by any
block sit in an implicit zero block.  The order goes upward by merging
two blocks (m relabelings) or absorbing a block into the zero block,
so rank(x) = n - #blocks(x): the bottom is the all-singletons element
and the top is the empty partial partition.

Each element is held as its canonical key (blocks, exps): blocks[i] is
a sorted tuple of elements, exps[i] the parallel tuple of exponents,
and the blocks are ordered by least element.

The triangle side is independent of the lattice side: first-kind rows
w_m(n, k) and shifted second-kind rows W_{m,r}(n, k) come from their
two-term recurrences over exact integers, and the test suite plays the
two sides against each other.
"""

import io
import threading
from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from math import comb

from .errors import TooLarge
from .poset import _exact_digits, build_lattice

__all__ = [
    "build_Qn",
    "canonical_tau_index",
    "dowling_sieve_instance",
    "WhitneyTriangle",
    "whitney_first_table",
    "whitney_second_table",
    "r_whitney_definition_check",
    "shifted_convolution",
    "conv_orthogonality_check",
    "conv_series",
    "conv_equals_rwhitney_check",
    "dowling_number",
    "r_dowling_number",
    "dowling_sieve_closed_form",
    "interval_profile_check",
    "IntervalProfileReport",
    "triangle_to_csv",
    "triangle_from_csv",
]


# -- canonical keys ----------------------------------------------------------

def _label(blocks, exps):
    """Block notation of a key: "0^0,2^1|1^0", or "~" for the top."""
    if not blocks:
        return "~"
    return "|".join(",".join(f"{x}^{e}" for x, e in zip(b, ex))
                    for b, ex in zip(blocks, exps))


def _upper_keys(blocks, exps, m):
    """The keys covering the key (blocks, exps) in Q_n(Z_m), in a fixed
    order: each block absorbed into the zero block, then each pair of
    blocks i < j merged with j's labels shifted by t = 0..m-1."""
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


def _enumerate_partial(n, m):
    """Keys (blocks, exps) of all elements, deterministically ordered."""
    out = []
    blocks = []

    def rec(i):
        if i == n:
            out.append((tuple(tuple(b) for b, _ in blocks),
                        tuple(tuple(e) for _, e in blocks)))
            return
        rec(i + 1)  # i goes to the zero block
        blocks.append(([i], [0]))  # i starts a new block
        rec(i + 1)
        blocks.pop()
        for b, e in blocks:  # i joins an existing block
            for t in range(m):
                b.append(i)
                e.append(t)
                rec(i + 1)
                b.pop()
                e.pop()

    rec(0)
    return out


@lru_cache(maxsize=None)
def _qn_data(n, m):
    """(keys, key -> index, lattice) for Q_n(Z_m)."""
    keys = _enumerate_partial(n, m)
    index = {key: i for i, key in enumerate(keys)}
    covers = [(i, index[up]) for i, key in enumerate(keys)
              for up in _upper_keys(*key, m)]
    lat = build_lattice(len(keys), covers, [_label(*key) for key in keys])
    return keys, index, lat


def _check_caps(n, m, n_cap, m_cap):
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n > n_cap or m > m_cap:
        raise TooLarge(
            f"Q_{n}(Z_{m}) exceeds caps n<={n_cap}, m<={m_cap}; "
            "raise them explicitly if you mean it")


def build_Qn(n, m, *, n_cap=5, m_cap=4):
    """The Dowling lattice Q_n(Z_m) as a FiniteLattice.

    Element i is the i-th canonical key of _enumerate_partial; labels
    carry its block notation.  Guarded by caps because the size D_m(n)
    grows fast.
    """
    _check_caps(n, m, n_cap, m_cap)
    return _qn_data(n, m)[2]


def canonical_tau_index(n, m, k, *, n_cap=5, m_cap=4):
    """Index of the canonical rank-k sieve target: elements 0..k-1 in
    the zero block, every other element an identity-labeled singleton."""
    _check_caps(n, m, n_cap, m_cap)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    tau = tuple((i,) for i in range(k, n)), ((0,),) * (n - k)
    return _qn_data(n, m)[1][tau]


def dowling_sieve_instance(n, m, k, *, n_cap=5, m_cap=4):
    """Sieve instance on Q_n(Z_m) sifting by the canonical rank-k tau.

    A is all of the lattice, T the k atoms absorbing one of 0..k-1,
    f(s) = D_m(s) / D_m(n) and X = D_m(n), which makes the density
    model exact: #A_y = X f(corank y) with zero residual.
    """
    from fractions import Fraction

    from .sieve import SieveInstance

    _check_caps(n, m, n_cap, m_cap)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _keys, index, lat = _qn_data(n, m)
    t_indices = [index[(tuple((x,) for x in range(n) if x != i),
                        ((0,),) * (n - 1))]
                 for i in range(k)]
    x_total = dowling_number(m, n)
    f = [Fraction(dowling_number(m, s), x_total) for s in range(n + 1)]
    return SieveInstance(lattice=lat, A=range(lat.n_elems), T=t_indices,
                         f=f, X=Fraction(x_total))


# -- Whitney triangles -------------------------------------------------------

_first_cache = {}
_second_cache = {}
_tri_lock = threading.Lock()


def _next_row(prev, coefs):
    """Row n = len(prev) of a triangle with
    T(n, k) = T(n-1, k-1) + coefs[k] T(n-1, k)."""
    return tuple(a + c * b for a, b, c in zip((0,) + prev, prev + (0,), coefs))


def _grow(cache, key, nmax, step):
    """Rows 0..nmax of the cached triangle under key, extended by step."""
    with _tri_lock:
        rows = cache.setdefault(key, [(1,)])
        while len(rows) <= nmax:
            rows.append(step(rows[-1]))
        return list(rows[: nmax + 1])


def _first_rows(m, nmax):
    """Rows 0..nmax of w_m(n, k):
    w(n, k) = w(n-1, k-1) - (1 + m(n-1)) w(n-1, k)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return _grow(_first_cache, m, nmax, lambda prev: _next_row(
        prev, repeat(-(1 + m * (len(prev) - 1)))))


def _second_rows(m, r, nmax):
    """Rows 0..nmax of W_{m,r}(n, k):
    W(n, k) = W(n-1, k-1) + (km + r) W(n-1, k)."""
    if m < 1 or r < 0:
        raise ValueError("need m >= 1 and r >= 0")
    return _grow(_second_cache, (m, r), nmax,
                 lambda prev: _next_second_row(m, r, prev))


def _next_second_row(m, r, prev):
    """Row n = len(prev) of W_{m,r} from row n - 1."""
    return _next_row(prev, (k * m + r for k in range(len(prev) + 1)))


class WhitneyTriangle(namedtuple("WhitneyTriangle", "kind m r n_max rows")):
    """Rows 0..n_max of one Whitney triangle; value(n, k) is 0 for
    k outside 0..n.  kind is "first" or "second"."""

    __slots__ = ()

    def row(self, n):
        return self.rows[n]

    def value(self, n, k):
        if not 0 <= n <= self.n_max:
            raise IndexError(f"row {n} not in 0..{self.n_max}")
        if k < 0 or k > n:
            return 0
        return self.rows[n][k]


def whitney_first_table(m, n_max):
    """First-kind triangle w_m; row n holds mu-sums of Q_n(Z_m) by
    number of blocks (k = n - rank)."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    rows = tuple(_first_rows(m, n_max))
    return WhitneyTriangle(kind="first", m=m, r=1, n_max=n_max, rows=rows)


def whitney_second_table(m, r, n_max):
    """Shifted second-kind triangle W_{m,r}; r = 1 counts Q_n(Z_m)
    elements by number of blocks."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    rows = tuple(_second_rows(m, r, n_max))
    return WhitneyTriangle(kind="second", m=m, r=r, n_max=n_max, rows=rows)


def r_whitney_definition_check(m, r, n):
    """Exact check of (mx + r)^n = sum_k m^k W_{m,r}(n, k) (x)_k
    in the monomial basis."""
    lhs = [comb(n, j) * m ** j * r ** (n - j) for j in range(n + 1)]
    # s(k, j) = w_1(k-1, j-1), because Q_{k-1}(Z_1) is the partition
    # lattice Pi_k
    s1 = [(1,)] + [(0,) + w for w in _first_rows(1, n - 1)]
    row = _second_rows(m, r, n)[n]
    rhs = [0] * (n + 1)
    for k in range(n + 1):
        c = m ** k * row[k]
        for j in range(k + 1):
            rhs[j] += c * s1[k][j]
    return lhs == rhs


# -- convolutions ------------------------------------------------------------

def shifted_convolution(m, n, t, s):
    """c_{n,t}(s) = sum_k w_m(n, k) W_m(k + s, t), exactly."""
    if min(n, t, s) < 0:
        raise ValueError("need n, t, s >= 0")
    first = _first_rows(m, n)[n]
    second = _second_rows(m, 1, n + s)
    return sum(first[k] * (second[k + s][t] if t <= k + s else 0)
               for k in range(n + 1))


def conv_orthogonality_check(m, n_max):
    """Both matrix products of the two triangles equal the identity:
    returns (True, None) or (False, (direction, n, s))."""
    first = _first_rows(m, n_max)
    second = _second_rows(m, 1, n_max)
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


def conv_series(m, n, t, order):
    """Coefficients 0..order, as a tuple, of the generating function of
    s -> c_{n,t}(s): x^(t-n) * prod_{j=n..t} 1 / (1 - (1 + jm) x).

    For t < n the series is identically zero.
    """
    if min(n, t) < 0 or order < 0:
        raise ValueError("need n, t, order >= 0")
    coeffs = [0] * (order + 1)
    if n <= t <= n + order:
        coeffs[t - n] = 1
        for j in range(n, t + 1):
            c = 1 + j * m
            for i in range(t - n + 1, order + 1):  # divide by 1 - c x
                coeffs[i] += c * coeffs[i - 1]
    return tuple(coeffs)


def conv_equals_rwhitney_check(m, n, t, s_max):
    """Three routes to c_{n,t}(s) agree for s = 0..s_max: the defining
    convolution, the generating function, and W_{m, 1+mn}(s, t-n)."""
    series = conv_series(m, n, t, s_max)
    if t >= n:
        table = _second_rows(m, 1 + m * n, s_max)
    for s in range(s_max + 1):
        conv = shifted_convolution(m, n, t, s)
        if conv != series[s]:
            return False
        direct = 0
        if t >= n and t - n <= s:
            direct = table[s][t - n]
        if conv != direct:
            return False
    return True


# -- Dowling numbers and the sieve closed form -------------------------------

def dowling_number(m, n):
    """D_m(n) = #Q_n(Z_m) = sum_k W_m(n, k)."""
    return sum(_second_rows(m, 1, n)[n])


def r_dowling_number(m, r, n):
    """D_{m,r}(n) = sum_k W_{m,r}(n, k)."""
    return sum(_second_rows(m, r, n)[n])


def dowling_sieve_closed_form(m, n, k):
    """Exact sifted count for the canonical rank-k instance on
    Q_n(Z_m): D_{m, 1+mk}(n - k)."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return r_dowling_number(m, 1 + m * k, n - k)


# -- interval structure -------------------------------------------------------

IntervalProfileReport = namedtuple("IntervalProfileReport", (
    "ok element upper_expected upper_actual lower_expected lower_actual "
    "first_expected first_actual"))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def interval_profile_check(n, m, element, *, n_cap=5, m_cap=4):
    """Rank profiles of [bottom, e] and [e, top] in Q_n(Z_m), and the
    first-kind Whitney numbers of [bottom, e], against the structure
    they must have (Dowling 1973).

    Above e the interval is Q_b(Z_m) on the b blocks of e.  Below e it
    is Q_{n0}(Z_m) on the n0 absorbed elements times a partition
    lattice Pi_|B| = Q_{|B|-1}(Z_1) for each block B, so both of its
    Whitney rows are convolutions of the factors' rows read by rank.
    The actual profiles are read from the parent's order masks: with
    R_i the positions of rank i, W_i([e, top]) counts up(e) & R_{r+i}
    and W_i([bottom, e]) counts down(e) & R_i.
    """
    _check_caps(n, m, n_cap, m_cap)
    keys, _index, lat = _qn_data(n, m)
    blocks = keys[element][0]
    b = len(blocks)
    n0 = n - sum(map(len, blocks))

    upper_expected = _second_rows(m, 1, b)[b][::-1]
    lower = _second_rows(m, 1, n0)[n0][::-1]
    first = _first_rows(m, n0)[n0][::-1]
    big = max(map(len, blocks), default=1) - 1
    part_second, part_first = _second_rows(1, 1, big), _first_rows(1, big)
    for blk in blocks:
        lower = _convolve(lower, part_second[len(blk) - 1][::-1])
        first = _convolve(first, part_first[len(blk) - 1][::-1])

    # positions are sorted by rank, so each R_i is one run of bits
    rank_masks, start = [], 0
    for count in lat.whitney_second():
        rank_masks.append(((1 << count) - 1) << start)
        start += count
    pos = lat._pos_of[element]
    up, down, r = lat._up[pos], lat._down[pos], lat.rank[element]
    upper_actual = tuple((up & mask).bit_count() for mask in rank_masks[r:])
    lower_actual = tuple((down & mask).bit_count()
                         for mask in rank_masks[:r + 1])
    first_actual = lat._whitney_below(element)
    lower_expected, first_expected = tuple(lower), tuple(first)

    ok = (upper_expected == upper_actual
          and lower_expected == lower_actual
          and first_expected == first_actual)
    return IntervalProfileReport(
        ok=ok, element=element,
        upper_expected=upper_expected, upper_actual=upper_actual,
        lower_expected=lower_expected, lower_actual=lower_actual,
        first_expected=first_expected, first_actual=first_actual)


# -- CSV ----------------------------------------------------------------------

def triangle_to_csv(tri):
    """Two header lines (metadata, then column names) and one row per
    (n, k) entry, every value in full."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "m", "r"])
    w.writerow([tri.kind, tri.m, tri.r])
    w.writerow(["n", "k", "value"])
    with _exact_digits():
        for n in range(tri.n_max + 1):
            for k in range(n + 1):
                w.writerow([n, k, tri.rows[n][k]])
    return buf.getvalue()


def triangle_from_csv(text):
    """Read back triangle_to_csv's output; only the value column is
    parsed past the int-to-str digit limit."""
    import csv

    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3 or rows[0] != ["kind", "m", "r"] or len(rows[1]) != 3 \
            or rows[2] != ["n", "k", "value"]:
        raise ValueError("not a triangle CSV: lines 1-3 must be kind,m,r, "
                         "its three values, and n,k,value")
    kind, m, r = rows[1][0], int(rows[1][1]), int(rows[1][2])
    if kind not in ("first", "second"):
        raise ValueError(f"unknown triangle kind {kind!r}")
    entries = {}  # (n, k) -> value, still as text
    for line, row in enumerate(rows[3:], 4):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(
                f"triangle CSV line {line} needs the fields n, k, value")
        n, k = int(row[0]), int(row[1])
        if not 0 <= k <= n:
            raise ValueError(f"triangle CSV line {line}: need 0 <= k <= n")
        if (n, k) in entries:
            raise ValueError(f"triangle CSV line {line}: entry {(n, k)} "
                             "given twice")
        entries[(n, k)] = row[2]
    if not entries:
        raise ValueError("triangle CSV has no entries")
    n_max = max(n for n, _k in entries)
    try:
        with _exact_digits():
            tri_rows = tuple(tuple(int(entries[(n, k)]) for k in range(n + 1))
                             for n in range(n_max + 1))
    except KeyError as exc:
        raise ValueError(f"triangle CSV missing entry {exc}") from None
    return WhitneyTriangle(kind=kind, m=m, r=r, n_max=n_max, rows=tri_rows)
