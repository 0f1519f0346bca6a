"""Dowling lattices over cyclic groups, Whitney triangles, and the
convolution identities connecting them.

Elements of Q_n(Z_m) are partial partitions of {0..n-1} into blocks
carrying Z_m exponent labels, in the canonical form where the least
element of each block has exponent 0.  Elements not covered by any
block sit in an implicit zero block.  The order goes upward by merging
two blocks (m relabelings) or absorbing a block into the zero block,
so rank(x) = n - #blocks(x): the bottom is the all-singletons element
and the top is the empty partial partition.

The triangle side is independent of the lattice side: first-kind rows
w_m(n, k) and shifted second-kind rows W_{m,r}(n, k) come from their
two-term recurrences over exact integers, and the test suite plays the
two sides against each other.
"""

import contextlib
import csv
import io
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb

from .errors import TooLarge
from .poset import build_lattice

__all__ = [
    "PartialGPartition",
    "partial_partition_leq",
    "build_Qn",
    "dowling_elements",
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


# -- partial G-partitions ----------------------------------------------------

@dataclass(frozen=True)
class PartialGPartition:
    """Canonical partial partition of {0..n-1} with Z_m block labels.

    blocks[i] is a sorted tuple of elements, exps[i] the parallel tuple
    of exponents; blocks are ordered by least element and the least
    element of each block has exponent 0.
    """

    n: int
    m: int
    blocks: tuple
    exps: tuple

    def __post_init__(self):
        seen = set()
        last_min = -1
        for b, e in zip(self.blocks, self.exps):
            if len(b) != len(e) or not b:
                raise ValueError("malformed block")
            if list(b) != sorted(b):
                raise ValueError("block elements must be sorted")
            if b[0] <= last_min:
                raise ValueError("blocks must be sorted by least element")
            last_min = b[0]
            if e[0] != 0:
                raise ValueError("least element of a block needs exponent 0")
            for x, ex in zip(b, e):
                if not 0 <= x < self.n:
                    raise ValueError(f"element {x} out of range")
                if not 0 <= ex < self.m:
                    raise ValueError(f"exponent {ex} out of range")
                if x in seen:
                    raise ValueError(f"element {x} in two blocks")
                seen.add(x)

    @property
    def num_blocks(self):
        return len(self.blocks)

    @property
    def rank(self):
        return self.n - len(self.blocks)

    @property
    def support(self):
        return frozenset(x for b in self.blocks for x in b)

    @property
    def uncovered(self):
        return frozenset(range(self.n)) - self.support

    def label(self):
        if not self.blocks:
            return "~"
        return "|".join(
            ",".join(f"{x}^{e}" for x, e in zip(b, ex))
            for b, ex in zip(self.blocks, self.exps))

    def covers_above(self):
        """All elements covering this one, in a deterministic order."""
        out = []
        blocks, exps = self.blocks, self.exps
        b = len(blocks)
        for i in range(b):  # absorb block i into the zero block
            out.append(PartialGPartition(
                n=self.n, m=self.m,
                blocks=blocks[:i] + blocks[i + 1:],
                exps=exps[:i] + exps[i + 1:]))
        for i in range(b):  # merge blocks i < j, shifting j's labels
            for j in range(i + 1, b):
                for t in range(self.m):
                    mb, me = _merge_labeled(blocks[i], exps[i],
                                            blocks[j],
                                            tuple((e + t) % self.m
                                                  for e in exps[j]))
                    out.append(PartialGPartition(
                        n=self.n, m=self.m,
                        blocks=blocks[:i] + (mb,) + blocks[i + 1:j]
                        + blocks[j + 1:],
                        exps=exps[:i] + (me,) + exps[i + 1:j]
                        + exps[j + 1:]))
        return out


def _merge_labeled(b1, e1, b2, e2):
    elems = []
    exps = []
    i = j = 0
    while i < len(b1) or j < len(b2):
        if j >= len(b2) or (i < len(b1) and b1[i] < b2[j]):
            elems.append(b1[i])
            exps.append(e1[i])
            i += 1
        else:
            elems.append(b2[j])
            exps.append(e2[j])
            j += 1
    return tuple(elems), tuple(exps)


def partial_partition_leq(p, q):
    """Direct test of the order relation (p below-or-equal q).

    q must absorb or coarsen p: every q-block is a disjoint union of
    p-blocks whose labelings it matches up to one Z_m shift per p-block.
    Used in tests to cross-validate the cover-generated order.
    """
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError("elements live in different lattices")
    where = {}
    for i, b in enumerate(p.blocks):
        for x in b:
            where[x] = i
    for b, ex in zip(q.blocks, q.exps):
        beta = dict(zip(b, ex))
        bset = set(b)
        shifts = {}
        for x in b:
            i = where.get(x)
            if i is None:
                return False
            if not set(p.blocks[i]) <= bset:
                return False
            alpha = dict(zip(p.blocks[i], p.exps[i]))
            shift = (beta[x] - alpha[x]) % p.m
            if shifts.setdefault(i, shift) != shift:
                return False
    return True


def _enumerate_partial(n, m):
    """All canonical partial partitions, deterministically ordered."""
    out = []
    blocks = []

    def rec(i):
        if i == n:
            out.append(PartialGPartition(
                n=n, m=m,
                blocks=tuple(tuple(b) for b, _ in blocks),
                exps=tuple(tuple(e) for _, e in blocks)))
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
    elements = _enumerate_partial(n, m)
    index = {p: i for i, p in enumerate(elements)}
    covers = []
    for i, p in enumerate(elements):
        for q in p.covers_above():
            covers.append((i, index[q]))
    labels = [p.label() for p in elements]
    lat = build_lattice(len(elements), covers, labels)
    return elements, index, lat


def _check_caps(n, m, n_cap, m_cap):
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    if n > n_cap or m > m_cap:
        raise TooLarge(
            f"Q_{n}(Z_{m}) exceeds caps n<={n_cap}, m<={m_cap}; "
            "raise them explicitly if you mean it")


def build_Qn(n, m, *, n_cap=5, m_cap=4):
    """The Dowling lattice Q_n(Z_m) as a FiniteLattice.

    Element i is dowling_elements(n, m)[i]; labels carry the canonical
    block notation.  Guarded by caps because the size D_m(n) grows
    fast.
    """
    _check_caps(n, m, n_cap, m_cap)
    return _qn_data(n, m)[2]


def dowling_elements(n, m, *, n_cap=5, m_cap=4):
    """The PartialGPartition for each lattice index of build_Qn(n, m)."""
    _check_caps(n, m, n_cap, m_cap)
    return list(_qn_data(n, m)[0])


def canonical_tau_index(n, m, k, *, n_cap=5, m_cap=4):
    """Index of the canonical rank-k sieve target: elements 0..k-1 in
    the zero block, every other element an identity-labeled singleton."""
    _check_caps(n, m, n_cap, m_cap)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _elements, index, _lat = _qn_data(n, m)
    tau = PartialGPartition(
        n=n, m=m,
        blocks=tuple((i,) for i in range(k, n)),
        exps=tuple((0,) for _ in range(k, n)))
    return index[tau]


def dowling_sieve_instance(n, m, k, *, n_cap=5, m_cap=4):
    """Sieve instance on Q_n(Z_m) sifting by the canonical rank-k tau.

    A is all of the lattice, T the k atoms absorbing one of 0..k-1,
    f(s) = D_m(s) / D_m(n) and X = D_m(n), which makes the density
    model exact: #A_y = X f(corank y) with zero residual.
    """
    from .sieve import SieveInstance

    _check_caps(n, m, n_cap, m_cap)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    elements, index, lat = _qn_data(n, m)
    t_indices = []
    for i in range(k):
        atom = PartialGPartition(
            n=n, m=m,
            blocks=tuple((x,) for x in range(n) if x != i),
            exps=tuple((0,) for x in range(n) if x != i))
        t_indices.append(index[atom])
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


@dataclass(frozen=True)
class WhitneyTriangle:
    """Rows 0..n_max of one Whitney triangle; value(n, k) is 0 for
    k outside 0..n."""

    kind: str  # "first" or "second"
    m: int
    r: int
    n_max: int
    rows: tuple

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
    rows = tuple(_first_rows(m, n_max))
    return WhitneyTriangle(kind="first", m=m, r=1, n_max=n_max, rows=rows)


def whitney_second_table(m, r, n_max):
    """Shifted second-kind triangle W_{m,r}; r = 1 counts Q_n(Z_m)
    elements by number of blocks."""
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

@dataclass(frozen=True)
class IntervalProfileReport:
    ok: bool
    element: int
    upper_expected: tuple
    upper_actual: tuple
    lower_expected: tuple
    lower_actual: tuple


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def interval_profile_check(n, m, element, *, n_cap=5, m_cap=4):
    """Rank profiles of [bottom, e] and [e, top] in Q_n(Z_m) against
    the product/relabeling structure they must have.

    Above e the interval looks like Q_b(Z_m) on the b blocks of e;
    below e it is a product of Q_{n0}(Z_m) on the n0 absorbed elements
    with a partition lattice for each block, so its profile is the
    convolution of theirs.
    """
    _check_caps(n, m, n_cap, m_cap)
    elements, _index, lat = _qn_data(n, m)
    p = elements[element]
    b = p.num_blocks

    upper_expected = tuple(_second_rows(m, 1, b)[b][b - i]
                           for i in range(b + 1))
    ivl_up, _ = lat.interval(element, lat.top)
    upper_actual = ivl_up.whitney_second()

    n0 = len(p.uncovered)
    profile = [_second_rows(m, 1, n0)[n0][n0 - i] for i in range(n0 + 1)]
    stirling = _second_rows(1, 0, max((len(blk) for blk in p.blocks),
                                      default=0))
    for blk in p.blocks:
        sz = len(blk)
        profile = _convolve(profile,
                            [stirling[sz][sz - i] for i in range(sz)])
    lower_expected = tuple(profile)
    ivl_lo, _ = lat.interval(lat.bottom, element)
    lower_actual = ivl_lo.whitney_second()

    ok = (upper_expected == upper_actual
          and lower_expected == lower_actual)
    return IntervalProfileReport(
        ok=ok, element=element,
        upper_expected=upper_expected, upper_actual=upper_actual,
        lower_expected=lower_expected, lower_actual=lower_actual)


# -- CSV ----------------------------------------------------------------------

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


def triangle_to_csv(tri):
    """Two header lines (metadata, then column names) and one row per
    (n, k) entry, every value in full."""
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
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3 or rows[0] != ["kind", "m", "r"] \
            or rows[2] != ["n", "k", "value"]:
        raise ValueError("not a triangle CSV")
    kind, m, r = rows[1][0], int(rows[1][1]), int(rows[1][2])
    if kind not in ("first", "second"):
        raise ValueError(f"unknown triangle kind {kind!r}")
    body = [row for row in rows[3:] if row]
    with _exact_digits():
        values = [int(row[2]) for row in body]
    entries = {}
    n_max = -1
    for row, value in zip(body, values):
        n, k = int(row[0]), int(row[1])
        entries[(n, k)] = value
        n_max = max(n_max, n)
    tri_rows = []
    for n in range(n_max + 1):
        try:
            tri_rows.append(tuple(entries[(n, k)] for k in range(n + 1)))
        except KeyError as exc:
            raise ValueError(f"triangle CSV missing entry {exc}") from None
    return WhitneyTriangle(kind=kind, m=m, r=r, n_max=n_max,
                           rows=tuple(tri_rows))
