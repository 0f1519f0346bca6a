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
and the blocks are ordered by least element.  While the lattice is
built, and only then, a block is also coded as one integer and an
element as the tuple of its block codes, so that every cover is a
tuple slice and one lookup (see _code_keys).

The triangle side is independent of the lattice side: first-kind rows
w_m(n, k) and shifted second-kind rows W_{m,r}(n, k) come from their
two-term recurrences over exact integers, and the test suite plays the
two sides against each other.  A triangle exists only as the lazy row
stream of whitney_first_rows or whitney_second_rows; `dowling table`
writes such a stream as CSV.  No triangle is kept: each reader forms
the rows it needs, once (the convolution grid forms its own once per
m), and a negative depth or one over the depth cap is refused before
any row.  The Dowling numbers D_{m,r}(n) are the row sums, but
_dowling_numbers streams them from the shift recurrence
D_{m,r}(i+1) = r D_{m,r}(i) + D_{m,r+m}(i), which follows from the
exponential generating function exp(rx + (e^{mx} - 1)/m): it holds one
anti-diagonal of those values and forms no triangle row.  _diagonals
yields the anti-diagonals themselves, whose last two entries are
D_{m,r+m}(k-1) and D_{m,r}(k).
"""

from collections import deque, namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import itemgetter, mul

from . import errors
from .errors import TooLarge
from .poset import _exact_digits, build_lattice

__all__ = [
    "build_Qn",
    "canonical_tau_index",
    "dowling_sieve_instance",
    "whitney_first_rows",
    "whitney_second_rows",
    "r_whitney_definition_check",
    "shifted_convolution",
    "conv_orthogonality_check",
    "conv_series",
    "conv_grid_check",
    "dowling_number",
    "r_dowling_number",
    "dowling_sieve_closed_form",
    "interval_profile_check",
    "IntervalProfileReport",
]


# -- canonical keys ----------------------------------------------------------
#
# The block with elements x and exponents e_x is coded as the sum of
# (e_x + 1) 2^(w x), w = m.bit_length(): each element owns a w-bit field
# that is 0 outside the block.  Codes of disjoint blocks or-merge, and
# shifting a block's labels maps its code to one of m codes.  The codes
# exist only inside _qn_data: its cache holds the keys, the index and
# the lattice, never a code.

def _code_keys(n, m):
    """Every element of Q_n(Z_m) as the tuple of its block codes in
    least-element order, in element order, and a table
    code -> (elements, exponents) of every canonical block.

    Element x goes to the zero block, then starts a block, then joins
    each block in turn with each exponent; growing all keys one element
    at a time keeps that order.
    """
    w = m.bit_length()
    keys = [()]
    blocks = {}
    for x in range(n):
        one = 1 << (w * x)
        fields = range(one, (m + 1) * one, one)  # (t + 1) << (w x), lazily
        nxt = []
        for key in keys:
            nxt.append(key)
            nxt.append(key + (fields[0],))
            nxt += [key[:j] + (key[j] | f,) + key[j + 1:]
                    for j in range(len(key)) for f in fields]
        keys = nxt
        blocks.update([(code | f, (xs + (x,), es + (t,)))
                       for code, (xs, es) in blocks.items()
                       for t, f in enumerate(fields)])
        blocks[fields[0]] = (x,), (0,)
    return keys, blocks


def _shifted_codes(xs, es, m):
    """The m codes of block (xs, es) with every label shifted by t."""
    w = m.bit_length()
    return tuple(sum(((e + t) % m + 1) << (w * x) for x, e in zip(xs, es))
                 for t in range(m))


@lru_cache(maxsize=None)
def _qn_data(n, m):
    """(keys, key -> index, lattice) for Q_n(Z_m).

    The covers are found on code keys: absorbing block a into the zero
    block drops its code, and merging block b into an earlier block a
    with b's labels shifted by t puts a's code or b's t-th shifted code
    in a's place, so every cover is a slice of the key and one lookup.
    The shifted codes are formed once per block, and all codes are
    dropped once the keys are formed.
    """
    codes, blocks = _code_keys(n, m)
    where = {code: i for i, code in enumerate(codes)}
    # a block holding 0 is never merged into an earlier one; so with
    # n = 1, where the size cap admits any m, no m shifts are formed
    shifts = {c: _shifted_codes(xs, es, m)
              for c, (xs, es) in blocks.items() if xs[0]}
    covers = [(i, where[code[:a] + code[a + 1:]])
              for i, code in enumerate(codes) for a in range(len(code))]
    covers += [(i, where[code[:a] + (code[a] | s,) + code[a + 1:b]
                         + code[b + 1:]])
               for i, code in enumerate(codes)
               for a in range(len(code))
               for b in range(a + 1, len(code))
               for s in shifts[code[b]]]
    text = {c: ",".join(map("{}^{}".format, xs, es))
            for c, (xs, es) in blocks.items()}
    labels = ["|".join(map(text.__getitem__, code)) or "~" for code in codes]
    elems = {c: xs for c, (xs, _es) in blocks.items()}
    exps = {c: es for c, (_xs, es) in blocks.items()}
    keys = [(tuple(map(elems.__getitem__, code)),
             tuple(map(exps.__getitem__, code))) for code in codes]
    index = {key: i for i, key in enumerate(keys)}
    lat = build_lattice(len(keys), covers, labels)
    return keys, index, lat


def _admit(n, m, cap_elements=errors.ELEMENT_CAP):
    """_qn_data(n, m) and the list D_m(0..n), refused with TooLarge,
    before any element is formed, at the first D_m(i) over the cap."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    counts = errors.refuse_over(f"dowling:{n}:{m}",
                                _dowling_numbers(m, 1, n), cap_elements)
    return _qn_data(n, m) + (counts,)


def build_Qn(n, m):
    """The Dowling lattice Q_n(Z_m) as a FiniteLattice, within the
    default element cap (parse_named takes another).  Element i is the
    i-th canonical key of _code_keys; labels carry its block notation."""
    return _admit(n, m)[2]


def canonical_tau_index(n, m, k):
    """Index of the canonical rank-k sieve target: elements 0..k-1 in
    the zero block, every other element an identity-labeled singleton."""
    index = _admit(n, m)[1]
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    tau = tuple((i,) for i in range(k, n)), ((0,),) * (n - k)
    return index[tau]


def dowling_sieve_instance(n, m, k, *, n_cap=None, m_cap=None):
    """Sieve instance on Q_n(Z_m) sifting by the canonical rank-k tau.

    A is all of the lattice, T the k atoms absorbing one of 0..k-1,
    f(s) = D_m(s) / D_m(n) and X = D_m(n), which makes the density
    model exact: #A_y = X f(corank y) with zero residual.

    Q_n(Z_m) is admitted by its element count.  n_cap and m_cap stay
    only for callers that pass them (perfbench's canonical sieve ops):
    a given one refuses a larger n (or m) with TooLarge, as it did.
    """
    from fractions import Fraction

    from .sieve import SieveInstance

    if n_cap is not None and n > n_cap or m_cap is not None and m > m_cap:
        raise TooLarge(
            f"Q_{n}(Z_{m}) exceeds caps n<={n_cap}, m<={m_cap}; "
            "raise them explicitly if you mean it")
    _keys, index, lat, counts = _admit(n, m)
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    t_indices = [index[(tuple((x,) for x in range(n) if x != i),
                        ((0,),) * (n - 1))]
                 for i in range(k)]
    f = [Fraction(count, counts[n]) for count in counts]
    return SieveInstance(lattice=lat, A=range(lat.n_elems), T=t_indices,
                         f=f, X=Fraction(counts[n]))


# -- Whitney triangles -------------------------------------------------------

def _next_row(prev, coefs):
    """Row n = len(prev) of a triangle with
    T(n, k) = T(n-1, k-1) + coefs[k] T(n-1, k)."""
    return tuple(a + c * b for a, b, c in zip((0,) + prev, prev + (0,), coefs))


def _rows(n_max, coefs):
    """An iterator over rows 0..n_max of the triangle whose row n has the
    coefficients coefs(n); the depth is checked here, before any row."""
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    if n_max > errors.TRIANGLE_DEPTH_CAP:
        raise TooLarge(f"need triangle depth <= {errors.TRIANGLE_DEPTH_CAP}, "
                       f"the cap on Whitney rows (asked for {n_max})")
    return accumulate(map(coefs, range(1, n_max + 1)), _next_row,
                      initial=(1,))


def whitney_first_rows(m, n_max):
    """Rows 0..n_max of the first-kind triangle w_m, lazily:
    w(n, k) = w(n-1, k-1) - (1 + m(n-1)) w(n-1, k).  Row n holds the
    mu-sums of Q_n(Z_m) by number of blocks (k = n - rank)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return _rows(n_max, lambda n: repeat(-(1 + m * (n - 1))))


def whitney_second_rows(m, r, n_max):
    """Rows 0..n_max of the shifted second-kind triangle W_{m,r}, lazily:
    W(n, k) = W(n-1, k-1) + (km + r) W(n-1, k).  With r = 1, row n counts
    the elements of Q_n(Z_m) by number of blocks."""
    if m < 1 or r < 0:
        raise ValueError("need m >= 1 and r >= 0")
    return _rows(n_max, lambda n: range(r, r + m * n + 1, m))


def r_whitney_definition_check(m, r, n):
    """Exact check of (mx + r)^n = sum_k m^k W_{m,r}(n, k) (x)_k
    in the monomial basis."""
    lhs = [comb(n, j) * m ** j * r ** (n - j) for j in range(n + 1)]
    row = deque(whitney_second_rows(m, r, n), maxlen=1).pop()
    # s(k, j) = w_1(k-1, j-1) for k >= 1, because Q_{k-1}(Z_1) is the
    # partition lattice Pi_k
    s1 = [(1,)]
    if n:
        s1 += [(0,) + w for w in whitney_first_rows(1, n - 1)]
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
    second = whitney_second_rows(m, 1, n + s)  # the deeper one, refused first
    first = deque(whitney_first_rows(m, n), maxlen=1).pop()
    return _conv_value(first, _column(second, t), s)


def _column(rows, k):
    """Column k of a triangle, T(i, k) for each of its rows i, as a list:
    0 where i < k."""
    return [row[k] if k < len(row) else 0 for row in rows]


def _conv_value(first, column, s):
    """sum_k first[k] W(k + s, t), with column[i] = W(i, t)."""
    return sum(map(mul, first, column[s:s + len(first)]))


def conv_orthogonality_check(m, n_max):
    """Both matrix products of the two triangles equal the identity:
    returns (True, None) or (False, (direction, n, s)).

    Entry (n, s) of either product is row n of one triangle times
    column s of the other, which vanishes for s > n.  The entries
    s <= n are read in the order n, then s, then second*first before
    first*second; the first one off the identity is the witness.
    """
    first = list(whitney_first_rows(m, n_max))
    second = list(whitney_second_rows(m, 1, n_max))
    first_cols = [_column(first, s) for s in range(n_max + 1)]
    second_cols = [_column(second, s) for s in range(n_max + 1)]
    for n in range(n_max + 1):
        for s in range(n + 1):
            want = 1 if n == s else 0
            if sum(map(mul, second[n], first_cols[s])) != want:
                return False, ("second*first", n, s)
            if sum(map(mul, first[n], second_cols[s])) != want:
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


def conv_grid_check(m, n_max, t_max, s_max):
    """c_{n,t}(s) from the convolution, the series and W_{m,1+mn}(s, t-n)
    (0 for t < n) agree for n, t, s up to n_max, t_max, s_max, with each
    triangle formed once and each column read once: (True, None) or
    (False, (n, t, s)), the first triple in that order where they
    differ."""
    if min(n_max, t_max, s_max) < 0:
        raise ValueError("need n_max, t_max, s_max >= 0")
    # the deepest triangle first, so an over-deep grid is refused at once
    second = list(whitney_second_rows(m, 1, n_max + s_max))
    columns = [_column(second, t) for t in range(t_max + 1)]
    zeros = (0,) * (s_max + 1)
    for n, first in enumerate(whitney_first_rows(m, n_max)):
        shifted = list(whitney_second_rows(m, 1 + m * n, s_max))
        for t, column in enumerate(columns):
            conv = tuple(_conv_value(first, column, s)
                         for s in range(s_max + 1))
            series = conv_series(m, n, t, s_max)
            direct = tuple(_column(shifted, t - n)) if t >= n else zeros
            if not conv == series == direct:
                s = next(s for s in range(s_max + 1)
                         if not conv[s] == series[s] == direct[s])
                return False, (n, t, s)
    return True, None


# -- Dowling numbers and the sieve closed form -------------------------------

def _check_numbers_n(n, name="n"):
    """Refuse a negative n, or one over the cap, before any row."""
    if n < 0:
        raise ValueError(f"need {name} >= 0")
    if n > errors.NUMBERS_N_CAP:
        raise TooLarge(f"need {name} <= {errors.NUMBERS_N_CAP}, the cap on "
                       "exact Dowling numbers")


def _diagonals(m, r, n):
    """Anti-diagonals 0..n of the shift recurrence, one step each.

    Diagonal k holds diag[i] = D_{m, r+(k-i)m}(i) for i = 0..k: its
    last entry is D_{m,r}(k), and for k >= 1 the one before it is
    D_{m,r+m}(k-1), so one stream serves both ladders.  It sizes
    nothing by n, so a reader that stops early pays only for the steps
    it read.  Each diagonal is a new list; a reader keeps only the
    entries it needs, since a list of whole diagonals grows as n^2.
    """
    if m < 1 or r < 0:
        raise ValueError("need m >= 1 and r >= 0")
    diag = [1]
    yield diag
    for _ in range(n):
        diag = _next_diagonal(m, r, diag)
        yield diag


def _dowling_numbers(m, r, n):
    """D_{m,r}(0), ..., D_{m,r}(n): the last entries of the diagonals;
    m and r are checked before the first value."""
    return map(itemgetter(-1), _diagonals(m, r, n))


def _next_diagonal(m, r, diag):
    """Anti-diagonal k + 1 from anti-diagonal k = len(diag) - 1.

    With s = r + (k-i)m the shift recurrence reads
    new[i+1] = D_{m,s}(i+1) = s diag[i] + new[i], and new[0] = 1, so
    the new diagonal is one running sum.
    """
    k = len(diag) - 1
    return list(accumulate(map(mul, range(r + k * m, r - 1, -m), diag),
                           initial=1))


def dowling_number(m, n):
    """D_m(n) = #Q_n(Z_m) = sum_k W_m(n, k)."""
    return r_dowling_number(m, 1, n)


def r_dowling_number(m, r, n):
    """D_{m,r}(n) = sum_k W_{m,r}(n, k), for n up to the cap 2000."""
    _check_numbers_n(n)
    return deque(_dowling_numbers(m, r, n), maxlen=1).pop()


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


def interval_profile_check(n, m, element):
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
    keys, _index, lat, _counts = _admit(n, m)
    if not 0 <= element < len(keys):
        raise ValueError(f"element {element} is not in Q_{n}(Z_{m}), "
                         f"whose elements are 0..{len(keys) - 1}")
    blocks = keys[element][0]
    b = len(blocks)
    n0 = n - sum(map(len, blocks))

    upper_expected = list(whitney_second_rows(m, 1, b))[b][::-1]
    lower = list(whitney_second_rows(m, 1, n0))[n0][::-1]
    first = list(whitney_first_rows(m, n0))[n0][::-1]
    big = max(map(len, blocks), default=1) - 1
    part_second = list(whitney_second_rows(1, 1, big))
    part_first = list(whitney_first_rows(1, big))
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

def _write_csv(stream, kind, m, r, rows):
    """Write a triangle to stream, each row as it comes: two header lines
    (kind,m,r and their values), the column names n,k,value, then one
    line per entry with every value in full."""
    import csv

    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["kind", "m", "r"])
    w.writerow([kind, m, r])
    w.writerow(["n", "k", "value"])
    with _exact_digits():
        for n, row in enumerate(rows):
            w.writerows((n, k, v) for k, v in enumerate(row))
