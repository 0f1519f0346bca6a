"""Sign-alternation checks for Mobius partial sums and their sequence
counterpart.

Everything here is exact: sequences must consist of ints or Fractions,
and all comparisons are integer/rational comparisons.  Two routes prove
the same fact and the tests hold them together: verify_brun() truncates
Mobius sums rank by rank on a geometric lattice, while
alternating_partial_sums_check() works on any non-negative unimodal
sequence with vanishing alternating sum (which the absolute Whitney
numbers of such a lattice are).
"""

from collections import namedtuple
from itertools import accumulate, cycle
from operator import mul

from .errors import (
    BrunViolation,
    HypothesisViolated,
    NegativeEntry,
    NotGeometric,
)

__all__ = [
    "is_unimodal",
    "is_log_concave",
    "alternating_partial_sums_check",
    "verify_brun",
    "BrunReport",
]


def _nonnegative(seq, negative=lambda i: NegativeEntry(
        f"entry {i} is negative")):
    """seq as a list, each entry's type and sign checked once:
    ValueError if it is empty, TypeError at the first entry not an int
    or a Fraction, then negative(i) raised at the first negative i.
    A list of plain ints (no bool), none negative, is accepted by a
    C-level pass over its types and one over its values; any other list
    takes the per-entry walks, which name its fault."""
    seq = list(seq)
    if len(seq) == 0:
        raise ValueError("empty sequence")
    if set(map(type, seq)) == {int} and min(seq) >= 0:
        return seq
    for i, v in enumerate(seq):
        if isinstance(v, int):
            continue
        from fractions import Fraction  # only when an entry is no int
        if not isinstance(v, Fraction):
            raise TypeError(
                f"entry {i} is {type(v).__name__}; use int or Fraction")
    for i, v in enumerate(seq):
        if v < 0:
            raise negative(i)
    return seq


def _peak(seq):
    """The smallest peak index of a checked non-negative list, or None
    if it is not unimodal."""
    last = len(seq) - 1
    i1 = 0
    while i1 < last and seq[i1] <= seq[i1 + 1]:
        i1 += 1
    i2 = last
    while i2 > 0 and seq[i2 - 1] >= seq[i2]:
        i2 -= 1
    return i2 if i2 <= i1 else None


def is_unimodal(seq):
    """(True, peak) with the smallest valid peak index, or (False, None).

    Entries must be non-negative (NegativeEntry otherwise).
    """
    peak = _peak(_nonnegative(seq))
    return peak is not None, peak


def is_log_concave(seq):
    """(True, None) or (False, k) at the first k with a_k^2 < a_{k-1} a_{k+1}.

    Entries must be non-negative (NegativeEntry otherwise).
    """
    seq = _nonnegative(seq)
    for k in range(1, len(seq) - 1):
        if seq[k] * seq[k] < seq[k - 1] * seq[k + 1]:
            return False, k
    return True, None


def _check_signs(partial):
    """Raise BrunViolation unless every even cutoff k has partial sum
    t_k >= 0 and every odd cutoff t_k <= 0: the least even and the
    greatest odd partial sum decide, and a walk names the first fault."""
    if min(partial[::2]) >= 0 and max(partial[1::2], default=0) <= 0:
        return
    for k, t in enumerate(partial):
        if k % 2 == 0 and t < 0:
            raise BrunViolation(f"even cutoff {k} gives {t} < 0")
        if k % 2 == 1 and t > 0:
            raise BrunViolation(f"odd cutoff {k} gives {t} > 0")


def alternating_partial_sums_check(seq):
    """Partial sums t_k = sum_{i<=k} (-1)^i a_i for a non-negative
    unimodal sequence with t_last = 0.

    All three hypotheses are verified (HypothesisViolated otherwise).
    Returns the tuple of partial sums after asserting that every even
    cutoff gives t_k >= 0 and every odd cutoff t_k <= 0.  That sign
    check cannot fire on input that passes the three hypotheses: a
    non-negative unimodal sequence with zero alternating sum always has
    alternating partial sums (up to the peak because the terms rise,
    past it because the terms fall and t_last = 0).  Its BrunViolation
    raise is shown to fire through verify_brun, which checks lattice
    sums under no such hypotheses.
    """
    seq = _nonnegative(seq, lambda i: HypothesisViolated("non-negative", i))
    if _peak(seq) is None:
        raise HypothesisViolated("unimodal", tuple(seq))
    # seq[0] as it is, so a bool t_0 stays a bool as it always has
    partial = tuple(accumulate(map(mul, seq[1:], cycle((-1, 1))),
                               initial=seq[0]))
    if partial[-1] != 0:
        raise HypothesisViolated("zero-alternating-sum", partial[-1])
    _check_signs(partial)
    return partial


class BrunReport(namedtuple("BrunReport", "whitney_first partial_sums")):
    """Verified truncation data for one geometric lattice."""

    __slots__ = ()


def verify_brun(lat):
    """Check that rank-truncated Mobius sums alternate in sign.

    For a geometric lattice the sum of mu(bottom, y) over rank(y) <= k
    is >= 0 for even k and <= 0 for odd k, vanishing at the top rank.
    Raises NotGeometric for non-geometric input and BrunViolation if a
    sign check fails (the latter cannot happen for correct code).
    """
    chk = lat.is_geometric()
    if not chk:
        raise NotGeometric(f"{chk.failure} (witness {chk.witness})")
    w = lat.whitney_first()
    partial = tuple(accumulate(w))
    _check_signs(partial)
    if lat.top_rank >= 1 and partial[-1] != 0:
        raise BrunViolation("Mobius sums over the whole lattice must vanish")
    return BrunReport(whitney_first=w, partial_sums=partial)
