"""Saddle-point asymptotics for shifted Dowling numbers.

For positive integers m, r the numbers D_{m,r}(n) (exponential
generating function exp(rz + (e^{mz} - 1)/m)) satisfy

    D_{m,r}(n) ~ exp(g0) / sqrt(4 pi g2) * n! / delta^n

where delta is the unique positive root of delta (r + e^{m delta}) = n,
g0 = r delta + (e^{m delta} - 1)/m and g2 = (n + m delta^2 e^{m delta})/2.
solve_delta() reaches delta by one Newton iteration, which starts
above the root at W(mn)/m and falls monotonically onto it.
Everything is evaluated in log space with mpmath working precision,
so n can be large.  compare_exact() measures the approximation against
the exact D_{m,r}(n), dowling's finite Dobinski sum, and refuses
n > 2000 with TooLarge.  Every entry point refuses more than
1000 digits with TooLarge before any mpmath work, since the cost grows
faster than linearly in the digits.  mpmath is imported by the
functions that evaluate, so loading this module (as the CLI does)
does not load it.
"""

import math
from collections import namedtuple

from . import errors
from .dowling import _check_numbers_n, r_dowling_number
from .errors import NoConvergence, TooLarge

__all__ = [
    "solve_delta",
    "saddle_values",
    "compare_exact",
    "SaddleData",
    "AsymComparison",
]

_NEWTON_STEPS = 100


def _validate(m, r, n, digits):
    for name, value in (("m", m), ("r", r), ("n", n), ("digits", digits)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(
                f"{name} must be an int, not {type(value).__name__}")
    if m < 1 or r < 1 or n < 1 or digits < 1:
        raise ValueError("need m >= 1, r >= 1, n >= 1, digits >= 1")
    if digits > errors.DIGITS_CAP:
        raise TooLarge(f"need digits <= {errors.DIGITS_CAP}, the cap on "
                       "working precision")


def solve_delta(m, r, n, *, digits=50):
    """Unique positive root of phi(delta) = delta (r + e^{m delta}) - n.

    phi is increasing and convex on delta >= 0, so Newton started at
    any point where phi >= 0 falls monotonically onto the root.  It
    starts at d0 = W(mn)/m (W the principal Lambert W): there
    m d0 e^{m d0} = mn, so d0 e^{m d0} = n and phi(d0) = r d0 >= 0.
    Newton stops at a relative step of 256 ulps of the working
    precision (digits + 15 places); more than _NEWTON_STEPS steps
    raise NoConvergence.
    """
    _validate(m, r, n, digits)
    import mpmath as mp

    with mp.workdps(digits + 15):
        nn = mp.mpf(n)
        tol = 256 * mp.eps
        d = mp.lambertw(m * nn) / m
        for _ in range(_NEWTON_STEPS):
            e = mp.exp(m * d)
            step = (d * (r + e) - nn) / (r + e + m * d * e)
            d -= step
            if abs(step) <= d * tol:
                break
        else:
            raise NoConvergence("Newton budget exhausted")
        if math.log(n) > m and not d <= mp.log(nn) / m + tol:
            raise NoConvergence("root outside its proven range")
        return d


class SaddleData(namedtuple("SaddleData",
                            "m r n digits delta g0 g2 log_asymptotic")):
    """Saddle-point quantities; all mpf values carry `digits` precision,
    since delta is solved to the digits + 15 working places and the
    rest is evaluated at them."""

    __slots__ = ()


def saddle_values(m, r, n, *, digits=50):
    """delta, g0, g2 and the log of the saddle-point approximation.

    log_asymptotic = g0 + log n! - n log delta - (1/2) log(4 pi g2),
    with log n! = loggamma(n + 1).
    """
    _validate(m, r, n, digits)
    import mpmath as mp

    delta = solve_delta(m, r, n, digits=digits)
    with mp.workdps(digits + 15):
        e = mp.exp(m * delta)
        g0 = r * delta + (e - 1) / m
        g2 = (n + m * delta * delta * e) / 2
        log_asym = g0 + mp.loggamma(n + 1) - n * mp.log(delta) \
            - mp.log(4 * mp.pi * g2) / 2
        return SaddleData(m=m, r=r, n=n, digits=digits, delta=delta,
                          g0=g0, g2=g2, log_asymptotic=log_asym)


class AsymComparison(namedtuple(
        "AsymComparison", "saddle log_exact ratio rel_err normalized_err")):
    """Approximation vs the exact D_{m,r}(n).

    rel_err is |approx/exact - 1|; normalized_err rescales it by
    sqrt(n) / (log n)^12, the shape of the proven error term, and is
    reported rather than bounded because the theorem fixes no constant.
    """

    __slots__ = ()


def compare_exact(m, r, n, *, digits=50):
    _validate(m, r, n, digits)
    _check_numbers_n(n)  # refuse n over the exact cap before any mpmath
    data = saddle_values(m, r, n, digits=digits)
    return _compare(data, r_dowling_number(m, r, n))


def _compare(data, exact):
    """The saddle data against the exact D_{m,r}(n) it was computed
    for."""
    import mpmath as mp

    n, digits = data.n, data.digits
    with mp.workdps(digits + 15):
        log_exact = mp.log(mp.mpf(exact))
        ratio = mp.exp(data.log_asymptotic - log_exact)
        rel_err = abs(ratio - 1)
        normalized = rel_err * mp.sqrt(n) / mp.log(n) ** 12 if n > 1 \
            else rel_err
        return AsymComparison(saddle=data, log_exact=log_exact,
                              ratio=ratio, rel_err=rel_err,
                              normalized_err=normalized)
