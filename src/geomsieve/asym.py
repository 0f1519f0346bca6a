"""Saddle-point asymptotics for shifted Dowling numbers.

For positive integers m, r the numbers D_{m,r}(n) (exponential
generating function exp(rz + (e^{mz} - 1)/m)) satisfy

    D_{m,r}(n) ~ exp(g0) / sqrt(4 pi g2) * n! / delta^n

where delta is the unique positive root of delta (r + e^{m delta}) = n,
g0 = r delta + (e^{m delta} - 1)/m and g2 = (n + m delta^2 e^{m delta})/2.
Everything is evaluated in log space with mpmath working precision,
so n can be large; compare_exact() measures the approximation against
the exact triangle row sum.  mpmath is imported by the functions that
evaluate, so loading this module (as the CLI does) does not load it.
"""

import math
from dataclasses import dataclass

from .dowling import r_dowling_number
from .errors import NoConvergence

__all__ = [
    "solve_delta",
    "saddle_values",
    "compare_exact",
    "SaddleData",
    "AsymComparison",
]

_EXACT_FACTORIAL_MAX = 10_000


def _validate(m, r, n, digits):
    if not (isinstance(m, int) and isinstance(r, int) and isinstance(n, int)):
        raise TypeError("m, r, n must be ints")
    if m < 1 or r < 1 or n < 1 or digits < 1:
        raise ValueError("need m >= 1, r >= 1, n >= 1, digits >= 1")


def solve_delta(m, r, n, *, digits=50, max_iter=200):
    """Unique positive root of delta (r + e^{m delta}) = n.

    Bisection brackets the root, Newton polishes it to relative
    tolerance 1e-30, or 256 ulps where the precision is too low for
    that; exceeding the iteration budget raises NoConvergence.
    """
    import mpmath as mp

    _validate(m, r, n, digits)
    with mp.workdps(digits + 15):
        nn = mp.mpf(n)

        def phi(d):
            return d * (r + mp.exp(m * d)) - nn

        def dphi(d):
            e = mp.exp(m * d)
            return r + e + m * d * e

        iters = 0
        lo = mp.mpf(0)
        hi = mp.mpf(1)
        while phi(hi) < 0:
            lo = hi
            hi *= 2
            iters += 1
            if iters > max_iter:
                raise NoConvergence("bracketing failed")
        for _ in range(40):
            iters += 1
            if iters > max_iter:
                raise NoConvergence("bisection budget exhausted")
            mid = (lo + hi) / 2
            if phi(mid) < 0:
                lo = mid
            else:
                hi = mid
        d = (lo + hi) / 2
        tol = max(mp.mpf(10) ** -30, 256 * mp.eps)
        while True:
            iters += 1
            if iters > max_iter:
                raise NoConvergence("Newton budget exhausted")
            step = phi(d) / dphi(d)
            d -= step
            if abs(step) <= abs(d) * tol:
                break
        if n > math.exp(m) and not d <= mp.log(nn) / m + tol:
            raise NoConvergence("root outside its proven range")
        return d


@dataclass(frozen=True)
class SaddleData:
    """Saddle-point quantities; all mpf values carry `digits` precision."""

    m: int
    r: int
    n: int
    digits: int
    delta: object
    g0: object
    g2: object
    log_asymptotic: object


def saddle_values(m, r, n, *, digits=50):
    """delta, g0, g2 and the log of the saddle-point approximation.

    log_asymptotic = g0 + log n! - n log delta - (1/2) log(4 pi g2).
    log n! is exact (big-integer factorial) up to n = 10^4 and
    loggamma beyond.
    """
    import mpmath as mp

    _validate(m, r, n, digits)
    delta = solve_delta(m, r, n, digits=digits)
    with mp.workdps(digits + 15):
        e = mp.exp(m * delta)
        g0 = r * delta + (e - 1) / m
        g2 = (n + m * delta * delta * e) / 2
        if n <= _EXACT_FACTORIAL_MAX:
            logfact = mp.log(mp.mpf(math.factorial(n)))
        else:
            logfact = mp.loggamma(n + 1)
        log_asym = g0 + logfact - n * mp.log(delta) \
            - mp.log(4 * mp.pi * g2) / 2
        return SaddleData(m=m, r=r, n=n, digits=digits, delta=delta,
                          g0=g0, g2=g2, log_asymptotic=log_asym)


@dataclass(frozen=True)
class AsymComparison:
    """Approximation vs the exact D_{m,r}(n).

    rel_err is |approx/exact - 1|; normalized_err rescales it by
    sqrt(n) / (log n)^12, the shape of the proven error term, and is
    reported rather than bounded because the theorem fixes no constant.
    """

    saddle: SaddleData
    log_exact: object
    ratio: object
    rel_err: object
    normalized_err: object


def compare_exact(m, r, n, *, digits=50):
    import mpmath as mp

    data = saddle_values(m, r, n, digits=digits)
    exact = r_dowling_number(m, r, n)
    with mp.workdps(digits + 15):
        log_exact = mp.log(mp.mpf(exact))
        ratio = mp.exp(data.log_asymptotic - log_exact)
        rel_err = abs(ratio - 1)
        normalized = rel_err * mp.sqrt(n) / mp.log(n) ** 12 if n > 1 \
            else rel_err
        return AsymComparison(saddle=data, log_exact=log_exact,
                              ratio=ratio, rel_err=rel_err,
                              normalized_err=normalized)
