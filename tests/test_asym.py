"""Tests for the saddle-point approximation of shifted Dowling numbers."""

import math

import mpmath as mp
import pytest

from geomsieve.asym import compare_exact, saddle_values, solve_delta
from geomsieve.dowling import r_dowling_number
from geomsieve.errors import NoConvergence

from oracles import bell_numbers

# Relative errors of the approximation, pinned once from a verified run
# at 50 working digits.  The checks below assert agreement to 1e-6
# relative, strict decrease along n, and the 0.05 ceiling at n = 400.
FROZEN_REL_ERRS = {
    (1, 1): {
        50: "7.151350176602e-03",
        100: "4.050126992928e-03",
        200: "2.260903828362e-03",
        400: "1.249251328574e-03",
    },
    (2, 1): {
        50: "8.147231513693e-03",
        100: "4.535493637113e-03",
        200: "2.502460172137e-03",
        400: "1.370766476226e-03",
    },
    (1, 2): {
        50: "7.032383351992e-03",
        100: "4.033086746805e-03",
        200: "2.260977191124e-03",
        400: "1.250655325065e-03",
    },
    (2, 3): {
        50: "8.072584706738e-03",
        100: "4.534965879953e-03",
        200: "2.507989139151e-03",
        400: "1.373878886225e-03",
    },
}


def test_solve_delta_residual_tiny():
    for m, r in [(1, 1), (2, 1), (1, 2), (3, 4)]:
        for n in [1, 2, 7, 50, 400, 5000]:
            d = solve_delta(m, r, n, digits=50)
            with mp.workdps(65):
                residual = abs(d * (r + mp.exp(m * d)) - n)
                assert residual < n * mp.mpf(10) ** -28


def test_solve_delta_positive_and_monotone_in_n():
    for m, r in [(1, 1), (2, 3)]:
        prev = mp.mpf(0)
        for n in range(1, 60, 3):
            d = solve_delta(m, r, n)
            assert d > 0
            assert d > prev
            prev = d


def test_solve_delta_upper_range():
    # For n > e^m the root sits below log(n)/m.
    for m, r in [(1, 1), (2, 2), (3, 1)]:
        for n in [50, 100, 1000]:
            if n <= math.exp(m):
                continue
            d = solve_delta(m, r, n)
            assert d <= mp.log(n) / m + mp.mpf(10) ** -25


def test_solve_delta_budget_exhaustion():
    with pytest.raises(NoConvergence):
        solve_delta(1, 1, 10**6, max_iter=3)


def test_validation_rejects_bad_arguments():
    for fn in (solve_delta, saddle_values, compare_exact):
        with pytest.raises(TypeError):
            fn(1.0, 1, 10)
        with pytest.raises(TypeError):
            fn(1, 1, "10")
        with pytest.raises(ValueError):
            fn(0, 1, 10)
        with pytest.raises(ValueError):
            fn(1, 0, 10)
        with pytest.raises(ValueError):
            fn(1, 1, 0)
        with pytest.raises(ValueError, match="digits >= 1"):
            fn(1, 1, 10, digits=0)


def test_saddle_values_formulas():
    for m, r, n in [(1, 1, 50), (2, 3, 100), (3, 2, 400)]:
        data = saddle_values(m, r, n)
        assert (data.m, data.r, data.n) == (m, r, n)
        with mp.workdps(60):
            e = mp.exp(m * data.delta)
            g0 = r * data.delta + (e - 1) / m
            g2 = (n + m * data.delta ** 2 * e) / 2
            assert abs(data.g0 - g0) <= abs(g0) * mp.mpf(10) ** -30
            assert abs(data.g2 - g2) <= abs(g2) * mp.mpf(10) ** -30


def test_g2_between_half_n_and_n_log_n():
    for m, r in [(1, 1), (2, 1), (1, 3)]:
        for n in [10, 50, 400]:
            data = saddle_values(m, r, n)
            assert data.g2 >= mp.mpf(n) / 2
            assert data.g2 <= n * mp.log(n)


def test_log_asymptotic_finite_for_large_n():
    data = saddle_values(1, 1, 10**4)
    assert mp.isfinite(data.log_asymptotic)
    # Also past the exact-factorial cutoff, where loggamma takes over.
    big = saddle_values(2, 3, 10**5)
    assert mp.isfinite(big.log_asymptotic)
    assert big.log_asymptotic > data.log_asymptotic


def test_frozen_relative_errors():
    for (m, r), table in FROZEN_REL_ERRS.items():
        for n, expected_str in table.items():
            got = compare_exact(m, r, n).rel_err
            expected = mp.mpf(expected_str)
            assert abs(got - expected) <= expected * mp.mpf("1e-6"), (
                m, r, n, mp.nstr(got, 13))


def test_relative_error_strictly_decreasing():
    for (m, r), table in FROZEN_REL_ERRS.items():
        errs = [compare_exact(m, r, n).rel_err for n in sorted(table)]
        for a, b in zip(errs, errs[1:]):
            assert b < a, (m, r)
        assert errs[-1] < 0.05


def test_comparison_fields_consistent():
    cmp = compare_exact(2, 3, 100)
    with mp.workdps(60):
        exact = r_dowling_number(2, 3, 100)
        assert abs(cmp.log_exact - mp.log(mp.mpf(exact))) < mp.mpf("1e-30")
        ratio = mp.exp(cmp.saddle.log_asymptotic - cmp.log_exact)
        assert abs(cmp.ratio - ratio) < mp.mpf("1e-25")
        assert abs(cmp.rel_err - abs(cmp.ratio - 1)) < mp.mpf("1e-30")
        expected_norm = cmp.rel_err * mp.sqrt(100) / mp.log(100) ** 12
        assert abs(cmp.normalized_err - expected_norm) < mp.mpf("1e-25")


def test_exact_bell_cross_check():
    # r_dowling_number(1, 1, n) counts set partitions of n+1 points, so
    # the comparison baseline can be checked against an independent
    # Bell-number recursion.
    bells = bell_numbers(51)
    assert r_dowling_number(1, 1, 50) == bells[51]
    cmp = compare_exact(1, 1, 50)
    with mp.workdps(60):
        assert abs(cmp.log_exact - mp.log(mp.mpf(bells[51]))) < mp.mpf("1e-28")


def test_digits_parameter_controls_precision():
    lo = solve_delta(1, 1, 50, digits=20)
    hi = solve_delta(1, 1, 50, digits=60)
    with mp.workdps(80):
        assert abs(lo - hi) < mp.mpf(10) ** -18


@pytest.mark.parametrize("digits", range(1, 21))
def test_solve_delta_converges_at_low_digits(digits):
    # Below about 30 working places Newton cannot reach a 1e-30 step,
    # so the tolerance follows the working precision.  The root still
    # agrees with the 50-digit one to 10 places beyond those asked for.
    for m, r in ((1, 1), (2, 1), (1, 2), (2, 3)):
        for n in (1, 7, 50, 400, 10**5):
            d = solve_delta(m, r, n, digits=digits)
            ref = solve_delta(m, r, n, digits=50)
            with mp.workdps(80):
                assert abs(d - ref) <= ref * mp.mpf(10) ** -(digits + 10)
