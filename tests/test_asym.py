"""Tests for the saddle-point approximation of shifted Dowling numbers."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from geomsieve import asym, verify
from geomsieve.asym import compare_exact, saddle_values, solve_delta
from geomsieve.cli import main
from geomsieve.dowling import r_dowling_number
from geomsieve.errors import NoConvergence, TooLarge

from oracles import bell_numbers, bisect_delta, r_dowling_numbers

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


def test_solve_delta_budget_exhaustion(monkeypatch):
    # from W(mn)/m the root of (1, 1, 10^6) at 65 places takes five
    # Newton steps, so a budget of three runs out
    monkeypatch.setattr(asym, "_NEWTON_STEPS", 3)
    with pytest.raises(NoConvergence, match="^Newton budget exhausted$"):
        solve_delta(1, 1, 10**6)


@pytest.mark.parametrize("digits", [100, 200, 1000])
def test_solve_delta_accurate_to_the_digits_asked(digits):
    # Newton's error is the residual over the slope, |phi| / phi';
    # relative to d it must sit below the last digit asked for
    for m, r, n in ((2, 3, 777), (1, 10**6, 10**6), (50, 1, 10**30)):
        d = solve_delta(m, r, n, digits=digits)
        with mp.workdps(digits + 40):
            e = mp.exp(m * d)
            phi = d * (r + e) - n
            dphi = r + e + m * d * e
            assert abs(phi) / (d * dphi) < mp.mpf(10) ** -digits, (m, r, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(1, 10**6), st.integers(1, 10**30),
       st.integers(1, 120))
def test_solve_delta_matches_bisection(m, r, n, digits):
    d = solve_delta(m, r, n, digits=digits)
    ref = bisect_delta(m, r, n, digits)
    with mp.workdps(digits + 20):
        assert abs(d - ref) < ref * mp.mpf(10) ** -digits


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


@pytest.mark.parametrize("fn", [solve_delta, saddle_values, compare_exact])
@pytest.mark.parametrize("args, digits, name, kind", [
    ((True, 1, 10), 50, "m", "bool"),
    ((1, True, 10), 50, "r", "bool"),
    ((1, 1, True), 50, "n", "bool"),
    ((1, 1, 10), True, "digits", "bool"),
    ((1, 1, 10), False, "digits", "bool"),
    ((1, 1, 10), 2.5, "digits", "float"),
    ((1, 1, 10), "5", "digits", "str"),
    ((1, 1, 10), None, "digits", "NoneType"),
])
def test_validation_names_a_bool_or_non_int_argument(fn, args, digits, name,
                                                    kind):
    # True is an int to isinstance, so it once read as m = 1; digits
    # was never type-checked
    with pytest.raises(TypeError, match=f"^{name} must be an int, not {kind}$"):
        fn(*args, digits=digits)


def test_solve_delta_refuses_a_root_outside_its_proven_range(monkeypatch):
    # a start d far above the root: Newton's first step is about 1, a
    # relative step of about 1/d, already under the tolerance, so the
    # loop ends at once on a d far above log(n) / m
    monkeypatch.setattr(mp, "lambertw", lambda z: mp.mpf(10) ** 40)
    with pytest.raises(NoConvergence, match="^root outside its proven range$"):
        solve_delta(1, 1, 10, digits=10)


def test_digits_over_cap_refused_before_any_mpmath_work(monkeypatch):
    contexts = []
    workdps = mp.workdps

    def counted(dps):
        contexts.append(dps)
        return workdps(dps)

    monkeypatch.setattr(mp, "workdps", counted)
    message = "^need digits <= 1000, the cap on working precision$"
    for fn in (solve_delta, saddle_values, compare_exact):
        with pytest.raises(TooLarge, match=message):
            fn(1, 1, 50, digits=1001)
    assert contexts == []
    # the cap itself is a valid request
    assert solve_delta(1, 1, 50, digits=1000) > 0
    assert contexts


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


def test_log_asymptotic_matches_the_exact_factorial():
    # log n! comes from loggamma(n + 1); against the log of the exact
    # big-integer n! it agrees to the digits asked for
    for m, r, n in [(1, 1, 1), (2, 3, 50), (3, 2, 400), (1, 5, 10**4)]:
        data = saddle_values(m, r, n, digits=80)
        with mp.workdps(120):
            e = mp.exp(m * data.delta)
            g2 = (n + m * data.delta ** 2 * e) / 2
            expected = (r * data.delta + (e - 1) / m
                        + mp.log(math.factorial(n))
                        - n * mp.log(data.delta) - mp.log(4 * mp.pi * g2) / 2)
            assert abs(data.log_asymptotic - expected) \
                <= abs(expected) * mp.mpf(10) ** -80, n


def test_g2_between_half_n_and_n_log_n():
    for m, r in [(1, 1), (2, 1), (1, 3)]:
        for n in [10, 50, 400]:
            data = saddle_values(m, r, n)
            assert data.g2 >= mp.mpf(n) / 2
            assert data.g2 <= n * mp.log(n)


def test_log_asymptotic_finite_for_large_n():
    data = saddle_values(1, 1, 10**4)
    assert mp.isfinite(data.log_asymptotic)
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


def test_compare_exact_streams_the_exact_side(triangle_steps):
    cmp = compare_exact(3, 5, 70)
    exact = r_dowling_numbers(3, 5, 70)[70]
    with mp.workdps(60):
        assert abs(cmp.log_exact - mp.log(mp.mpf(exact))) < mp.mpf("1e-30")
    assert triangle_steps == []


def test_compare_exact_refuses_n_over_cap_before_any_row(row_steps):
    with pytest.raises(TooLarge, match="^need n <= 2000, the cap on exact "):
        compare_exact(2, 3, 2001)
    assert row_steps == []


def test_compare_exact_refuses_n_over_cap_before_the_saddle(monkeypatch,
                                                           capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("saddle evaluated")

    monkeypatch.setattr(asym, "saddle_values", refuse)
    with pytest.raises(TooLarge, match="^need n <= 2000, the cap on exact "):
        compare_exact(2, 3, 2001, digits=1000)
    assert main(["asym", "dowling", "--m", "2", "--r", "3", "--n", "2001",
                 "--compare-exact"]) == 2
    assert capsys.readouterr().err == ("error: need n <= 2000, the cap on "
                                       "exact Dowling numbers\n")

@pytest.mark.parametrize("fast", [False, True], ids=["full", "fast"])
def test_saddle_check_matches_per_n_comparisons(fast):
    ns = (50, 100, 200) if fast else (50, 100, 200, 400)
    details = []
    for m, r in ((1, 1), (2, 1), (1, 2), (2, 3)):
        errs = [float(compare_exact(m, r, n).rel_err) for n in ns]
        details.append(f"({m},{r}) err {errs[0]:.2e}->{errs[-1]:.2e}")
    assert verify.check_saddle(fast=fast) == (True, "; ".join(details))


def test_saddle_check_reads_each_exact_value_once(monkeypatch, row_steps):
    # one finite Dobinski sum per (m, r, n) compared, and no step of the
    # anti-diagonal stream
    calls = []
    honest = asym.r_dowling_number

    def counted(m, r, n):
        calls.append((m, r, n))
        return honest(m, r, n)

    monkeypatch.setattr(asym, "r_dowling_number", counted)
    assert verify.check_saddle(fast=True)[0]
    assert calls == [(m, r, n) for m, r in ((1, 1), (2, 1), (1, 2), (2, 3))
                     for n in (50, 100, 200)]
    assert row_steps == []


def test_saddle_check_fails_on_a_ladder_read_one_n_early(monkeypatch):
    # hand the (1, 2) ladder D_{1,2}(n - 1) where D_{1,2}(n) belongs: it
    # then lags one n behind its saddle values
    honest = asym.r_dowling_number

    def early(m, r, n):
        return honest(m, r, n - ((m, r) == (1, 2)))

    monkeypatch.setattr(asym, "r_dowling_number", early)
    ok, detail = verify.check_saddle(fast=True)
    assert ok is False
    assert detail.startswith("(m,r)=(1,2): errors not decreasing"), detail


def test_saddle_check_fails_on_a_final_error_over_five_percent(monkeypatch):
    # every (1, 1) error 0.06 higher still decreases along n, so only
    # the ceiling on the last one fires
    final = float(compare_exact(1, 1, 200).rel_err + 0.06)
    honest = asym._compare

    def shifted(data, exact):
        out = honest(data, exact)
        if (data.m, data.r) == (1, 1):
            out = out._replace(rel_err=out.rel_err + 0.06)
        return out

    monkeypatch.setattr(asym, "_compare", shifted)
    assert verify.check_saddle(fast=True) == (
        False, f"final error {final} >= 0.05")


def test_digits_parameter_controls_precision():
    lo = solve_delta(1, 1, 50, digits=20)
    hi = solve_delta(1, 1, 50, digits=60)
    with mp.workdps(80):
        assert abs(lo - hi) < mp.mpf(10) ** -18


@pytest.mark.parametrize("digits", range(1, 21))
def test_solve_delta_converges_at_low_digits(digits):
    # Newton stops at a step of 256 ulps of the digits + 15 working
    # places, so the root agrees with the 50-digit one to 10 places
    # beyond those asked for.
    for m, r in ((1, 1), (2, 1), (1, 2), (2, 3)):
        for n in (1, 7, 50, 400, 10**5):
            d = solve_delta(m, r, n, digits=digits)
            ref = solve_delta(m, r, n, digits=50)
            with mp.workdps(80):
                assert abs(d - ref) <= ref * mp.mpf(10) ** -(digits + 10)
