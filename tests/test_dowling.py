import csv
import io
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import dowling, errors, generators, verify
from geomsieve.dowling import (
    build_Qn,
    canonical_tau_index,
    conv_grid_check,
    conv_orthogonality_check,
    conv_series,
    dowling_number,
    dowling_sieve_closed_form,
    dowling_sieve_instance,
    interval_profile_check,
    r_dowling_number,
    r_whitney_definition_check,
    shifted_convolution,
    whitney_first_rows,
    whitney_second_rows,
)
from geomsieve.errors import TooLarge
from geomsieve.sieve import sieve_main_term, sifted_count_exact

import oracles


def test_build_sizes_and_profiles():
    q22 = build_Qn(2, 2)
    assert len(q22) == 6
    assert q22.whitney_second() == (1, 4, 1)

    q32 = build_Qn(3, 2)
    assert len(q32) == 24
    assert q32.whitney_second() == (1, 9, 13, 1)


def test_trivial_group_is_partition_lattice():
    for n in range(1, 5):
        qn1 = build_Qn(n, 1)
        pi = generators.partition_lattice(n + 1)
        assert qn1.whitney_second() == pi.whitney_second()
        assert qn1.whitney_first() == pi.whitney_first()


def test_built_lattices_are_geometric():
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        assert build_Qn(n, m).is_geometric().ok


def test_size_caps():
    # Q_n(Z_m) is admitted by its element count D_m(n) alone
    assert len(build_Qn(2, 5)) == r_dowling_number(5, 1, 2)
    assert len(build_Qn(6, 2)) == 4088
    with pytest.raises(TooLarge, match=r"^dowling:6:3 has at least 12349 "
                                       r"elements, over the cap 5000$"):
        build_Qn(6, 3)
    # a larger one is built under a larger cap: D_5(5) = 5307
    assert len(generators.parse_named("dowling:5:5", 5307)) == 5307
    with pytest.raises(ValueError, match=r"^need n >= 0 and m >= 1$"):
        build_Qn(-1, 2)
    with pytest.raises(ValueError, match=r"^need n >= 0 and m >= 1$"):
        build_Qn(2, 0)


def test_sieve_instance_admitted_by_element_count():
    # Q_6(Z_2) has 4088 elements; the closed form is D_{2,1+2k}(6 - k)
    inst = dowling_sieve_instance(6, 2, 2)
    assert inst.X == 4088
    assert sifted_count_exact(inst) == dowling_sieve_closed_form(2, 6, 2)
    with pytest.raises(TooLarge, match=r"^dowling:6:3 has at least 12349 "
                                       r"elements, over the cap 5000$"):
        dowling_sieve_instance(6, 3, 1)
    # keyword caps, when given, refuse as they always did
    with pytest.raises(TooLarge, match=r"^Q_3\(Z_2\) exceeds caps n<=2, "
                                       r"m<=2; raise them explicitly if "
                                       r"you mean it$"):
        dowling_sieve_instance(3, 2, 1, n_cap=2, m_cap=2)
    with pytest.raises(TooLarge, match=r"^Q_2\(Z_3\) exceeds caps n<=2, "
                                       r"m<=2; "):
        dowling_sieve_instance(2, 3, 1, n_cap=2, m_cap=2)
    assert dowling_sieve_instance(3, 2, 1, n_cap=3, m_cap=2).X == 24


@pytest.mark.parametrize("element", [-1, 24])
def test_interval_profile_check_refuses_an_element_outside(element):
    # Q_3(Z_2) has the 24 elements 0..23
    with pytest.raises(ValueError, match=rf"^element {element} is not in "
                                         r"Q_3\(Z_2\), whose elements are "
                                         r"0\.\.23$"):
        interval_profile_check(3, 2, element)
    assert interval_profile_check(3, 2, 23).ok


def test_partial_partition_validation():
    # Every enumerated key is canonical and distinct, and the oracle
    # refuses each way a key can break the canonical form.
    for n, m in [(1, 1), (3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (4, 4)]:
        keys = dowling._qn_data(n, m)[0]
        assert all(oracles.is_canonical_dowling_key(k, n, m) for k in keys)
        assert len(set(keys)) == len(keys) == r_dowling_number(m, 1, n)
    assert oracles.is_canonical_dowling_key((((0, 2),), ((0, 1),)), 3, 2)
    for bad in [(((0, 2),), ((1, 1),)),                # least exponent 1
                (((2, 0),), ((0, 1),)),                # unsorted block
                (((0, 1), (1, 2)), ((0, 0), (0, 0))),  # 1 in two blocks
                (((1, 2), (0,)), ((0, 0), (0,))),      # blocks unordered
                (((0, 5),), ((0, 1),)),                # element 5 > n - 1
                (((0, 1),), ((0, 2),)),                # exponent 2 >= m
                (((),), ((),))]:                       # empty block
        assert not oracles.is_canonical_dowling_key(bad, 3, 2), bad


def test_partial_partition_rank_and_label():
    keys, index, lat = dowling._qn_data(3, 2)
    bottom = index[((0,), (1,), (2,)), ((0,), (0,), (0,))]
    assert bottom == lat.bottom and lat.rank[bottom] == 0
    top = index[(), ()]
    assert top == lat.top and lat.rank[top] == 3
    assert lat.labels[top] == "~"
    mixed = index[((0, 2),), ((0, 1),)]
    assert lat.rank[mixed] == 2
    assert lat.labels[mixed] == "0^0,2^1"
    assert lat.labels[bottom] == "0^0|1^0|2^0"
    assert all(lat.rank[i] == 3 - len(blocks)
               for i, (blocks, _exps) in enumerate(keys))


def test_order_test_matches_lattice():
    for n, m in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        keys, _index, lat = dowling._qn_data(n, m)
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.leq(i, j) == \
                    oracles.dowling_key_leq(keys[i], keys[j], m), (n, m, i, j)


def test_first_kind_triangle():
    rows = list(whitney_first_rows(2, 5))
    assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6]
    assert rows[2] == (3, -4, 1)
    assert rows[4][4] == 1
    # sign pattern
    for n, row in enumerate(rows):
        for k, v in enumerate(row):
            assert (-1) ** (n - k) * v >= 0


def test_first_kind_matches_stirling():
    s1 = oracles.stirling1_signed(21)
    for n, row in enumerate(whitney_first_rows(1, 20)):
        for k, v in enumerate(row):
            assert abs(v) == abs(s1[n + 1][k + 1])


def test_second_kind_triangle():
    assert list(whitney_second_rows(2, 1, 5))[2] == (1, 4, 1)
    rows12 = list(whitney_second_rows(1, 2, 5))
    assert rows12[2][0] == 4
    for n, row in enumerate(rows12):
        assert len(row) == n + 1
        assert row[0] == 2 ** n
        assert row[n] == 1


def test_second_kind_matches_stirling():
    s2 = oracles.stirling2(21)
    for n, row in enumerate(whitney_second_rows(1, 1, 20)):
        for k, v in enumerate(row):
            assert v == s2[n + 1][k + 1]


def test_lattice_and_triangle_agree():
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        lat = build_Qn(n, m)
        first = list(whitney_first_rows(m, n))[n]
        second = list(whitney_second_rows(m, 1, n))[n]
        # rank i in the lattice corresponds to k = n - i in the triangle
        assert lat.whitney_first() == tuple(first[::-1])
        assert lat.whitney_second() == tuple(second[::-1])


def test_first_kind_rows_vanish_at_char_roots():
    for m in (1, 2, 3):
        rows = list(whitney_first_rows(m, 8))
        for n in range(1, 9):
            row = rows[n]
            for i in range(n):
                lam = 1 + i * m
                assert sum(c * lam ** k for k, c in enumerate(row)) == 0
            assert sum(row) == 0  # lambda = 1 is always a root


def test_r_whitney_definition():
    for m in (1, 2, 3):
        for r in (0, 1, 2, 3):
            for n in (0, 1, 2, 5, 8):
                assert r_whitney_definition_check(m, r, n)


def test_dowling_numbers():
    assert [dowling_number(2, n) for n in range(6)] == \
        [1, 2, 6, 24, 116, 648]
    assert dowling_number(3, 4) == 214
    bell = oracles.bell_numbers(31)
    for n in range(31):
        assert dowling_number(1, n) == bell[n + 1]
        assert r_dowling_number(1, 1, n) == bell[n + 1]
    assert r_dowling_number(2, 3, 2) == 18
    assert r_dowling_number(1, 2, 1) == 3
    assert dowling_number(2, 3) == len(build_Qn(3, 2))


def test_shifted_convolution():
    assert shifted_convolution(1, 1, 1, 2) == 4
    for m in (1, 2):
        for n in range(5):
            for t in range(5):
                assert shifted_convolution(m, n, t, 0) == int(n == t)
                if t < n:
                    for s in range(4):
                        assert shifted_convolution(m, n, t, s) == 0
    with pytest.raises(ValueError):
        shifted_convolution(1, -1, 0, 0)


def test_orthogonality():
    for m in (1, 2, 3):
        ok, witness = conv_orthogonality_check(m, 10)
        assert ok and witness is None
    # by-hand spot: sum_r W_2(2,r) w_2(r,0) = 1*1 + 4*(-1) + 1*3
    w = list(whitney_first_rows(2, 2))
    W = list(whitney_second_rows(2, 1, 2))
    total = sum(W[2][r] * w[r][0] for r in range(3))
    assert total == 0


def test_conv_series():
    ser = conv_series(1, 1, 1, 6)
    assert ser == (1, 2, 4, 8, 16, 32, 64)
    for m in (1, 2, 3):
        for n in (0, 1, 3):
            ser = conv_series(m, n, n, 8)
            for s in range(9):
                assert ser[s] == (1 + n * m) ** s
    # below the diagonal the series vanishes identically
    zero = conv_series(2, 3, 1, 5)
    assert all(c == 0 for c in zero)


def test_conv_series_n0_is_second_kind_series():
    for m in (1, 2, 3):
        rows = list(whitney_second_rows(m, 1, 12))
        for t in range(4):
            ser = conv_series(m, 0, t, 12)
            for s, row in enumerate(rows):
                assert ser[s] == (row[t] if t <= s else 0)


def test_conv_equals_shifted_rwhitney():
    for m in (1, 2):
        assert conv_grid_check(m, 3, 6, 10) == (True, None)
    assert shifted_convolution(1, 1, 1, 2) == \
        list(whitney_second_rows(1, 2, 2))[2][0] == 4


def test_conv_grid_check_forms_each_triangle_once(triangle_steps):
    n_max, t_max, s_max = 4, 7, 6
    assert conv_grid_check(2, n_max, t_max, s_max) == (True, None)
    # w_2 to n_max, W_{2,1} to n_max + s_max, W_{2,1+2n} to s_max per n
    assert len(triangle_steps) == \
        n_max + (n_max + s_max) + (n_max + 1) * s_max


def test_conv_grid_check_refuses_a_negative_bound():
    with pytest.raises(ValueError, match=r"^need n_max, t_max, s_max >= 0$"):
        conv_grid_check(2, 3, -1, 4)


def test_conv_grid_check_finds_an_off_by_one_shifted_entry(monkeypatch):
    # W_{2,5} is the shifted triangle of n = 2 at m = 2; one entry,
    # W_{2,5}(3, 1), is off by one, so c_{2,3}(3) disagrees with it
    rows = dowling.whitney_second_rows

    def mutated(m, r, n_max):
        out = list(rows(m, r, n_max))
        if (m, r) == (2, 5):
            out[3] = (out[3][0], out[3][1] + 1) + out[3][2:]
        return out

    monkeypatch.setattr(dowling, "whitney_second_rows", mutated)
    assert conv_grid_check(2, 4, 6, 5) == (False, (2, 3, 3))
    assert verify.check_convolution_grid(fast=True) == \
        (False, "mismatch at m=2, n=2, t=3, s=3")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 12),
       st.integers(0, 10))
def test_shifted_convolution_matches_series_and_shifted_triangle(m, n, t, s):
    value = shifted_convolution(m, n, t, s)
    assert value == conv_series(m, n, t, s)[s]
    # W(s, k) is 0 for k < 0, which is the vanishing for t < n
    row = list(whitney_second_rows(m, 1 + m * n, s))[s]
    assert value == (row[t - n] if 0 <= t - n <= s else 0)


def test_series_arithmetic():
    # one factor: the geometric row 1 / (1 - 3x) for m = 2, n = t = 1
    assert conv_series(2, 1, 1, 5) == (1, 3, 9, 27, 81, 243)
    # two factors: x / ((1 - 3x)(1 - 5x)), the convolution of two rows
    threes = [3 ** i for i in range(7)]
    fives = [5 ** i for i in range(7)]
    product = [sum(threes[i] * fives[s - i] for i in range(s + 1))
               for s in range(7)]
    assert conv_series(2, 1, 2, 7) == (0, *product)
    # x^(t-n) past the truncation order leaves nothing
    assert conv_series(2, 1, 9, 7) == (0,) * 8
    assert conv_series(1, 0, 6, 5) == (0,) * 6
    assert conv_series(1, 0, 5, 5) == (0,) * 5 + (1,)
    for args in ((1, -1, 2, 3), (1, 0, -1, 3), (1, 0, 2, -1)):
        with pytest.raises(ValueError):
            conv_series(*args)


def test_sieve_closed_form_spot():
    inst = dowling_sieve_instance(3, 2, 1)
    assert sifted_count_exact(inst) == 18
    assert dowling_sieve_closed_form(2, 3, 1) == 18
    assert dowling_sieve_closed_form(2, 3, 0) == dowling_number(2, 3)
    with pytest.raises(ValueError):
        dowling_sieve_closed_form(2, 3, 4)


def test_sieve_closed_form_grid():
    for m in (1, 2):
        for n in range(0, 4):
            for k in range(n + 1):
                inst = dowling_sieve_instance(n, m, k)
                assert sifted_count_exact(inst) == \
                    dowling_sieve_closed_form(m, n, k), (m, n, k)


def test_dowling_instance_has_exact_density():
    inst = dowling_sieve_instance(3, 2, 2)
    assert sieve_main_term(inst) == sifted_count_exact(inst)
    assert inst.X == dowling_number(2, 3)
    assert inst.f[0] == Fraction(1, dowling_number(2, 3))


def test_canonical_tau():
    n, m = 4, 2
    keys, _index, lat = dowling._qn_data(n, m)
    for k in range(n + 1):
        tau = canonical_tau_index(n, m, k)
        assert lat.rank[tau] == k
        assert keys[tau] == (tuple((i,) for i in range(k, n)),
                             ((0,),) * (n - k))
        # the interval below tau looks like Q_k
        report = interval_profile_check(n, m, tau)
        assert report.ok
        assert report.lower_actual == \
            list(whitney_second_rows(m, 1, k))[k][::-1]
        assert report.first_actual == \
            list(whitney_first_rows(m, k))[k][::-1]


def test_interval_profiles():
    # Every element of each lattice, both kinds; Q_5(Z_2), Q_4(Z_3) and
    # Q_4(Z_4) have blocks of every size up to 5, 4 and 4.
    for n, m in [(2, 2), (3, 2), (2, 3), (5, 2), (4, 3), (4, 4)]:
        lat = build_Qn(n, m)
        for e in range(len(lat)):
            report = interval_profile_check(n, m, e)
            assert report.ok, (n, m, e, report)
            assert report.upper_expected == report.upper_actual
            assert report.lower_expected == report.lower_actual
            assert report.first_expected == report.first_actual


def test_interval_profiles_match_rebuilt_intervals():
    # The mask reads equal the profiles of both intervals rebuilt as
    # lattices of their own.
    n, m = 3, 3
    lat = build_Qn(n, m)
    for e in range(len(lat)):
        report = interval_profile_check(n, m, e)
        above, _ = oracles.interval(lat, e, lat.top)
        below, _ = oracles.interval(lat, lat.bottom, e)
        assert report.upper_actual == above.whitney_second()
        assert report.lower_actual == below.whitney_second()
        assert report.first_actual == below.whitney_first()


def test_interval_profile_above_bottom_is_whole_lattice():
    lat = build_Qn(3, 2)
    report = interval_profile_check(3, 2, lat.bottom)
    assert report.upper_actual == lat.whitney_second()
    assert report.lower_actual == (1,)
    assert report.first_actual == (1,)


def test_triangle_csv_round_trip():
    # the CSV that `dowling table` writes parses back to the row stream
    for kind, m, r, rows in [
            ("first", 2, 1, partial(whitney_first_rows, 2, 6)),
            ("second", 3, 2, partial(whitney_second_rows, 3, 2, 5))]:
        buf = io.StringIO()
        dowling._write_csv(buf, kind, m, r, rows())
        lines = list(csv.reader(io.StringIO(buf.getvalue())))
        assert lines[:3] == [["kind", "m", "r"], [kind, str(m), str(r)],
                             ["n", "k", "value"]]
        expected = [(n, k, v) for n, row in enumerate(rows())
                    for k, v in enumerate(row)]
        assert [tuple(map(int, line)) for line in lines[3:]] == expected


@pytest.mark.parametrize("call", [
    lambda: r_dowling_number(1, 1, -1),
    lambda: r_dowling_number(2, 3, -5),
    lambda: dowling_number(2, -1),
], ids=["r_dowling_number(1,1,-1)", "r_dowling_number(2,3,-5)",
        "dowling_number(2,-1)"])
def test_dowling_numbers_refuse_negative_n(call):
    with pytest.raises(ValueError, match=r"^need n >= 0$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: r_dowling_number(2, 3, 2001),
    lambda: dowling_number(1, 2001),
], ids=["r_dowling_number(2,3,2001)", "dowling_number(1,2001)"])
def test_dowling_numbers_refuse_n_over_cap_before_any_row(call, row_steps):
    with pytest.raises(TooLarge, match=r"^need n <= 2000, the cap on exact "
                                       r"Dowling numbers$"):
        call()
    assert row_steps == []
    assert dowling._check_numbers_n(2000) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 30))
def test_dowling_stream_matches_egf_recurrence(m, r, n):
    expected = oracles.r_dowling_numbers(m, r, n)
    assert list(dowling._dowling_numbers(m, r, n)) == expected
    assert r_dowling_number(m, r, n) == expected[n]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 25))
def test_dowling_stream_matches_triangle_row_sums(m, r, n):
    rows = whitney_second_rows(m, r, n)
    assert list(dowling._dowling_numbers(m, r, n)) == list(map(sum, rows))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 8), st.integers(0, 30))
def test_dowling_stream_satisfies_shift_recurrence(m, r, n):
    d = list(dowling._dowling_numbers(m, r, n + 1))
    shifted = list(dowling._dowling_numbers(m, r + m, n))
    assert d[0] == 1
    assert all(d[i + 1] == r * d[i] + shifted[i] for i in range(n + 1))


@pytest.mark.parametrize("m, r", [(0, 1), (2, -1)])
def test_dowling_stream_validates_before_its_first_value(m, r):
    with pytest.raises(ValueError, match=r"^need m >= 1 and r >= 0$"):
        next(dowling._dowling_numbers(m, r, 3))


def test_dowling_numbers_leave_triangle_cache_alone(triangle_steps):
    assert r_dowling_number(4, 11, 60) == \
        oracles.r_dowling_numbers(4, 11, 60)[60]
    assert dowling_number(5, 45) == oracles.r_dowling_numbers(5, 1, 45)[45]
    assert dowling_sieve_closed_form(3, 4, 2) == \
        oracles.r_dowling_numbers(3, 7, 2)[2]
    assert triangle_steps == []


def test_sieve_instance_reads_its_numbers_in_one_pass(row_steps):
    counts = oracles.r_dowling_numbers(3, 1, 4)
    for _ in range(2):
        row_steps.clear()
        inst = dowling_sieve_instance(4, 3, 2)
        assert row_steps == [(3, 1)] * 4
        assert inst.X == counts[4]
        assert inst.f == tuple(Fraction(c, counts[4]) for c in counts)


def test_classical_oracles_check_reads_one_pass(row_steps):
    assert verify.check_classical_oracles()[0]
    assert row_steps == [(1, 1)] * 30


def test_verify_check_catches_a_wrong_dowling_number(monkeypatch):
    # D_1(11), the last entry of anti-diagonal 11, off by one
    step = dowling._next_diagonal

    def off_by_one(m, r, diag):
        new = step(m, r, diag)
        if m == 1 and len(new) == 12:
            new[-1] += 1
        return new

    monkeypatch.setattr(dowling, "_next_diagonal", off_by_one)
    ok, detail = verify.check_classical_oracles(fast=True)
    assert ok is False
    assert detail == "D_1(11) != Bell(12)"


@pytest.mark.parametrize("fast", [False, True], ids=["full", "fast"])
def test_triangle_checks_form_each_row_once(triangle_steps, fast):
    # rows 1..nmax of w_m for m = 1..5, one stream each
    verify.check_log_concavity(fast=fast)
    nmax = 20 if fast else 40
    assert triangle_steps == list(range(1, nmax + 1)) * 5
    # w_1 and W_{1,1} read side by side, row by row
    triangle_steps.clear()
    verify.check_classical_oracles(fast=fast)
    nmax = 15 if fast else 30
    assert triangle_steps == [n for n in range(1, nmax + 1) for _ in "wW"]


def test_verify_check_catches_a_zero_inside_a_first_kind_row(monkeypatch):
    # w_2(5, 2) set to 0 leaves a gap inside |row 5| of w_2
    rows = dowling.whitney_first_rows

    def mutated(m, n_max):
        for n, row in enumerate(rows(m, n_max)):
            yield row[:2] + (0,) + row[3:] if (m, n) == (2, 5) else row

    monkeypatch.setattr(dowling, "whitney_first_rows", mutated)
    ok, detail = verify.check_log_concavity(fast=True)
    assert ok is False
    assert detail == "triangle m=2 row 5: log-concavity fails"


def test_verify_check_catches_a_wrong_second_kind_coefficient(monkeypatch):
    # W_2(3, 1) off by one, so row 3 of W_2 against column 0 of w_2
    # sums to -1, not 0
    rows = dowling.whitney_second_rows

    def mutated(m, r, n_max):
        for n, row in enumerate(rows(m, r, n_max)):
            if (m, r, n) == (2, 1, 3):
                row = (row[0], row[1] + 1) + row[2:]
            yield row

    monkeypatch.setattr(dowling, "whitney_second_rows", mutated)
    ok, detail = verify.check_orthogonality(fast=True)
    assert ok is False
    assert detail == "m=2: fails at ('second*first', 3, 0)"

def test_verify_check_catches_a_wrong_first_kind_coefficient(monkeypatch):
    # w_2(3, 1) off by one: row 3 of the second*first product still
    # holds at s = 0, which reads only column 0 of w_2, but row 3 of w_2
    # against column 0 of W_2 sums to W_2(1, 0) = 1, not 0
    rows = dowling.whitney_first_rows

    def mutated(m, n_max):
        for n, row in enumerate(rows(m, n_max)):
            if (m, n) == (2, 3):
                row = (row[0], row[1] + 1) + row[2:]
            yield row

    monkeypatch.setattr(dowling, "whitney_first_rows", mutated)
    assert conv_orthogonality_check(2, 3) == (False, ("first*second", 3, 0))
    ok, detail = verify.check_orthogonality(fast=True)
    assert ok is False
    assert detail == "m=2: fails at ('first*second', 3, 0)"


def _change_entry(monkeypatch, kind, m, r, n, k, delta):
    """Patch dowling's row streams so that entry (n, k) of w_m (kind
    "first") or of W_{m,r} (kind "second") is off by delta."""
    name = f"whitney_{kind}_rows"
    rows = getattr(dowling, name)

    def mutated(*args):
        for i, row in enumerate(rows(*args)):
            if args[:-1] == ((m,) if kind == "first" else (m, r)) and i == n:
                row = row[:k] + (row[k] + delta,) + row[k + 1:]
            yield row

    monkeypatch.setattr(dowling, name, mutated)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.sampled_from(["first", "second"]),
       st.integers(0, 3), st.integers(0, 7), st.integers(0, 7),
       st.integers(-2, 2))
def test_triangle_checks_match_entrywise_oracles(m, kind, j, n, k, delta):
    # one entry of w_m, or of W_{m,1+jm} (j = 0 is the unshifted W_m),
    # changed by delta: both checks give the verdict and the witness of
    # their entry-by-entry forms
    k = min(k, n)
    with pytest.MonkeyPatch.context() as patch:
        _change_entry(patch, kind, m, 1 + j * m, n, k, delta)
        assert conv_orthogonality_check(m, 7) == \
            oracles.entrywise_orthogonality_check(m, 7)
        assert conv_grid_check(m, 3, 6, 5) == \
            oracles.entrywise_grid_check(m, 3, 6, 5)


def test_r_dowling_number_holds_one_row():
    # the stream holds one anti-diagonal, about 1.2 MB at its peak; rows
    # 0..1000 of the cached triangle peaked at about 213 MB
    code = ("import tracemalloc\n"
            "from geomsieve.dowling import r_dowling_number\n"
            "tracemalloc.start()\n"
            "r_dowling_number(2, 3, 1000)\n"
            "print(tracemalloc.get_traced_memory()[1])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dowling.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 20 * 2 ** 20


@pytest.mark.parametrize("call", [
    lambda: whitney_first_rows(2, 11),
    lambda: whitney_second_rows(3, 2, 11),
    lambda: shifted_convolution(2, 3, 5, 8),
    lambda: conv_grid_check(2, 1, 3, 10),
], ids=["first_table", "second_table", "shifted_convolution",
        "conv_grid_check"])
def test_triangles_refuse_depth_over_cap_before_any_row(monkeypatch, call,
                                                        triangle_steps):
    monkeypatch.setattr(errors, "TRIANGLE_DEPTH_CAP", 10)
    with pytest.raises(TooLarge, match=r"^need triangle depth <= 10, the "
                                       r"cap on Whitney rows \(asked for "
                                       r"1[01]\)$"):
        call()
    assert triangle_steps == []
    assert len(list(whitney_second_rows(3, 2, 10))) == 11
    assert shifted_convolution(2, 3, 5, 7) == \
        list(whitney_second_rows(2, 7, 7))[7][2]


def test_triangle_tables_refuse_negative_n_max(triangle_steps):
    # the row functions refuse when called, before any row is formed
    for call in (lambda: whitney_first_rows(2, -1),
                 lambda: whitney_second_rows(2, 1, -1),
                 lambda: whitney_second_rows(2, 1, -3)):
        with pytest.raises(ValueError, match=r"^need n_max >= 0$"):
            call()
    assert triangle_steps == []
    assert list(whitney_first_rows(2, 0)) == [(1,)]
    assert list(whitney_second_rows(2, 3, 0)) == [(1,)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 25), st.integers(0, 6))
def test_second_kind_row_sums_are_r_dowling(m, n, r):
    row = list(whitney_second_rows(m, r, n))[n]
    assert sum(row) == r_dowling_number(m, r, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 20))
def test_first_kind_alternating_row_sums(m, n):
    row = list(whitney_first_rows(m, n))[n]
    absrow = [abs(v) for v in row]
    total = sum(absrow)
    # row evaluated at -1 gives the number of elements with all signs up
    assert total == abs(sum(c * (-1) ** k for k, c in enumerate(row)))
