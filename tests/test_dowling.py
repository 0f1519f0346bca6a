import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import dowling, generators
from geomsieve.dowling import (
    build_Qn,
    canonical_tau_index,
    conv_equals_rwhitney_check,
    conv_orthogonality_check,
    conv_series,
    dowling_number,
    dowling_sieve_closed_form,
    dowling_sieve_instance,
    interval_profile_check,
    r_dowling_number,
    r_whitney_definition_check,
    shifted_convolution,
    triangle_from_csv,
    triangle_to_csv,
    whitney_first_table,
    whitney_second_table,
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
    with pytest.raises(TooLarge):
        build_Qn(6, 2)
    with pytest.raises(TooLarge):
        build_Qn(2, 5)
    # explicit caps override
    assert len(build_Qn(2, 5, m_cap=5)) == r_dowling_number(5, 1, 2)
    with pytest.raises(ValueError):
        build_Qn(-1, 2)
    with pytest.raises(ValueError):
        build_Qn(2, 0)


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
    tri = whitney_first_table(2, 5)
    assert tri.row(2) == (3, -4, 1)
    assert tri.value(4, 4) == 1
    assert tri.value(3, 5) == 0
    assert tri.value(2, -1) == 0
    with pytest.raises(IndexError):
        tri.row(6)
    # sign pattern
    for n in range(6):
        for k in range(n + 1):
            assert (-1) ** (n - k) * tri.value(n, k) >= 0


def test_first_kind_matches_stirling():
    tri = whitney_first_table(1, 20)
    s1 = oracles.stirling1_signed(21)
    for n in range(21):
        for k in range(n + 1):
            assert abs(tri.value(n, k)) == abs(s1[n + 1][k + 1])


def test_second_kind_triangle():
    tri = whitney_second_table(2, 1, 5)
    assert tri.row(2) == (1, 4, 1)
    tri12 = whitney_second_table(1, 2, 5)
    assert tri12.value(2, 0) == 4
    for n in range(6):
        assert tri12.value(n, 0) == 2 ** n
        assert tri12.value(n, n) == 1


def test_second_kind_matches_stirling():
    tri = whitney_second_table(1, 1, 20)
    s2 = oracles.stirling2(21)
    for n in range(21):
        for k in range(n + 1):
            assert tri.value(n, k) == s2[n + 1][k + 1]


def test_lattice_and_triangle_agree():
    for n, m in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3)]:
        lat = build_Qn(n, m)
        first = whitney_first_table(m, n).row(n)
        second = whitney_second_table(m, 1, n).row(n)
        # rank i in the lattice corresponds to k = n - i in the triangle
        assert lat.whitney_first() == tuple(first[::-1])
        assert lat.whitney_second() == tuple(second[::-1])


def test_first_kind_rows_vanish_at_char_roots():
    for m in (1, 2, 3):
        tri = whitney_first_table(m, 8)
        for n in range(1, 9):
            row = tri.row(n)
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
    w = whitney_first_table(2, 2)
    W = whitney_second_table(2, 1, 2)
    total = sum(W.value(2, r) * w.value(r, 0) for r in range(3))
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
        for t in range(4):
            ser = conv_series(m, 0, t, 12)
            tri = whitney_second_table(m, 1, 12)
            for s in range(13):
                assert ser[s] == tri.value(s, t)


def test_conv_equals_shifted_rwhitney():
    for m in (1, 2):
        for n in range(4):
            for t in range(n, 7):
                assert conv_equals_rwhitney_check(m, n, t, 10)
    assert shifted_convolution(1, 1, 1, 2) == \
        whitney_second_table(1, 2, 2).value(2, 0) == 4


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
            tuple(whitney_second_table(m, 1, k).row(k)[::-1])
        assert report.first_actual == \
            tuple(whitney_first_table(m, k).row(k)[::-1])


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


def test_triangle_csv_round_trip(tmp_path):
    for tri in (whitney_first_table(2, 6), whitney_second_table(3, 2, 5)):
        text = triangle_to_csv(tri)
        back = triangle_from_csv(text)
        assert back.kind == tri.kind
        assert back.m == tri.m and back.r == tri.r
        assert back.n_max == tri.n_max
        for n in range(tri.n_max + 1):
            assert back.row(n) == tri.row(n)


def test_triangle_csv_rejects_garbage():
    with pytest.raises(ValueError):
        triangle_from_csv("bogus\n")
    tri = whitney_first_table(1, 3)
    text = triangle_to_csv(tri)
    lines = text.strip().splitlines()
    with pytest.raises(ValueError, match="missing"):
        triangle_from_csv("\n".join(lines[:-1]) + "\n")


HEAD = "kind,m,r\nfirst,1,1\nn,k,value\n"


@pytest.mark.parametrize("text, message", [
    pytest.param("kind,m,r\nfirst\nn,k,value\n0,0,1\n",
                 "lines 1-3 must be", id="short-header"),
    pytest.param("kind,m,r\nfirst,1\nn,k,value\n0,0,1\n",
                 "lines 1-3 must be", id="header-without-r"),
    pytest.param(HEAD + "0,0\n", "line 4 needs the fields n, k, value",
                 id="short-row"),
    pytest.param(HEAD + "0,0,1\n\n1,0\n1,1,1\n", "line 6 needs the fields",
                 id="short-row-after-blank"),
    pytest.param(HEAD + "0,0,1,7\n", "line 4 needs the fields",
                 id="long-row"),
    pytest.param(HEAD + "0,0,1\n0,1,5\n", "line 5: need 0 <= k <= n",
                 id="k-over-n"),
    pytest.param(HEAD + "0,0,1\n1,-1,5\n", "line 5: need 0 <= k <= n",
                 id="negative-k"),
    pytest.param(HEAD + "-1,0,5\n0,0,1\n", "line 4: need 0 <= k <= n",
                 id="negative-n"),
    pytest.param(HEAD + "0,0,1\n0,0,1\n",
                 r"line 5: entry \(0, 0\) given twice", id="repeated"),
    pytest.param(HEAD, "no entries", id="no-entries"),
    pytest.param(HEAD + "0,0,1\n2,0,2\n", r"missing entry \(1, 0\)",
                 id="missing-row"),
])
def test_triangle_csv_refuses_malformed_input(text, message):
    with pytest.raises(ValueError, match=message):
        triangle_from_csv(text)


def test_triangle_tables_refuse_negative_n_max():
    with pytest.raises(ValueError, match="need n_max >= 0"):
        whitney_first_table(2, -1)
    with pytest.raises(ValueError, match="need n_max >= 0"):
        whitney_second_table(2, 1, -1)
    assert whitney_first_table(2, 0).rows == ((1,),)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 25), st.integers(0, 6))
def test_second_kind_row_sums_are_r_dowling(m, n, r):
    tri = whitney_second_table(m, r, n)
    assert sum(tri.row(n)) == r_dowling_number(m, r, n)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 20))
def test_first_kind_alternating_row_sums(m, n):
    row = whitney_first_table(m, n).row(n)
    absrow = [abs(v) for v in row]
    total = sum(absrow)
    # row evaluated at -1 gives the number of elements with all signs up
    assert total == abs(sum(c * (-1) ** k for k, c in enumerate(row)))
