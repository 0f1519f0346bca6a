from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import brun as brun_module
from geomsieve import generators, poset, verify
from geomsieve.brun import (
    BrunReport,
    alternating_partial_sums_check,
    is_log_concave,
    is_unimodal,
    verify_brun,
)
from geomsieve.errors import (
    BrunViolation,
    GeomsieveError,
    HypothesisViolated,
    NegativeEntry,
    NotGeometric,
)

import oracles


def test_unimodal_examples():
    assert is_unimodal([1, 3, 3, 1]) == (True, 1)
    assert is_unimodal([1, 0, 1]) == (False, None)
    assert is_unimodal([1, 4, 6, 4, 1]) == (True, 2)
    assert is_unimodal([5]) == (True, 0)
    assert is_unimodal([0, 0]) == (True, 0)
    assert is_unimodal([1, 2, 5]) == (True, 2)
    assert is_unimodal([5, 2, 1]) == (True, 0)


def test_unimodal_peak_is_smallest_valid():
    ok, peak = is_unimodal([1, 2, 2, 1])
    assert ok and peak == 1


def test_entry_validation():
    with pytest.raises(NegativeEntry):
        is_unimodal([1, -1, 1])
    with pytest.raises(NegativeEntry):
        is_log_concave([0, -2])
    with pytest.raises(TypeError):
        is_unimodal([1.0, 2.0])
    with pytest.raises(TypeError):
        is_log_concave([1, "2"])
    with pytest.raises(ValueError):
        is_unimodal([])
    # exact rationals are fine
    assert is_unimodal([Fraction(1, 2), Fraction(3, 2)]) == (True, 1)


def test_log_concave_examples():
    assert is_log_concave([1, 4, 6, 4, 1]) == (True, None)
    assert is_log_concave([1, 1, 2]) == (False, 1)
    assert is_log_concave([7]) == (True, None)


def test_log_concave_stirling_first_rows():
    rows = oracles.stirling1_signed(30)
    for row in rows:
        ok, _ = is_log_concave([abs(v) for v in row])
        assert ok


def test_alternating_examples():
    assert alternating_partial_sums_check([1, 2, 2, 1]) == (1, -1, 1, 0)
    assert alternating_partial_sums_check([1, 3, 3, 1]) == (1, -2, 1, 0)
    assert alternating_partial_sums_check([0, 0]) == (0, 0)


def test_alternating_hypothesis_failures():
    with pytest.raises(HypothesisViolated) as exc:
        alternating_partial_sums_check([1, -1])
    assert exc.value.which == "non-negative"
    assert exc.value.witness == 1

    with pytest.raises(HypothesisViolated) as exc:
        alternating_partial_sums_check([1, 0, 1, 0, 1])
    assert exc.value.which == "unimodal"

    with pytest.raises(HypothesisViolated) as exc:
        alternating_partial_sums_check([1, 2, 3])
    assert exc.value.which == "zero-alternating-sum"
    assert exc.value.witness == 2


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=10),
       st.integers(0, 3), st.integers(0, 3))
def test_alternating_on_random_symmetrized(half, pre, post):
    seq = [0] * pre + sorted(half) + sorted(half, reverse=True) + [0] * post
    sums = alternating_partial_sums_check(seq)
    assert len(sums) == len(seq)
    assert sums[-1] == 0


def _outcome(call, *args):
    """A call's value, or its exception's type, text and witness; a
    value is listed with the type of each entry, so a bool or Fraction
    read back as an int shows."""
    try:
        value = call(*args)
    except (GeomsieveError, ValueError, TypeError, AssertionError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None if value is None else [(type(v), v) for v in value]


_ENTRY = st.one_of(
    st.integers(-3, 40), st.booleans(),
    st.fractions(min_value=-2, max_value=40, max_denominator=4),
    st.sampled_from([1.0, "2", None]))


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTRY, max_size=9) | st.lists(st.integers(-2, 40),
                                               max_size=9))
def test_sequence_checks_match_their_entrywise_forms(seq):
    # the one-pass accept of a plain non-negative int list, and every
    # other list through the per-entry walks: same values, same errors,
    # same witnesses as the entry-by-entry forms
    assert _outcome(alternating_partial_sums_check, seq) == \
        _outcome(oracles.entrywise_partial_sums_check, seq)
    negative = brun_module._nonnegative.__defaults__[0]
    assert _outcome(brun_module._nonnegative, seq) == \
        _outcome(oracles.entrywise_nonnegative, seq, negative)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=9))
def test_sign_check_matches_its_entrywise_form(partial):
    partial = tuple(partial)
    assert _outcome(brun_module._check_signs, partial) == \
        _outcome(oracles.entrywise_check_signs, partial)


def test_bool_and_fraction_entries_keep_their_types():
    assert brun_module._nonnegative([True, False, True]) == [True, False,
                                                              True]
    assert [type(v) for v in brun_module._nonnegative([True, 2])] == \
        [bool, int]
    with pytest.raises(HypothesisViolated) as exc:
        alternating_partial_sums_check([True])
    assert exc.value.witness is True
    assert str(exc.value) == ("hypothesis violated: zero-alternating-sum "
                              "(witness True)")
    assert alternating_partial_sums_check([False])[0] is False
    half = Fraction(1, 2)
    sums = alternating_partial_sums_check([half, Fraction(3, 2), 1])
    assert sums == (half, -1, 0)
    assert type(sums[0]) is Fraction and type(sums[1]) is Fraction


@pytest.mark.parametrize("seq, index", [
    ([1, 2, -3, 0], 2),
    ([-1, 5], 0),
    ([4, True, Fraction(-1, 3)], 2),
    ([0, 0, 0, -10 ** 40], 3),
])
def test_a_negative_entry_is_named_by_its_index(seq, index):
    with pytest.raises(NegativeEntry, match=f"^entry {index} is negative$"):
        is_unimodal(seq)
    with pytest.raises(HypothesisViolated) as exc:
        alternating_partial_sums_check(seq)
    assert (exc.value.which, exc.value.witness) == ("non-negative", index)


def test_a_wrong_type_is_named_before_a_negative_entry():
    with pytest.raises(TypeError, match="^entry 1 is float; use int or "
                                        "Fraction$"):
        is_log_concave([-1, 1.0])


def test_verify_brun_b3():
    report = verify_brun(generators.parse_named("boolean:3"))
    assert isinstance(report, BrunReport)
    assert report.whitney_first == (1, -3, 3, -1)
    assert report.partial_sums == (1, -2, 1, 0)


def test_verify_brun_zoo(zoo_lattice):
    name, lat = zoo_lattice
    report = verify_brun(lat)
    assert len(report.partial_sums) == lat.top_rank + 1
    for k, t in enumerate(report.partial_sums):
        assert t >= 0 if k % 2 == 0 else t <= 0, (name, k)
    if lat.top_rank >= 1:
        assert report.partial_sums[-1] == 0


def test_verify_brun_rejects_non_geometric():
    with pytest.raises(NotGeometric, match="NotAtomistic"):
        verify_brun(generators.parse_named("chain:3"))
    with pytest.raises(NotGeometric):
        verify_brun(generators.parse_named("divisor:12"))


def test_sequence_and_lattice_routes_agree(zoo_lattice):
    _, lat = zoo_lattice
    report = verify_brun(lat)
    if lat.top_rank == 0:
        return
    absw = [abs(w) for w in report.whitney_first]
    assert alternating_partial_sums_check(absw) == report.partial_sums


def test_exception_hierarchy():
    # a BrunViolation can only come from broken code, so it doubles as
    # an assertion failure; hypothesis failures are plain value errors
    assert issubclass(BrunViolation, AssertionError)
    assert issubclass(HypothesisViolated, ValueError)
    assert issubclass(NegativeEntry, ValueError)


def _mobius_off_by_one_at_rank_4(monkeypatch):
    # mu(bottom, y) off by one at the first element of rank 4; the zoo
    # starts with boolean:1..8, so boolean:4 is the first lattice hit
    right = poset.FiniteLattice.mobius_table

    def off_by_one(lat, x):
        table = right(lat, x)
        if x != lat.bottom or lat.top_rank < 4:
            return table
        y = lat.rank.index(4)
        return table[:y] + (table[y] + 1,) + table[y + 1:]

    monkeypatch.setattr(poset.FiniteLattice, "mobius_table", off_by_one)


def test_verify_check_catches_a_wrong_mobius_value(monkeypatch):
    _mobius_off_by_one_at_rank_4(monkeypatch)
    ok, detail = verify.check_brun_zoo(fast=True)
    assert ok is False
    assert detail == ("boolean:4: Mobius sums over the whole lattice "
                      "must vanish")


def test_alternating_sums_check_catches_a_wrong_mobius_value(monkeypatch):
    # the random sequences pass, then the lattice-level verifier refuses
    # boolean:4, and the check names that lattice in its failure
    _mobius_off_by_one_at_rank_4(monkeypatch)
    [result] = verify.run_checks("sequences", fast=True)
    assert result.name == "alternating-sums"
    assert result.ok is False
    assert result.detail == ("boolean:4: Mobius sums over the whole lattice "
                             "must vanish")


def test_sign_check_fires_on_a_zeroed_second_whitney_number(monkeypatch):
    # with w_2 = 0 the partial sum at cutoff 2 is w_0 + w_1 = 1 - #atoms,
    # negative at an even cutoff: the paper's sign statement fails first
    right = poset.FiniteLattice.whitney_first

    def w2_zero(lat):
        w = right(lat)
        return w[:2] + (0,) + w[3:] if len(w) > 2 else w

    monkeypatch.setattr(poset.FiniteLattice, "whitney_first", w2_zero)
    with pytest.raises(BrunViolation) as info:
        verify_brun(generators.parse_named("boolean:4"))
    assert str(info.value) == "even cutoff 2 gives -3 < 0"
    detail = "boolean:2: even cutoff 2 gives -1 < 0"
    assert verify.check_brun_zoo(fast=True) == (False, detail)
    assert verify.check_alternating_sequences(fast=True) == (False, detail)


def test_sign_check_fires_at_an_odd_cutoff(monkeypatch):
    # whitney_first (1, 0, -1) keeps the total at zero but leaves the
    # partial sum 1 at cutoff 1, positive at an odd cutoff
    monkeypatch.setattr(poset.FiniteLattice, "whitney_first",
                        lambda lat: (1, 0, -1))
    with pytest.raises(BrunViolation) as info:
        verify_brun(generators.parse_named("boolean:2"))
    assert str(info.value) == "odd cutoff 1 gives 1 > 0"


def _refuse_every_sequence(seq):
    raise BrunViolation("odd cutoff 1 gives 1 > 0")


@pytest.mark.parametrize("planted, detail", [
    # the sequence checker refuses the first random trial
    (_refuse_every_sequence, "trial 0: odd cutoff 1 gives 1 > 0"),
    # it passes every trial but adds a partial sum to each answer, so
    # the first zoo lattice of rank >= 1 disagrees with verify_brun
    (lambda seq: alternating_partial_sums_check(seq) + (0,),
     "boolean:1: sequence and lattice verdicts differ"),
], ids=["trial", "verdict"])
def test_alternating_sums_check_fires_on_a_wrong_sequence_checker(
        monkeypatch, planted, detail):
    monkeypatch.setattr(verify, "alternating_partial_sums_check", planted)
    assert verify.check_alternating_sequences(fast=True) == (False, detail)
