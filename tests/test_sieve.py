import copy
import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import cli, dowling, generators, sieve, verify
from geomsieve.errors import BrunViolation, NotComparable, NotGeometric
from geomsieve.poset import build_lattice
from geomsieve.sieve import (
    SieveInstance,
    brun_bounds,
    brun_profile,
    count_above,
    parse_fraction,
    sieve_error_bound,
    sieve_instance_from_json,
    sieve_instance_to_json,
    sieve_main_term,
    sifted_count_exact,
)

import oracles
from conftest import SMALL_ZOO


def b3_instance(T, f=None, A=None):
    lat = generators.parse_named("boolean:3")
    n = lat.top_rank
    if f is None:
        f = [Fraction(0)] * (n + 1)
    if A is None:
        A = range(lat.n_elems)
    return SieveInstance(lattice=lat, A=A, T=T, f=f, X=Fraction(1))


def test_parse_fraction():
    assert parse_fraction(3) == Fraction(3)
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(ValueError):
        parse_fraction(True)
    with pytest.raises(ValueError):
        parse_fraction(0.5)
    with pytest.raises(ValueError):
        parse_fraction("abc")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_fraction("1/0")


def test_instance_refuses_non_integer_indices():
    lat = generators.parse_named("boolean:2")
    good_f = [Fraction(0)] * 3
    with pytest.raises(ValueError, match="T entry True is not an atom"):
        SieveInstance(lattice=lat, A=[0], T=[True], f=good_f, X=1)
    with pytest.raises(ValueError,
                       match="A entry 1.0 is not an element index"):
        SieveInstance(lattice=lat, A=[0, 1.0], T=[], f=good_f, X=1)


@pytest.mark.parametrize("A, bad", [
    ([0, True], True), ([0, 3, -1, 9], -1), ([1, 4, 8, 2], 4),
    ([0, "1"], "1"), ([2, 1.0, 5], 1.0),
])
def test_instance_names_the_first_bad_entry_of_A(A, bad):
    lat = generators.parse_named("boolean:2")
    with pytest.raises(ValueError,
                       match=rf"^A entry {bad} is not an element index$"):
        SieveInstance(lattice=lat, A=A, T=[], f=[0] * 3, X=1)


def test_instance_takes_any_int_that_is_not_a_bool():
    class Index(int):
        pass

    lat = generators.parse_named("boolean:2")
    inst = SieveInstance(lattice=lat, A=[Index(3), 0, 3], T=[], f=[0] * 3,
                         X=1)
    assert inst.A == (3, 0, 3)
    assert SieveInstance(lattice=lat, A=[], T=[], f=[0] * 3, X=1).A == ()


def test_instance_validation():
    lat = generators.parse_named("boolean:3")
    good_f = [Fraction(0)] * 4
    with pytest.raises(ValueError, match="atom"):
        SieveInstance(lattice=lat, A=[0], T=[3], f=good_f, X=Fraction(1))
    with pytest.raises(ValueError, match="element index"):
        SieveInstance(lattice=lat, A=[99], T=[], f=good_f, X=Fraction(1))
    with pytest.raises(ValueError):
        SieveInstance(lattice=lat, A=[0], T=[], f=good_f[:2], X=Fraction(1))
    with pytest.raises(ValueError, match="negative"):
        SieveInstance(lattice=lat, A=[0], T=[],
                      f=[Fraction(-1)] + good_f[:3], X=Fraction(1))
    with pytest.raises(ValueError, match="positive"):
        SieveInstance(lattice=lat, A=[0], T=[], f=good_f, X=Fraction(0))


def test_tau_is_join_of_T():
    inst = b3_instance(T=[1, 2])
    assert inst.tau == 3
    assert b3_instance(T=[]).tau == 0
    assert b3_instance(T=[1, 2, 4]).tau == 7


def test_replace_validates_and_recomputes_tau():
    inst = b3_instance(T=[1, 2])
    wider = inst._replace(T=[1, 2, 4])
    assert wider.tau == 7 and wider.T == (1, 2, 4)
    assert wider.A == inst.A and wider.lattice is inst.lattice
    assert inst._replace(A=[0, 0, 5]).A == (0, 0, 5)
    assert inst._replace(X="3/2").X == Fraction(3, 2)
    with pytest.raises(ValueError, match="T entry 3 is not an atom"):
        inst._replace(T=[3])
    with pytest.raises(ValueError, match="X must be positive"):
        inst._replace(X=0)
    with pytest.raises(TypeError):
        inst._replace(tau=0)  # tau is always the join of T
    assert SieveInstance._make(wider[:5]) == wider
    with pytest.raises(ValueError, match="T entry 3 is not an atom"):
        SieveInstance._make((inst.lattice, inst.A, [3], inst.f, inst.X))
    assert copy.copy(inst) == inst


def test_empty_sieve_counts_everything():
    inst = b3_instance(T=[])
    assert sifted_count_exact(inst) == 8


def test_full_tau_counts_only_bottom():
    inst = b3_instance(T=[1, 2, 4])
    assert sifted_count_exact(inst) == 1


def test_count_above():
    inst = b3_instance(T=[1, 2])
    assert count_above(inst, inst.lattice.bottom) == 8
    assert count_above(inst, 1) == 4  # up-set of an atom in B_3
    with pytest.raises(NotComparable):
        count_above(inst, 4)  # the atom 4 is not below tau=3


@pytest.mark.parametrize("y", [-1, -8, 8, True, 1.5])
def test_count_above_refuses_a_y_that_is_not_an_element_index(y):
    # -1 and -8 would read elements 7 and 0, True element 1
    inst = b3_instance(T=[1, 2, 4], A=[0, 1, 3, 3, 7])
    with pytest.raises(ValueError) as exc:
        count_above(inst, y)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"y {y} is not an element index"


@pytest.mark.parametrize("name", ["boolean:10", "partition:7", "dowling:5:3"])
def test_count_above_on_a_benchmark_lattice(name):
    # A holds the bottom and the top, the highest and the lowest bit of
    # a layer mask, one element 50 times and 200 seeded draws
    lat = generators.parse_named(name)
    n = lat.n_elems
    assert (lat._pos_of[lat.bottom], lat._pos_of[lat.top]) == (0, n - 1)
    rng = random.Random(0)
    A = ([lat.bottom, lat.top] + [rng.randrange(n)] * 50
         + [rng.randrange(n) for _ in range(200)])
    inst = SieveInstance(lattice=lat, A=A, T=lat.atoms()[:lat.top_rank - 1],
                         f=[0] * (lat.top_rank + 1), X=1)
    counts = Counter(A)
    for y in lat.down_set(inst.tau):
        assert count_above(inst, y) == sum(
            k for a, k in counts.items() if lat.leq(y, a))
    exact = sifted_count_exact(inst)
    assert brun_profile(inst)[-1] == (exact, exact)


def test_count_above_dowling_is_dowling_number():
    n, m = 3, 2
    inst = dowling.dowling_sieve_instance(n, m, n)
    lat = inst.lattice
    for y in lat.down_set(inst.tau):
        s = lat.rank[y]
        assert count_above(inst, y) == dowling.dowling_number(m, n - s)


def test_main_term_with_tau_bottom():
    f = [Fraction(i + 1, 7) for i in range(4)]
    inst = b3_instance(T=[], f=f)
    assert sieve_main_term(inst) == Fraction(1) * f[3]
    assert sieve_error_bound(inst) == 3 * f[3]


def test_error_bound_zero_when_f_zero():
    inst = b3_instance(T=[1, 2])
    assert sieve_error_bound(inst) == 0


def test_exact_density_gives_zero_residual(zoo_lattice):
    _, lat = zoo_lattice
    n = lat.top_rank
    rng = random.Random(7)
    atoms = list(lat.atoms())
    T = [a for a in atoms if rng.random() < 0.5]
    X = Fraction(lat.n_elems)
    counts = {}
    inst0 = SieveInstance(lattice=lat, A=range(lat.n_elems), T=T,
                          f=[Fraction(0)] * (n + 1), X=X)
    for y in lat.down_set(inst0.tau):
        counts[n - lat.rank[y]] = Fraction(count_above(inst0, y), X)
    f = [counts.get(s, Fraction(0)) for s in range(n + 1)]
    inst = SieveInstance(lattice=lat, A=range(lat.n_elems), T=T, f=f, X=X)
    assert sieve_main_term(inst) == sifted_count_exact(inst)


def test_sifted_count_against_naive(zoo_lattice):
    name, lat = zoo_lattice
    if lat.n_elems > 40:
        pytest.skip("naive oracle is quartic")
    rng = random.Random(hash(name) & 0xffff)
    atoms = list(lat.atoms())
    for trial in range(3):
        A = [a for a in range(lat.n_elems) if rng.random() < 0.6]
        T = [a for a in atoms if rng.random() < 0.5]
        inst = SieveInstance(lattice=lat, A=A, T=T,
                             f=[Fraction(0)] * (lat.top_rank + 1),
                             X=Fraction(1))
        assert sifted_count_exact(inst) == \
            oracles.naive_sifted_count(lat, A, inst.tau)


def test_mobius_decomposition_identity(zoo_lattice):
    _, lat = zoo_lattice
    rng = random.Random(23)
    atoms = list(lat.atoms())
    A = [a for a in range(lat.n_elems) if rng.random() < 0.7]
    T = [a for a in atoms if rng.random() < 0.6]
    inst = SieveInstance(lattice=lat, A=A, T=T,
                         f=[Fraction(0)] * (lat.top_rank + 1), X=Fraction(1))
    table = lat.mobius_table(lat.bottom)
    total = sum(table[y] * count_above(inst, y)
                for y in lat.down_set(inst.tau))
    assert total == sifted_count_exact(inst)


def test_brun_bounds_sandwich_and_tightness(zoo_lattice):
    _, lat = zoo_lattice
    atoms = list(lat.atoms())
    T = atoms[: max(1, len(atoms) // 2)] if atoms else []
    inst = SieveInstance(lattice=lat, A=range(lat.n_elems), T=T,
                         f=[Fraction(0)] * (lat.top_rank + 1), X=Fraction(1))
    exact = sifted_count_exact(inst)
    r_tau = lat.rank[inst.tau]
    for cutoff in range(r_tau + 2):
        lower, upper = brun_bounds(inst, cutoff)
        assert lower <= exact <= upper
        if 2 * cutoff >= r_tau:
            assert lower == upper == exact


@lru_cache(maxsize=None)
def naive_order(name):
    """The order relation from the covers alone, and its Mobius matrix."""
    lat = generators.parse_named(name)
    rel = oracles.leq_matrix(lat.n_elems, lat.covers)
    return rel, oracles.naive_mobius_matrix(lat.n_elems, rel)


def draw_multiset_instance(data):
    """A random multiset A and atom set T on a small zoo lattice."""
    name = data.draw(st.sampled_from(SMALL_ZOO), label="lattice")
    lat = generators.parse_named(name)
    n = lat.n_elems
    A = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n), label="A")
    T = data.draw(st.lists(st.sampled_from(lat.atoms()), unique=True),
                  label="T")
    return name, SieveInstance(lattice=lat, A=A, T=T,
                               f=[Fraction(0)] * (lat.top_rank + 1),
                               X=Fraction(1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_brun_bounds_sandwich_random_multisets(data):
    # the sandwich holds for any multiset A: each a contributes a
    # truncated Mobius sum over the geometric interval [bottom, a meet tau]
    name, inst = draw_multiset_instance(data)
    lat, A = inst.lattice, inst.A
    n = lat.n_elems
    exact = sifted_count_exact(inst)
    rel, mu = naive_order(name)
    r_tau = lat.rank[inst.tau]
    for cutoff in range(r_tau + 2):
        lower, upper = brun_bounds(inst, cutoff)
        assert (lower, upper) == oracles.naive_brun_bounds(
            n, rel, mu, A, inst.tau, cutoff)
        assert lower <= exact <= upper
        if 2 * cutoff >= r_tau:
            assert lower == upper == exact


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brun_profile_matches_every_cutoff(data):
    name, inst = draw_multiset_instance(data)
    lat = inst.lattice
    rel, mu = naive_order(name)
    r_tau = lat.rank[inst.tau]
    profile = brun_profile(inst)
    last = len(profile) - 1
    assert last == (r_tau + 1) // 2
    exact = sifted_count_exact(inst)
    assert profile[last] == (exact, exact)
    for cutoff in range(r_tau + 2):
        assert profile[min(cutoff, last)] == brun_bounds(inst, cutoff) == \
            oracles.naive_brun_bounds(lat.n_elems, rel, mu, inst.A,
                                      inst.tau, cutoff)


def multiset_of_kind(data, lat, free):
    """A multiset of one of four kinds: at most 3 distinct elements,
    each up to 50 times and one of them from free, in any order; up to
    40 distinct elements, each with a multiplicity of its own (one layer
    each, as many as the lattice has elements); the empty multiset; or
    one element 10,000 times."""
    kind = data.draw(st.sampled_from(["few", "layers", "empty", "repeated"]),
                     label="kind")
    if kind == "empty":
        return []
    if kind == "repeated":
        return [data.draw(st.integers(0, lat.n_elems - 1), label="a")] * 10_000
    if kind == "layers":
        elems = data.draw(st.lists(st.integers(0, lat.n_elems - 1),
                                   min_size=1, max_size=40, unique=True),
                          label="elements")
        times = data.draw(st.lists(st.integers(1, 60), min_size=len(elems),
                                   max_size=len(elems), unique=True),
                          label="multiplicities")
        return [a for a, k in zip(elems, times) for _ in range(k)]
    distinct = data.draw(st.lists(st.integers(0, lat.n_elems - 1),
                                  max_size=2), label="others")
    distinct = list(dict.fromkeys(
        [data.draw(st.sampled_from(free), label="free")] + distinct))
    A = [a for a in distinct
         for _ in range(data.draw(st.integers(1, 50), label="times"))]
    return data.draw(st.permutations(A), label="order")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_count_above_on_repeated_elements(data):
    # A is one of multiset_of_kind's four kinds; its few-element kind
    # holds an element above none of the atoms of T (so it is sifted
    # out by none); #A_y costs one layer per distinct multiplicity
    name = data.draw(st.sampled_from(SMALL_ZOO), label="lattice")
    lat = generators.parse_named(name)
    T = data.draw(st.lists(st.sampled_from(lat.atoms()), unique=True),
                  label="T")
    free = [a for a in range(lat.n_elems)
            if not any(lat.leq(t, a) for t in T)]
    A = multiset_of_kind(data, lat, free)
    inst = SieveInstance(lattice=lat, A=A, T=T,
                         f=[Fraction(0)] * (lat.top_rank + 1),
                         X=Fraction(1))
    counts = Counter(A)
    assert len(lat._up_bits(counts)) == len(set(counts.values()))
    rel, mu = naive_order(name)
    for y in range(lat.n_elems):
        if (y, inst.tau) in rel:
            assert count_above(inst, y) == \
                oracles.naive_count_above(rel, A, y)
        else:
            with pytest.raises(NotComparable):
                count_above(inst, y)
    profile = brun_profile(inst)
    for cutoff in range(lat.rank[inst.tau] + 2):
        assert profile[min(cutoff, len(profile) - 1)] == \
            oracles.naive_brun_bounds(lat.n_elems, rel, mu, A, inst.tau,
                                      cutoff)


@pytest.mark.parametrize("name", SMALL_ZOO)
def test_layers_of_no_element_and_of_every_element_once(name):
    lat = generators.parse_named(name)
    n = lat.n_elems
    assert lat._up_bits(Counter()) == []
    assert lat._up_bits(Counter(range(n))) == [(1, (1 << n) - 1)]


def partition5_instance():
    lat = generators.parse_named("partition:5")
    return SieveInstance(lattice=lat, A=range(0, lat.n_elems, 2),
                         T=lat.atoms()[:6], f=[Fraction(0)] * 5, X=1)


# instances with rank(tau) >= 3, so that some cutoff walks stop short
walked_instances = pytest.mark.parametrize("make", [
    lambda: dowling.dowling_sieve_instance(3, 2, 3),
    lambda: b3_instance(T=[1, 2, 4], A=[0, 1, 3, 3, 7]),
    partition5_instance,
], ids=["dowling:3:2", "boolean:3", "partition:5"])


@walked_instances
def test_bounds_count_each_y_once(make, monkeypatch):
    # brun_bounds(inst, c) pays for the y <= tau of rank <= 2c + 1 and
    # no more, and brun_profile for each y <= tau once; each walk reads
    # A into its multiplicity layers once.
    inst = make()
    lat = inst.lattice
    calls = Counter()
    reads = []
    counted, read = sieve._count_up, sieve._position_counts

    def counting(lat, y, pairs):
        calls[y] += 1
        return counted(lat, y, pairs)

    def reading(inst):
        reads.append(inst)
        return read(inst)

    monkeypatch.setattr(sieve, "_count_up", counting)
    monkeypatch.setattr(sieve, "_position_counts", reading)
    below = lat.down_set(inst.tau)
    r_tau = lat.rank[inst.tau]
    assert r_tau >= 3
    for cutoff in range(r_tau + 1):
        calls.clear()
        reads.clear()
        brun_bounds(inst, cutoff)
        assert calls == Counter(y for y in below
                                if lat.rank[y] <= 2 * cutoff + 1)
        assert reads == [inst]
    calls.clear()
    reads.clear()
    brun_profile(inst)
    assert calls == Counter(below)
    assert reads == [inst]


def overcounting_bottom(monkeypatch):
    """Make every walk count #A_bottom one too high: mu(bottom) = 1, so
    a whole walk then sums to one more than the sifted count."""
    counted = sieve._count_up
    monkeypatch.setattr(sieve, "_count_up", lambda lat, y, layers:
                        counted(lat, y, layers) + (y == lat.bottom))


@walked_instances
def test_a_whole_walk_is_checked_by_meets(make, monkeypatch):
    # every walk that reaches rank(tau) (the profile, and brun_bounds at
    # each cutoff with 2c + 1 >= rank tau) fails loudly; a shorter walk
    # has nothing to check and returns its (overcounted) bounds
    inst = make()
    r_tau = inst.lattice.rank[inst.tau]
    exact = sifted_count_exact(inst)
    overcounting_bottom(monkeypatch)
    message = (f"the rank sums add up to {exact + 1}, "
               f"not to the sifted count {exact}")
    with pytest.raises(BrunViolation) as info:
        brun_profile(inst)
    assert str(info.value) == message
    for cutoff in range(r_tau + 2):
        if 2 * cutoff + 1 >= r_tau:
            with pytest.raises(BrunViolation) as info:
                brun_bounds(inst, cutoff)
            assert str(info.value) == message
        else:
            brun_bounds(inst, cutoff)


def test_verify_reports_a_failed_walk_check(monkeypatch, capsys):
    # the BrunViolation of a walk becomes the failed check's detail;
    # verify-all finishes and exits 1
    overcounting_bottom(monkeypatch)
    assert cli.main(["verify-all", "--scope", "sieve",
                     "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert set(checks) == {"brun-bounds-sandwich", "sieve-closed-form"}
    sandwich = checks["brun-bounds-sandwich"]
    assert sandwich["ok"] is False
    assert sandwich["detail"].startswith("error: the rank sums add up to ")


def test_brun_check_fails_on_a_raised_lower_bound(monkeypatch):
    # the last entry of a profile is (exact, exact), so a lower bound
    # raised by one there breaks the sandwich at that cutoff
    n, m, k, inst = verify._dowling_instances()[0]
    last = len(brun_profile(inst)) - 1
    exact = sifted_count_exact(inst)
    honest = sieve.brun_profile

    def raised(inst):
        profile = list(honest(inst))
        lower, upper = profile[-1]
        profile[-1] = (lower + 1, upper)
        return tuple(profile)

    monkeypatch.setattr(sieve, "brun_profile", raised)
    ok, detail = verify.check_brun_bounds()
    assert ok is False
    assert detail == (f"n={n}, m={m}, k={k}, cutoff {last}: "
                      f"{exact + 1} !<= {exact} !<= {exact}")


def test_brun_check_fails_on_a_raised_last_upper_bound(monkeypatch):
    # an upper bound raised by one at the last entry of a profile keeps
    # the sandwich, so only the collapse past rank(tau) fails
    n, m, k, inst = verify._dowling_instances()[0]
    last = len(brun_profile(inst)) - 1
    honest = sieve.brun_profile

    def raised(inst):
        *head, (lower, upper) = honest(inst)
        return (*head, (lower, upper + 1))

    monkeypatch.setattr(sieve, "brun_profile", raised)
    assert verify.check_brun_bounds() == (
        False, f"n={n}, m={m}, k={k}, cutoff {last}: "
               "bounds not tight past rank(tau)")


def test_verify_check_catches_a_wrong_sifted_count(monkeypatch):
    # the sifted count one too high once rank(tau) >= 3; the first such
    # instance is Q_3(Z_1) with k = 3, where D_{1,4}(0) = 1
    honest = sieve.sifted_count_exact

    def raised(inst):
        return honest(inst) + (inst.lattice.rank[inst.tau] >= 3)

    monkeypatch.setattr(sieve, "sifted_count_exact", raised)
    ok, detail = verify.check_sieve_closed_form(fast=True)
    assert ok is False
    assert detail == "n=3, m=1, k=3: count 2 != closed form 1"

def test_verify_check_catches_a_wrong_spot_value(monkeypatch):
    # D_{2,3}(2) and the sifted count of its instance (n, m, k) =
    # (3, 2, 1) both one too high: the instances still agree, and only
    # the spot value of the full check fires
    [target] = [inst for n, m, k, inst in verify._dowling_instances(False)
                if (n, m, k) == (3, 2, 1)]  # the cached call the check makes
    honest_count = sieve.sifted_count_exact
    honest_closed = dowling.dowling_sieve_closed_form
    monkeypatch.setattr(sieve, "sifted_count_exact", lambda inst: (
        honest_count(inst) + (inst is target)))
    monkeypatch.setattr(dowling, "dowling_sieve_closed_form", lambda *a: (
        honest_closed(*a) + (a == (2, 3, 1))))
    assert verify.check_sieve_closed_form() == (
        False, "spot value D_{2,3}(2) = 19 != 18")


def test_brun_bounds_cutoff_zero_upper_is_A():
    inst = b3_instance(T=[1, 2])
    lower, upper = brun_bounds(inst, 0)
    assert upper == 8  # only y = bottom contributes
    assert lower == 8 - count_above(inst, 1) - count_above(inst, 2)
    with pytest.raises(ValueError):
        brun_bounds(inst, -1)


def test_main_term_requires_geometric_interval():
    # atomistic non-semimodular lattice: tau = top, interval = whole
    covers = [(0, 1), (0, 2), (0, 3),
              (1, 4), (2, 4), (2, 5), (3, 5),
              (4, 6), (5, 6)]
    lat = build_lattice(7, covers)
    inst = SieveInstance(lattice=lat, A=range(7), T=[1, 2, 3],
                         f=[Fraction(1)] * 4, X=Fraction(1))
    with pytest.raises(NotGeometric):
        sieve_main_term(inst)


def test_geometric_interval_inside_non_geometric_lattice():
    # Same lattice, T = [1, 2]: [bottom, 4] = {0, 1, 2, 4} is Boolean of
    # rank 2, so both sums run with w = (1, -2, 1) though the lattice
    # itself is not geometric.
    covers = [(0, 1), (0, 2), (0, 3),
              (1, 4), (2, 4), (2, 5), (3, 5),
              (4, 6), (5, 6)]
    lat = build_lattice(7, covers)
    assert not lat.is_geometric()
    f = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
    inst = SieveInstance(lattice=lat, A=range(7), T=[1, 2], f=f,
                         X=Fraction(6))
    assert inst.tau == 4
    w = (1, -2, 1)
    n = lat.top_rank
    assert sieve_main_term(inst) == 6 * sum(f[n - k] * w[k]
                                            for k in range(3))
    assert sieve_error_bound(inst) == sum((n - k) * f[n - k] * abs(w[k])
                                          for k in range(3))


def test_not_geometric_witness_is_an_element_of_the_lattice():
    # Atoms 3 and 0; 4 covers only 3 and 2 covers only 0, so neither is
    # a join of atoms.  The witness is reported as an index of the
    # lattice itself (2 comes first in rank order), not of a renumbered
    # copy of [bottom, tau].
    covers = [(5, 3), (5, 0), (3, 4), (0, 2), (4, 1), (2, 1)]
    lat = build_lattice(6, covers)
    inst = SieveInstance(lattice=lat, A=range(6), T=[3, 0],
                         f=[Fraction(1)] * 4, X=Fraction(1))
    assert inst.tau == lat.top
    for term in (sieve_main_term, sieve_error_bound):
        with pytest.raises(NotGeometric) as info:
            term(inst)
        assert info.value.args[0] == (
            "[bottom, tau] fails NotAtomistic at (2,)")


def test_json_round_trip():
    inst = dowling.dowling_sieve_instance(3, 2, 1)
    data = sieve_instance_to_json(inst)
    text = json.dumps(data)
    back = sieve_instance_from_json(json.loads(text))
    assert sifted_count_exact(back) == sifted_count_exact(inst) == 18
    assert sieve_main_term(back) == sieve_main_term(inst)
    assert back.tau == inst.tau


def test_json_named_generator_and_all():
    data = {
        "lattice": "boolean:3",
        "A": "all",
        "T": [1, 2],
        "f": ["0", "0", "0", "0"],
        "X": "1",
    }
    inst = sieve_instance_from_json(data)
    assert len(inst.A) == 8
    assert inst.tau == 3


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        sieve_instance_from_json([])
    with pytest.raises(ValueError):
        sieve_instance_from_json({"lattice": "boolean:2"})


@pytest.mark.parametrize("key, value", [("A", 5), ("T", 1), ("f", 7),
                                        ("lattice", 5)])
def test_json_shape_errors_name_their_key(key, value):
    data = {"lattice": "boolean:2", "A": "all", "T": [1], "f": [1, 1, 1],
            "X": 1, key: value}
    with pytest.raises(ValueError, match=f'sieve JSON "{key}" must be'):
        sieve_instance_from_json(data)
