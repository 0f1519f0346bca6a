import json
import math
import sys
import threading
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import generators
from geomsieve.brun import verify_brun
from geomsieve.errors import (
    Cyclic,
    MultipleMaxima,
    MultipleMinima,
    NotALattice,
    NotGraded,
)
from geomsieve.poset import build_lattice, lattice_from_json, lattice_to_json

import oracles

B3_COVERS = [(a, b) for a in range(8) for b in range(8)
             if a != b and a & b == a and bin(a ^ b).count("1") == 1]


def test_chain_basics():
    lat = build_lattice(3, [(0, 1), (1, 2)])
    assert lat.rank == [0, 1, 2]
    assert lat.bottom == 0 and lat.top == 2
    assert lat.top_rank == 2
    assert len(lat) == 3


def test_boolean_b3_is_graded_rank3():
    lat = build_lattice(8, B3_COVERS)
    assert lat.top_rank == 3
    assert lat.bottom == 0 and lat.top == 7
    assert sorted(lat.atoms()) == [1, 2, 4]


def test_no_top_is_not_a_lattice():
    with pytest.raises(NotALattice):
        build_lattice(3, [(0, 1), (0, 2)])


def test_multiple_minima_maxima_are_not_a_lattice():
    assert issubclass(MultipleMinima, NotALattice)
    assert issubclass(MultipleMaxima, NotALattice)
    with pytest.raises(MultipleMinima):
        build_lattice(3, [(0, 2), (1, 2)])


def test_cycle_detected():
    with pytest.raises(Cyclic):
        build_lattice(3, [(0, 1), (1, 2), (2, 0)])


def test_dense_cover_list_refused_by_count():
    # bottom, k atoms, k coatoms every atom is below, top: 491,400
    # covers on 1402 elements, over the 53,182 any lattice can have
    k = 700
    n = 2 * k + 2
    covers = ([(0, a) for a in range(1, k + 1)]
              + [(a, c) for a in range(1, k + 1) for c in range(k + 1, n - 1)]
              + [(c, n - 1) for c in range(k + 1, n - 1)])
    with pytest.raises(NotALattice, match=(
            "^491400 covers on 1402 elements, over the 53182 a lattice")):
        build_lattice(n, covers)
    # the count is taken before the cycle check: 4 elements have at
    # most 9 covers in a lattice
    pairs = [(x, y) for x in range(4) for y in range(4) if x != y]
    with pytest.raises(Cyclic):
        build_lattice(4, pairs[:9])
    with pytest.raises(NotALattice, match="^10 covers on 4 elements"):
        build_lattice(4, pairs[:10])
    # on every path the list is refused by its length, unread
    with pytest.raises(NotALattice, match="^10 covers on 4 elements"):
        lattice_from_json({"n": 4, "covers": [None] * 10})
    with pytest.raises(NotALattice, match="^10 covers on 4 elements"):
        build_lattice(4, [None] * 10)


def test_covers_from_a_generator_or_as_int_subclass_pairs():
    # a generator is listed once; namedtuple pairs and int-subclass ends
    # fail the whole-list test, and each pair is then read on its own
    Pair = namedtuple("Pair", "lower upper")

    class Index(int):
        pass

    diamond = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for covers in ((pair for pair in diamond),
                   [Pair(x, y) for x, y in diamond],
                   [(Index(x), Index(y)) for x, y in diamond]):
        lat = build_lattice(4, covers)
        assert lat.covers == tuple(diamond)
        assert lat.whitney_first() == (1, -2, 1)


def test_pentagon_is_not_graded():
    # 0 < a < b < 1 on one side, 0 < c < 1 on the other
    covers = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]
    with pytest.raises(NotGraded):
        build_lattice(5, covers)


def test_ambiguous_bounds_reported():
    # 3 and 4 have no meet (two maximal common lower bounds 1 and 2),
    # equivalently 1 and 2 have no join; 1 and 2 both cover 0, so the
    # cover scan reports that pair
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALattice, match="1 and 2 have no join"):
        build_lattice(6, covers)


def test_cover_input_validation():
    with pytest.raises(ValueError, match="out of range"):
        build_lattice(2, [(0, 5)])
    with pytest.raises(ValueError, match="self-loop"):
        build_lattice(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate"):
        build_lattice(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="labels"):
        build_lattice(2, [(0, 1)], labels=["x"])
    # bools, floats and pairs of the wrong length are refused on both
    # paths, by the index of the entry, before any range check
    for covers, what in (([(0, 1), (0, True)], "bool"),
                         ([[0, 1], [1.0, 5]], "float"),
                         ([(0, 9), (0, 1, 2)], "3-entry tuple"),
                         ([(0, 9), 1], "int")):
        message = rf"^covers\[1\] must be a pair of integers, not {what}$"
        with pytest.raises(ValueError, match=message):
            build_lattice(3, covers)
        with pytest.raises(ValueError, match=message):
            lattice_from_json({"n": 3, "covers": covers})
    with pytest.raises(ValueError):
        build_lattice(0, [])


def _raised(fn, *args):
    """(type, message) of the exception fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # compared by the caller, not handled
        return type(exc), str(exc)
    return None


@st.composite
def malformed_covers(draw):
    """(n, covers): a few distinct covers on n elements with one or two
    defects put in (an entry out of range, a self-loop, a repeat, a
    bool, a float, a pair of the wrong length), each pair a list or a
    tuple."""
    n = draw(st.integers(4, 8))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(
        lambda p: p[0] != p[1]), max_size=6, unique=True))
    defects = st.one_of(
        st.tuples(index, st.one_of(st.integers(max_value=-1),
                                   st.integers(min_value=n))),
        index.map(lambda v: (v, v)),
        st.tuples(index, st.booleans()),
        st.tuples(index, st.floats(-1, n, allow_nan=False)),
        st.lists(index, max_size=4).filter(lambda p: len(p) != 2).map(tuple),
    )
    for _ in range(draw(st.integers(1, 2))):
        if pairs and draw(st.booleans()):  # repeat an earlier pair
            i = draw(st.integers(0, len(pairs) - 1))
            pairs.insert(draw(st.integers(i + 1, len(pairs))), pairs[i])
        else:
            pair = draw(defects)
            if draw(st.booleans()):
                pair = pair[::-1]
            pairs.insert(draw(st.integers(0, len(pairs))), pair)
    return n, [list(p) if draw(st.booleans()) else p for p in pairs]


@settings(max_examples=300, deadline=None)
@given(malformed_covers())
def test_cover_refusals_match_pair_by_pair_reference(case):
    # One contract for every source: build_lattice and lattice JSON
    # refuse what the pair-by-pair reference refuses (bools, floats and
    # pairs of the wrong length among it), with the same error for the
    # same first bad entry.
    n, covers = case
    for entries in (covers, [list(p) for p in covers]):
        expected = _raised(oracles.check_covers, n, entries)
        assert expected is not None and expected[0] is ValueError
        assert _raised(build_lattice, n, entries) == expected
        assert _raised(lattice_from_json,
                       {"n": n, "covers": entries}) == expected


def test_cover_entry_past_digit_limit_worded_as_power_of_two():
    # past the int-to-str digit limit the value cannot be printed, so
    # the refusal gives the power of two its size reaches
    big = 10 ** 4399
    k = big.bit_length() - 1
    with pytest.raises(ValueError, match=(
            rf"^cover \(1, >=2\^{k}\) out of range$")):
        lattice_from_json({"n": 3, "covers": [[0, 1], [1, big]]})
    with pytest.raises(ValueError, match=(
            rf"^cover \(<=-2\^{k}, 1\) out of range$")):
        build_lattice(3, [(0, 1), (-big, 1)])


def test_one_element_lattice_is_legal():
    lat = build_lattice(1, [])
    assert lat.bottom == lat.top == 0
    assert lat.top_rank == 0
    assert lat.whitney_first() == (1,)
    assert verify_brun(lat).partial_sums == (1,)
    assert lat.is_geometric().ok


def test_meet_join_against_bruteforce(any_lattice):
    name, lat = any_lattice
    n = lat.n_elems
    rel = oracles.leq_matrix(n, lat.covers)
    for x in range(n):
        for y in range(n):
            assert lat.leq(x, y) == ((x, y) in rel), (name, x, y)
            assert lat.meet(x, y) == oracles.naive_meet(n, rel, x, y)
            assert lat.join(x, y) == oracles.naive_join(n, rel, x, y)


def test_meet_join_laws(zoo_lattice):
    _, lat = zoo_lattice
    n = lat.n_elems
    pick = range(0, n, max(1, n // 7))
    for x in pick:
        assert lat.meet(x, x) == x
        assert lat.join(x, x) == x
        assert lat.meet(x, lat.bottom) == lat.bottom
        assert lat.join(x, lat.top) == lat.top
        for y in pick:
            m = lat.meet(x, y)
            j = lat.join(x, y)
            assert m == lat.meet(y, x)
            assert j == lat.join(y, x)
            assert lat.meet(x, j) == x  # absorption
            assert lat.join(x, m) == x


def test_join_all_of_nothing_is_bottom():
    lat = generators.parse_named("boolean:3")
    assert lat.join_all([]) == lat.bottom
    assert lat.join_all(lat.atoms()) == lat.top


def test_mobius_against_zeta_inversion(any_lattice):
    name, lat = any_lattice
    n = lat.n_elems
    rel = oracles.leq_matrix(n, lat.covers)
    mu = oracles.naive_mobius_matrix(n, rel)
    for x in range(n):
        table = lat.mobius_table(x)
        for y in range(n):
            assert table[y] == mu[x, y], (name, x, y)


def test_mobius_defining_identity(zoo_lattice):
    _, lat = zoo_lattice
    n = lat.n_elems
    for x in range(n):
        table = lat.mobius_table(x)
        for z in range(n):
            if x == z or not lat.leq(x, z):
                continue
            total = sum(table[y] for y in range(n)
                        if lat.leq(x, y) and lat.leq(y, z))
            assert total == 0


def test_mobius_known_values():
    for n in range(1, 6):
        lat = generators.boolean_lattice(n)
        assert lat.mobius(lat.bottom, lat.top) == (-1) ** n
    for n in range(2, 6):
        lat = generators.partition_lattice(n)
        assert lat.mobius(lat.bottom, lat.top) == \
            (-1) ** (n - 1) * math.factorial(n - 1)
    pi3 = generators.partition_lattice(3)
    assert pi3.mobius(pi3.bottom, pi3.top) == 2


def test_whitney_first_examples():
    assert generators.parse_named("boolean:3").whitney_first() == \
        (1, -3, 3, -1)
    assert generators.parse_named("partition:3").whitney_first() == (1, -3, 2)
    assert generators.parse_named("dowling:2:2").whitney_first() == (1, -4, 3)


def test_whitney_second_examples():
    assert generators.parse_named("boolean:3").whitney_second() == \
        (1, 3, 3, 1)
    assert generators.parse_named("partition:3").whitney_second() == (1, 3, 1)
    assert generators.parse_named("dowling:2:2").whitney_second() == (1, 4, 1)


def test_whitney_first_matches_the_walk_and_the_oracle(zoo_lattice):
    # the rank-run sums of the bottom's table, against the down-set walk
    # of _whitney_below and matrix Mobius inversion
    _, lat = zoo_lattice
    rel = oracles.leq_matrix(lat.n_elems, lat.covers)
    mu = oracles.naive_mobius_matrix(lat.n_elems, rel)
    rank = oracles.naive_ranks(lat.n_elems, rel)
    w = [0] * (lat.top_rank + 1)
    for y in range(lat.n_elems):
        w[rank[y]] += mu[lat.bottom, y]
    assert lat.whitney_first() == lat._whitney_below(lat.top) == tuple(w)


def test_whitney_first_sums_to_zero(zoo_lattice):
    _, lat = zoo_lattice
    if lat.top_rank >= 1:
        assert sum(lat.whitney_first()) == 0


def test_partial_mobius_sum():
    # sum of mu(bottom, y) over rank y <= k, for k = 0..top rank
    lat = generators.parse_named("boolean:3")
    assert verify_brun(lat).partial_sums == (1, -2, 1, 0)


def test_rota_sign_law(zoo_lattice):
    _, lat = zoo_lattice
    assert lat.is_geometric().ok
    table = lat.mobius_table(lat.bottom)
    for y in range(lat.n_elems):
        assert (-1) ** lat.rank[y] * table[y] > 0


def test_geometric_diagnostics():
    chain = generators.parse_named("chain:2")
    chk = chain.is_geometric()
    assert not chk
    assert chk.failure == "NotAtomistic"
    assert chk.witness == (2,)

    div12 = generators.parse_named("divisor:12")
    chk = div12.is_geometric()
    assert not chk and chk.failure == "NotAtomistic"


def test_atomistic_but_not_semimodular():
    # atoms a,b,c; p = a v b, q = b v c; rank(a)+rank(c) = 2 but
    # meet(a,c)=bottom and join(a,c)=top gives 0+3
    covers = [(0, 1), (0, 2), (0, 3),
              (1, 4), (2, 4), (2, 5), (3, 5),
              (4, 6), (5, 6)]
    lat = build_lattice(7, covers)
    chk = lat.is_geometric()
    assert not chk
    assert chk.failure == "NotSemimodular"
    x, y = chk.witness
    m, j = lat.meet(x, y), lat.join(x, y)
    assert lat.rank[m] + lat.rank[j] > lat.rank[x] + lat.rank[y]


def test_interval_point_and_b3():
    b4 = generators.parse_named("boolean:4")
    sub, members = oracles.interval(b4, 3, 3)
    assert len(sub) == 1 and members == [3]

    sub, members = oracles.interval(b4, 0, 7)  # {1,2,3} as a bitmask
    assert len(sub) == 8
    assert sub.whitney_second() == (1, 3, 3, 1)
    assert sub.whitney_first() == (1, -3, 3, -1)


def test_intervals_of_geometric_are_geometric(zoo_lattice):
    _, lat = zoo_lattice
    n = lat.n_elems
    pairs = [(lat.bottom, lat.top)]
    pairs += [(lat.bottom, y) for y in range(0, n, max(1, n // 5))]
    pairs += [(x, lat.top) for x in range(0, n, max(1, n // 5))]
    for x, y in pairs:
        if not lat.leq(x, y):
            continue
        sub, members = oracles.interval(lat, x, y)
        assert sub.is_geometric().ok
        assert len(members) == len(sub)
        assert sub.top_rank == lat.rank[y] - lat.rank[x]


def test_atoms_examples():
    assert generators.parse_named("chain:2").atoms() == [1]
    pi3 = generators.parse_named("partition:3")
    assert len(pi3.atoms()) == 3
    assert all(pi3.rank[a] == 1 for a in pi3.atoms())


def test_down_up_sets(zoo_lattice):
    _, lat = zoo_lattice
    for x in range(0, lat.n_elems, max(1, lat.n_elems // 6)):
        down = lat.down_set(x)
        up = lat.up_set(x)
        assert all(lat.leq(d, x) for d in down)
        assert all(lat.leq(x, u) for u in up)
        assert len(down) + len(up) - 1 <= lat.n_elems
        ranks = [lat.rank[d] for d in down]
        assert ranks == sorted(ranks)


def test_elements_of_rank(zoo_lattice):
    # the rank profile against longest-chain ranks from the relation
    _, lat = zoo_lattice
    n = lat.n_elems
    rank = oracles.naive_ranks(n, oracles.leq_matrix(n, lat.covers))
    assert [rank[x] for x in range(n)] == lat.rank
    counts = [0] * (lat.top_rank + 1)
    for x in range(n):
        counts[rank[x]] += 1
    assert tuple(counts) == lat.whitney_second()


def test_json_round_trip():
    lat = generators.parse_named("dowling:2:2")
    data = lattice_to_json(lat)
    text = json.dumps(data)
    back = lattice_from_json(json.loads(text))
    assert back.covers == lat.covers
    assert back.labels == lat.labels
    assert back.whitney_first() == lat.whitney_first()


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        lattice_from_json({"covers": [[0, 1]]})
    with pytest.raises(ValueError):
        lattice_from_json({"n": 2, "covers": [[0, 1], [0, 1]]})
    with pytest.raises(NotALattice):
        lattice_from_json({"n": 3, "covers": [[0, 1], [0, 2]]})


def test_mobius_thread_safety():
    # The memo takes no lock: threads racing on a fresh lattice may each
    # compute a table, and every thread must read the same values.
    src = generators.parse_named("partition:5")
    expected = tuple(map(src.mobius_table, range(src.n_elems)))
    lat = build_lattice(src.n_elems, src.covers)
    results = []

    def work():
        results.append(tuple(map(lat.mobius_table, range(lat.n_elems))))

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_boolean_meet_join_are_bitops(n, data):
    lat = generators.boolean_lattice(n)
    x = data.draw(st.integers(0, 2 ** n - 1))
    y = data.draw(st.integers(0, 2 ** n - 1))
    assert lat.meet(x, y) == x & y
    assert lat.join(x, y) == x | y
    assert lat.leq(x, y) == (x & y == x)


def test_repr_mentions_size():
    lat = generators.parse_named("boolean:2")
    assert "4" in repr(lat)
