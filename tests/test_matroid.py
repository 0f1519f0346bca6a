import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import matroid, verify
from geomsieve.errors import MatroidError, NotAFlat, NotSimple, TooLarge
from geomsieve.matroid import (
    Matroid,
    char_poly,
    flats_lattice,
    matroid_from_json,
    matroid_to_json,
    mobius_via_closure,
    simplify,
)

import oracles


def test_uniform_rank(u24):
    assert u24.rank_of([]) == 0
    assert u24.rank_of([0, 1, 2]) == 2
    assert u24.full_rank == 2
    assert u24.is_independent([0, 3])
    assert not u24.is_independent([0, 1, 2])


def test_graphic_rank(k4):
    assert k4.ground_size == 6
    assert k4.rank_of(range(6)) == 3
    # edges of one triangle are dependent
    tri = [i for i, (u, v) in enumerate(k4.meta["edges"])
           if u in (0, 1, 2) and v in (0, 1, 2)]
    assert len(tri) == 3
    assert k4.rank_of(tri) == 2


def test_rank_rejects_bare_int(u24):
    with pytest.raises(TypeError):
        u24.rank_of(3)


def test_closure_examples(u24, k4):
    assert u24.closure([0, 1]) == frozenset(range(4))
    assert u24.closure([]) == frozenset()
    tri = [i for i, (u, v) in enumerate(k4.meta["edges"])
           if u in (0, 1, 2) and v in (0, 1, 2)]
    assert k4.closure(tri[:2]) == frozenset(tri)


def test_closure_against_definition(u24, k4):
    for mat in (u24, k4, Matroid.uniform(3, 5)):
        for size in range(mat.ground_size + 1):
            for subset in itertools.combinations(range(mat.ground_size), size):
                assert mat.closure(subset) == \
                    oracles.naive_closure(mat, subset)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closure_axioms(data):
    mat = data.draw(st.sampled_from([
        Matroid.uniform(2, 5),
        Matroid.uniform(3, 6),
        Matroid.complete_graphic(4),
    ]))
    ground = list(range(mat.ground_size))
    a = frozenset(data.draw(st.sets(st.sampled_from(ground))))
    b = frozenset(data.draw(st.sets(st.sampled_from(ground))))
    ca = mat.closure(a)
    assert a <= ca
    if a <= b:
        assert ca <= mat.closure(b)
    assert mat.closure(ca) == ca
    # exchange: y in cl(A+x) \ cl(A) implies x in cl(A+y)
    x = data.draw(st.sampled_from(ground))
    for y in mat.closure(a | {x}) - ca:
        assert x in mat.closure(a | {y})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_monotone_submodular(data):
    mat = data.draw(st.sampled_from([
        Matroid.uniform(2, 5),
        Matroid.complete_graphic(4),
    ]))
    ground = list(range(mat.ground_size))
    a = frozenset(data.draw(st.sets(st.sampled_from(ground))))
    b = frozenset(data.draw(st.sets(st.sampled_from(ground))))
    ra, rb = mat.rank_of(a), mat.rank_of(b)
    assert mat.rank_of(a | b) + mat.rank_of(a & b) <= ra + rb
    if a <= b:
        assert ra <= rb
    assert ra <= len(a)


def test_from_independents_round_trip():
    # U_{1,2} given explicitly
    mat = Matroid.from_independents(2, [[], [0], [1]])
    assert mat.full_rank == 1
    assert mat.rank_of([0, 1]) == 1
    assert not mat.is_simple()  # 0 and 1 are parallel


def test_from_independents_rejects_bad_families():
    with pytest.raises(MatroidError, match="empty"):
        Matroid.from_independents(2, [[0]])
    with pytest.raises(MatroidError, match="subset"):
        Matroid.from_independents(2, [[], [0, 1]])
    with pytest.raises(MatroidError, match="exchange"):
        # {0,1} and {2} independent but neither extends {2}
        Matroid.from_independents(3, [[], [0], [1], [2], [0, 1]])


def test_flats_lattice_k4_profile(k4):
    lat = flats_lattice(k4)
    assert lat.whitney_second() == (1, 6, 7, 1)
    assert lat.is_geometric().ok


def test_flats_lattice_uniform_examples():
    two_chain = flats_lattice(Matroid.uniform(1, 1))
    assert len(two_chain) == 2 and two_chain.top_rank == 1

    free3 = flats_lattice(Matroid.uniform(3, 3))
    assert free3.whitney_second() == (1, 3, 3, 1)  # Boolean B_3

    u24 = flats_lattice(Matroid.uniform(2, 4))
    assert u24.whitney_second() == (1, 4, 1)


def test_flats_lattice_requires_simple():
    with pytest.raises(NotSimple):
        flats_lattice(Matroid.uniform(1, 2))  # parallel pair
    with pytest.raises(NotSimple):
        flats_lattice(Matroid.uniform(0, 1))  # loop


# the zoo, plus a simplified multigraph with a loop and a parallel pair
FLAT_CASES = dict(verify.zoo_matroids())
FLAT_CASES["simplified:k4-multigraph"] = simplify(Matroid.graphic(
    4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (2, 2)]))[0]


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_flats_lattice_covers_match_pair_scan(name):
    mat = FLAT_CASES[name]
    flats = mat.flats()
    lat = flats_lattice(mat)
    assert lat.covers == tuple(oracles.naive_flat_covers(mat, flats))
    assert lat.labels == ["{" + ",".join(map(str, sorted(f))) + "}"
                          for f in flats]


def test_flats_are_sorted_and_closed(u24):
    flats = u24.flats()
    assert flats[0] == frozenset()
    assert all(u24.is_flat(f) for f in flats)
    keys = [(u24.rank_of(f), tuple(sorted(f))) for f in flats]
    assert keys == sorted(keys)


def _evaluate(coefficients, lam):
    """sum_i w_i lam^(r - i) for the coefficients (w_0, ..., w_r)."""
    r = len(coefficients) - 1
    return sum(w * lam ** (r - i) for i, w in enumerate(coefficients))


def test_char_poly_examples(k4):
    assert char_poly(Matroid.uniform(3, 3)) == (1, -3, 3, -1)  # (x-1)^3
    u23 = char_poly(Matroid.uniform(2, 3))
    assert u23 == (1, -3, 2)
    assert [_evaluate(u23, t) for t in (1, 2, 5)] == [0, 0, 12]

    chi = char_poly(k4)
    assert chi == (1, -6, 11, -6)
    assert [_evaluate(chi, t) for t in (1, 2, 3)] == [0, 0, 0]


def test_char_poly_of_loop_vanishes():
    loopy = Matroid.from_independents(2, [[], [0]])
    assert char_poly(loopy) == (0, 0)


def test_char_poly_cap():
    message = r"^2\^21 subsets exceed the cap 2\^20$"
    with pytest.raises(TooLarge, match=message):
        char_poly(Matroid.uniform(2, 21))


def test_char_poly_equals_lattice_whitney(u24, k4):
    for mat in (u24, k4, Matroid.uniform(2, 5), Matroid.uniform(3, 6)):
        lat = flats_lattice(mat)
        assert char_poly(mat) == lat.whitney_first()


def test_mobius_via_closure_examples():
    u23 = Matroid.uniform(2, 3)
    assert mobius_via_closure(u23, frozenset()) == 1
    assert mobius_via_closure(u23, frozenset({0})) == -1
    assert mobius_via_closure(u23, frozenset(range(3))) == 2
    with pytest.raises(NotAFlat):
        mobius_via_closure(u23, frozenset({0, 1}))  # closure is everything


def test_mobius_via_closure_matches_lattice(u24, k4):
    for mat in (u24, k4):
        lat = flats_lattice(mat)
        table = lat.mobius_table(lat.bottom)
        for i, flat in enumerate(mat.flats()):
            assert mobius_via_closure(mat, flat) == table[i]


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_mobius_via_closure_matches_naive_on_every_flat(name):
    mat = FLAT_CASES[name]
    for flat in mat.flats():
        assert mobius_via_closure(mat, flat) == \
            oracles.naive_mobius_via_closure(mat, flat)


@st.composite
def small_matroids(draw):
    """A multigraph on up to 4 vertices, loops and parallel edges
    allowed, as its graphic matroid, as the explicit matroid of the same
    independent sets, or simplified."""
    nv = draw(st.integers(1, 4))
    edges = draw(st.lists(st.tuples(st.integers(0, nv - 1),
                                    st.integers(0, nv - 1)), max_size=7))
    mat = Matroid.graphic(nv, edges)
    backend = draw(st.sampled_from(["graphic", "explicit", "simplified"]))
    if backend == "explicit":
        ground = range(mat.ground_size)
        mat = Matroid.from_independents(mat.ground_size, [
            subset for size in range(mat.ground_size + 1)
            for subset in itertools.combinations(ground, size)
            if mat.is_independent(subset)])
    elif backend == "simplified":
        mat = simplify(mat)[0]
    return mat


@settings(max_examples=60, deadline=None)
@given(small_matroids(), st.data())
def test_mobius_via_closure_random_matroids(mat, data):
    for flat in mat.flats():
        assert mobius_via_closure(mat, flat) == \
            oracles.naive_mobius_via_closure(mat, flat)
    subset = data.draw(st.sets(st.integers(0, max(mat.ground_size - 1, 0)),
                               max_size=mat.ground_size))
    if oracles.naive_closure(mat, subset) != subset:
        with pytest.raises(NotAFlat):
            mobius_via_closure(mat, subset)


def test_mobius_via_closure_cap_before_any_subset():
    calls = []

    def rank(mask):
        calls.append(mask)
        return min(mask.bit_count(), 1)

    mat = Matroid(21, rank, "counted")
    with pytest.raises(TooLarge, match=r"^2\^21 subsets exceed the cap 2\^20$"):
        mobius_via_closure(mat, range(21))
    with pytest.raises(TooLarge, match=r"^2\^21 subsets exceed the cap 2\^20$"):
        char_poly(mat)
    assert calls == []


def test_flats_swept_once_per_matroid(monkeypatch):
    calls = []
    closure = Matroid._closure_mask

    def counted(self, mask):
        calls.append(mask)
        return closure(self, mask)

    monkeypatch.setattr(Matroid, "_closure_mask", counted)
    mat = Matroid.complete_graphic(4)
    lat = flats_lattice(mat)
    swept = len(calls)
    assert swept > 0
    flats = mat.flats()
    assert len(calls) == swept
    assert len(flats) == lat.n_elems == 15
    assert flats_lattice(mat).covers == lat.covers
    assert len(calls) == swept


def test_verify_check_catches_a_wrong_closure_mobius(monkeypatch):
    right = matroid.mobius_via_closure

    def off_by_one(mat, flat):
        return right(mat, flat) + (flat == frozenset({0, 1}))

    monkeypatch.setattr(matroid, "mobius_via_closure", off_by_one)
    ok, detail = verify.check_matroid_lattice_consistency(fast=True)
    assert ok is False
    assert "Mobius mismatch" in detail


def test_simplify_identity_on_simple(u24):
    simple, mapping = simplify(u24)
    assert simple.ground_size == u24.ground_size
    assert mapping == list(range(4))


def test_simplify_drops_loops_and_parallels():
    # ground {0,1,2}: 0 is a loop, 1 and 2 are parallel
    mat = Matroid.from_independents(3, [[], [1], [2]])
    simple, mapping = simplify(mat)
    assert simple.ground_size == 1
    assert mapping[0] is None
    assert sorted({v for v in mapping[1:]}) == [0]
    assert simple.full_rank == mat.full_rank == 1
    assert simple.is_simple()


def test_simplify_preserves_flat_profile():
    # each element of U_{2,3} doubled into a parallel pair
    base = Matroid.uniform(2, 3)

    def rank(mask):
        seen = {i // 2 for i in range(6) if mask >> i & 1}
        return min(len(seen), 2)

    doubled = Matroid(6, rank, kind="doubled")
    simple, mapping = simplify(doubled)
    assert simple.ground_size == 3
    assert flats_lattice(simple).whitney_second() == \
        flats_lattice(base).whitney_second()


def test_json_round_trips(u24, k4):
    for mat in (u24, k4):
        data = matroid_to_json(mat)
        back = matroid_from_json(data)
        assert back.ground_size == mat.ground_size
        for size in range(mat.ground_size + 1):
            for subset in itertools.combinations(range(mat.ground_size), size):
                assert back.rank_of(subset) == mat.rank_of(subset)


def test_json_explicit():
    mat = Matroid.from_independents(2, [[], [0], [1]])
    back = matroid_from_json(matroid_to_json(mat))
    assert back.rank_of([0, 1]) == 1
    with pytest.raises(ValueError):
        matroid_from_json({"type": "nonsense"})
