import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import errors, matroid, verify
from geomsieve.errors import MatroidError, NotSimple, TooLarge
from geomsieve.matroid import (
    Matroid,
    char_poly,
    closure_mobius,
    flats_lattice,
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
    mat = oracles.from_independents(2, [[], [0], [1]])
    assert mat.full_rank == 1
    assert mat.rank_of([0, 1]) == 1
    assert not mat.is_simple()  # 0 and 1 are parallel


def test_from_independents_rejects_bad_families():
    with pytest.raises(MatroidError, match="empty"):
        oracles.from_independents(2, [[0]])
    with pytest.raises(MatroidError, match="subset"):
        oracles.from_independents(2, [[], [0, 1]])
    with pytest.raises(MatroidError, match="exchange"):
        # {0,1} and {2} independent but neither extends {2}
        oracles.from_independents(3, [[], [0], [1], [2], [0, 1]])


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
FLAT_CASES["simplified:k4-multigraph"] = oracles.simplify(Matroid.graphic(
    4, [(0, 1), (0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (2, 2)]))[0]


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_flats_lattice_covers_match_pair_scan(name):
    mat = FLAT_CASES[name]
    flats = mat.flats()
    lat = flats_lattice(mat)
    assert lat.covers == tuple(oracles.naive_flat_covers(mat, flats))
    assert lat.labels == ["{" + ",".join(map(str, sorted(f))) + "}"
                          for f in flats]


def test_flats_sweep_refused_once_over_the_element_cap():
    # U_{10,40} has 373,585,605 flats; the sweep stops at the first flat
    # of rank 3 whose covers take the count over the cap, having made at
    # most 40 rank calls (one per ground element) per flat found
    calls = []

    def rank(mask):
        calls.append(mask)
        return min(mask.bit_count(), 10)

    cap = errors.ELEMENT_CAP
    with pytest.raises(TooLarge, match=(
            rf"^the lattice of flats of <Matroid uniform n=40> has at least "
            rf"\d+ elements, over the cap {cap}$")):
        flats_lattice(Matroid(40, rank, "uniform"))
    assert len(calls) < 40 * cap
    # every zoo matroid stays under the cap
    for name, mat in verify.zoo_matroids():
        assert len(flats_lattice(mat)) == len(mat.flats()) <= cap, name


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
    loopy = oracles.from_independents(2, [[], [0]])
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
    assert u23.flats() == [frozenset(), frozenset({0}), frozenset({1}),
                           frozenset({2}), frozenset(range(3))]
    assert closure_mobius(u23) == ((1, -3, 2), (1, -1, -1, -1, 2))


def test_mobius_via_closure_matches_lattice(u24, k4):
    for mat in (u24, k4):
        lat = flats_lattice(mat)
        assert closure_mobius(mat).mobius == lat.mobius_table(lat.bottom)


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_mobius_via_closure_matches_naive_on_every_flat(name):
    mat = FLAT_CASES[name]
    assert closure_mobius(mat).mobius == tuple(
        oracles.naive_mobius_via_closure(mat, flat) for flat in mat.flats())


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
        mat = oracles.from_independents(mat.ground_size, [
            subset for size in range(mat.ground_size + 1)
            for subset in itertools.combinations(ground, size)
            if mat.is_independent(subset)])
    elif backend == "simplified":
        mat = oracles.simplify(mat)[0]
    return mat


@settings(max_examples=60, deadline=None)
@given(small_matroids())
def test_mobius_via_closure_random_matroids(mat):
    # loops and parallel edges included: with a loop every closure-route
    # sum is 0, and char_poly is all zeros
    cp, mobius = closure_mobius(mat)
    assert cp == char_poly(mat) == oracles.naive_char_poly(mat)
    assert mobius == tuple(oracles.naive_mobius_via_closure(mat, flat)
                           for flat in mat.flats())


def test_closure_mobius_reads_each_rank_once():
    # the sweep of flats() is taken first; the walk then makes one rank
    # call per subset, and its result is kept
    for name, zoo_mat in verify.zoo_matroids():
        calls = []

        def rank(mask, rank_fn=zoo_mat._rank_fn):
            calls.append(mask)
            return rank_fn(mask)

        mat = Matroid(zoo_mat.ground_size, rank, zoo_mat.kind)
        mat.flats()
        calls.clear()
        first = closure_mobius(mat)
        assert sorted(calls) == list(range(1 << mat.ground_size)), name
        assert closure_mobius(mat) is first
        assert len(calls) == 1 << mat.ground_size


def test_mobius_via_closure_cap_before_any_subset():
    calls = []

    def rank(mask):
        calls.append(mask)
        return min(mask.bit_count(), 1)

    mat = Matroid(21, rank, "counted")
    with pytest.raises(TooLarge, match=r"^2\^21 subsets exceed the cap 2\^20$"):
        closure_mobius(mat)
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
    # mu of flat {0, 1} of the first matroid that has one, U_{2,2}
    right = matroid.closure_mobius

    def off_by_one(mat):
        cp, mobius = right(mat)
        return cp, tuple(v + (f == frozenset({0, 1}))
                         for v, f in zip(mobius, mat.flats()))

    monkeypatch.setattr(matroid, "closure_mobius", off_by_one)
    ok, detail = verify.check_matroid_lattice_consistency(fast=True)
    assert ok is False
    assert detail == "uniform:2:2: Mobius mismatch at flat [0, 1]"


def test_verify_check_catches_a_wrong_char_poly(monkeypatch):
    # w_1 of U_{3,4} off by one: the walk's char_poly disagrees with the
    # lattice's Whitney numbers before any Mobius value is compared
    right = matroid.closure_mobius

    def off_by_one(mat):
        cp, mobius = right(mat)
        if (mat.kind, mat.meta) == ("uniform", {"k": 3, "n": 4}):
            cp = (cp[0], cp[1] + 1) + cp[2:]
        return cp, mobius

    monkeypatch.setattr(matroid, "closure_mobius", off_by_one)
    ok, detail = verify.check_matroid_lattice_consistency(fast=True)
    assert ok is False
    assert detail == ("uniform:3:4: char_poly (1, -3, 6, -3) != "
                      "lattice (1, -4, 6, -3)")


def test_simplify_identity_on_simple(u24):
    simple, mapping = oracles.simplify(u24)
    assert simple.ground_size == u24.ground_size
    assert mapping == list(range(4))


def test_simplify_drops_loops_and_parallels():
    # ground {0,1,2}: 0 is a loop, 1 and 2 are parallel
    mat = oracles.from_independents(3, [[], [1], [2]])
    simple, mapping = oracles.simplify(mat)
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
    simple, mapping = oracles.simplify(doubled)
    assert simple.ground_size == 3
    assert flats_lattice(simple).whitney_second() == \
        flats_lattice(base).whitney_second()
