"""The generators that cover by key codes against the constructions they
replaced: partition and Dowling covers from bitmask and code tuples,
and flats closed only over the elements outside the covers found so
far, each byte-identical to its reference in oracles."""

import json
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import dowling, generators, matroid
from geomsieve.generators import set_partitions
from geomsieve.matroid import Matroid
from geomsieve.poset import lattice_to_json

import oracles


def same_json(lat, ref):
    assert json.dumps(lattice_to_json(lat)) == json.dumps(lattice_to_json(ref))


@pytest.mark.parametrize("n", range(9))
def test_set_partitions_match_depth_first_walk(n):
    assert set_partitions(n) == oracles.set_partitions(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_lattice_matches_sorted_blocks(n):
    same_json(generators.parse_named(f"partition:{n}"),
              oracles.partition_lattice(n))


# every Q_n(Z_m) with m <= 8 and D_m(n) <= 5000 (for n <= 1 every m
# qualifies), and two wide groups whose codes take 5 and 7 bits
DOWLING_GRID = [(n, m) for m in range(1, 9) for n in range(8)
                if dowling.dowling_number(m, n) <= 5000] + [(3, 16), (2, 64)]


@pytest.mark.parametrize("n, m", DOWLING_GRID,
                         ids=[f"dowling:{n}:{m}" for n, m in DOWLING_GRID])
def test_dowling_lattice_matches_upper_keys(n, m):
    keys, index, lat = dowling._qn_data(n, m)
    ref_keys, ref = oracles.dowling_lattice(n, m)
    assert keys == ref_keys
    assert index == {key: i for i, key in enumerate(ref_keys)}
    same_json(lat, ref)


def test_one_point_dowling_is_built_without_a_step_per_group_element(
        monkeypatch):
    # D_m(1) = 2 for every m, so the size cap admits any m at n = 1:
    # no list of m codes and no label shifts may be formed
    calls = []
    monkeypatch.setattr(dowling, "_shifted_codes",
                        lambda *args: calls.append(args))
    tracemalloc.start()
    try:
        lat = generators.parse_named(f"dowling:1:{10 ** 6}")
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.labels == ["~", "0^0"]
    assert calls == []
    assert peak < 1 << 20, peak


UNIFORM = [(k, n) for n in range(11) for k in range(n + 1)
           if k >= 2 or k == n]


@pytest.mark.parametrize("k, n", UNIFORM,
                         ids=[f"uniform:{k}:{n}" for k, n in UNIFORM])
def test_uniform_flats_match_closure_sweep(k, n):
    same_json(generators.parse_named(f"uniform:{k}:{n}"),
              oracles.flats_lattice(Matroid.uniform(k, n)))


@pytest.mark.parametrize("nv", [4, 5])
def test_graphic_flats_match_closure_sweep(nv):
    same_json(generators.parse_named(f"graphic:k{nv}"),
              oracles.flats_lattice(Matroid.complete_graphic(nv)))


def same_sweep(mat):
    masks, members, pairs = mat._flat_covers
    ref_masks, ref_pairs = oracles.flat_covers(mat)
    assert list(masks) == ref_masks
    assert list(pairs) == ref_pairs
    assert members == tuple(tuple(sorted(oracles._elements(f)))
                            for f in ref_masks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7).flatmap(lambda nv: st.tuples(
    st.just(nv), st.integers(0, (1 << comb(nv, 2)) - 1))))
def test_flats_sweep_of_simple_graphs(graph):
    nv, chosen = graph  # bit i of chosen: the i-th pair of vertices
    edges = [e for i, e in enumerate(combinations(range(nv), 2))
             if chosen >> i & 1]
    mat = Matroid.graphic(nv, edges)
    same_sweep(mat)
    same_json(matroid.flats_lattice(mat), oracles.flats_lattice(mat))


def binary_independents(vectors):
    """Every independent subset, as a tuple of indices, of the GF(2)
    vectors given as bitmasks: each subset is reduced against a
    running basis, by brute force."""
    out = []
    for size in range(len(vectors) + 1):
        for subset in combinations(range(len(vectors)), size):
            basis = []
            for i in subset:
                v = vectors[i]
                for b in basis:
                    v = min(v, v ^ b)
                if not v:
                    break
                basis.append(v)
            else:
                out.append(subset)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.integers(0, (1 << r) - 1), max_size=7)))
def test_flats_sweep_of_explicit_matroids(vectors):
    # zero vectors are loops and repeated vectors parallel pairs, so
    # cl(empty) is not always empty
    mat = oracles.from_independents(len(vectors),
                                    binary_independents(vectors))
    same_sweep(mat)


def counted(mat):
    """mat with a rank function that counts its calls in calls[0]."""
    calls = [0]
    rank = mat._rank_fn

    def counting(mask):
        calls[0] += 1
        return rank(mask)

    return Matroid(mat.ground_size, counting, mat.kind), calls


def sweep_tests_uniform(k, n):
    """Closure tests of the sweep on U_{k,n}: a flat of rank r < k - 1
    is an r-set, and its covers add one element each, the i-th found
    testing the n - r - i elements after it; covers of rank k need no
    test."""
    return sum(comb(n, r) * comb(n - r, 2) for r in range(k - 1))


# the sweep: one full-rank call, n + 1 for cl(empty), then its closure
# tests; simplicity is read off the sweep with no rank call.
# oracles.flat_covers, which closes F + e over every element outside
# it, makes 2935, 1301 and 80001 calls on these three.
@pytest.mark.parametrize("name, mat, count", [
    pytest.param("U_{4,9}", Matroid.uniform(4, 9),
                 1 + 10 + sweep_tests_uniform(4, 9), id="U_{4,9}"),
    # 572 closure tests, pinned: they depend on the edge order
    pytest.param("K_5", Matroid.complete_graphic(5), 1 + 11 + 572,
                 id="K_5"),
    pytest.param("U_{2,200}", Matroid.uniform(2, 200),
                 1 + 201 + sweep_tests_uniform(2, 200), id="U_{2,200}"),
])
def test_flats_lattice_rank_calls(name, mat, count):
    mat, calls = counted(mat)
    matroid.flats_lattice(mat)
    assert calls[0] == count, name
