"""Tests of the bitset kernels behind build_lattice and its queries:
the transitive closure, the cover-pair certificate, the set-bit walk
and the Mobius table.

The certificate checks joins and semimodularity only on pairs of upper
covers of a common element, so its verdicts are played against the
all-pairs scan in tests/oracles.py.  Witness pairs are judged by
validity, not identity: the certificate need not report the pair the
all-pairs scan would find first.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomsieve import generators
from geomsieve.errors import (LatticeError, MultipleMaxima, MultipleMinima,
                              NotALattice, NotGraded)
from geomsieve.poset import _bits, _transitive_closure, build_lattice

import oracles


def positioned(lat):
    """Covers and ranks of a lattice mapped onto a topological order."""
    n = len(lat)
    order = sorted(range(n), key=lambda i: (lat.rank[i], i))
    pos = {idx: p for p, idx in enumerate(order)}
    covers = [(pos[x], pos[y]) for x, y in lat.covers]
    rank = [lat.rank[idx] for idx in order]
    return n, covers, rank, order, pos


ZOO = [
    "boolean:1", "boolean:3", "boolean:4",
    "partition:3", "partition:4",
    "dowling:2:2", "dowling:3:2", "dowling:2:3",
    "uniform:2:4", "uniform:3:5",
    "graphic:k4",
    "chain:4", "divisor:12",
]


@pytest.mark.parametrize("name", ZOO)
def test_closure_parity_and_correctness(name):
    # The bitmask closure agrees with the oracle's relational closure.
    lat = generators.parse_named(name)
    n, covers, rank, order, pos = positioned(lat)
    down, up = _transitive_closure(n, covers)
    rel = oracles.leq_matrix(n, lat.covers)
    for px, py in itertools.combinations(range(n), 2):
        expected = (order[px], order[py]) in rel
        assert bool(down[py] >> px & 1) == expected
        assert bool(up[px] >> py & 1) == expected
    for p in range(n):
        assert down[p] >> p & 1
        assert up[p] >> p & 1


@pytest.mark.parametrize("seed", range(6))
def test_closure_independent_of_cover_order(seed):
    # The DP must not depend on the order covers are listed in, only on
    # the topological ordering of the positions themselves.
    for name in ["boolean:4", "partition:4", "dowling:2:2"]:
        lat = generators.parse_named(name)
        n, covers, rank, order, pos = positioned(lat)
        reference = _transitive_closure(n, sorted(covers))
        shuffled = list(covers)
        random.Random(seed).shuffle(shuffled)
        assert _transitive_closure(n, shuffled) == reference


def test_large_lattice_crosses_word_boundary():
    # 128 elements exercises multi-word bitmask rows.
    lat = generators.parse_named("boolean:7")
    n, covers, rank, order, pos = positioned(lat)
    assert n == 128
    down, up = _transitive_closure(n, covers)
    top = max(range(n), key=lambda p: rank[p])
    assert down[top] == (1 << n) - 1
    for p in range(n):
        assert bin(down[p]).count("1") == 1 << rank[p]


def expected_geometric_failure(n, rel, bottom, semi_fail):
    """The failure is_geometric must report, from the oracles: the
    atomistic axiom is tested first."""
    if not oracles.naive_is_atomistic(n, rel, bottom):
        return "NotAtomistic"
    return None if semi_fail is None else "NotSemimodular"


def assert_no_join(n, rel, message):
    found = re.search(r"elements (\d+) and (\d+) have no join", message)
    assert found, message
    a, b = int(found.group(1)), int(found.group(2))
    assert oracles.naive_join(n, rel, a, b) is None, (a, b)


def assert_breaks_semimodularity(lat, n, rel, witness):
    x, y = witness
    m = oracles.naive_meet(n, rel, x, y)
    j = oracles.naive_join(n, rel, x, y)
    assert lat.rank[m] + lat.rank[j] > lat.rank[x] + lat.rank[y], witness


def check_against_oracle(n, covers):
    """build_lattice and is_geometric against the all-pairs scan on a
    poset with a bottom and a top.  Returns the expected verdict."""
    rel = oracles.leq_matrix(n, covers)
    rank = [0] * n
    for v in sorted(range(n), key=lambda v: sum((u, v) in rel
                                                for u in range(n))):
        for x, y in covers:
            if y == v:
                rank[v] = max(rank[v], rank[x] + 1)
    if any(rank[y] != rank[x] + 1 for x, y in covers):
        with pytest.raises(NotGraded):
            build_lattice(n, covers)
        return "NotGraded"
    meet_fail, join_fail, semi_fail = oracles.all_pairs_verdict(n, rel, rank)
    if meet_fail is not None or join_fail is not None:
        with pytest.raises(NotALattice) as info:
            build_lattice(n, covers)
        assert_no_join(n, rel, str(info.value))
        return "NotALattice"
    lat = build_lattice(n, covers)
    chk = lat.is_geometric()
    failure = expected_geometric_failure(n, rel, lat.bottom, semi_fail)
    assert chk.failure == failure
    if failure == "NotSemimodular":
        assert_breaks_semimodularity(lat, n, rel, chk.witness)
    return failure


@pytest.mark.parametrize("name", ZOO)
def test_scan_pairs_parity(name):
    # build_lattice's cover scan gives the verdicts of the all-pairs
    # scan_pairs oracle on every zoo entry.
    lat = generators.parse_named(name)
    verdict = check_against_oracle(len(lat), list(lat.covers))
    # Every zoo entry is a genuine lattice.
    assert verdict != "NotALattice"


def test_scan_pairs_reports_missing_meet():
    # Two incomparable minimal elements share no lower bound.  The
    # oracle reports the missing meet; build_lattice refuses the poset
    # for its second minimum before any pair is scanned.
    down, up = _transitive_closure(2, [])
    assert oracles.scan_pairs(2, down, up, [0, 0]) == ((0, 1), None, None)
    with pytest.raises(MultipleMinima):
        build_lattice(2, [])


def test_scan_pairs_reports_missing_join():
    # A bottom with two maximal elements above it: no upper bound.  The
    # oracle reports the missing join; build_lattice refuses the poset
    # for its second maximum before any pair is scanned.
    covers = [(0, 1), (0, 2)]
    down, up = _transitive_closure(3, covers)
    assert oracles.scan_pairs(3, down, up, [0, 1, 1]) == (None, (1, 2), None)
    with pytest.raises(MultipleMaxima):
        build_lattice(3, covers)


def test_scan_pairs_reports_ambiguous_join():
    # Bowtie inside a bounded poset: 1 and 2 have two minimal upper
    # bounds 3 and 4, so some pair has no join.
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4),
              (3, 5), (4, 5)]
    assert check_against_oracle(6, covers) == "NotALattice"


def test_scan_pairs_semimodular_witness():
    # Atomistic but not semimodular: join(1, 2) = 4 and join(2, 3) = 5
    # land two ranks up from rank-1 meets, join(1, 3) lands three up.
    covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (2, 5), (3, 5),
              (4, 6), (5, 6)]
    assert check_against_oracle(7, covers) == "NotSemimodular"


@st.composite
def leveled_posets(draw):
    """A random graded poset with a bottom and a top, as (n, covers).

    Each element of level k + 1 covers a nonempty set of level-k
    elements and every level-k element is covered at least once, so
    levels are ranks.  Element indices are shuffled.
    """
    levels = [[0]]
    n = 1
    covers = []
    for width in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        below = levels[-1]
        level = list(range(n, n + width))
        n += width
        for v in level:
            for x in draw(st.lists(st.sampled_from(below), min_size=1,
                                   max_size=len(below), unique=True)):
                covers.append((x, v))
        covered = {x for x, v in covers if v in level}
        for x in below:
            if x not in covered:
                covers.append((x, draw(st.sampled_from(level))))
        levels.append(level)
    covers += [(x, n) for x in levels[-1]]
    n += 1
    perm = draw(st.permutations(range(n)))
    return n, sorted({(perm[x], perm[y]) for x, y in covers})


@st.composite
def set_families(draw):
    """Subsets of a k-set ordered by inclusion, as (n, covers): the
    empty set, the singletons, the whole set and a random choice of the
    rest.  Such a poset is atomistic whenever it is a lattice, so
    is_geometric reports its semimodular verdict.  It need not be
    graded; build_lattice must then raise NotGraded.
    """
    k = draw(st.integers(3, 5))
    middle = [frozenset(c) for size in range(2, k)
              for c in itertools.combinations(range(k), size)]
    family = ([frozenset()] + [frozenset([a]) for a in range(k)]
              + draw(st.lists(st.sampled_from(middle), unique=True,
                              max_size=len(middle)))
              + [frozenset(range(k))])
    family = draw(st.permutations(family))
    covers = [(i, j) for i, a in enumerate(family)
              for j, b in enumerate(family)
              if a < b and not any(a < c < b for c in family)]
    return len(family), covers


@settings(max_examples=300, deadline=None)
@given(st.one_of(leveled_posets(), set_families()))
def test_certificate_matches_all_pairs_oracle(poset):
    n, covers = poset
    check_against_oracle(n, covers)


@settings(max_examples=300, deadline=None)
@given(st.one_of(leveled_posets(), set_families()))
def test_lower_intervals_read_from_parent(poset):
    # The verdict and Whitney numbers of every [bottom, y], read from
    # the parent's build data, match the interval rebuilt as a lattice
    # of its own; witnesses are indices of the parent.
    n, covers = poset
    try:
        lat = build_lattice(n, covers)
    except LatticeError:
        return
    rel = oracles.leq_matrix(n, covers)
    for y in range(n):
        ivl, members = oracles.interval(lat, lat.bottom, y)
        chk, rebuilt = lat._geometric_below(y), ivl.is_geometric()
        assert chk.failure == rebuilt.failure
        if chk.failure == "NotAtomistic":
            assert chk.witness == (members[rebuilt.witness[0]],)
        elif chk.failure == "NotSemimodular":
            assert all(lat.leq(w, y) for w in chk.witness)
            assert_breaks_semimodularity(lat, n, rel, chk.witness)
        else:
            assert lat._whitney_below(y) == ivl.whitney_first()


@settings(max_examples=300, deadline=None)
@given(st.one_of(leveled_posets(), set_families()))
def test_mobius_tables_match_naive_oracle(poset):
    # Every base, on random lattices: value masks and the bit walk
    # together give the zeta-inversion values.
    n, covers = poset
    try:
        lat = build_lattice(n, covers)
    except LatticeError:
        return
    mu = oracles.naive_mobius_matrix(n, oracles.leq_matrix(n, covers))
    for x in range(n):
        assert lat.mobius_table(x) == tuple(mu[x, y] for y in range(n))


def test_mobius_takes_both_branches(monkeypatch):
    # Branch k (k = 2..5) is k atoms, one rank-2 element above them
    # and one rank-3 element above that; a top closes the branches.
    # Before rank 3, mu takes the values 1, -1 and k - 1: five masks.
    # The rank-3 element of branch 2 has four elements below it, so it
    # is summed by the bit walk; the top has 23 and is summed by masks.
    covers, branches, n = [], {}, 1
    for k in range(2, 6):
        atoms, b, c = list(range(n, n + k)), n + k, n + k + 1
        n += k + 2
        covers += [(0, a) for a in atoms] + [(a, b) for a in atoms]
        covers.append((b, c))
        branches[k] = c
    covers += [(c, n) for c in branches.values()]
    n += 1
    lat = build_lattice(n, covers)
    assert lat.top == n - 1 and lat.top_rank == 4
    walked = []

    def recording_bits(mask):
        walked.append(mask)
        return _bits(mask)

    monkeypatch.setattr("geomsieve.poset._bits", recording_bits)
    table = lat.mobius_table(lat.bottom)
    mu = oracles.naive_mobius_matrix(n, oracles.leq_matrix(n, covers))
    assert table == tuple(mu[0, y] for y in range(n))
    pos = lat._pos_of

    def below(y):
        return lat._down[pos[y]] & ~(1 << pos[y])

    c = branches[2]
    assert below(c).bit_count() == 4
    assert below(c) in walked
    assert below(lat.top) not in walked


def _bits_reference(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("mask", [
    0, 1, 1 << 63, 1 << 64, 1 << 65, (1 << 63) | (1 << 64) | (1 << 65),
    (1 << 64) - 1, (1 << 65) - 1,
    pytest.param(
        sum(1 << i for i in random.Random(5).sample(range(5000), 40))
        | 1 << 4999, id="40-of-5000-bits"),
])
def test_bits_lists_set_positions_ascending(mask):
    assert list(_bits(mask)) == _bits_reference(mask)
