"""Size checks in parse_named and load_lattice: sources over the element
cap are refused with TooLarge before any lattice or triangle is built."""

import pytest

from geomsieve import dowling, errors, generators, matroid, poset
from geomsieve.cli import main
from geomsieve.errors import NotSimple, TooLarge
from geomsieve.sieve import sieve_instance_from_json

import oracles


def test_size_estimates_match_exact_counts():
    assert list(generators._bell_numbers(12)) == oracles.bell_numbers(12)
    for m in (1, 2, 3):
        assert list(dowling._dowling_numbers(m, 1, 8)) == \
            [dowling.dowling_number(m, n) for n in range(9)]


def test_huge_partition_refused_by_cap():
    # the exact Bell(2000) has more digits than int-to-str allows
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named("partition:2000")


def test_huge_dowling_refused_after_a_handful_of_steps(row_steps):
    # D_2(n) passes the cap 5000 at n = 7; a stream sized by n would
    # allocate n + 1 slots before its first value
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named("dowling:1000000000:2")
    assert row_steps == [(2, 1)] * 7


def test_huge_dowling_refused_without_filling_triangle_cache(triangle_steps):
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named("dowling:1500:2")
    assert triangle_steps == []


def test_huge_names_refused_by_cli(capsys):
    # the size of the last one, 10**4300, is past the int-to-str limit
    for name in ("partition:2000", "dowling:1500:2", "boolean:1000000000",
                 "uniform:3000:100000", "chain:" + "9" * 4300):
        assert main(["lattice-check", name]) == 2
        err = capsys.readouterr().err
        assert "over the cap 5000" in err, err


def test_partition_cap_boundary():
    # Bell(7) = 877
    assert len(generators.parse_named("partition:7", 877)) == 877
    with pytest.raises(TooLarge, match="over the cap 876"):
        generators.parse_named("partition:7", 876)


def test_dowling_cap_boundary():
    # D_2(5) = #Q_5(Z_2) = 648
    assert len(generators.parse_named("dowling:5:2", 648)) == 648
    with pytest.raises(TooLarge, match="over the cap 647"):
        generators.parse_named("dowling:5:2", 647)


def test_dowling_name_arguments_checked():
    for name in ("dowling:-1:2", "dowling:2:0"):
        with pytest.raises(ValueError, match="need n >= 0 and m >= 1"):
            generators.parse_named(name)


def refuse_to_build(monkeypatch):
    """Make any lattice build fail, so a refusal proves nothing was built."""
    def fail(*_args, **_kwargs):
        raise AssertionError("build_lattice called")
    for module in (poset, generators, dowling, matroid):
        monkeypatch.setattr(module, "build_lattice", fail)


def chain_json(n):
    return {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]}


@pytest.mark.parametrize("name", ["boolean:1000000000",
                                  "uniform:3000:100000"])
def test_huge_boolean_and_uniform_refused_by_cap(name, monkeypatch):
    # the exact sizes have far more digits than int-to-str allows
    refuse_to_build(monkeypatch)
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named(name)


# 2**12 subsets; U_{3,5} has 1 + 5 + 10 flats of rank < 3 plus the ground set
@pytest.mark.parametrize("name, size", [("boolean:12", 4096),
                                        ("uniform:3:5", 17)])
def test_boolean_and_uniform_cap_boundary(name, size):
    assert len(generators.parse_named(name, size)) == size
    with pytest.raises(TooLarge, match=f"over the cap {size - 1}$"):
        generators.parse_named(name, size - 1)


def test_lattice_json_cap_boundary(monkeypatch):
    assert len(generators.load_lattice(chain_json(5), 5)) == 5
    refuse_to_build(monkeypatch)
    with pytest.raises(TooLarge, match=r"6 elements, over the cap 5$"):
        generators.load_lattice(chain_json(6), 5)


def test_lattice_from_json_applies_the_element_cap_by_default(monkeypatch):
    cap = errors.ELEMENT_CAP
    assert len(poset.lattice_from_json(chain_json(cap))) == cap
    refuse_to_build(monkeypatch)
    with pytest.raises(TooLarge, match=(
            rf"^lattice JSON has at least {cap + 1} elements, "
            rf"over the cap {cap}$")):
        poset.lattice_from_json(chain_json(cap + 1))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: list(dowling.whitney_first_rows(0, 3)),
                 ValueError, "need m >= 1", id="first-rows-m0"),
    pytest.param(lambda: list(dowling.whitney_second_rows(0, 1, 3)),
                 ValueError, "need m >= 1 and r >= 0", id="second-rows-m0"),
    pytest.param(lambda: list(dowling.whitney_second_rows(1, -1, 3)),
                 ValueError, "need m >= 1 and r >= 0", id="second-rows-r-1"),
    pytest.param(lambda: dowling.canonical_tau_index(2, 2, 3),
                 ValueError, "need 0 <= k <= n", id="tau-k-over-n"),
    pytest.param(lambda: dowling.dowling_sieve_instance(2, 2, 3),
                 ValueError, "need 0 <= k <= n", id="instance-k-over-n"),
    pytest.param(lambda: generators.boolean_lattice(-1),
                 ValueError, "n must be >= 0", id="boolean-1"),
    pytest.param(lambda: generators.partition_lattice(0),
                 ValueError, "n must be >= 1", id="partition0"),
    pytest.param(lambda: generators.chain_lattice(-1),
                 ValueError, "r must be >= 0", id="chain-1"),
    pytest.param(lambda: generators.divisor_lattice(0),
                 ValueError, "n must be >= 1", id="divisor0"),
    pytest.param(lambda: matroid.Matroid(-1, len, "negative"),
                 errors.MatroidError, "ground set size must be >= 0",
                 id="matroid-1"),
    pytest.param(lambda: matroid.Matroid.graphic(3, [(0, 3)]),
                 errors.MatroidError, "edge (0, 3) out of range",
                 id="graphic-edge-out-of-range"),
    pytest.param(lambda: matroid.Matroid.uniform(2, 4).rank_of([5]),
                 errors.MatroidError, "element 5 outside ground set 0..3",
                 id="rank-of-outside"),
])
def test_arguments_outside_the_domain_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_every_cap_refuses_just_above_it_before_any_work(
        monkeypatch, row_steps, triangle_steps):
    # one request per cap of the errors table, each one over its cap
    import mpmath

    from geomsieve import asym

    refuse_to_build(monkeypatch)
    contexts, ranks = [], []
    monkeypatch.setattr(mpmath, "workdps", contexts.append)

    def rank(mask):
        ranks.append(mask)
        return mask.bit_count()

    requests = {
        "ELEMENT_CAP": lambda: generators.parse_named(
            f"chain:{errors.ELEMENT_CAP}"),  # a chain of ELEMENT_CAP + 1
        "TRIANGLE_DEPTH_CAP": lambda: dowling.whitney_second_rows(
            2, 1, errors.TRIANGLE_DEPTH_CAP + 1),
        "NUMBERS_N_CAP": lambda: dowling.r_dowling_number(
            2, 1, errors.NUMBERS_N_CAP + 1),
        "DIGITS_CAP": lambda: asym.solve_delta(
            1, 1, 50, digits=errors.DIGITS_CAP + 1),
        "SUBSET_CAP": lambda: matroid.char_poly(matroid.Matroid(
            errors.SUBSET_CAP + 1, rank, "counted")),
    }
    assert set(requests) == {name for name in vars(errors)
                             if name.endswith("_CAP")}
    for name, request in requests.items():
        with pytest.raises(TooLarge):
            request()
    assert row_steps == triangle_steps == contexts == ranks == []


def test_uniform_rank_far_over_the_ground_set_refused_at_once(monkeypatch):
    # no flat has rank over n, so only C(5, 0..5) are formed before
    # Matroid.uniform refuses k > n, however large k is
    calls = []
    comb = generators.comb

    def counted(n, i):
        calls.append(i)
        if i > n:
            raise AssertionError(f"C({n}, {i}) formed")
        return comb(n, i)

    monkeypatch.setattr(generators, "comb", counted)
    with pytest.raises(ValueError, match=r"^need 0 <= k <= n$"):
        generators.parse_named("uniform:10000000000:5")
    assert calls == list(range(6))
    # a k over n whose sizes pass the cap before rank n is refused by size
    with pytest.raises(TooLarge, match=r"^uniform:50:40 has at least 10702 "
                                       r"elements, over the cap 5000$"):
        generators.parse_named("uniform:50:40")


def test_sieve_inline_lattice_capped_by_default(monkeypatch):
    refuse_to_build(monkeypatch)
    data = {"lattice": chain_json(errors.ELEMENT_CAP + 1), "A": [],
            "T": [], "f": ["0"], "X": "1"}
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        sieve_instance_from_json(data)


@pytest.mark.parametrize("name, n", [
    ("uniform:0:3", 3), ("uniform:1:5", 5), ("uniform:1:1000000000", 10 ** 9),
])
def test_non_simple_uniform_refused_before_the_flats_sweep(monkeypatch, name, n):
    # U_{0,n} has loops and U_{1,n} parallel pairs for n > k: refused
    # from k and n alone, before the flats are swept
    def sweep(self):
        raise AssertionError("flats swept")

    monkeypatch.setattr(matroid.Matroid, "_flat_covers", property(sweep))
    with pytest.raises(NotSimple, match=rf"^<Matroid uniform n={n}> has "
                                        r"loops or parallel elements$"):
        generators.parse_named(name)


def test_uniform_name_lifts_the_flats_sweep_cap_to_its_own(monkeypatch):
    # U_{2,12} has 14 flats: over a sweep cap of 10, but a uniform name
    # is counted against --cap-elements first and sweeps under that cap
    monkeypatch.setattr(matroid.Matroid, "cap_flats", 10)
    with pytest.raises(TooLarge, match=r"^the lattice of flats of <Matroid "
                                       r"uniform n=12> has at least 13 "
                                       r"elements, over the cap 10$"):
        matroid.flats_lattice(matroid.Matroid.uniform(2, 12))
    assert len(generators.parse_named("uniform:2:12", 14)) == 14
    with pytest.raises(TooLarge, match=r"^uniform:2:12 has at least 14 "):
        generators.parse_named("uniform:2:12", 13)


def test_simple_small_uniforms_still_build():
    assert len(generators.parse_named("uniform:0:0")) == 1
    assert len(generators.parse_named("uniform:1:1")) == 2
