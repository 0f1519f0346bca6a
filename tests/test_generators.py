"""Size checks in parse_named: names over the element cap are refused
with TooLarge before any lattice or triangle is built."""

import pytest

from geomsieve import dowling, generators
from geomsieve.cli import main
from geomsieve.errors import TooLarge

import oracles


def test_size_estimates_match_exact_counts():
    assert list(generators._bell_numbers(12)) == oracles.bell_numbers(12)
    for m in (1, 2, 3):
        assert list(generators._dowling_numbers(m, 8)) == \
            [dowling.dowling_number(m, n) for n in range(9)]


def test_huge_partition_refused_by_cap():
    # the exact Bell(2000) has more digits than int-to-str allows
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named("partition:2000")


def test_huge_dowling_refused_without_filling_triangle_cache():
    before = {key: len(rows) for key, rows in dowling._second_cache.items()}
    with pytest.raises(TooLarge, match=r"over the cap 5000$"):
        generators.parse_named("dowling:1500:2")
    after = {key: len(rows) for key, rows in dowling._second_cache.items()}
    assert after == before


def test_huge_names_refused_by_cli(capsys):
    for name in ("partition:2000", "dowling:1500:2"):
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
