"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest

import geomsieve
from geomsieve import cli, dowling, errors, generators, poset
from geomsieve.cli import main
from geomsieve.poset import _exact_digits, lattice_from_json, lattice_to_json
from geomsieve.sieve import sieve_instance_to_json

import oracles
from test_kernels import ZOO


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def read_table(text):
    """The kind,m,r values and the rows of `dowling table` CSV text; the
    n,k,value lines must come in row order."""
    lines = list(csv.reader(io.StringIO(text)))
    assert lines[0] == ["kind", "m", "r"] and lines[2] == ["n", "k", "value"]
    rows = []
    with _exact_digits():  # int() past the int-to-str digit limit
        for n, k, value in lines[3:]:
            if k == "0":
                rows.append(())
            assert (int(n), int(k)) == (len(rows) - 1, len(rows[-1]))
            rows[-1] += (int(value),)
    return lines[1], rows


def test_lattice_check_generator(capsys):
    code, data, _ = run_json(capsys, "lattice-check", "boolean:3")
    assert code == 0
    assert data["geometric"] is True
    assert data["failure"] is None
    assert data["n"] == 8
    assert data["rank"] == 3
    assert data["whitney_first"] == [1, -3, 3, -1]
    assert data["partial_sums"] == [1, -2, 1, 0]
    assert data["brun_ok"] is True


def test_lattice_check_file(capsys, tmp_path):
    lat = generators.parse_named("dowling:2:2")
    path = tmp_path / "q22.json"
    path.write_text(json.dumps(lattice_to_json(lat)), encoding="utf-8")
    code, data, _ = run_json(capsys, "lattice-check", str(path))
    assert code == 0
    assert data["geometric"] is True
    assert data["n"] == 6
    assert data["whitney_first"] == [1, -4, 3]


def test_lattice_check_non_geometric_exits_one(capsys):
    code, data, _ = run_json(capsys, "lattice-check", "chain:2")
    assert code == 1
    assert data["geometric"] is False
    assert data["failure"] == "NotAtomistic"
    assert "whitney_first" not in data


def test_lattice_check_text_format(capsys):
    code, out, _ = run_cli(capsys, "lattice-check", "boolean:2",
                           "--format", "text")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["geometric"] == "True"
    assert lines["rank"] == "2"


def test_csv_format_refused_where_no_csv_is_written(capsys):
    # only `dowling numbers` writes CSV; elsewhere --format csv is a
    # usage error, not a silent fall-back to text
    with pytest.raises(SystemExit) as info:
        main(["lattice-check", "boolean:2", "--format", "csv"])
    assert info.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_lattice_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice-check", str(path))
    assert code == 2
    assert "error:" in err


def test_lattice_check_wrong_shape_json(capsys, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"covers": [[0, 1]]}), encoding="utf-8")
    code, _out, err = run_cli(capsys, "lattice-check", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("blob, field", [
    ({"n": 2.5, "covers": [[0, 1]]}, '"n"'),
    ({"n": True, "covers": []}, '"n"'),
    ({"n": "2", "covers": [[0, 1]]}, '"n"'),
    ({"n": 2, "covers": [[0, True]]}, '"covers"[0]'),
    ({"n": 2, "covers": [[0, 1.0]]}, '"covers"[0]'),
    ({"n": 2, "covers": 5}, '"covers"'),
    ({"n": 2, "covers": [[0, 1]], "labels": 5}, '"labels"'),
    ({"n": 2, "covers": [[0, 1]], "labels": "ab"}, '"labels"'),
    ({"n": 2, "covers": [[0, 1]], "labels": ["a", "b", "c"]}, '"labels"'),
])
def test_lattice_json_field_types_refused(capsys, tmp_path, blob, field):
    # Floats, booleans and strings are not read as integers; "labels"
    # is a list with one entry per element, never a string or a number.
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice-check", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: lattice JSON {field} must be")


def test_lattice_check_cover_entry_past_digit_limit(capsys, tmp_path):
    # the entry is read as its lower bound 10^4399, at least 2^14613
    path = tmp_path / "huge_cover.json"
    path.write_text('{"n": 3, "covers": [[0, 1], [1, ' + "9" * 4400 + "]]}",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice-check", str(path))
    assert (code, out) == (2, "")
    assert err == "error: cover (1, >=2^14613) out of range\n"


@pytest.mark.parametrize("name", ZOO)
def test_lattice_check_file_matches_generator_name(capsys, tmp_path, name):
    # a lattice written to a file and read back goes through the same
    # build as the name, so the two reports agree but for "source"
    path = tmp_path / "zoo.json"
    path.write_text(json.dumps(lattice_to_json(generators.parse_named(name))),
                    encoding="utf-8")
    by_name = run_cli(capsys, "lattice-check", name)
    by_file = run_cli(capsys, "lattice-check", str(path))

    def masked(out):
        return re.sub(r'"source": "(?:[^"\\]|\\.)*"', '"source": null', out)

    assert by_file[0] == by_name[0]
    assert masked(by_file[1]) == masked(by_name[1])
    assert by_file[1] != by_name[1]  # the mask had something to hide


def test_lattice_check_unknown_generator(capsys):
    code, _out, err = run_cli(capsys, "lattice-check", "mystery:3")
    assert code == 2
    assert "error:" in err


def test_lattice_check_not_file_not_generator(capsys):
    code, _out, err = run_cli(capsys, "lattice-check", "no-such-thing")
    assert code == 2
    assert "neither" in err


def test_lattice_check_cap(capsys):
    code, _out, err = run_cli(capsys, "lattice-check", "boolean:7",
                              "--cap-elements", "10")
    assert code == 2


def test_sieve_run_exact_density(capsys, tmp_path):
    inst = dowling.dowling_sieve_instance(3, 2, 1)
    blob = sieve_instance_to_json(inst, lattice_name="dowling:3:2")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, data, _ = run_json(capsys, "sieve-run", str(path))
    assert code == 0
    assert data["sifted_count"] == 18
    assert data["rank_tau"] == 1
    assert data["residual"] == "0"
    assert data["sandwich_ok"] is True
    assert data["lower"] <= 18 <= data["upper"]


def test_sieve_run_cutoff_variants(capsys, tmp_path):
    inst = dowling.dowling_sieve_instance(3, 2, 3)
    blob = sieve_instance_to_json(inst, lattice_name="dowling:3:2")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, data, _ = run_json(capsys, "sieve-run", str(path))
    assert code == 0
    exact = data["sifted_count"]
    assert data["lower"] <= exact <= data["upper"]
    # A generous cutoff makes both truncations exact.
    code, tight, _ = run_json(capsys, "sieve-run", str(path),
                              "--cutoff", "5")
    assert code == 0
    assert tight["lower"] == tight["upper"] == exact
    # Cutoff zero keeps only ranks 0 and 1.
    code, loose, _ = run_json(capsys, "sieve-run", str(path),
                              "--cutoff", "0")
    assert code == 0
    assert loose["lower"] <= exact <= loose["upper"]
    assert loose["upper"] >= tight["upper"]


def test_sieve_run_cutoff_all(capsys, tmp_path):
    inst = dowling.dowling_sieve_instance(4, 2, 4)
    blob = sieve_instance_to_json(inst, lattice_name="dowling:4:2")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, default, _ = run_json(capsys, "sieve-run", str(path))
    code_all, every, _ = run_json(capsys, "sieve-run", str(path),
                                  "--cutoff", "all")
    assert code == code_all == 0
    # the default keys are unchanged, plus the bounds at c = 0..2
    profile = every.pop("profile")
    assert every == default
    exact = default["sifted_count"]
    assert default["rank_tau"] == 4 and default["cutoff"] == 2
    assert len(profile) == 3 and profile[-1] == [exact, exact]
    for cutoff, bounds in enumerate(profile):
        _, one, _ = run_json(capsys, "sieve-run", str(path),
                             "--cutoff", str(cutoff))
        assert bounds == [one["lower"], one["upper"]]
    code, out, _ = run_cli(capsys, "sieve-run", str(path), "--cutoff", "all",
                           "--format", "text")
    assert code == 0
    assert f"profile: {profile}" in out.splitlines()


def test_sieve_run_cutoff_all_fails_on_any_broken_sandwich(
        capsys, tmp_path, monkeypatch):
    from geomsieve import sieve

    inst = dowling.dowling_sieve_instance(3, 2, 3)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sieve_instance_to_json(
        inst, lattice_name="dowling:3:2")), encoding="utf-8")
    honest = sieve.brun_profile

    def broken_first(inst):
        (lower, upper), *rest = honest(inst)
        return ((upper + 1, upper), *rest)

    monkeypatch.setattr(sieve, "brun_profile", broken_first)
    code, data, _ = run_json(capsys, "sieve-run", str(path),
                             "--cutoff", "all")
    assert code == 1 and data["sandwich_ok"] is False
    # the default cutoff's own bounds still sandwich the count
    assert data["lower"] <= data["sifted_count"] <= data["upper"]


@pytest.mark.parametrize("value", ["-1", "x", "ALL", "1.5", ""])
def test_sieve_run_bad_cutoff_exits_two(capsys, tmp_path, value):
    path = tmp_path / "never-read.json"
    with pytest.raises(SystemExit) as info:
        main(["sieve-run", str(path), "--cutoff", value])
    assert info.value.code == 2
    assert ("argument --cutoff: need a non-negative integer or 'all', "
            f"not {value!r}") in capsys.readouterr().err


def test_sieve_run_inline_lattice(capsys, tmp_path):
    inst = dowling.dowling_sieve_instance(2, 2, 2)
    blob = sieve_instance_to_json(inst)
    assert isinstance(blob["lattice"], dict)
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, data, _ = run_json(capsys, "sieve-run", str(path))
    assert code == 0
    # tau is the top, so only the bottom survives the sifting.
    assert data["sifted_count"] == 1


def test_lattice_json_over_cap_refused_before_build(capsys, tmp_path,
                                                   monkeypatch):
    n = errors.ELEMENT_CAP + 1
    chain = {"n": n, "covers": [[i, i + 1] for i in range(n - 1)]}
    lattice_path = tmp_path / "chain.json"
    lattice_path.write_text(json.dumps(chain), encoding="utf-8")
    sieve_path = tmp_path / "sieve.json"
    sieve_path.write_text(json.dumps({"lattice": chain, "A": "all", "T": [],
                                      "f": ["0"] * n, "X": "1"}),
                          encoding="utf-8")

    def fail(*_args, **_kwargs):
        raise AssertionError("build_lattice called")

    # an "n" past the int-to-str digit limit is sized, not misparsed
    huge_path = tmp_path / "huge.json"
    huge_path.write_text('{"n": ' + "9" * 4301 + ', "covers": []}',
                         encoding="utf-8")

    monkeypatch.setattr(poset, "build_lattice", fail)
    for argv in (["lattice-check", str(lattice_path)],
                 ["sieve-run", str(sieve_path)],
                 ["lattice-check", str(huge_path)]):
        code, _out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.rstrip().endswith("over the cap 5000"), err


def test_sieve_run_missing_key(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"lattice": "boolean:2"}), encoding="utf-8")
    code, _out, err = run_cli(capsys, "sieve-run", str(path))
    assert code == 2
    assert "sieve JSON" in err


@pytest.mark.parametrize("field, value", [("f", ["1/0", 1, 1]),
                                          ("X", "3/0")])
def test_sieve_run_zero_denominator_is_usage_error(capsys, tmp_path,
                                                   field, value):
    blob = {"lattice": "boolean:2", "A": "all", "T": [1], "f": [1, 1, 1],
            "X": 1, field: value}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, _out, err = run_cli(capsys, "sieve-run", str(path))
    assert code == 2
    assert err.startswith("error:") and "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, template, key", [
    ("X", "{}", ""),
    ("X", '"{}"', "X: "),
    ("f", '[1, "1/{}", 1]', "f[1]: "),
], ids=["X-integer", "X-string", "f-string"])
def test_sieve_run_refuses_values_past_digit_limit(capsys, tmp_path,
                                                   field, template, key):
    # Exact values past the int-to-str digit limit are refused in the
    # integer and the string form, not read as a lower bound.
    fields = {"lattice": '"boolean:2"', "A": '"all"', "T": "[1]",
              "f": "[1, 1, 1]", "X": "1",
              field: template.format("9" * 4301)}
    path = tmp_path / "long.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}'
                                    for k, v in fields.items()) + "}",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "sieve-run", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}")
    assert "4301-digit integer" in err and "Exceeds" not in err
    assert err.count("\n") == 1


def test_json_files_parsed_without_int_hook(capsys, tmp_path, monkeypatch):
    # the per-integer hooks run only for an integer past the digit
    # limit, so ordinary files are parsed by the C decoder alone
    def refuse(_text):
        raise AssertionError("per-integer hook called")

    monkeypatch.setattr(cli, "_json_int", refuse)
    monkeypatch.setattr(cli, "_exact_json_int", refuse)
    lattice_path = tmp_path / "b3.json"
    lattice_path.write_text(json.dumps(lattice_to_json(
        generators.parse_named("boolean:3"))), encoding="utf-8")
    sieve_path = tmp_path / "sieve.json"
    sieve_path.write_text(json.dumps({"lattice": "boolean:2", "A": "all",
                                      "T": [1], "f": [1, 1, 1], "X": 1}),
                          encoding="utf-8")
    assert run_cli(capsys, "lattice-check", str(lattice_path))[0] == 0
    assert run_cli(capsys, "sieve-run", str(sieve_path))[0] == 0


def test_verify_all_fast_scope_text(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--fast",
                           "--scope", "sieve")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS sieve-closed-form") for line in lines)
    assert any(line.startswith("PASS brun-bounds-sandwich") for line in lines)
    assert lines[-1] == "2/2 checks passed"


def test_verify_all_fast_scope_json(capsys):
    code, data, _ = run_json(capsys, "verify-all", "--fast",
                             "--scope", "lattice", "--format", "json")
    assert code == 0
    assert data["ok"] is True
    assert [c["name"] for c in data["checks"]] == ["brun-zoo"]
    assert all(c["ok"] for c in data["checks"])


def test_dowling_table_round_trip(capsys):
    code, out, _ = run_cli(capsys, "dowling", "table", "--kind", "second",
                           "--m", "2", "--nmax", "4")
    assert code == 0
    assert read_table(out) == (["second", "2", "1"],
                               list(dowling.whitney_second_rows(2, 1, 4)))


def test_dowling_table_out_file(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    code, out, _ = run_cli(capsys, "dowling", "table", "--kind", "first",
                           "--m", "3", "--nmax", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert read_table(path.read_text(encoding="utf-8")) == \
        (["first", "3", "1"], list(dowling.whitney_first_rows(3, 3)))


@pytest.mark.parametrize("kind", ["first", "second"])
def test_dowling_table_negative_nmax_exits_two(capsys, kind):
    code, out, err = run_cli(capsys, "dowling", "table", "--kind", kind,
                             "--m", "2", "--nmax", "-1")
    assert code == 2 and out == ""
    assert err == "error: need n_max >= 0\n"


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("nmax", ["-1", "-7"])
def test_dowling_numbers_negative_nmax_exits_two(capsys, fmt, nmax):
    code, out, err = run_cli(capsys, "dowling", "numbers", "--m", "1",
                             "--nmax", nmax, "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: need nmax >= 0\n"


def test_dowling_table_first_kind_rejects_r(capsys):
    code, _out, err = run_cli(capsys, "dowling", "table", "--kind", "first",
                              "--m", "2", "--r", "2", "--nmax", "3")
    assert code == 2
    assert "drop --r" in err


def test_dowling_build(capsys, tmp_path):
    path = tmp_path / "q22.json"
    code, out, _ = run_cli(capsys, "dowling", "build", "--n", "2",
                           "--m", "2", "--out", str(path))
    assert code == 0
    assert "wrote 6 elements" in out
    lat = lattice_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert lat.n_elems == 6
    assert lat.whitney_first() == (1, -4, 3)


def test_dowling_build_respects_cap(capsys, tmp_path):
    path = tmp_path / "never.json"
    code, _out, err = run_cli(capsys, "dowling", "build", "--n", "4",
                              "--m", "3", "--out", str(path),
                              "--cap-elements", "100")
    assert code == 2
    assert not path.exists()


def test_dowling_build_refused_before_any_triangle_row(capsys, tmp_path,
                                                      triangle_steps):
    path = tmp_path / "never.json"
    code, _out, err = run_cli(capsys, "dowling", "build", "--n", "1500",
                              "--m", "2", "--out", str(path))
    assert code == 2
    assert "over the cap 5000" in err, err
    assert not path.exists()
    assert triangle_steps == []


def test_dowling_conv(capsys):
    code, data, _ = run_json(capsys, "dowling", "conv", "--m", "1",
                             "--n", "1", "--t", "1", "--s", "2")
    assert code == 0
    assert data["value"] == 4
    assert data["agree"] is True
    assert data["via_series"] == 4
    assert data["via_shifted_triangle"] == 4


@pytest.mark.parametrize("argv, depth", [
    (["dowling", "conv", "--m", "2", "--n", "3", "--t", "5", "--s", "1000"],
     1003),
    (["dowling", "table", "--kind", "first", "--m", "2", "--nmax", "501"],
     501),
    (["dowling", "table", "--kind", "second", "--m", "2", "--r", "3",
      "--nmax", "501"], 501),
], ids=["conv", "table-first", "table-second"])
def test_triangle_depth_over_cap_exit_two(capsys, triangle_steps, argv,
                                          depth):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: need triangle depth <= 500, the cap on Whitney "
                   f"rows (asked for {depth})\n")
    assert triangle_steps == []


@pytest.mark.parametrize("m, n, t, s", [
    (1, 1, 1, 2), (2, 3, 5, 4), (3, 2, 6, 4), (2, 3, 1, 4), (2, 1, 9, 3),
    (1, 0, 0, 0),
], ids=["m1", "m2", "m3", "t-below-n", "t-n-over-s", "zero"])
def test_dowling_conv_reads_one_shifted_row(capsys, monkeypatch, m, n, t, s):
    # the shifted-triangle value is the entry (s, t - n) of
    # W_{m,1+mn} (0 for t < n and for t - n > s), read from its last
    # row; that triangle is streamed only when the entry is in it
    rows = dowling.whitney_second_rows
    last = list(rows(m, 1 + m * n, s))[s]
    expected = last[t - n] if 0 <= t - n <= s else 0
    calls = []

    def counted(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(dowling, "whitney_second_rows", counted)
    code, data, _ = run_json(capsys, "dowling", "conv", "--m", str(m),
                             "--n", str(n), "--t", str(t), "--s", str(s))
    assert code == 0
    assert data["via_shifted_triangle"] == expected
    assert data["value"] == data["via_series"] == expected
    assert data["agree"] is True
    # the convolution streams W_{m,1} to n + s, the CLI W_{m,1+mn} to s
    shifted = [(m, 1 + m * n, s)] if 0 <= t - n <= s else []
    assert calls == [(m, 1, n + s)] + shifted


def test_dowling_conv_below_diagonal(capsys):
    code, data, _ = run_json(capsys, "dowling", "conv", "--m", "2",
                             "--n", "3", "--t", "1", "--s", "4")
    assert code == 0
    assert data["value"] == 0
    assert data["agree"] is True


def test_dowling_numbers_json(capsys):
    code, data, _ = run_json(capsys, "dowling", "numbers", "--m", "2",
                             "--nmax", "5")
    assert code == 0
    assert data["values"] == [1, 2, 6, 24, 116, 648]
    assert data["r"] == 1


def test_dowling_numbers_text(capsys):
    code, out, _ = run_cli(capsys, "dowling", "numbers", "--m", "1",
                           "--nmax", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["m: 1", "r: 1", "values: [1, 2, 5]"]


def test_dowling_numbers_csv(capsys):
    code, out, _ = run_cli(capsys, "dowling", "numbers", "--m", "3",
                           "--r", "2", "--nmax", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values == [dowling.r_dowling_number(3, 2, n) for n in range(4)]


def test_dowling_numbers_one_pass_and_no_cache(capsys, row_steps,
                                               triangle_steps):
    for _ in range(2):
        row_steps.clear()
        code, data, _ = run_json(capsys, "dowling", "numbers", "--m", "3",
                                 "--r", "5", "--nmax", "40")
        assert code == 0
        assert len(row_steps) == 40
    assert data["values"] == oracles.r_dowling_numbers(3, 5, 40)
    assert triangle_steps == []


@pytest.mark.parametrize("argv, name", [
    (["dowling", "numbers", "--m", "2", "--r", "3", "--nmax", "2001"],
     "nmax"),
    (["asym", "dowling", "--m", "2", "--r", "3", "--n", "2001",
      "--compare-exact"], "n"),
], ids=["dowling-numbers", "asym-compare-exact"])
def test_dowling_numbers_over_cap_exit_two(capsys, row_steps, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: need {name} <= 2000, the cap on exact "
                   "Dowling numbers\n")
    assert row_steps == []


def test_asym_without_exact_side_is_uncapped(capsys):
    code, data, _ = run_json(capsys, "asym", "dowling", "--m", "2",
                             "--r", "3", "--n", "100000")
    assert code == 0
    assert "log_exact" not in data


def test_dowling_numbers_past_int_str_digit_limit(capsys):
    # D_{1,r}(50) with r = 10**100 has about 5000 digits, more than the
    # interpreter's default int-to-str limit of 4300
    r = 10 ** 100
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "dowling", "numbers", "--m", "1",
                             "--r", "1" + "0" * 100, "--nmax", "50",
                             "--format", "csv")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 52
    last = lines[-1].split(",")
    assert last[0] == "50"
    assert len(last[1]) > 4300
    # Decimal reads the digits exactly; int(last[1]) would hit the limit
    assert Decimal(last[1]) == dowling.r_dowling_number(1, r, 50)


def test_dowling_table_round_trip_past_int_str_digit_limit(capsys):
    # W_{1,r}(50, 0) = r**50 with r = 10**100 has 5001 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(capsys, "dowling", "table", "--kind", "second",
                             "--m", "1", "--r", "1" + "0" * 100,
                             "--nmax", "50")
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    entry = next(line for line in out.splitlines()
                 if line.startswith("50,0,"))
    assert len(entry) == len("50,0,") + 5001
    header, rows = read_table(out)
    assert header == ["second", "1", "1" + "0" * 100]
    assert rows == list(dowling.whitney_second_rows(1, 10 ** 100, 50))


def test_asym_dowling(capsys):
    code, data, _ = run_json(capsys, "asym", "dowling", "--m", "1",
                             "--r", "1", "--n", "50", "--compare-exact")
    assert code == 0
    assert data["rel_err"].startswith("0.00715135")
    assert float(data["delta"]) > 0
    assert "log_exact" in data


def test_asym_dowling_without_compare(capsys):
    code, data, _ = run_json(capsys, "asym", "dowling", "--m", "2",
                             "--r", "3", "--n", "100", "--digits", "30")
    assert code == 0
    assert "rel_err" not in data
    assert float(data["g2"]) >= 50.0


@pytest.mark.parametrize("compare", [False, True], ids=["saddle", "exact"])
@pytest.mark.parametrize("m", [710, 1000])
def test_asym_dowling_past_the_float_exponent_range(capsys, m, compare):
    # e^m overflows a float from m = 710 on; the solver's range check
    # compares log n with m instead
    code, data, err = run_json(capsys, "asym", "dowling", "--m", str(m),
                               "--r", "1", "--n", "5",
                               *(["--compare-exact"] if compare else []))
    assert code == 0, err
    assert 0 < float(data["delta"]) < 5
    assert ("log_exact" in data) is compare


def test_asym_dowling_bad_arguments(capsys):
    code, _out, err = run_cli(capsys, "asym", "dowling", "--m", "0",
                              "--r", "1", "--n", "10")
    assert code == 2
    assert "error:" in err


def test_asym_dowling_low_digits(capsys):
    # a handful of digits is a valid request; none at all is bad input
    code, data, _ = run_json(capsys, "asym", "dowling", "--m", "1",
                             "--r", "1", "--n", "10", "--digits", "4")
    assert code == 0
    assert data["delta"] == "1.634"
    code, out, err = run_cli(capsys, "asym", "dowling", "--m", "1",
                             "--r", "1", "--n", "10", "--digits", "0")
    assert code == 2 and out == ""
    assert err == "error: need m >= 1, r >= 1, n >= 1, digits >= 1\n"


def test_asym_dowling_digits_over_cap_exit_two(capsys):
    code, out, err = run_cli(capsys, "asym", "dowling", "--m", "1",
                             "--r", "1", "--n", "50", "--digits", "1001")
    assert code == 2 and out == ""
    assert err == "error: need digits <= 1000, the cap on working precision\n"


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["dowling", "table", "--kind", "first"])
    assert exc.value.code == 2


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "lattice-check", "dowling:2:2")
    _, second, _ = run_cli(capsys, "lattice-check", "dowling:2:2")
    assert first == second


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        geomsieve.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "geomsieve.cli", "--help"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "lattice-check" in proc.stdout


def test_lattice_check_refuses_a_huge_non_simple_uniform_at_once():
    # U_{1,10^9}: sweeping its flats would take hours
    src = os.path.dirname(os.path.dirname(os.path.abspath(generators.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "geomsieve.cli", "lattice-check",
         "uniform:1:1000000000"], capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: <Matroid uniform n=1000000000> has loops "
                           "or parallel elements\n")
