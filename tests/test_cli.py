"""End-to-end tests of the command-line interface."""

import ast
import csv
import gc
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from decimal import Decimal

import pytest

import geomsieve
from geomsieve import cli, dowling, errors, generators, poset, sieve, verify
from geomsieve.cli import main
from geomsieve.poset import _exact_digits, lattice_from_json, lattice_to_json
from geomsieve.sieve import sieve_instance_to_json

import oracles
from test_kernels import ZOO
from test_sieve import overcounting_bottom


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
    # A cover entry is checked by build_lattice, under the contract of
    # every source, and named by its index in the list.
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice-check", str(path))
    assert code == 2 and out == ""
    if field.startswith('"covers"['):
        entry = field.replace('"', "")
        assert err.startswith(f"error: {entry} must be a pair of integers, "
                              "not ")
    else:
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


@pytest.mark.parametrize("name, field", [
    ("boolean:x", "x"), ("partition:4.0", "4.0"), ("chain:", ""),
    ("divisor:six", "six"), ("dowling:x:2", "x"), ("dowling:3:y", "y"),
    ("uniform:k:6", "k"), ("uniform:2:n", "n")])
def test_non_integer_generator_field_refused_by_name(capsys, name, field):
    code, out, err = run_cli(capsys, "lattice-check", name)
    assert (code, out) == (2, "")
    assert err == f"error: {name}: {field!r} is not an integer\n"


def test_integer_generator_fields_read_as_before(capsys):
    code, data, _ = run_json(capsys, "lattice-check", "boolean:02")
    assert (code, data["n"]) == (0, 4)
    code, _out, err = run_cli(capsys, "lattice-check", "dowling:06:3",
                              "--cap-elements", "100")
    assert (code, err) == (
        2, "error: dowling:6:3 has at least 214 elements, over the cap 100\n")
    # an integer past the int-to-str digit limit is refused by its
    # digit count: it is an integer, only too long to read
    code, _out, err = run_cli(capsys, "lattice-check", "boolean:" + "1" * 5000)
    assert (code, err) == (
        2, "error: boolean name has a 5000-digit field, past the "
           f"{sys.get_int_max_str_digits()}-digit limit on integers\n")


@pytest.mark.parametrize("pattern", [
    "boolean:{}", "partition:{}", "chain:{}", "divisor:{}", "dowling:{}:2",
    "dowling:3:{}", "uniform:{}:6", "uniform:2:{}"])
def test_generator_field_past_the_digit_limit_refused_by_size(capsys,
                                                              pattern):
    digits = sys.get_int_max_str_digits() + 700
    code, out, err = run_cli(capsys, "lattice-check",
                             pattern.format("1" * digits))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Exceeds" not in err and "1" * 20 not in err
    assert f" a {digits}-digit field" in err


@pytest.mark.parametrize("limit", [None, 0])  # 0 turns the limit off
@pytest.mark.parametrize("field", ["+-5", "²", "+-" + "1" * 5000])
def test_malformed_digit_field_is_not_past_the_limit(capsys, field, limit):
    # int()'s own refusal, whatever the limit and the length of the run
    old = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        with pytest.raises(ValueError) as exc:
            int(field)
        code, _out, err = run_cli(capsys, "lattice-check", "boolean:" + field)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(exc.value).startswith("invalid literal for int()")
    assert (code, err) == (2, f"error: {exc.value}\n")


def test_lattice_check_unknown_graph(capsys):
    code, out, err = run_cli(capsys, "lattice-check", "graphic:k6")
    assert (code, out, err) == (2, "", "error: unknown graph 'k6'\n")


def test_lattice_check_not_file_not_generator(capsys):
    code, _out, err = run_cli(capsys, "lattice-check", "no-such-thing")
    assert code == 2
    assert "neither" in err


def test_lattice_check_cap(capsys):
    code, _out, err = run_cli(capsys, "lattice-check", "boolean:7",
                              "--cap-elements", "10")
    assert code == 2


def test_sieve_run_on_a_non_geometric_interval_fails_the_check(capsys,
                                                             tmp_path):
    # the atomistic non-semimodular lattice of the sieve tests, with tau
    # the top: the main term needs [bottom, tau] geometric
    covers = [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [2, 5], [3, 5],
              [4, 6], [5, 6]]
    path = tmp_path / "not-semimodular.json"
    path.write_text(json.dumps({"lattice": {"n": 7, "covers": covers},
                                "A": "all", "T": [1, 2, 3],
                                "f": ["1"] * 4, "X": "1"}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "sieve-run", str(path))
    assert (code, out) == (1, "")
    assert err == ("check failed: [bottom, tau] fails NotSemimodular "
                   "at (1, 3)\n")


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


def test_sieve_run_forms_the_whitney_row_once(capsys, tmp_path, monkeypatch):
    inst = dowling.dowling_sieve_instance(3, 2, 3)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sieve_instance_to_json(
        inst, lattice_name="dowling:3:2")), encoding="utf-8")
    rows = []
    whitney = sieve._interval_whitney
    monkeypatch.setattr(sieve, "_interval_whitney",
                        lambda inst: rows.append(inst.tau) or whitney(inst))
    code, data, _ = run_json(capsys, "sieve-run", str(path))
    assert (code, len(rows)) == (0, 1)
    # the values the public functions give one at a time
    assert data["main_term"] == str(sieve.sieve_main_term(inst))
    assert data["error_bound"] == str(sieve.sieve_error_bound(inst))
    assert len(rows) == 3


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


@pytest.mark.parametrize("cutoff", [[], ["--cutoff", "all"]],
                         ids=["default", "all"])
def test_sieve_run_fails_when_the_walk_misses_the_exact_count(
        capsys, tmp_path, monkeypatch, cutoff):
    # with the exact count one too high, the walk's whole sum (the last
    # bounds, both at the default cutoff and in the profile) misses it:
    # the JSON is printed with sandwich_ok false and the exit code is 1
    inst = dowling.dowling_sieve_instance(3, 2, 3)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sieve_instance_to_json(
        inst, lattice_name="dowling:3:2")), encoding="utf-8")
    exact = sieve.sifted_count_exact(inst)
    monkeypatch.setattr(sieve, "sifted_count_exact",
                        lambda inst: exact + 1)
    code, data, _ = run_json(capsys, "sieve-run", str(path), *cutoff)
    assert (code, data["sandwich_ok"]) == (1, False)
    assert (data["sifted_count"], data["lower"], data["upper"]) == \
        (exact + 1, exact, exact)


def test_sieve_run_reports_a_failed_walk_check(capsys, tmp_path,
                                              monkeypatch):
    # a walk whose rank sums miss the sifted count is a failed check
    # (exit 1), as a non-geometric [bottom, tau] is, not an input error
    inst = dowling.dowling_sieve_instance(3, 2, 3)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(sieve_instance_to_json(
        inst, lattice_name="dowling:3:2")), encoding="utf-8")
    overcounting_bottom(monkeypatch)
    exact = sieve.sifted_count_exact(inst)
    code, out, err = run_cli(capsys, "sieve-run", str(path))
    assert (code, out) == (1, "")
    assert err == (f"check failed: the rank sums add up to {exact + 1}, "
                   f"not to the sifted count {exact}\n")


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


# --help at every level of the command table, and what it must name
HELP_NAMES = {
    (): ["lattice-check", "sieve-run", "verify-all", "dowling", "asym"],
    ("lattice-check",): ["source", "--cap-elements", "--format"],
    ("sieve-run",): ["path", "--cutoff", "--cap-elements", "--format"],
    ("verify-all",): ["--scope", "--fast", "--format"],
    ("dowling",): ["table", "build", "conv", "numbers"],
    ("dowling", "table"): ["--kind", "--m", "--r", "--nmax", "--out"],
    ("dowling", "build"): ["--n", "--m", "--out", "--cap-elements"],
    ("dowling", "conv"): ["--m", "--n", "--t", "--s", "--format"],
    ("dowling", "numbers"): ["--m", "--r", "--nmax", "--format"],
    ("asym",): ["dowling"],
    ("asym", "dowling"): ["--m", "--r", "--n", "--compare-exact", "--digits",
                          "--format"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", HELP_NAMES,
                         ids=lambda command: " ".join(command) or "top")
def test_help_at_every_level(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([*command, flag])
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (0, "")
    assert out.startswith(" ".join(["usage: geomsieve", *command, "[-h]"]))
    words = {word.strip("[]") for word in out.split()}
    assert sorted(set(HELP_NAMES[command]) - words) == []


# One argv per class of usage error, with the error line argparse wrote
# for it; the line before it is the usage of the same command.
USAGE_ERRORS = {
    "no command": (
        [], "geomsieve: error: the following arguments are required: command"),
    "unknown command": (
        ["no-such-command"],
        "geomsieve: error: argument command: invalid choice: "
        "'no-such-command' (choose from 'lattice-check', 'sieve-run', "
        "'verify-all', 'dowling', 'asym')"),
    "no subcommand": (
        ["dowling"], "geomsieve dowling: error: the following arguments are "
        "required: dowling_command"),
    "unknown subcommand": (
        ["asym", "x"], "geomsieve asym: error: argument asym_command: invalid "
        "choice: 'x' (choose from 'dowling')"),
    "unknown option": (
        ["lattice-check", "boolean:2", "--bogus"],
        "geomsieve: error: unrecognized arguments: --bogus"),
    "option missing its value": (
        ["lattice-check", "boolean:2", "--format"],
        "geomsieve lattice-check: error: argument --format: expected one "
        "argument"),
    "missing required option": (
        ["dowling", "table", "--kind", "first"],
        "geomsieve dowling table: error: the following arguments are "
        "required: --m, --nmax"),
    "missing positional": (
        ["lattice-check", "--format", "text"],
        "geomsieve lattice-check: error: the following arguments are "
        "required: source"),
    "bad int": (
        ["dowling", "conv", "--m", "x", "--n", "1", "--t", "1", "--s", "2"],
        "geomsieve dowling conv: error: argument --m: invalid int value: 'x'"),
    "bad choice": (
        ["verify-all", "--scope", "nope"],
        "geomsieve verify-all: error: argument --scope: invalid choice: "
        "'nope' (choose from 'all', 'asym', 'dowling', 'lattice', 'matroid', "
        "'sequences', 'sieve')"),
    "extra positional": (
        ["lattice-check", "boolean:2", "extra"],
        "geomsieve: error: unrecognized arguments: extra"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_lines(capsys, case):
    argv, line = USAGE_ERRORS[case]
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: " + line.split(": error: ")[0] + " [-h]")
    assert error == line


@pytest.mark.parametrize("option", ["--cap", "--cap-element", "--form",
                                    "--no-such-option"])
def test_only_exact_option_names_are_options(capsys, option):
    # argparse read an unambiguous prefix such as --cap as --cap-elements;
    # now a prefix is an unrecognized argument like any unknown option
    with pytest.raises(SystemExit) as info:
        main(["lattice-check", "boolean:3", option, "9"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"geomsieve: error: unrecognized arguments: {option} 9")


def test_option_values_read_as_before(capsys):
    text = run_cli(capsys, "lattice-check", "boolean:2", "--format", "text")
    assert text[0] == 0 and text[1].startswith("brun_ok: True")
    # --name=value; the last repeat wins; options before a positional
    for argv in (["boolean:2", "--format=text"],
                 ["boolean:2", "--format", "json", "--format", "text"],
                 ["--format", "text", "boolean:2"]):
        assert run_cli(capsys, "lattice-check", *argv) == text
    # a value that starts with "-" is read as the option's value
    assert run_cli(capsys, "dowling", "table", "--kind", "second",
                   "--m", "-1", "--nmax", "2") == (
        2, "", "error: need m >= 1 and r >= 0\n")
    # a flag takes no value
    with pytest.raises(SystemExit) as info:
        main(["verify-all", "--fast=yes"])
    assert info.value.code == 2


def test_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "lattice-check", "dowling:2:2")
    _, second, _ = run_cli(capsys, "lattice-check", "dowling:2:2")
    assert first == second


def child_env():
    """A CLI child's environment: the source tree on the path, and
    PYTHONUNBUFFERED removed, so that stdout into a pipe or a file is
    block-buffered as in a plain shell and a missing flush shows."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        geomsieve.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def spawn_cli(*argv, stdout=subprocess.PIPE, timeout=120):
    """``python -m geomsieve.cli ARGV`` in a fresh process; bytes out."""
    return subprocess.run(
        [sys.executable, "-m", "geomsieve.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, timeout=timeout, env=child_env())


def test_module_entry_point():
    proc = spawn_cli("--help")
    assert proc.returncode == 0
    assert b"lattice-check" in proc.stdout


def test_lattice_check_refuses_a_huge_non_simple_uniform_at_once():
    # U_{1,10^9}: sweeping its flats would take hours
    proc = spawn_cli("lattice-check", "uniform:1:1000000000", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == (b"error: <Matroid uniform n=1000000000> has loops "
                           b"or parallel elements\n")


# Every subcommand and the exit codes 0, 1 and 2; {tmp} is the test's
# temporary directory, which holds q22.json and inst.json.
PARITY_ARGV = {
    "lattice-check-name": (0, ["lattice-check", "boolean:3"]),
    "lattice-check-file": (0, ["lattice-check", "{tmp}/q22.json",
                               "--format", "text"]),
    "lattice-check-not-geometric": (1, ["lattice-check", "chain:3"]),
    "cap-refusal": (2, ["lattice-check", "boolean:13"]),
    "usage-error": (2, ["dowling", "table", "--kind", "first"]),
    "unknown-option": (2, ["lattice-check", "boolean:3", "--bogus"]),
    "help": (0, ["dowling", "table", "--help"]),
    "sieve-run": (0, ["sieve-run", "{tmp}/inst.json", "--cutoff", "all"]),
    "verify-all": (0, ["verify-all", "--fast", "--scope", "sieve",
                       "--format", "json"]),
    "dowling-table": (0, ["dowling", "table", "--kind", "second", "--m", "2",
                          "--nmax", "12"]),
    "dowling-numbers": (0, ["dowling", "numbers", "--m", "2", "--nmax", "10",
                            "--format", "csv"]),
    "dowling-conv": (0, ["dowling", "conv", "--m", "1", "--n", "1",
                         "--t", "1", "--s", "2"]),
    "dowling-build": (0, ["dowling", "build", "--n", "3", "--m", "2",
                          "--out", "{tmp}/q32.json"]),
    "asym-dowling": (0, ["asym", "dowling", "--m", "1", "--r", "1",
                         "--n", "40", "--compare-exact"]),
}


def _masked(out):
    return re.sub(rb'"seconds": [0-9.e-]+', b'"seconds": 0', out)


@pytest.mark.parametrize("name", PARITY_ARGV)
def test_process_entry_matches_main_in_process(capsys, tmp_path, name):
    expected, template = PARITY_ARGV[name]
    argv = [arg.format(tmp=tmp_path) for arg in template]
    (tmp_path / "q22.json").write_text(json.dumps(lattice_to_json(
        generators.parse_named("dowling:2:2"))), encoding="utf-8")
    inst = dowling.dowling_sieve_instance(3, 2, 3)
    (tmp_path / "inst.json").write_text(json.dumps(sieve_instance_to_json(
        inst, lattice_name="dowling:3:2")), encoding="utf-8")

    def files():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error or --help
        code = exc.code
    captured = capsys.readouterr()
    in_process = (code, _masked(captured.out.encode()),
                  captured.err.encode(), files())
    proc = spawn_cli(*argv)
    assert in_process[0] == expected
    assert (proc.returncode, _masked(proc.stdout), proc.stderr,
            files()) == in_process


TABLE_200 = ["dowling", "table", "--kind", "second", "--m", "2",
             "--nmax", "200"]


def test_table_through_a_pipe_equals_its_out_file(tmp_path):
    path = tmp_path / "w2.csv"
    filed = spawn_cli(*TABLE_200, "--out", str(path))
    piped = spawn_cli(*TABLE_200)
    assert (filed.returncode, filed.stdout, filed.stderr) == (0, b"", b"")
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert len(piped.stdout) == 2_939_115  # far past a 64 KiB pipe buffer
    assert piped.stdout == path.read_bytes()


def test_dowling_build_leaves_a_complete_file(tmp_path):
    path = tmp_path / "q42.json"
    proc = spawn_cli("dowling", "build", "--n", "4", "--m", "2",
                     "--out", str(path))
    lat = generators.parse_named("dowling:4:2")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == f"wrote {lat.n_elems} elements to {path}\n".encode()
    assert path.read_text(encoding="utf-8") == \
        json.dumps(lattice_to_json(lat)) + "\n"


def test_pipe_closed_by_the_reader_exits_two():
    with subprocess.Popen(
            [sys.executable, "-m", "geomsieve.cli", *TABLE_200],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env()) as proc:
        assert proc.stdout.read(1) == b"k"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_flush_at_exit_is_reported_by_the_interpreter():
    # the answer fits the buffer, so the first write to /dev/full is the
    # flush after main() returns: the entry leaves the normal way, and
    # the interpreter reports the failure with its own exit code 120
    with open("/dev/full", "wb") as full:
        proc = spawn_cli("lattice-check", "boolean:3", stdout=full)
    assert proc.returncode == 120
    assert proc.stderr.startswith(b"Exception ignored in: <_io.TextIOWrapper "
                                  b"name='<stdout>'")
    assert proc.stderr.endswith(
        b"OSError: [Errno 28] No space left on device\n")


@pytest.fixture
def collector():
    """Restore the cyclic collector's setting after the test."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_finds_it(capsys, collector,
                                                  enabled):
    (gc.enable if enabled else gc.disable)()
    assert main(["lattice-check", "boolean:3"]) == 0
    assert main(["lattice-check", "chain:3"]) == 1
    assert gc.isenabled() is enabled


def test_run_turns_the_collector_off(capsys, collector, monkeypatch):
    gc.enable()
    exits = []
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    monkeypatch.setattr(sys, "argv", ["geomsieve", "lattice-check",
                                      "boolean:3"])
    assert cli.run() is None
    assert exits == [0]
    assert gc.isenabled() is False
    assert json.loads(capsys.readouterr().out)["geometric"] is True


def test_commands_leave_the_collector_nothing_to_free(capsys, collector,
                                                      tmp_path):
    # the premise of run()'s gc.disable(): with the collector off, a full
    # verify-all and lattice-check on a non-lattice (a bowtie) and on a
    # non-semimodular lattice (the dual of partition:4) make no reference
    # cycle.  The one cycle left is the JSON encoder's own: json.dump
    # with an indent builds nested closures for each call, as many
    # objects as a bare json.dump leaves
    bowtie = tmp_path / "bowtie.json"
    bowtie.write_text(json.dumps({"n": 6, "covers": [
        [0, 1], [0, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 5], [4, 5]]}),
        encoding="utf-8")
    pi4 = lattice_to_json(generators.parse_named("partition:4"))
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"n": pi4["n"], "covers": [
        [y, x] for x, y in pi4["covers"]]}), encoding="utf-8")
    gc.disable()

    def garbage(call, *args):
        gc.collect()
        call(*args)
        return gc.collect()

    encoder = garbage(lambda: json.dump({"n": 1}, io.StringIO(), indent=2))
    assert garbage(lambda: all(r.ok for r in verify.run_checks())) == 0
    assert garbage(main, ["lattice-check", str(bowtie)]) == 0
    assert "have no join" in capsys.readouterr().err
    text = ["lattice-check", str(dual), "--format", "text"]
    assert garbage(main, text) == 0
    assert "failure: NotSemimodular" in capsys.readouterr().out
    assert garbage(main, ["lattice-check", str(dual)]) == encoder
    assert json.loads(capsys.readouterr().out)["failure"] == "NotSemimodular"


def test_console_script_is_the_entry_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["geomsieve"]
    module, name = target.split(":")
    entry = getattr(importlib.import_module(module), name)
    tree = ast.parse(inspect.getsource(cli))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    called = {node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {name}
    assert entry is cli.run
