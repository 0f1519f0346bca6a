"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import geomsieve
from geomsieve import dowling, generators, poset
from geomsieve.cli import main
from geomsieve.poset import lattice_from_json, lattice_to_json
from geomsieve.sieve import sieve_instance_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


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
    n = generators.DEFAULT_CAP + 1
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
    tri = dowling.triangle_from_csv(out)
    expected = dowling.whitney_second_table(2, 1, 4)
    for n in range(5):
        for k in range(n + 1):
            assert tri.value(n, k) == expected.value(n, k)


def test_dowling_table_out_file(capsys, tmp_path):
    path = tmp_path / "tri.csv"
    code, out, _ = run_cli(capsys, "dowling", "table", "--kind", "first",
                           "--m", "3", "--nmax", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    tri = dowling.triangle_from_csv(path.read_text(encoding="utf-8"))
    assert tri.value(2, 0) == dowling.whitney_first_table(3, 2).value(2, 0)


@pytest.mark.parametrize("kind", ["first", "second"])
def test_dowling_table_negative_nmax_exits_two(capsys, kind):
    code, out, err = run_cli(capsys, "dowling", "table", "--kind", kind,
                             "--m", "2", "--nmax", "-1")
    assert code == 2 and out == ""
    assert err == "error: need n_max >= 0\n"


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


def test_dowling_build_refused_before_any_triangle_row(capsys, tmp_path):
    path = tmp_path / "never.json"
    before = {key: len(rows) for key, rows in dowling._second_cache.items()}
    code, _out, err = run_cli(capsys, "dowling", "build", "--n", "1500",
                              "--m", "2", "--out", str(path))
    assert code == 2
    assert "over the cap 5000" in err, err
    assert not path.exists()
    after = {key: len(rows) for key, rows in dowling._second_cache.items()}
    assert after == before


def test_dowling_conv(capsys):
    code, data, _ = run_json(capsys, "dowling", "conv", "--m", "1",
                             "--n", "1", "--t", "1", "--s", "2")
    assert code == 0
    assert data["value"] == 4
    assert data["agree"] is True
    assert data["via_series"] == 4
    assert data["via_shifted_triangle"] == 4


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
    tri = dowling.triangle_from_csv(out)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert tri == dowling.whitney_second_table(1, 10 ** 100, 50)


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
