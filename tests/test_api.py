"""The public API lives in the submodules: every name in a submodule's
__all__ resolves, and the package itself re-exports nothing, so a
submodule import loads only what that submodule needs.  mpmath is
loaded only when an asymptotic is computed."""

import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import geomsieve
from geomsieve import (
    asym,
    brun,
    generators,
    matroid,
    poset,
    scopes,
    sieve,
    verify,
)

SUBMODULES = sorted(info.name for info in
                    pkgutil.iter_modules(geomsieve.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"geomsieve.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def _loaded_after(statement):
    """Names in sys.modules after running statement in a fresh
    interpreter with only the source tree added to the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        geomsieve.__file__)))
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


# What the short CLI runs must not load: the record types use no
# dataclasses (and so no inspect), brun takes fractions only for a
# Fraction entry, and the CSV code of dowling loads csv when it runs.
HEAVY = {"dataclasses", "inspect", "fractions", "csv"}
# The command line is read from cli's own table: no argparse, nor the
# gettext and locale that argparse loads to build its parsers.
ARGPARSE = {"argparse", "gettext", "locale"}
NOT_RUN = {"geomsieve.verify", "geomsieve.sieve", "geomsieve.asym",
           "geomsieve.matroid", "geomsieve.dowling"}


def _cli_loaded(argv, code):
    """Modules loaded by a fresh-process cli.main(argv), which must
    return code."""
    return _loaded_after(
        "import contextlib, io\n"
        "from geomsieve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}")


def test_submodule_imports_load_only_what_they_need(tmp_path):
    loaded = _loaded_after("import geomsieve")
    assert sorted(m for m in loaded if m.startswith("geomsieve.")) == []

    loaded = _loaded_after("import geomsieve.poset, geomsieve.sieve")
    assert {"geomsieve.poset", "geomsieve.sieve"} <= loaded
    unneeded = {"mpmath", "geomsieve.asym", "geomsieve.verify",
                "geomsieve.matroid", "geomsieve.dowling", "geomsieve.cli"}
    assert sorted(unneeded & loaded) == []

    for statement in ("import geomsieve.cli", "import geomsieve.asym"):
        loaded = _loaded_after(statement)
        assert sorted(({"mpmath"} | ARGPARSE) & loaded) == [], statement

    loaded = _cli_loaded(["lattice-check", "boolean:3"], 0)
    assert {"geomsieve.cli", "geomsieve.brun"} <= loaded
    assert sorted((HEAVY | NOT_RUN | ARGPARSE | {"mpmath"}) & loaded) == []

    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(poset.lattice_to_json(
        generators.parse_named("partition:4"))), encoding="utf-8")
    for argv, code in ((["lattice-check", str(path)], 0),
                       (["lattice-check", "boolean:40"], 2),
                       (["lattice-check", "uniform:20:40"], 2)):
        loaded = _cli_loaded(argv, code)
        assert sorted((HEAVY | NOT_RUN | ARGPARSE) & loaded) == [], argv

    # sizing a dowling: name takes the triangle rows from dowling
    loaded = _cli_loaded(["lattice-check", "dowling:1500:2"], 2)
    assert "geomsieve.dowling" in loaded
    assert sorted({"dataclasses", "inspect", "csv"} & loaded) == []

    # sieve-run reads its exact values with fractions, and nothing
    # heavier: the instance is a namedtuple
    path = tmp_path / "sieve.json"
    path.write_text(json.dumps({"lattice": "boolean:3", "A": "all",
                                "T": [1, 2], "f": [0, 0, 0, 1], "X": 1}),
                    encoding="utf-8")
    loaded = _cli_loaded(["sieve-run", str(path), "--cutoff", "all"], 0)
    assert "geomsieve.sieve" in loaded
    assert sorted((HEAVY - {"fractions"}) & loaded) == []

    # matroid names build their flats with matroid and nothing heavier
    for name in ("uniform:3:6", "graphic:k4"):
        loaded = _cli_loaded(["lattice-check", name], 0)
        assert "geomsieve.matroid" in loaded
        assert sorted(HEAVY & loaded) == [], name

    # the asymptotic records and verify-all's results are namedtuples
    for argv in (["asym", "dowling", "--m", "1", "--r", "1", "--n", "50",
                  "--compare-exact"],
                 ["verify-all", "--fast", "--scope", "asym"]):
        loaded = _cli_loaded(argv, 0)
        assert {"geomsieve.asym", "mpmath"} <= loaded
        assert sorted({"dataclasses", "inspect"} & loaded) == [], argv

    # a refused precision is refused before mpmath is loaded
    loaded = _cli_loaded(["asym", "dowling", "--m", "1", "--r", "1",
                          "--n", "50", "--digits", "1001"], 2)
    assert "geomsieve.asym" in loaded and "mpmath" not in loaded


def test_scopes_partition_the_checks():
    named = [name for scope, names in scopes.SCOPES.items()
             if scope != "all" for name in names]
    assert sorted(named) == scopes.SCOPES["all"] == sorted(verify.CHECKS)


def test_run_checks_refuses_an_unknown_scope():
    with pytest.raises(ValueError) as info:
        verify.run_checks("nope")
    assert str(info.value) == (
        "unknown scope 'nope'; choose from ['all', 'asym', 'dowling', "
        "'lattice', 'matroid', 'sequences', 'sieve']")


def test_run_checks_reports_a_refusal_inside_a_check(monkeypatch):
    # with no Newton step allowed the saddle solver gives up, and the
    # check fails with the refusal in place of a detail
    monkeypatch.setattr(asym, "_NEWTON_STEPS", 0)
    [result] = verify.run_checks("asym", fast=True)
    assert result[:3] == ("saddle-asymptotics", False,
                          "error: Newton budget exhausted")


def test_record_types_are_frozen_values():
    # What callers rely on in the result records: the dataclass-style
    # repr, equality and hashing by value, no assignment, pickling.
    chk = poset.GeometricCheck(False, "NotAtomistic", (2,))
    report = brun.BrunReport(whitney_first=(1, -2, 1),
                             partial_sums=(1, -1, 0))
    assert repr(chk) == ("GeometricCheck(ok=False, failure='NotAtomistic', "
                         "witness=(2,))")
    assert repr(poset.GeometricCheck(True)) == (
        "GeometricCheck(ok=True, failure=None, witness=None)")
    assert repr(report) == ("BrunReport(whitney_first=(1, -2, 1), "
                            "partial_sums=(1, -1, 0))")
    result = verify.CheckResult("brun-zoo", True, "3 lattices", 0.5)
    assert repr(result) == ("CheckResult(name='brun-zoo', ok=True, "
                            "detail='3 lattices', seconds=0.5)")
    cmp_ = asym.compare_exact(1, 1, 10, digits=15)
    assert cmp_.saddle == asym.saddle_values(1, 1, 10, digits=15)
    assert repr(cmp_.saddle).startswith(
        "SaddleData(m=1, r=1, n=10, digits=15, delta=mpf('")
    assert repr(cmp_).startswith("AsymComparison(saddle=SaddleData(m=1, ")
    for record, field, other in [
            (chk, "witness", poset.GeometricCheck(False, "NotAtomistic", (3,))),
            (report, "partial_sums", brun.BrunReport((1, -2, 1), (1, -1, 1))),
            (result, "ok", result._replace(ok=False)),
            (cmp_.saddle, "delta", asym.saddle_values(1, 1, 11, digits=15)),
            (cmp_, "rel_err", asym.compare_exact(1, 2, 10, digits=15))]:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert copy is not record and record != other
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert copy == record
        with pytest.raises(AttributeError):
            record.extra = None
    assert bool(chk) is False and bool(poset.GeometricCheck(True)) is True

    # A sieve instance holds its lattice, which is compared by identity.
    # It pickles: the copy holds a lattice of its own with the same
    # covers and ranks, and the same fields.
    lat = generators.parse_named("boolean:2")
    inst = sieve.SieveInstance(lattice=lat, A=[0, 3], T=[1], f=[0, 0, 1],
                               X=2)
    same = sieve.SieveInstance(lat, (0, 3), (1,), (0, 0, 1), 2)
    assert repr(inst) == (
        "SieveInstance(lattice=<FiniteLattice n=4 rank=2>, A=(0, 3), "
        "T=(1,), f=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)), "
        "X=Fraction(2, 1), tau=1)")
    assert inst == same and hash(inst) == hash(same)
    assert inst != inst._replace(T=[2])
    for field in inst._fields:
        with pytest.raises(AttributeError):
            setattr(inst, field, None)
        with pytest.raises(AttributeError):
            delattr(inst, field)
    with pytest.raises(AttributeError):
        inst.extra = None
    assert inst == same
    copy = pickle.loads(pickle.dumps(inst))
    assert copy.lattice is not lat
    assert (copy.tau, copy.A, copy.T, copy.f, copy.X) == \
        (inst.tau, inst.A, inst.T, inst.f, inst.X)
    assert copy.lattice.covers == lat.covers
    assert copy.lattice.rank == lat.rank

    # Mobius tables and characteristic polynomials are plain tuples.
    lat = generators.parse_named("boolean:3")
    for x in range(lat.n_elems):
        table = lat.mobius_table(x)
        assert type(table) is tuple and len(table) == lat.n_elems
    signs = tuple((-1) ** r for r in lat.rank)
    assert lat.mobius_table(lat.bottom) == signs
    assert matroid.char_poly(matroid.Matroid.uniform(2, 3)) == (1, -3, 2)
    assert lat.is_geometric() == poset.GeometricCheck(True)
