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
    brun,
    dowling,
    generators,
    matroid,
    poset,
    scopes,
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
        assert "mpmath" not in _loaded_after(statement)

    loaded = _cli_loaded(["lattice-check", "boolean:3"], 0)
    assert {"geomsieve.cli", "geomsieve.brun"} <= loaded
    assert sorted((HEAVY | NOT_RUN | {"mpmath"}) & loaded) == []

    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(poset.lattice_to_json(
        generators.parse_named("partition:4"))), encoding="utf-8")
    for argv, code in ((["lattice-check", str(path)], 0),
                       (["lattice-check", "boolean:40"], 2),
                       (["lattice-check", "uniform:20:40"], 2)):
        loaded = _cli_loaded(argv, code)
        assert sorted((HEAVY | NOT_RUN) & loaded) == [], argv

    # sizing a dowling: name takes the triangle rows from dowling
    loaded = _cli_loaded(["lattice-check", "dowling:1500:2"], 2)
    assert "geomsieve.dowling" in loaded
    assert sorted({"dataclasses", "inspect", "csv"} & loaded) == []

    # matroid names build their flats with matroid and nothing heavier
    for name in ("uniform:3:6", "graphic:k4"):
        loaded = _cli_loaded(["lattice-check", name], 0)
        assert "geomsieve.matroid" in loaded
        assert sorted(HEAVY & loaded) == [], name


def test_scopes_partition_the_checks():
    named = [name for scope, names in scopes.SCOPES.items()
             if scope != "all" for name in names]
    assert sorted(named) == scopes.SCOPES["all"] == sorted(verify.CHECKS)


def test_record_types_are_frozen_values():
    # What callers rely on in the result records: the dataclass-style
    # repr, equality and hashing by value, no assignment, pickling.
    chk = poset.GeometricCheck(False, "NotAtomistic", (2,))
    report = brun.BrunReport(whitney_first=(1, -2, 1),
                             partial_sums=(1, -1, 0))
    tri = dowling.whitney_first_table(2, 1)
    assert repr(chk) == ("GeometricCheck(ok=False, failure='NotAtomistic', "
                         "witness=(2,))")
    assert repr(poset.GeometricCheck(True)) == (
        "GeometricCheck(ok=True, failure=None, witness=None)")
    assert repr(report) == ("BrunReport(whitney_first=(1, -2, 1), "
                            "partial_sums=(1, -1, 0))")
    assert repr(tri) == ("WhitneyTriangle(kind='first', m=2, r=1, n_max=1, "
                         "rows=((1,), (-1, 1)))")
    for record, field, other in [
            (chk, "witness", poset.GeometricCheck(False, "NotAtomistic", (3,))),
            (report, "partial_sums", brun.BrunReport((1, -2, 1), (1, -1, 1))),
            (tri, "rows", dowling.whitney_second_table(2, 1, 1))]:
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

    # Mobius tables and characteristic polynomials are plain tuples.
    lat = generators.parse_named("boolean:3")
    for x in range(lat.n_elems):
        table = lat.mobius_table(x)
        assert type(table) is tuple and len(table) == lat.n_elems
    signs = tuple((-1) ** r for r in lat.rank)
    assert lat.mobius_table(lat.bottom) == signs
    assert matroid.char_poly(matroid.Matroid.uniform(2, 3)) == (1, -3, 2)
    assert lat.is_geometric() == poset.GeometricCheck(True)
