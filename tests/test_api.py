"""The public API lives in the submodules: every name in a submodule's
__all__ resolves, and the package itself re-exports nothing, so a
submodule import loads only what that submodule needs.  mpmath is
loaded only when an asymptotic is computed."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import geomsieve

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


def test_submodule_imports_load_only_what_they_need():
    loaded = _loaded_after("import geomsieve")
    assert sorted(m for m in loaded if m.startswith("geomsieve.")) == []

    loaded = _loaded_after("import geomsieve.poset, geomsieve.sieve")
    assert {"geomsieve.poset", "geomsieve.sieve"} <= loaded
    unneeded = {"mpmath", "geomsieve.asym", "geomsieve.verify",
                "geomsieve.matroid", "geomsieve.dowling", "geomsieve.cli"}
    assert sorted(unneeded & loaded) == []

    for statement in ("import geomsieve.cli", "import geomsieve.asym"):
        assert "mpmath" not in _loaded_after(statement)

    loaded = _loaded_after(
        "import contextlib, io\n"
        "from geomsieve import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['lattice-check', 'boolean:3']) == 0")
    assert "geomsieve.cli" in loaded and "mpmath" not in loaded
