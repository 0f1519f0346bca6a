"""Every exported name resolves: a deletion must not leave a dangling
entry in the package's or any submodule's __all__."""

import importlib
import pkgutil

import pytest

import geomsieve

SUBMODULES = sorted(info.name for info in
                    pkgutil.iter_modules(geomsieve.__path__))


def test_package_exports_resolve():
    missing = [name for name in geomsieve.__all__
               if not hasattr(geomsieve, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"geomsieve.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
