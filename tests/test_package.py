"""Package-level checks: what each module exports exists."""

import importlib
import pkgutil

import pytest

import reweight

MODULES = [importlib.import_module(f"reweight.{m.name}")
           for m in pkgutil.iter_modules(reweight.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_exporting_modules_found():
    assert {"reweight.core", "reweight.optim"} <= {
        m.__name__ for m in MODULES if hasattr(m, "__all__")}
