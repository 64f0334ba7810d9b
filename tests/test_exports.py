"""Every tilekit module's ``__all__`` names things that exist, so a deleted
function cannot leave its name behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tilekit

MODULES = ["tilekit"] + [
    f"tilekit.{info.name}" for info in pkgutil.iter_modules(tilekit.__path__)
]


def test_every_module_is_listed():
    assert set(MODULES) >= {
        "tilekit.cli", "tilekit.constructions", "tilekit.gadgets", "tilekit.graphs",
        "tilekit.harness", "tilekit.solver", "tilekit.thresholds",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # graphs exports everything public
    assert len(exported) == len(set(exported)), "a name is listed twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
