"""Every public name the package advertises exists, so a stale ``__all__``
entry left after a deletion fails here rather than in a user's import."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import chaosgamma

MODULES = sorted(m.name for m in pkgutil.iter_modules(chaosgamma.__path__))


def test_the_package_modules_are_found():
    assert {"gamma", "polynomials", "stein"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"chaosgamma.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from chaosgamma.{name} import *", {})


def test_every_public_package_name_resolves():
    public = [n for n in dir(chaosgamma) if not n.startswith("_")]
    assert "solve" in public
    assert [n for n in public if getattr(chaosgamma, n, None) is None] == []
