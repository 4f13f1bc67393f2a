"""The benchmark's traced run wraps package functions by name; each name must
exist, or the traced run fails where the untraced one passes."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    missing = [
        f"chaosgamma.{mod}.{name}"
        for mod, names in traced_cli.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"chaosgamma.{mod}"), name, None))
    ]
    assert traced_cli.TRACED and not missing
