"""Package-wide checks on the public names."""

import importlib
import pkgutil

import arecorr


def test_every_name_in_each_modules_all_resolves() -> None:
    names = ["arecorr"] + [f"arecorr.{m.name}" for m in pkgutil.iter_modules(arecorr.__path__)]
    assert "arecorr.are_bounds" in names and "arecorr.corrmath" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined {missing}"
