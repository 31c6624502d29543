"""Every name that a `chatelet` module lists in ``__all__`` exists, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import chatelet

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(chatelet.__path__, "chatelet."))


def test_modules_with_exports_are_found():
    exporting = [name for name in MODULES
                 if hasattr(importlib.import_module(name), "__all__")]
    assert {"chatelet.bundle", "chatelet.local", "chatelet.quartic",
            "chatelet.surface"} <= set(exporting)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert len(set(exports)) == len(exports)
    assert [n for n in exports if not hasattr(module, n)] == []
