"""Every ``repro`` module imports, the ``__main__`` entry points included.

A module-scope import of a module that no longer exists then fails here,
in the tier-1 run, instead of only when someone runs that CLI.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_submodule_imports():
    failures = []
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.",
                                                   onerror=failures.append)]
    assert "repro.obs.__main__" in names  # the walk sees the entry points
    for name in names:
        try:
            importlib.import_module(name)
        except Exception as exc:  # report every broken module, not the first
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
