"""Every ``__all__`` of the package names something that exists.

A name removed from a module but left in its ``__all__`` breaks
``from module import *`` and misleads readers; this walks every module
of :mod:`repro` and resolves each exported name.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    # Importing the entry point would run the CLI.
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
