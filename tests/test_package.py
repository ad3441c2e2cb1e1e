"""The package namespace, built from each module's ``__all__``."""

from __future__ import annotations

from importlib import import_module

import dotwire


def test_no_name_is_exported_twice():
    # under the star imports a name in two modules' __all__ would silently
    # shadow the other; here it shows as a repeated entry
    assert len(dotwire.__all__) == len(set(dotwire.__all__))


def test_lazy_names_are_exported_by_their_module():
    for name, module in dotwire._LAZY.items():
        assert name in import_module(f"dotwire.{module}").__all__, name
