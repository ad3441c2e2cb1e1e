"""The package namespace, built from each module's ``__all__``."""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

import pytest

import dotwire

# lattice names that stay behind their module: its internal building blocks
_NOT_EXPORTED = {"LatticeSystem", "build_hamiltonian", "evolve"}

# private names one module may import from a sibling: the closed-form
# kernel and its pair record, which spectra and entanglement share with
# model's solve
_SHARED_PRIVATE = {
    "model._amplitudes",
    "model._pair",
    "model._reflection_poles",
}


def test_no_name_is_exported_twice():
    # under the star imports a name in two modules' __all__ would silently
    # shadow the other; here it shows as a repeated entry
    assert len(dotwire.__all__) == len(set(dotwire.__all__))


def test_lazy_names_are_exported_by_their_module():
    for name, module in dotwire._LAZY.items():
        assert name in import_module(f"dotwire.{module}").__all__, name


def test_every_lazy_module_name_is_served():
    # a name missing from _LAZY is not exported, and nothing else says so
    for module in ("lattice", "storage"):
        for name in import_module(f"dotwire.{module}").__all__:
            if name not in _NOT_EXPORTED:
                assert dotwire._LAZY.get(name) == module, name


def test_only_the_kernel_crosses_between_modules_privately():
    imported = set()
    for path in Path(dotwire.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported.update(
                    f"{node.module}.{alias.name}" for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__")
                )
    assert imported == _SHARED_PRIVATE


def test_version_matches_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        version = tomllib.load(handle)["project"]["version"]
    assert version == dotwire.__version__


@pytest.mark.parametrize("record, fields", [
    (dotwire.SpectrumRow, ("delta", "T", "R", "Loss")),
    (dotwire.PeakRecord, ("kd", "delta_peak", "R_peak", "with_sr")),
    (dotwire.ConcurrenceCell, ("kd", "delta", "concurrence", "theta")),
    (dotwire.PhasePoint, ("delta", "kd", "theta", "concurrence")),
])
def test_result_records_are_immutable_tuples(record, fields):
    assert record._fields == fields
    values = (0.5, -1.25, 0.75, 2.0)
    built = record(*values)
    assert built == record(**dict(zip(fields, values))) == values
    assert [getattr(built, name) for name in fields] == list(values)
    assert record.__doc__ and not record.__doc__.startswith(record.__name__)
    assert not hasattr(built, "__dict__")
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(built, name, 1.0)

