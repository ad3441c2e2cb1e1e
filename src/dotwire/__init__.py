"""Quantum emitters on a one-dimensional plasmonic waveguide.

Exact single-excitation scattering by two lossy emitters, the post-selected
two-qubit entanglement it generates, an independent time-domain lattice
oracle for verification, collective-decay analysis, and a metastable
storage protocol.

Quick start::

    import math
    from dotwire import ModelParams, solve_two_dot, project_state

    params = ModelParams(kd=math.pi / 4, delta=0.3, gamma_nr=0.05)
    sol = solve_two_dot(params)        # t, r, T, R, Loss, dot amplitudes
    state = project_state(sol)         # concurrence and relative phase
"""

from __future__ import annotations

from importlib import import_module

from . import entanglement, errors, model, spectra
from .entanglement import *
from .errors import *
from .model import *
from .spectra import *

# lattice and storage load numpy; their names are imported on first use,
# so that the closed-form path starts without it (LatticeSystem,
# build_hamiltonian and evolve are not exported)
_LAZY = {
    **dict.fromkeys((
        "ModeGrid",
        "NoJumpReport",
        "OracleResult",
        "WavepacketSpec",
        "gamma_pm",
        "make_mode_grid",
        "no_jump_equivalence",
        "scattering_oracle",
        "uniform_mode_grid",
    ), "lattice"),
    **dict.fromkeys((
        "MatchedPulse",
        "RetrievalResult",
        "StorageParams",
        "StorageRun",
        "gaussian_input",
        "impedance_matched_pulse",
        "retrieve",
        "simulate_storage",
        "storage_time_grid",
        "verify_population_identity",
    ), "storage"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *spectra.__all__,
    *entanglement.__all__,
    *_LAZY,
    *errors.__all__,
]
