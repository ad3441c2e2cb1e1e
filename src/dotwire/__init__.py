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

from .entanglement import (
    ConcurrenceCell,
    PhasePoint,
    ProjectedState,
    concurrence_map,
    high_c_curve,
    phase_scan,
    project_state,
)
from .errors import (
    BandwidthTooWide,
    ConfigError,
    DotwireError,
    EmptyProjection,
    GridTooCoarse,
    NoMinimumInBracket,
    NoPeakInBracket,
    NotConverged,
    PopulationUnderflow,
    SingularSystem,
    StepTooLarge,
    TangentPole,
)
from .model import (
    GAMMA_PL,
    G_COUPLING,
    V_G,
    ModelParams,
    ScatteringSolution,
    relation_residual,
    solve_single_dot,
    solve_two_dot,
    superradiant_rate,
)
from .spectra import (
    PeakRecord,
    SpectrumRow,
    peak_position_curve,
    reflection_minimum,
    reflection_peak,
    sweep_detuning,
)

# lattice and storage load numpy; their names are imported on first use,
# so that the closed-form path starts without it
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
    # constants
    "GAMMA_PL",
    "G_COUPLING",
    "V_G",
    # scattering model
    "ModelParams",
    "ScatteringSolution",
    "solve_two_dot",
    "solve_single_dot",
    "superradiant_rate",
    "relation_residual",
    # spectra
    "SpectrumRow",
    "PeakRecord",
    "sweep_detuning",
    "reflection_peak",
    "reflection_minimum",
    "peak_position_curve",
    # entanglement
    "ProjectedState",
    "ConcurrenceCell",
    "PhasePoint",
    "project_state",
    "concurrence_map",
    "high_c_curve",
    "phase_scan",
    # lattice oracle
    "ModeGrid",
    "WavepacketSpec",
    "OracleResult",
    "NoJumpReport",
    "make_mode_grid",
    "uniform_mode_grid",
    "scattering_oracle",
    "gamma_pm",
    "no_jump_equivalence",
    # storage
    "StorageParams",
    "StorageRun",
    "MatchedPulse",
    "RetrievalResult",
    "storage_time_grid",
    "gaussian_input",
    "impedance_matched_pulse",
    "simulate_storage",
    "verify_population_identity",
    "retrieve",
    # errors
    "DotwireError",
    "ConfigError",
    "SingularSystem",
    "NoPeakInBracket",
    "NoMinimumInBracket",
    "TangentPole",
    "EmptyProjection",
    "GridTooCoarse",
    "StepTooLarge",
    "NotConverged",
    "PopulationUnderflow",
    "BandwidthTooWide",
]
