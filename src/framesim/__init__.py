"""Exact near-Clifford circuit sampler.

Compiles the deterministic Clifford structure of a circuit ahead of time
into a factored representation (offline Clifford frame, per-shot Pauli
frame, dense active array bounded by the peak active dimension), then
samples shots by interpreting a fixed bytecode schedule.
"""
from .analysis import (
    RateEstimate,
    RatioInterval,
    attenuation_model,
    ratio_credible_interval,
    t_fidelity_bound,
)
from .backend import (
    BytecodeProgram,
    CompileError,
    LocalizationResult,
    compile_circuit,
    localize,
    optimize_bytecode,
    plan_and_emit,
)
from .circuit import Circuit, CircuitError, Instruction, Rec, flatten, parse_circuit
from .hir import HirProgram, lower_to_hir, peephole_pass, schedule_pass
from .oracle import (
    DenseState,
    OracleError,
    dense_run,
    expand_factored,
    fidelity,
    pauli_frame_reference_sample,
)
from .pauli import (
    CliffordTableau,
    CompileStats,
    PauliString,
    frame_absorb,
)
from .runtime import (
    ShotRecord,
    ShotState,
    StratumSpec,
    expectation_probe,
    hazard_sample,
    poisson_binomial,
    run_shot,
    sample,
    sample_accumulate,
)

__all__ = [
    "BytecodeProgram", "Circuit", "CircuitError", "CliffordTableau",
    "CompileError", "CompileStats", "DenseState", "HirProgram", "Instruction",
    "LocalizationResult", "OracleError", "PauliString", "RateEstimate",
    "RatioInterval", "Rec", "ShotRecord", "ShotState", "StratumSpec",
    "attenuation_model", "compile_circuit", "dense_run",
    "expand_factored", "expectation_probe", "fidelity", "flatten",
    "frame_absorb", "hazard_sample",
    "localize", "lower_to_hir", "optimize_bytecode", "parse_circuit",
    "pauli_frame_reference_sample", "peephole_pass",
    "plan_and_emit", "poisson_binomial", "ratio_credible_interval",
    "run_shot", "sample", "sample_accumulate", "schedule_pass",
    "t_fidelity_bound",
]

__version__ = "0.1.0"
