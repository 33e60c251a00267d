"""Shared helpers: dense replay of HIR programs for pass validation."""
from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from framesim.hir import (
    CondPauli,
    DetectorDef,
    HirProgram,
    Meas,
    NoiseEvent,
    ObservableDef,
    PostSelectOp,
    Rot,
)
from framesim.oracle import apply_pauli_dense, apply_tableau_dense, measure_pauli_dense
from framesim.rng import ShotRng


def hir_dense_replay(hir: HirProgram, fault_plan=None, outcome_plan=None, seed=0):
    """Evolve |0..0> through the HIR ops, then apply the final frame.

    Returns (vector, records dict, detectors dict, observables dict). Used to
    check that lowering and the optimization passes preserve semantics.
    """
    n = hir.n
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    rng = ShotRng(seed, 777)
    fault_plan = fault_plan or {}
    records: dict[int, int] = {}
    detectors: dict[int, int] = {}
    observables: dict[int, int] = {}
    for op in hir.ops:
        if isinstance(op, Rot):
            vec = (math.cos(op.angle) * vec
                   - 1j * math.sin(op.angle) * apply_pauli_dense(op.generator, vec))
        elif isinstance(op, Meas):
            forced = None if outcome_plan is None else outcome_plan.get(op.record)
            forced_w = None if forced is None else forced ^ op.flip
            vec, bit_w = measure_pauli_dense(vec, op.observable, rng, forced_w)
            records[op.record] = bit_w ^ op.flip
        elif isinstance(op, NoiseEvent):
            case = fault_plan.get(op.site)
            if case is not None:
                vec = apply_pauli_dense(op.cases[case][1], vec)
        elif isinstance(op, CondPauli):
            if records[op.record]:
                vec = apply_pauli_dense(op.pauli, vec)
        elif isinstance(op, DetectorDef):
            bit = 0
            for r in op.records:
                bit ^= records[r]
            detectors[op.index] = bit
        elif isinstance(op, ObservableDef):
            bit = 0
            for r in op.records:
                bit ^= records[r]
            observables[op.index] = observables.get(op.index, 0) ^ bit
        elif isinstance(op, PostSelectOp):
            pass
        else:
            raise AssertionError(f"unknown HIR op {op!r}")
    vec = apply_tableau_dense(hir.final_frame, vec)
    return vec, records, detectors, observables


@pytest.fixture
def pool_sizes(monkeypatch):
    """A stand-in for ``sample``'s fork pool: its jobs run in this process,
    so no process is started. Returns the list of the sizes of the pools
    started."""
    import multiprocessing

    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            return SimpleNamespace(get=lambda: fn(*args))

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    return sizes
