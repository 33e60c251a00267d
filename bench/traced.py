"""Traced run: per-layer metrics, timed from outside the program.

The compile pipeline is called stage by stage and each stage is timed; the
VM is timed per instruction kind through ``run_shot(..., trace=cb)``. The
traced run has its own process, so tracing never touches the end-to-end
figures.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from framesim import (
    compile_circuit,
    flatten,
    lower_to_hir,
    optimize_bytecode,
    parse_circuit,
    peephole_pass,
    plan_and_emit,
    schedule_pass,
)
from framesim.hir import Rot
from framesim.runtime import ShotState, make_record, run_shot
from workloads import Checks, Workload, pack_records

# Instruction kinds grouped by what they touch. Every workload executes at
# least one kind of each group, so each group time is measured everywhere;
# the full per-kind split is in the run's report line.
KIND_GROUPS = {
    "frame": ("FrameGates", "CondFrame", "DetectorIns", "ObservableIns", "PostSelectIns"),
    "meas": ("MeasDormantStatic", "MeasDormantRandom", "MeasActive", "Retire", "MeasCollapse"),
    "noise": ("NoiseBlock",),
}

# The per-layer metrics of the result line, as BENCHMARK.json lists them.
PER_LAYER = {
    "circuit.parse_s": "s", "circuit.flatten_s": "s", "circuit.instructions": "count",
    "hir.lower_s": "s", "hir.peephole_s": "s", "hir.schedule_s": "s",
    "hir.ops_lowered": "count", "hir.ops_out": "count", "hir.rotations": "count",
    "hir.schedule_kept": "count",
    "backend.emit_s": "s", "backend.optimize_s": "s", "backend.instrs_emitted": "count",
    "backend.instrs": "count", "backend.k_max": "count", "backend.work": "count",
    "backend.noise_sites": "count",
    "runtime.reset_us": "us", "runtime.record_us": "us", "runtime.vm_us": "us",
    "runtime.frame_us": "us", "runtime.meas_us": "us", "runtime.noise_us": "us",
    "runtime.shot_us_p50": "us", "runtime.shot_us_p99": "us",
    "runtime.serial_shots_per_s": "shots/s", "runtime.parallel_eff": "ratio",
    "trace.overhead_frac": "ratio",
}

# Counts that must repeat exactly from one compile to the next.
STRUCTURAL = ("circuit.instructions", "hir.ops_lowered", "hir.ops_out", "hir.rotations",
              "hir.schedule_kept", "backend.instrs_emitted", "backend.instrs",
              "backend.k_max", "backend.work", "backend.noise_sites")


def staged_compile(text: str):
    """``compile_circuit(text)`` one stage at a time; returns the program,
    the seconds of each stage and the structural counts."""
    t0 = perf_counter()
    circ = parse_circuit(text)
    t1 = perf_counter()
    flat = flatten(circ)
    t2 = perf_counter()
    lowered = lower_to_hir(flat)
    t3 = perf_counter()
    peeped = peephole_pass(lowered)
    t4 = perf_counter()
    scheduled = schedule_pass(peeped)
    t5 = perf_counter()
    emitted = plan_and_emit(scheduled)
    t6 = perf_counter()
    prog = optimize_bytecode(emitted)
    t7 = perf_counter()
    seconds = {
        "circuit.parse_s": t1 - t0, "circuit.flatten_s": t2 - t1,
        "hir.lower_s": t3 - t2, "hir.peephole_s": t4 - t3, "hir.schedule_s": t5 - t4,
        "backend.emit_s": t6 - t5, "backend.optimize_s": t7 - t6,
    }
    counts = {
        "circuit.instructions": len(flat.instructions),
        "hir.ops_lowered": len(lowered.ops),
        "hir.ops_out": len(scheduled.ops),
        "hir.rotations": sum(isinstance(op, Rot) for op in scheduled.ops),
        "hir.schedule_kept": int(scheduled is not peeped),
        "backend.instrs_emitted": len(emitted.instrs),
        "backend.instrs": len(prog.instrs),
        "backend.k_max": prog.k_max,
        "backend.work": sum(getattr(ins, "size", 0) for ins in prog.instrs),
        "backend.noise_sites": len(prog.sites),
    }
    return prog, seconds, counts


def _per_call_s(fn, calls: int) -> float:
    """Median seconds per call of ``fn(i)`` over five batches."""
    per = []
    for _ in range(5):
        t0 = perf_counter()
        for i in range(calls):
            fn(i)
        per.append((perf_counter() - t0) / calls)
    return statistics.median(per)


def profile_vm(prog, seed: int, deadline: float) -> tuple[dict, dict]:
    """Per-shot time of reset, record and each instruction kind, plus untraced
    shot-time percentiles and the trace overhead.

    Blocks of untraced and traced shots alternate until ``deadline``. The
    callback only appends a timestamp; its own cost is calibrated and taken
    off every instruction interval.
    """
    state = ShotState(prog, seed=seed)
    instrs = prog.instrs
    stamps: list[float] = []

    def cb(_state, _ins, _append=stamps.append, _clock=perf_counter):
        _append(_clock())

    t0 = perf_counter()
    for shot in range(3):  # warm-up: dispatch closures, block plans
        run_shot(prog, state, shot=shot)
    block = max(1, min(200, int(0.15 / (perf_counter() - t0))))  # about 50 ms a block
    reps = max(1, 20_000 // len(instrs))
    loop_s = _per_call_s(lambda _: [None for _ins in instrs], reps)
    cb_s = _per_call_s(lambda _: [cb(state, ins) for ins in instrs], reps)
    cb_s = max(0.0, cb_s - loop_s) / len(instrs)
    stamps.clear()
    reset_s = _per_call_s(state.reset, 2000)
    run_shot(prog, state, shot=0)
    record_s = _per_call_s(lambda _: make_record(prog, state), 2000)

    untraced: list[float] = []
    traced_total = 0.0
    kind_s: dict[str, float] = defaultdict(float)
    traced_shots = executed = 0
    shot = 3
    while not untraced or perf_counter() < deadline:
        for _ in range(block):
            t0 = perf_counter()
            run_shot(prog, state, shot=shot)
            untraced.append(perf_counter() - t0)
            shot += 1
        for _ in range(block):
            stamps.clear()
            t0 = perf_counter()
            run_shot(prog, state, shot=shot, trace=cb)
            traced_total += perf_counter() - t0
            prev = t0 + reset_s  # the first interval also holds the reset
            for ins, t in zip(instrs, stamps):
                kind_s[type(ins).__name__] += t - prev - cb_s
                prev = t
            executed += len(stamps)
            traced_shots += 1
            shot += 1
    untraced_us = np.array(untraced) * 1e6
    mean_untraced = float(untraced_us.mean()) / 1e6
    mean_traced = traced_total / traced_shots - cb_s * executed / traced_shots
    kinds_us = {k: v / traced_shots * 1e6 for k, v in sorted(kind_s.items())}
    out = {
        "runtime.reset_us": reset_s * 1e6,
        "runtime.record_us": record_s * 1e6,
        "runtime.vm_us": sum(kinds_us.values()),
    }
    for group, members in KIND_GROUPS.items():
        out[f"runtime.{group}_us"] = sum(kinds_us.get(k, 0.0) for k in members)
    out["runtime.shot_us_p50"] = float(np.percentile(untraced_us, 50))
    out["runtime.shot_us_p99"] = float(np.percentile(untraced_us, 99))
    out["trace.overhead_frac"] = (mean_traced - mean_untraced) / mean_untraced
    details = {"kinds_us": kinds_us, "callback_us": cb_s * 1e6,
               "untraced_shots": len(untraced), "traced_shots": traced_shots}
    return out, details


def run_traced(wl: Workload, rng: np.random.Generator, seconds: float, workers: int) -> dict:
    """Per-layer metrics of one workload; ``seconds`` is split between the
    compile stages, the VM profile and the worker-pool comparison. The
    workload's reference check runs last, outside the timed phases."""
    start = perf_counter()
    checks = Checks()
    attempted = 0

    stage_s: dict[str, list] = defaultdict(list)
    counts_seen: list[dict] = []
    fingerprints = set()
    while len(counts_seen) < 3 or perf_counter() < start + 0.3 * seconds:
        prog, secs, counts = staged_compile(wl.text)
        for k, v in secs.items():
            stage_s[k].append(v)
        counts_seen.append(counts)
        fingerprints.add(prog.fingerprint())
        attempted += 1
    reference = compile_circuit(wl.text).fingerprint()
    attempted += 1
    checks.add(fingerprints == {reference},
               "stage-by-stage pipeline and compile_circuit give different programs")
    for key in STRUCTURAL:
        values = {c[key] for c in counts_seen}
        checks.add(len(values) == 1, f"{key} differs between compiles: {sorted(values)}")

    vm, vm_details = profile_vm(prog, int(rng.integers(2**31)), start + 0.7 * seconds)
    attempted += vm_details["untraced_shots"] + vm_details["traced_shots"]

    # Records depend only on (seed, shot index), so the worker split must not
    # change a single bit.
    serial_s, parallel_s = [], []
    seed = int(rng.integers(2**31))
    while not serial_s or perf_counter() < start + seconds:
        t0 = perf_counter()
        _, one = pack_records(prog, wl.shots, seed, 1)
        t1 = perf_counter()
        _, many = pack_records(prog, wl.shots, seed, workers)
        t2 = perf_counter()
        serial_s.append(t1 - t0)
        parallel_s.append(t2 - t1)
        attempted += 2 * wl.shots
        checks.add(one == many, f"records differ between 1 and {workers} workers")
    serial, parallel = statistics.median(serial_s), statistics.median(parallel_s)

    _, out = wl.sample(prog, int(rng.integers(2**31)))  # the workload's own call and check
    attempted += wl.shots
    wl.tally(prog, out)
    checks.extend(wl.check(rng, corrupted=False))

    metrics = {k: statistics.median(v) for k, v in stage_s.items()}
    metrics.update(counts_seen[0])
    metrics.update(vm)
    metrics["runtime.serial_shots_per_s"] = wl.shots / serial
    metrics["runtime.parallel_eff"] = serial / (workers * parallel)
    details = dict(vm_details, compiles=len(counts_seen), pool_pairs=len(serial_s))
    return {"metrics": metrics, "checks": checks, "attempted": attempted, "details": details}
