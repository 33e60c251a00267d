"""framesim benchmark: end-to-end metrics of three workloads, or a traced run.

Run from the root of a checkout; the framesim sources under ``src/`` are
imported directly, nothing is installed.

    python3 bench/run.py --workload rep_d25 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all --seconds 30 --out results.json

One workload run prints each metric by name with its unit, a ``report`` line
holding everything measured plus the environment and run settings, and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see traced.py). Times are rescaled to an idle host (see
REFERENCE_S). ``--all`` runs every workload both ways, each in its own
process, and prints one table.

A run exits 1 when a correctness check fails, 2 on a usage error or when the
framesim sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mirror", "rep_d25", "rot_n14")
MIN_TRIALS = 5

END_TO_END_UNITS = {"shots_per_s": "shots/s", "setup_s": "s", "total_s": "s",
                    "peak_rss_mb": "MB", "failed_frac": "ratio", "wrong_frac": "ratio"}
# The end-to-end metrics of the result line, as BENCHMARK.json lists them.
# failed_frac and wrong_frac are 0 on a sound run, so they travel in the
# line's "failed" / "attempted" and "correct" fields instead.
END_TO_END = ("shots_per_s", "setup_s", "total_s", "peak_rss_mb")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": git_commit()}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished children
    (the fork-pool workers), in MiB. Pages a worker shares with this process
    count twice."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# Other tenants of a shared host slow a run by 20-40% for tens of seconds at
# a time, which no run length averages out. So each trial starts by timing
# reference_work(), and every time of that trial is rescaled to a host on
# which reference_work() takes REFERENCE_S (its time on an idle 2-core Xeon
# host, Python 3.11, numpy 2.4). On such a host the figures are wall-clock
# figures; the unscaled medians are in the report line.
REFERENCE_S = 0.007


def reference_work() -> float:
    """Seconds taken by a fixed mix of the kinds of work framesim does:
    interpreter arithmetic, calls that touch tiny arrays, sweeps over a 2^14
    complex array. About a third of the time goes to each."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(30_000):
        acc = (acc + i * i) % 1_000_003
    small = np.zeros(16, dtype=np.uint8)
    ops = (lambda a: a.fill(0), lambda a: int(a[3]) ^ 1, lambda a: a.__setitem__(2, 1))
    for _ in range(2_500):
        for op in ops:
            op(small)
    vec = np.ones(1 << 14, dtype=np.complex128)
    out = np.empty_like(vec)
    for _ in range(100):
        np.multiply(vec, 1.0001, out=out)
        out.sum()
    return perf_counter() - t0


def run_end_to_end(wl, rng, seconds: float, corrupted: bool) -> dict:
    """One untimed warm-up, then trials until ``seconds`` have passed (at
    least MIN_TRIALS). A trial compiles the text (``setup_s``) and samples the
    fixed shot count on the fresh program (``shots_per_s``); ``total_s`` is
    both. Each metric is the median over trials of the host-rescaled value."""
    from framesim import compile_circuit
    from workloads import corrupt

    def trial():
        seed = int(rng.integers(2**31))
        t0 = perf_counter()
        prog = compile_circuit(wl.text)
        t1 = perf_counter()
        if corrupted:
            prog = corrupt(prog)
        t2 = perf_counter()
        accepted, out = wl.sample(prog, seed)
        t3 = perf_counter()
        wl.tally(prog, out)
        fingerprints.add(prog.fingerprint())
        return t1 - t0, t3 - t2, accepted

    fingerprints = set()
    wall = {"shots_per_s": [], "setup_s": [], "total_s": []}
    scaled = {"shots_per_s": [], "setup_s": [], "total_s": []}
    attempted = failed = 0
    end = None
    while end is None or len(wall["setup_s"]) < MIN_TRIALS or perf_counter() < end:
        scale = REFERENCE_S / reference_work()
        attempted += 1 + wl.shots
        try:
            compile_s, sample_s, accepted = trial()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1 + wl.shots
            if failed > MIN_TRIALS * (1 + wl.shots):
                break
            continue
        if end is None:  # the first trial is the warm-up
            end = perf_counter() + seconds
            continue
        for name, value in (("shots_per_s", accepted / sample_s), ("setup_s", compile_s),
                            ("total_s", compile_s + sample_s)):
            wall[name].append(value)
            scaled[name].append(value / scale if name == "shots_per_s" else value * scale)
    if not wall["setup_s"]:
        raise RuntimeError("every trial failed")
    checks = wl.check(rng, corrupted)
    checks.add(len(fingerprints) == 1, "compiles of the same text gave different programs")
    metrics = {name: statistics.median(v) for name, v in scaled.items()}
    metrics.update(peak_rss_mb=peak_rss_mb(), failed_frac=failed / attempted,
                   wrong_frac=checks.wrong / checks.total)
    details = {"trials": len(wall["setup_s"]),
               "quartiles": {name: statistics.quantiles(v, n=4) for name, v in scaled.items()},
               "wall_medians": {name: statistics.median(v) for name, v in wall.items()}}
    return {"metrics": metrics, "checks": checks, "attempted": attempted, "failed": failed,
            "details": details}


def run_one(args) -> int:
    import numpy as np

    from workloads import make_workload

    wl = make_workload(args.workload, args.workers, args.circuit_seed)
    rng = np.random.default_rng(args.seed)
    if args.trace:
        from traced import PER_LAYER, run_traced

        refs = [reference_work() for _ in range(5)]
        res = run_traced(wl, rng, args.seconds, args.workers)
        refs += [reference_work() for _ in range(5)]
        scale = REFERENCE_S / statistics.median(refs)
        for name, unit in PER_LAYER.items():
            if unit in ("s", "us"):
                res["metrics"][name] *= scale
            elif unit == "shots/s":
                res["metrics"][name] /= scale
        details = res["details"]
        details["kinds_us"] = {k: v * scale for k, v in details["kinds_us"].items()}
        details["callback_us"] *= scale
        details["host_scale"] = scale
        res["failed"] = 0
        units = listed = PER_LAYER
    else:
        res = run_end_to_end(wl, rng, args.seconds, args.corrupt)
        units = END_TO_END_UNITS
        listed = END_TO_END
    checks = res["checks"]
    for name, value in res["metrics"].items():
        print(f"{wl.name:8s} {name:28s} {value:14.6g} {units[name]}")
    for what in checks.failures[:20]:
        print(f"CHECK FAILED {what}")
    report = {
        "workload": wl.name, "trace": args.trace, "environment": environment(),
        "settings": {"seed": args.seed, "circuit_seed": args.circuit_seed,
                     "seconds": args.seconds, "shots": wl.shots, "workers": args.workers,
                     "corrupt": args.corrupt},
        "metrics": res["metrics"], "units": units, "details": res["details"],
        "checks": {"total": checks.total, "wrong": checks.wrong,
                   "failures": checks.failures[:20]},
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": checks.wrong == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": units[k]} for k in listed},
    }))
    return 0 if checks.wrong == 0 else 1


def run_all(args) -> int:
    """Every workload, end-to-end then traced, each run in its own process."""
    results, status = [], 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--workers", str(args.workers),
                   "--circuit-seed", str(args.circuit_seed)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            reports = [ln[7:] for ln in proc.stdout.splitlines() if ln.startswith("report ")]
            if not reports:
                sys.stdout.write(proc.stdout)
                print(f"{name} trace={trace}: no report (exit {proc.returncode})")
                status = 1
                continue
            results.append(json.loads(reports[-1]))
            status |= proc.returncode != 0
    print(f"{'workload':8s} " + " ".join(f"{k:>14s}" for k in END_TO_END_UNITS))
    print(f"{'':8s} " + " ".join(f"{u:>14s}" for u in END_TO_END_UNITS.values()))
    for r in results:
        if r["trace"] == 0:
            print(f"{r['workload']:8s} "
                  + " ".join(f"{r['metrics'][k]:14.6g}" for k in END_TO_END_UNITS))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(), "runs": results}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=0, help="sampling and check seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=min(2, os.cpu_count() or 1),
                        help="fork-pool workers for sample() (default: 2, capped at nproc)")
    parser.add_argument("--circuit-seed", type=int, default=0,
                        help="seed of the rot_n14 circuit (fixed, so its counts repeat)")
    parser.add_argument("--corrupt", action="store_true",
                        help="negative control: sample a program with one flipped "
                             "measurement; the checks must fail")
    parser.add_argument("--out", help="with --all: write every report to this JSON file")
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= (os.cpu_count() or 1):
        parser.error(f"--workers must be between 1 and nproc ({os.cpu_count()})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.corrupt and (args.trace or args.all):
        parser.error("--corrupt applies to one end-to-end run")
    if args.out and not args.all:
        parser.error("--out applies to --all")
    src = ROOT / "src"
    if not (src / "framesim" / "__init__.py").is_file():
        print(f"framesim sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
