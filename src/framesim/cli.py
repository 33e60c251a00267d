"""Command-line driver: compile / sample / validate / analyze.

Thin shell over the library; every code path here exists as an importable
function. Exit codes: 0 ok, 1 check or compile failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import ratio_credible_interval, t_fidelity_bound
from .backend import CompileError, check_postselect_detectors, compile_circuit
from .circuit import CircuitError, flatten, parse_circuit
from .hir import lower_to_hir, peephole_pass, schedule_pass
from .runtime import ShotError, ShotRecord, sample


def _read_circuit(path: str | None) -> str:
    """The circuit text of ``path``, or of stdin for None or ``-``, without
    a leading UTF-8 byte-order mark. A file that cannot be read as UTF-8
    text raises a CircuitError that names the offset of the bad byte. The
    bytes are decoded here, strictly: stdin's text layer may follow the
    locale and turn bad bytes into surrogates. Line ends stay as read; the
    parser splits lines at any of them."""
    path = None if path == "-" else path
    try:
        if path is None:
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        # decoded whole, so an error's offset counts the mark's bytes too
        return data.decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise CircuitError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        msg = f"{path or 'stdin'} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        raise CircuitError(msg) from None


def _parse_detector_list(text: str):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad detector list {text!r}") from None


def cmd_compile(args) -> int:
    try:
        circuit = flatten(parse_circuit(_read_circuit(args.circuit)))
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.emit == "hir":
            hir = peephole_pass(lower_to_hir(circuit))
            check_postselect_detectors(hir, args.postselect_detectors)
            sys.stdout.write(schedule_pass(hir).dump())
            return 0
        prog = compile_circuit(circuit, postselect_detectors=args.postselect_detectors)
    except Exception as exc:  # compile failures are check failures
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.emit == "bytecode":
        sys.stdout.write(prog.dump())
    else:
        stats = prog.stats.as_dict()
        stats["instructions"] = len(prog.instrs)
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            for key, val in stats.items():
                print(f"{key}: {val}")
    return 0


def _format_bits(rec: ShotRecord) -> str:
    bits = np.concatenate([rec.measurements, rec.detectors, rec.observables])
    return (bits + ord("0")).tobytes().decode()


def _bad_seed(seed: int) -> bool:
    """Whether ``--seed`` lies outside the streams' seeds, [0, 2^64), which
    it then reports."""
    if 0 <= seed < 1 << 64:
        return False
    print(f"error: --seed must be in [0, 2^64), got {seed}", file=sys.stderr)
    return True


def cmd_sample(args) -> int:
    if args.shots < 1:
        print("error: --shots must be >= 1", file=sys.stderr)
        return 2
    if _bad_seed(args.seed):
        return 2
    workers = args.workers
    if workers is not None and workers < 1:
        print(f"error: --workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if workers is None:
        env = os.environ.get("FRAMESIM_WORKERS", "1")
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            print(f"error: FRAMESIM_WORKERS must be an integer >= 1, got {env!r}",
                  file=sys.stderr)
            return 2
    try:
        prog = compile_circuit(_read_circuit(args.circuit),
                               postselect_detectors=args.postselect_detectors)
    except (CircuitError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stratum = None
    if args.stratum_w is not None:
        from .runtime import StratumSpec

        try:
            stratum = StratumSpec(prog, args.stratum_w)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        out = open(args.out, "wb") if args.out else sys.stdout.buffer
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        stream = sample(prog, args.shots, seed=args.seed, workers=workers,
                        stratum=stratum, keep_rejected=args.keep_rejected)
        if args.format == "csv":
            out.write(b"shot,weight,bits\n")
            for i, rec in enumerate(stream):
                out.write(f"{i},{rec.weight:.17g},{_format_bits(rec)}\n".encode())
        elif args.format == "bin":
            for rec in stream:
                bits = np.concatenate([rec.measurements, rec.detectors, rec.observables])
                out.write(np.packbits(bits, bitorder="little").tobytes())
        else:
            for rec in stream:
                line = _format_bits(rec)
                if args.keep_rejected and not rec.accepted:
                    line += " rejected"
                out.write((line + "\n").encode())
    except ShotError as exc:  # a shot failed while the stream was consumed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.out:
            out.close()
    return 0


def cmd_validate(args) -> int:
    from .testing import run_validation_suite

    for name in ("mirrors", "fuzz"):
        if getattr(args, name) < 0:
            print(f"error: --{name} must be >= 0, got {getattr(args, name)}", file=sys.stderr)
            return 2
    if _bad_seed(args.seed):
        return 2
    failures = run_validation_suite(seed=args.seed, mirrors=args.mirrors,
                                    fuzz=args.fuzz)
    if args.self_test:
        # negative control: a deliberately corrupted program must be caught
        from .backend import MeasDormantStatic
        from .runtime import ShotState, run_shot

        prog = compile_circuit("X_ERROR(1.0) 0\nM 0\n")
        bad = [MeasDormantStatic(ins.virt, ins.record, ins.flip ^ 1)
               if isinstance(ins, MeasDormantStatic) else ins for ins in prog.instrs]
        prog.instrs = bad
        prog.__dict__.pop("_dispatch", None)
        rec = run_shot(prog, ShotState(prog), shot=0)
        if rec.measurements[0] == 1:
            failures.append("self-test: corrupted measurement flip went undetected")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"{len(failures)} validation failure(s)")
        return 1
    print("all validation checks passed")
    return 0


def cmd_analyze(args) -> int:
    try:
        if args.what == "ratio":
            ri = ratio_credible_interval(args.k1, args.n1, args.k2, args.n2,
                                         samples=args.samples, seed=args.seed)
            print(f"{ri.median:.8g} {ri.lo:.8g} {ri.hi:.8g}")
        else:
            print(f"{t_fidelity_bound(args.y):.12g}")
    except ValueError as exc:  # counts, sample size or <Y> out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framesim",
        description="Compile and sample near-Clifford circuits with a "
                    "frame-factoring compiler and per-shot VM.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="emit HIR, bytecode, or compile stats")
    c.add_argument("circuit", nargs="?", help="circuit file (default stdin)")
    c.add_argument("--emit", choices=("hir", "bytecode", "stats"), default="stats")
    c.add_argument("--json", action="store_true", help="stats as JSON")
    c.add_argument("--postselect-detectors", type=_parse_detector_list, default=(),
                   help="comma-separated detector indices required to be 0")
    c.set_defaults(func=cmd_compile)

    s = sub.add_parser("sample", help="sample shots to stdout or a file")
    s.add_argument("circuit", nargs="?", help="circuit file (default stdin)")
    s.add_argument("--shots", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: $FRAMESIM_WORKERS, else 1)")
    s.add_argument("--format", choices=("01", "bin", "csv"), default="01")
    s.add_argument("--out", default=None)
    s.add_argument("--stratum-w", type=int, default=None,
                   help="importance-sample with exactly this many faults")
    s.add_argument("--postselect-detectors", type=_parse_detector_list, default=())
    s.add_argument("--keep-rejected", action="store_true")
    s.set_defaults(func=cmd_sample)

    v = sub.add_parser("validate", help="run the built-in validation suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--mirrors", type=int, default=10)
    v.add_argument("--fuzz", type=int, default=20)
    v.add_argument("--self-test", action="store_true",
                   help="also check that a corrupted program is caught")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("analyze", help="post-processing statistics")
    asub = a.add_subparsers(dest="what", required=True)
    r = asub.add_parser("ratio", help="Bayesian credible interval for k1/n1 over k2/n2")
    r.add_argument("--k1", type=int, required=True)
    r.add_argument("--n1", type=int, required=True)
    r.add_argument("--k2", type=int, required=True)
    r.add_argument("--n2", type=int, required=True)
    r.add_argument("--samples", type=int, default=100_000)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=cmd_analyze)
    t = asub.add_parser("tbound", help="conservative T-state fidelity bound")
    t.add_argument("--y", type=float, required=True)
    t.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
