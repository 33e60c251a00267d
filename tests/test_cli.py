"""CLI behavior: emit modes, sampling formats, validation, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framesim
from framesim import compile_circuit, sample
from framesim.cli import main


def _child_env(**env) -> dict:
    """The environment of a child ``python -m``: it imports the framesim
    this process imported, from ``src`` when that is a source checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(framesim.__file__).resolve().parents[1]), **env)


MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nDEPOLARIZE1(0.001) 0 1\nCX 0 1\nT_DAG 0\nH 0\nM 0 1\n"


@pytest.fixture
def mirror_file(tmp_path):
    p = tmp_path / "mirror.txt"
    p.write_text(MIRROR)
    return str(p)


# a detector, a postselected record and an observable, with the detector
# postselected too: every check's line in the dumps
CHECKS = ("H 0\nT 0\nM 0\nDETECTOR rec[-1]\nM 1\nPOSTSELECT rec[-1]\n"
          "OBSERVABLE_INCLUDE(0) rec[-2]\n")


def _checks_dump(tmp_path, capsys, emit: str) -> str:
    p = tmp_path / "checks.txt"
    p.write_text(CHECKS)
    assert main(["compile", str(p), "--emit", emit, "--postselect-detectors", "0"]) == 0
    return capsys.readouterr().out


def test_compile_emit_hir(mirror_file, tmp_path, capsys):
    assert main(["compile", mirror_file, "--emit", "hir"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6
    assert "MEAS" in out and "NOISE" in out
    out = _checks_dump(tmp_path, capsys, "hir")
    assert "DET   D0" in out and "PSEL  rec[1] == 0" in out and "OBS   L0" in out


def test_compile_emit_bytecode(mirror_file, tmp_path, capsys):
    assert main(["compile", mirror_file, "--emit", "bytecode"]) == 0
    out = capsys.readouterr().out
    assert "NOISE_BLOCK sites=[0..2)" in out
    assert "EXPAND_T" in out
    out = _checks_dump(tmp_path, capsys, "bytecode")
    assert "POSTSELECT D0 == 0" in out and "POSTSELECT rec[1] == 0" in out


def test_compile_emit_stats_json(mirror_file, capsys):
    assert main(["compile", mirror_file, "--emit", "stats", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["k_max"] == 1
    assert stats["measurements"] == 2


def test_compile_stats_clifford_only(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("H 0\nCX 0 1\nM 0 1\n")
    assert main(["compile", str(p)]) == 0
    assert "k_max: 0" in capsys.readouterr().out


def test_compile_parse_error_exit_1(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("NOPE 0\n")
    assert main(["compile", str(p)]) == 1
    assert "unknown opcode" in capsys.readouterr().err


def test_sample_text_output(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("H 0\nT 0\nT 0\nT 0\nCX 0 1\nCX 0 1\nS_DAG 0\nT_DAG 0\nH 0\nM 0 1\n")
    assert main(["sample", str(p), "--shots", "50", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["00"] * 50


def test_sample_zero_shots_usage_error(mirror_file, capsys):
    assert main(["sample", mirror_file, "--shots", "0"]) == 2


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sample_shot_error_exits_1(tmp_path, capsys, monkeypatch, workers):
    # no honest circuit cheaply reaches a ShotError, so the collapse kernel is
    # swapped for one that raises as a NaN amplitude would
    import framesim.runtime as runtime

    def broken(ins):
        def probs(st):
            raise runtime.ShotError("NaN amplitude encountered at an active measurement")

        return probs, None

    monkeypatch.setattr(runtime, "_collapse_kernel", broken)
    p = tmp_path / "c.txt"
    p.write_text("H 0\nT 0\nH 0\nM 0\n")
    assert main(["sample", str(p), "--shots", "5", "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err == "error: NaN amplitude encountered at an active measurement\n"


def test_sample_deterministic_bytes(mirror_file, tmp_path):
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    for out in (out1, out2):
        assert main(["sample", mirror_file, "--shots", "200", "--seed", "7",
                     "--format", "bin", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_bytes()) == 200  # 2 bits packed into 1 byte per shot


def test_sample_csv_with_stratum(tmp_path, capsys):
    p = tmp_path / "n.txt"
    p.write_text("X_ERROR(0.2) 0\nX_ERROR(0.3) 1\nX_ERROR(0.1) 2\nM 0 1 2\n")
    assert main(["sample", str(p), "--shots", "20", "--stratum-w", "1",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "shot,weight,bits"
    from framesim.runtime import poisson_binomial

    expect = poisson_binomial([0.2, 0.3, 0.1])[1]
    for line in lines[1:]:
        _, w, bits = line.split(",")
        assert abs(float(w) - expect) < 1e-12
        assert bits.count("1") == 1  # exactly one forced X fault flips one bit


def test_sample_postselect_detectors_flag(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\nM 0\n")
    assert main(["sample", str(p), "--shots", "400", "--seed", "1",
                 "--postselect-detectors", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    kept = [l for l in lines if "rejected" not in l]
    assert all(l[0] == "0" for l in kept)
    # --keep-rejected prints the rejected shots too, each with a suffix
    assert main(["sample", str(p), "--shots", "400", "--seed", "1",
                 "--postselect-detectors", "0", "--keep-rejected"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    prog = compile_circuit(p.read_text(), postselect_detectors=(0,))
    rejected = sum(not rec.accepted for rec in sample(prog, 400, seed=1))
    assert 0 < rejected < 400
    assert sum(l.endswith(" rejected") for l in lines) == rejected
    assert [l for l in lines if not l.endswith(" rejected")] == kept


@pytest.mark.parametrize("index", ["7", "-1"])
def test_sample_rejects_missing_postselect_detector(tmp_path, capsys, index):
    p = tmp_path / "d.txt"
    p.write_text("X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\n")
    assert main(["sample", str(p), "--shots", "5", f"--postselect-detectors={index}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"D{index}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("emit", ["hir", "bytecode", "stats"])
def test_compile_rejects_missing_postselect_detector(tmp_path, capsys, emit):
    p = tmp_path / "d.txt"
    p.write_text("X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\n")
    assert main(["compile", str(p), "--emit", emit, "--postselect-detectors", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: postselected detector D5 does not exist: the circuit "
                            "has 1 detector(s)\n")


def test_sample_refuses_an_active_array_larger_than_memory(tmp_path, capsys):
    # k_max = 40 needs 32 * 2^40 bytes of buf and scratch
    p = tmp_path / "wide.txt"
    p.write_text("".join(f"H {q}\nT {q}\n" for q in range(40)))
    assert main(["sample", str(p), "--shots", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: k_max=40 needs {32 << 40} bytes")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_framesim_workers_is_usage_error(mirror_file, monkeypatch, capsys, value):
    monkeypatch.setenv("FRAMESIM_WORKERS", value)
    assert main(["compile", mirror_file]) == 0  # compile never reads it
    capsys.readouterr()
    assert main(["sample", mirror_file, "--shots", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: FRAMESIM_WORKERS")
    monkeypatch.setenv("FRAMESIM_WORKERS", "1")
    assert main(["sample", mirror_file, "--shots", "3"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_below_one_is_usage_error(mirror_file, monkeypatch, capsys, value):
    monkeypatch.setenv("FRAMESIM_WORKERS", "1")
    assert main(["sample", mirror_file, "--shots", "3", "--workers", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --workers")
    assert "Traceback" not in captured.err


def test_validate_passes(capsys):
    assert main(["validate", "--mirrors", "3", "--fuzz", "6", "--self-test"]) == 0
    assert "all validation checks passed" in capsys.readouterr().out


def test_validate_catches_corruption():
    # the self-test corrupts a program on purpose; a healthy build flags it
    # internally and still exits 0. Direct corruption check:
    from framesim.backend import MeasDormantStatic, compile_circuit
    from framesim.runtime import ShotState, run_shot

    prog = compile_circuit("X_ERROR(1.0) 0\nM 0\n")
    prog.instrs = [MeasDormantStatic(i.virt, i.record, i.flip ^ 1)
                   if isinstance(i, MeasDormantStatic) else i for i in prog.instrs]
    prog.__dict__.pop("_dispatch", None)
    rec = run_shot(prog, ShotState(prog), shot=0)
    assert rec.measurements[0] == 0  # corrupted flip inverts the true outcome


def test_analyze_ratio_and_tbound(capsys):
    assert main(["analyze", "ratio", "--k1", "100", "--n1", "10000",
                 "--k2", "100", "--n2", "10000", "--samples", "20000"]) == 0
    med, lo, hi = (float(x) for x in capsys.readouterr().out.split())
    assert lo < 1 < hi and 0.7 < med < 1.3
    assert main(["analyze", "tbound", "--y", "0.7071067811865476"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "framesim.cli", "analyze", "tbound", "--y", "0"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(0.5)


def test_python_dash_m_framesim_runs_sample(mirror_file, capsys):
    """``python -m framesim`` runs the CLI from a source checkout, with only
    ``src`` on the path: the same output as ``main``."""
    argv = ["sample", mirror_file, "--shots", "20", "--seed", "5"]
    proc = subprocess.run([sys.executable, "-m", "framesim", *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert len(proc.stdout.splitlines()) == 20


@pytest.mark.parametrize("command", [["compile"], ["sample", "--shots", "5"]])
def test_malformed_postselect_detectors_is_usage_error(tmp_path, capsys, command):
    p = tmp_path / "d.txt"
    p.write_text("X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\n")
    with pytest.raises(SystemExit) as exc:
        main([command[0], str(p), *command[1:], "--postselect-detectors", "a"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "bad detector list" in captured.err and "Traceback" not in captured.err


def test_negative_stratum_is_rejected(tmp_path, capsys):
    from framesim.backend import compile_circuit
    from framesim.runtime import StratumSpec

    with pytest.raises(ValueError, match="negative"):
        StratumSpec(compile_circuit("X_ERROR(0.1) 0\nM 0\n"), -1)
    p = tmp_path / "c.txt"
    p.write_text("X_ERROR(0.1) 0\nM 0\n")
    assert main(["sample", str(p), "--shots", "5", "--stratum-w", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_oversized_stratum_is_rejected(tmp_path, capsys, monkeypatch):
    # the stratum's suffix tables hold about sites * (w + 1) floats; a w whose
    # tables exceed the budget is refused before they are built
    import framesim.runtime as runtime
    from framesim.backend import compile_circuit

    text = "DEPOLARIZE1(0.01) 0 1 2 3 4 5 6 7\nM 0\n"
    prog = compile_circuit(text)
    # w = 1 needs 17 entries over 8 sites, w = 2 needs 24
    fits = runtime.StratumSpec(prog, 1)
    assert sum(map(len, fits.suffix)) == 17
    monkeypatch.setattr(runtime, "_STRATUM_BYTES", 17 * runtime._STRATUM_ENTRY_BYTES)
    runtime.StratumSpec(prog, 1)
    need = 24 * runtime._STRATUM_ENTRY_BYTES
    with pytest.raises(ValueError, match=f"count 2 over 8 noise sites needs about {need} bytes"):
        runtime.StratumSpec(prog, 2)
    p = tmp_path / "c.txt"
    p.write_text(text)
    assert main(["sample", str(p), "--shots", "5", "--stratum-w", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: stratum fault count 2 over 8 noise sites")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["ratio", "--k1", "-1", "--n1", "0", "--k2", "1", "--n2", "10"],
    ["ratio", "--k1", "1", "--n1", "10", "--k2", "1", "--n2", "10", "--samples", "0"],
    ["tbound", "--y", "2"],
    ["tbound", "--y", "nan"],
    ["ratio", "--k1", "1", "--n1", "10", "--k2", "1", "--n2", "10", "--samples", "10000001"],
])
def test_analyze_out_of_range_is_usage_error(capsys, argv):
    assert main(["analyze", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--mirrors", "--fuzz"])
def test_validate_negative_count_is_usage_error(capsys, flag):
    assert main(["validate", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert "all validation checks passed" not in captured.out
    assert captured.err.startswith(f"error: {flag}")


@pytest.mark.parametrize("command", ["compile", "sample"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_circuit_is_an_error(tmp_path, capsys, command, kind):
    path = tmp_path / "c.txt"
    if kind == "directory":
        path = tmp_path
    elif kind == "not_utf8":
        path.write_bytes(b"M 0\n# caf\xe9\n")
    argv = [command, str(path)] + (["--shots", "3"] if command == "sample" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(path) in captured.err


@pytest.mark.parametrize("command", ["compile", "sample"])
def test_non_utf8_stdin_is_an_error_under_the_c_locale(command):
    # under the C locale Python's stdin text layer would turn the bad byte
    # into a surrogate; the bytes are decoded strictly instead
    env = _child_env(LC_ALL="C", PYTHONIOENCODING="")
    argv = [sys.executable, "-m", "framesim.cli", command] + (
        ["--shots", "1"] if command == "sample" else [])
    proc = subprocess.run(argv, input=b"M 0\n\xff\n", capture_output=True, env=env)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.decode() == "error: stdin is not UTF-8 text: invalid start byte at byte 4\n"


def test_a_utf8_byte_order_mark_is_skipped(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xef\xbb\xbfM 0\n")
    assert main(["compile", str(path), "--emit", "bytecode"]) == 0
    assert capsys.readouterr().out == "MEAS_DORMANT_STATIC 0 -> rec[0]\n"
    proc = subprocess.run([sys.executable, "-m", "framesim.cli", "compile", "-", "--emit",
                           "bytecode"], input=b"\xef\xbb\xbfM 0\n", capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == b"MEAS_DORMANT_STATIC 0 -> rec[0]\n"
    # CRLF line ends parse as LF ones
    path.write_bytes(b"\xef\xbb\xbfH 0\r\nM 0\r\n")
    assert main(["compile", str(path), "--emit", "bytecode"]) == 0
    assert capsys.readouterr().out.endswith("-> rec[0]\n")
    # a bad byte after the mark is reported at its offset in the file
    bad = b"\xef\xbb\xbfM 0\n\xff\n"
    path.write_bytes(bad)
    assert main(["compile", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: {path} is not UTF-8 text: invalid start byte "
                                       "at byte 7\n")
    proc = subprocess.run([sys.executable, "-m", "framesim.cli", "compile", "-"], input=bad,
                          capture_output=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr == b"error: stdin is not UTF-8 text: invalid start byte at byte 7\n"


def test_sample_out_into_missing_directory_is_an_error(mirror_file, tmp_path, capsys):
    out = tmp_path / "absent" / "shots.txt"
    assert main(["sample", mirror_file, "--shots", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(out) in captured.err
    assert not out.parent.exists()
