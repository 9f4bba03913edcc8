"""CLI subcommands (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe(capsys):
    code, out, _ = run(capsys, "describe")
    assert code == 0
    assert "haswell-e3-1225" in out
    assert "204.8 Gflop/s" in out


def test_describe_custom_machine(capsys):
    code, out, _ = run(capsys, "describe", "--cores", "8", "--channels", "2")
    assert code == 0
    assert "generic-smp-8c" in out


def test_study_small(capsys):
    code, out, _ = run(
        capsys,
        "study",
        "--sizes", "128", "256",
        "--threads", "1", "2",
        "--execute-max-n", "0",
        "--no-verify",
    )
    assert code == 0
    assert "Table II" in out and "Table III" in out and "Table IV" in out
    assert "Strassen" in out and "CAPS" in out


def test_engines_lists_all_kernels(capsys):
    code, out, _ = run(capsys, "engines")
    assert code == 0
    for name in ("reference", "fast", "compiled"):
        assert name in out
    assert "C compiler" in out and "JIT cache" in out


def test_engines_reports_disabled_toolchain(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    code, out, _ = run(capsys, "engines")
    assert code == 0
    assert "REPRO_COMPILED_TOOLCHAIN=none" in out
    assert "fall back to 'fast'" in out


def test_study_unknown_engine_fails_in_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["study", "--sizes", "128", "--engine", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_study_engine_flag_matches_fast(capsys):
    """--engine reference and --engine fast print identical tables on
    the small matrix (the differential identity through the CLI)."""
    argv = ("study", "--sizes", "128", "--threads", "1", "2",
            "--execute-max-n", "0", "--no-verify")
    code_f, out_f, _ = run(capsys, *argv, "--engine", "fast")
    code_r, out_r, _ = run(capsys, *argv, "--engine", "reference")
    assert code_f == 0 and code_r == 0
    assert out_f == out_r


def test_study_forced_compiled_without_toolchain_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
    code, _, err = run(
        capsys, "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify", "--engine", "compiled",
    )
    assert code == 2
    assert "error:" in err and "compiled" in err


def test_study_markdown_format(capsys):
    code, out, _ = run(
        capsys,
        "--format", "markdown",
        "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify",
    )
    assert code == 0
    assert "| OpenBLAS |" in out


def test_study_format_after_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "study", "--format", "csv", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify",
    )
    assert code == 0
    assert "Num Threads,1,Average" in out


def test_study_trace_flag_writes_valid_chrome_trace(capsys, tmp_path):
    out_path = tmp_path / "study_trace.json"
    code, out, _ = run(
        capsys,
        "study", "--sizes", "128", "--threads", "1", "2",
        "--execute-max-n", "0", "--no-verify",
        "--trace", str(out_path),
    )
    assert code == 0
    assert "phase summary:" in out
    assert "study.run" in out
    assert str(out_path) in out

    from repro.observability.export import read_trace_json, validate_chrome_trace

    data = read_trace_json(out_path)
    assert validate_chrome_trace(data) == []
    assert data["otherData"]["meta"]["command"] == "repro study"
    assert data["otherData"]["meta"]["wall_s"] > 0


def test_study_parallel_matches_serial(capsys):
    argv = ("study", "--sizes", "128", "--threads", "1", "2",
            "--execute-max-n", "0", "--no-verify")
    code_s, out_s, _ = run(capsys, *argv)
    code_p, out_p, _ = run(capsys, *argv, "--parallel", "2")
    assert code_s == code_p == 0
    assert out_s == out_p  # deterministic fan-out: identical tables


def test_study_transports_match(capsys):
    """--transport shm and --transport pickle print identical tables."""
    argv = ("study", "--sizes", "256", "--threads", "1", "2",
            "--execute-max-n", "0", "--no-verify", "--parallel", "2")
    code_a, out_a, _ = run(capsys, *argv, "--transport", "shm")
    code_b, out_b, _ = run(capsys, *argv, "--transport", "pickle")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_study_checkpoint_then_resume(capsys, tmp_path):
    """An interrupted sweep resumes from its store: the resumed run
    reports served cells and prints the same tables."""
    store = tmp_path / "sweep"
    argv = ("study", "--sizes", "128", "--threads", "1", "2",
            "--execute-max-n", "0", "--no-verify")
    code_full, out_full, _ = run(capsys, *argv, "--checkpoint", str(store))
    assert code_full == 0
    # simulate a crash: only 2 of the 6 entry files were written
    entries = sorted(store.glob("*/*.json"))
    assert len(entries) == 6
    for path in entries[2:]:
        path.unlink()
    code_res, out_res, _ = run(capsys, *argv, "--resume", str(store))
    assert code_res == 0
    assert f"resumed 2/6 cells from {store}" in out_res
    assert out_res.split("\n\n", 1)[1] == out_full  # identical tables


def test_study_store_rejects_journal_file(capsys, tmp_path):
    """--store (and its --checkpoint/--resume aliases) name a directory;
    an old JSONL journal file is refused before the sweep."""
    journal = tmp_path / "study.jsonl"
    journal.write_text("{}\n")
    code, _, err = run(
        capsys, "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify", "--store", str(journal),
    )
    assert code == 2
    assert "checkpoints are now store directories" in err


def test_study_resume_missing_directory_fails_fast(capsys):
    code, _, err = run(
        capsys, "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify",
        "--resume", "/no/such/dir/journal.jsonl",
    )
    assert code == 2
    assert "directory does not exist" in err


def test_study_checkpoint_missing_directory_fails_fast(capsys):
    code, _, err = run(
        capsys, "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify",
        "--checkpoint", "/no/such/dir/journal.jsonl",
    )
    assert code == 2
    assert "directory does not exist" in err


def test_sparse_trace_flag(capsys, tmp_path):
    out_path = tmp_path / "sparse_trace.json"
    code, out, _ = run(
        capsys, "sparse", "--pattern", "banded", "--n", "64", "--repeats", "1",
        "--no-verify", "--trace", str(out_path),
    )
    assert code == 0
    assert "sparse.run" in out

    from repro.observability.export import read_trace_json, validate_chrome_trace

    assert validate_chrome_trace(read_trace_json(out_path)) == []


def test_distributed_trace_flag(capsys, tmp_path):
    out_path = tmp_path / "dist_trace.json"
    code, out, _ = run(
        capsys, "distributed", "--n", "2048", "--nodes", "1", "4",
        "--trace", str(out_path),
    )
    assert code == 0
    assert "distributed.run" in out

    from repro.observability.export import read_trace_json, validate_chrome_trace

    assert validate_chrome_trace(read_trace_json(out_path)) == []


def test_trace_to_missing_directory_fails_fast(capsys):
    code, _, err = run(
        capsys,
        "study", "--sizes", "128", "--threads", "1",
        "--execute-max-n", "0", "--no-verify",
        "--trace", "/nonexistent-dir/out.json",
    )
    assert code == 2
    assert "directory does not exist" in err


def test_trace_viewer_validates_study_trace(capsys, tmp_path):
    out_path = tmp_path / "study_trace.json"
    code, _, _ = run(
        capsys,
        "study", "--sizes", "256", "--threads", "1", "2",
        "--execute-max-n", "0", "--no-verify",
        "--trace", str(out_path),
    )
    assert code == 0
    import subprocess
    import sys
    from pathlib import Path

    viewer = Path(__file__).resolve().parent.parent / "tools" / "trace.py"
    proc = subprocess.run(
        [sys.executable, str(viewer), str(out_path), "--validate", "--tol", "0.05"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "trace is valid" in proc.stdout


def test_choose_with_generous_cap(capsys):
    code, out, _ = run(
        capsys, "choose", "--n", "128", "--threads", "1", "2", "--cap", "500"
    )
    assert code == 0
    assert "best under 500.0 W" in out
    assert "openblas" in out


def test_choose_impossible_cap_exit_code(capsys):
    code, out, _ = run(
        capsys, "choose", "--n", "128", "--threads", "1", "--cap", "0.5"
    )
    assert code == 1
    assert "no configuration fits" in out


def test_crossover(capsys):
    code, out, _ = run(capsys, "crossover")
    assert code == 0
    assert "crossover n" in out
    assert "False" in out  # paper platform: unreachable


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "4096", "--procs", "49")
    assert code == 0
    assert "memory-dependent" in out or "memory-independent" in out


def test_sparse(capsys):
    code, out, _ = run(
        capsys, "sparse", "--pattern", "banded", "--n", "128", "--repeats", "2"
    )
    assert code == 0
    assert "CSR" in out and "BSR" in out


def test_distributed(capsys):
    code, out, _ = run(capsys, "distributed", "--n", "4096", "--nodes", "1", "4")
    assert code == 0
    assert "CAPS (dist)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_help_lists_subcommands():
    parser = build_parser()
    help_text = parser.format_help()
    for cmd in ("describe", "study", "choose", "crossover", "bounds", "sparse", "distributed"):
        assert cmd in help_text


def test_trace_command(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "trace", "--alg", "strassen", "--n", "256", "--threads", "2",
        "--out", str(out_path),
    )
    assert code == 0
    assert "core 0:" in out
    assert out_path.exists()
    import json

    data = json.loads(out_path.read_text())
    assert data["traceEvents"]


def test_trace_command_steal_policy(capsys):
    code, out, _ = run(capsys, "trace", "--alg", "caps", "--n", "128", "--policy", "steal")
    assert code == 0
    assert "Gflop/s" in out


def test_trace_unknown_algorithm(capsys):
    code, _, err = run(capsys, "trace", "--alg", "magma")
    assert code == 2
    assert "error" in err


def test_verify_command_clean(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "5", "--seed", "0", "--quiet")
    assert code == 0
    assert "all invariants held" in out
    assert "rapl fault modes" in out


def test_verify_command_progress_lines(capsys):
    code, out, _ = run(capsys, "verify", "--cases", "25", "--seed", "1")
    assert code == 0
    assert "25/25 cases" in out


def test_verify_in_parser_help():
    parser = build_parser()
    assert "verify" in parser.format_help()
