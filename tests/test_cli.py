"""End-to-end command-line checks through real subprocess invocations."""

import argparse
import subprocess
import sys

import numpy as np
import pytest

from tempermg import assembly, cli

BASE = [sys.executable, "-m", "tempermg.cli"]


def run_cli(*args, timeout=600):
    return subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=timeout)


def csv_row(output, prefix):
    rows = [line for line in output.splitlines() if line.startswith(prefix)]
    assert rows, f"no row starting with {prefix!r} in output:\n{output}"
    return rows[0].split(",")


# ---------------------------------------------------------------------------
# benchmark subcommands


def test_example1_reproduces_reference_error_magnitude():
    proc = run_cli("example1", "--alpha", "1.8", "--M", "128,256")
    assert proc.returncode == 0, proc.stderr
    assert "# alpha=1.8" in proc.stdout
    assert "N,error,rate,iter,cpu_s,assembly_s" in proc.stdout
    fields = csv_row(proc.stdout, "128,")
    error = float(fields[1])
    assert 1.5598e-02 / 2 < error < 1.5598e-02 * 2
    assert fields[2] == ""          # first row has no rate
    assert 1 <= int(fields[3]) <= 30
    fields = csv_row(proc.stdout, "256,")
    assert 0.0 < float(fields[1]) < error
    assert float(fields[2]) == pytest.approx(2.0, abs=0.35)
    assert 1 <= int(fields[3]) <= 30
    assert float(fields[4]) > 0.0 and float(fields[5]) > 0.0


def test_example1_markdown_rendering():
    proc = run_cli("example1", "--alpha", "1.5", "--M", "64",
                   "--format", "markdown")
    assert proc.returncode == 0, proc.stderr
    assert "### alpha=1.5" in proc.stdout
    assert "| N | error | rate | iter | cpu_s | assembly_s |" in proc.stdout
    assert any(line.startswith("|") and " 64 " in line
               for line in proc.stdout.splitlines())


def test_example2_caret_size_syntax_and_rate_chain():
    proc = run_cli("example2", "--alpha", "1.9", "--M", "2^5", "--M", "2^6")
    assert proc.returncode == 0, proc.stderr
    assert "# alpha=1.9" in proc.stdout
    assert "N,error,rate" in proc.stdout
    first = csv_row(proc.stdout, "32,")
    second = csv_row(proc.stdout, "64,")
    assert first[2] == ""           # no coarser neighbor: rate undefined
    assert float(first[1]) > float(second[1]) > 0.0
    assert 0.5 < float(second[2]) < 2.5


def test_example2_deterministic_and_thread_invariant():
    args = ("example2", "--alpha", "1.5", "--M", "2^5")
    one = run_cli(*args, "--threads", "1")
    two = run_cli(*args, "--threads", "1")
    par = run_cli(*args, "--threads", "4")
    assert one.returncode == two.returncode == par.returncode == 0
    assert one.stdout == two.stdout
    assert one.stdout == par.stdout


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    direct = run_cli("example2", "--alpha", "1.5", "--M", "2^5")
    filed = run_cli("example2", "--alpha", "1.5", "--M", "2^5",
                    "--out", str(target))
    assert filed.returncode == 0, filed.stderr
    assert target.read_text() == direct.stdout


def test_mgbench_reports_grid_and_checks():
    proc = run_cli("mgbench", "--alpha", "1.5", "--M", "32", "--M", "64")
    assert proc.returncode in (0, 1)
    assert "M,tau,factor,iters" in proc.stdout
    assert "# smoothing sweep alpha=1.5 M=64 tau=1" in proc.stdout
    assert "# checks alpha=1.5" in proc.stdout
    factors = [float(line.split(",")[2])
               for line in proc.stdout.splitlines()
               if line.startswith(("32,", "64,"))]
    assert len(factors) == 6
    assert all(0.0 < f < 0.9 for f in factors)
    assert "factor_below_0.9,PASS" in proc.stdout
    assert "smoothing_monotone,PASS" in proc.stdout
    if proc.returncode == 1:
        assert "failed:" in proc.stderr


# ---------------------------------------------------------------------------
# verification subcommand


@pytest.fixture(scope="module")
def verify_run():
    return run_cli("verify")


def test_verify_passes_clean_build(verify_run):
    assert verify_run.returncode == 0, verify_run.stdout + verify_run.stderr
    assert "RESULT: PASS (9 checks, 0 failed" in verify_run.stdout


def test_verify_reports_every_check(verify_run):
    status = [line.split(",")[1] for line in verify_run.stdout.splitlines()
              if line.split(",")[1:2] and line.split(",")[1] in ("PASS", "FAIL",
                                                                 "WARN")]
    assert len(status) == 9
    assert set(status) <= {"PASS", "WARN"}


def test_verify_catches_injected_fault(verify_run):
    # the fault is a sign-flipped lag 1 in the fine stiffness of the
    # hierarchies the two structure checks inspect; every other row must
    # read exactly as in the clean run
    proc = run_cli("verify", "--inject-fault")
    assert proc.returncode == 1
    lines, clean = proc.stdout.splitlines(), verify_run.stdout.splitlines()
    assert len(lines) == len(clean)
    assert {got for got, ref in zip(lines, clean) if got != ref} == {
        "structure_untempered,FAIL,3 hard failures",
        "structure_tempered,WARN,1 suspect stiffness levels",
        "RESULT: FAIL (9 checks, 1 failed, 1 warnings)",
    }


def _lag1_sign_flip(pair):
    def faulty(mesh, alpha, lam):
        col = pair(mesh, alpha, lam)
        col[1] = -col[1]
        return col
    return faulty


def _alpha_nudged(pair):
    return lambda mesh, alpha, lam: pair(mesh, alpha + 1e-6, lam)


def _local_term_dropped(pair):
    # the lam^alpha h B3(m) term of lags 0-2 (B3 = 2/3, 1/6, 0)
    def faulty(mesh, alpha, lam):
        col = pair(mesh, alpha, lam)
        col[:3] -= lam**alpha * mesh.h * np.array([2.0 / 3.0, 1.0 / 6.0, 0.0])
        return col
    return faulty


@pytest.mark.parametrize("fault", [None, _lag1_sign_flip, _alpha_nudged,
                                   _local_term_dropped])
def test_stiffness_symbol_row_catches_pairing_faults(monkeypatch, fault):
    args = cli.build_parser().parse_args(["verify"])
    if fault is not None:
        monkeypatch.setattr(assembly, "frac_pair_symbol",
                            fault(assembly.frac_pair_symbol))
    status, _ = cli._check_stiffness_symbol(args)
    assert status == ("PASS" if fault is None else "FAIL")


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_flag_is_usage_error():
    assert run_cli("example1", "--bogus").returncode == 2


def test_malformed_size_is_usage_error():
    assert run_cli("example2", "--M", "2^x").returncode == 2


def test_fixed_benchmark_parameter_rejected():
    proc = run_cli("example2", "--b", "2.0")
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


@pytest.mark.parametrize("command", ["example1", "example2", "mgbench",
                                     "verify"])
def test_quad_order_is_unknown_flag(command):
    # no subcommand evaluates a pointwise fractional derivative, so none
    # takes a rule size for one
    extra = () if command == "verify" else ("--M", "2^5")
    proc = run_cli(command, "--quad-order", "50", *extra)
    assert proc.returncode == 2
    assert "--quad-order" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args, flag", [
    (("verify", "--M", "64"), "--M"),
    (("verify", "--a", "0"), "--a"),
    (("verify", "--b", "2"), "--b"),
    (("verify", "--T", "3"), "--T"),
    (("verify", "--sigma", "1"), "--sigma"),
    (("mgbench", "--T", "5", "--M", "2^5"), "--T"),
    (("example1", "--a", "0", "--M", "2^5"), "--a"),
    (("example1", "--M", "100"), "--M"),
    (("example2", "--M", "2^5,48"), "--M"),
    (("example1", "--M", "2^5", "--m1", "0"), "--m1"),
    (("example2", "--M", "2^5", "--m2", "-1"), "--m2"),
    (("mgbench", "--M", "2^5", "--eta-pre", "0.7"), "--eta-pre"),
    (("mgbench", "--M", "2^5", "--eta-post", "0"), "--eta-post"),
    (("example1", "--M", "2^5", "--tol", "0"), "--tol"),
    (("verify", "--max-iter", "0"), "--max-iter"),
    (("example2", "--M", "2^5", "--coarse-max", "0"), "--coarse-max"),
    (("verify", "--seed", "-1"), "--seed"),
    (("verify", "--alpha", "2.5"), "--alpha"),
    (("example1", "--M", "2^5", "--alpha", "2.5"), "--alpha"),
    (("example1", "--M", "2^5", "--lambda", "-1"), "--lambda"),
    (("example2", "--M", "2^5", "--threads", "0"), "--threads"),
    (("mgbench", "--M", "2^5", "--sigma", "-1"), "--sigma"),
    (("example1", "--M", "2^5", "--T", "0"), "--T"),
    (("mgbench", "--M", "2^5", "--a", "1", "--b", "0"), "--b"),
    (("mgbench", "--M", "2^5", "--a", "2"), "--a"),
    (("example1", "--M", "2^5", "--b", "-1"), "--b"),
    (("example1", "--M", "2^5", "--b", "nan"), "--b"),
    (("example1", "--seed", "3"), "--seed"),
    (("example2", "--seed", "3"), "--seed"),
    (("verify", "--threads", "2"), "--threads"),
    (("mgbench", "--alp", "1.5"), "--alp"),
    (("example1", "--T", "inf"), "--T"),
    (("example1", "--lambda", "inf"), "--lambda"),
    (("mgbench", "--sigma", "inf"), "--sigma"),
    (("example1", "--tol", "inf"), "--tol"),
    (("example1", "--tol", "nan"), "--tol"),
    (("example1", "--lambda", "1e200"), "--lambda"),
    (("mgbench", "--lambda", "1e300"), "--lambda"),
    (("mgbench", "--a=-1e307", "--b", "1e307"), "--a -1e+307 --b 1e+307"),
    (("example2", "--lambda", "1e200"), "--lambda"),
    (("verify", "--lambda", "1e300"), "--lambda"),
])
def test_unread_or_invalid_flag_is_usage_error(args, flag):
    # a flag the subcommand does not read, a size no mesh accepts, a
    # multigrid value MgConfig rejects, a run or problem value out of
    # range, an empty interval, or a tempering whose lam^alpha or
    # (lam (b - a))^alpha overflows is refused before any work rather than
    # silently ignored or failing as a run error
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("example1", "--M", "8"),
    ("example1", "--M", "64,16", "--coarse-max", "15"),
    ("example2", "--M", "2^5,2^6", "--coarse-max", "31"),
    ("mgbench", "--M", "32", "--coarse-max", "40"),
    ("verify", "--coarse-max", "31"),
])
def test_single_level_size_is_usage_error(args):
    # a mesh whose interior size is at or below --coarse-max has no level
    # to cycle on; that is a bad flag combination, found before any run
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "--coarse-max" in proc.stderr and "usage error" in proc.stderr
    assert proc.stdout == ""


def test_verify_single_level_names_its_check_mesh():
    # verify takes no --M, so the message names the mesh its checks run on
    proc = run_cli("verify", "--coarse-max", "31")
    assert proc.returncode == 2
    assert ("usage error: the 32-cell check mesh leaves 31 interior nodes, "
            "at or below --coarse-max 31") in proc.stderr
    assert "--M" not in proc.stderr
    assert proc.stdout == ""


def test_overflowing_domain_width_is_usage_error():
    # a < b, both finite, but b - a overflows: refused naming both flags
    # instead of failing inside the stiffness assembly
    proc = run_cli("mgbench", "--M", "32", "--a=-1e308", "--b", "1e308")
    assert proc.returncode == 2
    assert "usage error: --a -1e+308 --b 1e+308" in proc.stderr
    assert "finite width" in proc.stderr
    assert proc.stdout == ""


# the problem, multigrid and output flags every subcommand reads
SHARED_FLAGS = {"-h", "--help", "--alpha", "--lambda", "--m1", "--m2",
                "--eta-pre", "--eta-post", "--tol", "--max-iter",
                "--coarse-max", "--format", "--out"}


@pytest.mark.parametrize("command, flags", [
    ("example1", {"--b", "--T", "--M", "--threads"}),
    ("example2", {"--M", "--threads"}),
    ("mgbench", {"--sigma", "--a", "--b", "--M", "--seed", "--threads"}),
    ("verify", {"--seed", "--inject-fault"}),
])
def test_each_subcommand_accepts_exactly_the_flags_it_reads(command, flags):
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    accepted = {option for action in sub.choices[command]._actions
                for option in action.option_strings}
    assert accepted == SHARED_FLAGS | flags


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2
