"""End-to-end command-line checks through real subprocess invocations."""

import argparse
import subprocess
import sys

import pytest

from tempermg import cli

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
    assert "RESULT: PASS (10 checks, 0 failed" in verify_run.stdout


def test_verify_reports_every_check(verify_run):
    status = [line.split(",")[1] for line in verify_run.stdout.splitlines()
              if line.split(",")[1:2] and line.split(",")[1] in ("PASS", "FAIL",
                                                                 "WARN")]
    assert len(status) == 10
    assert set(status) <= {"PASS", "WARN"}


def test_verify_catches_injected_fault():
    proc = run_cli("verify", "--inject-fault")
    assert proc.returncode == 1
    assert "RESULT: FAIL" in proc.stdout
    assert "FAIL" in proc.stdout


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


@pytest.mark.parametrize("command", ["example1", "example2", "mgbench"])
def test_quad_order_is_verify_only(command):
    # no benchmark evaluates a pointwise fractional derivative, so setting
    # the rule size there is an error rather than silently ignored
    proc = run_cli(command, "--quad-order", "50", "--M", "2^5")
    assert proc.returncode == 2
    assert "--quad-order" in proc.stderr
    assert proc.stdout == ""


def test_verify_quad_order_defaults_to_100():
    args = cli.build_parser().parse_args(["verify"])
    assert args.quad_order is None
    default = cli._check_power_rule(args)
    assert default[0] == "PASS"
    assert default == cli._check_power_rule(argparse.Namespace(quad_order=100))


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2
