"""Smoke test of the benchmark harness at tiny problem sizes.

Runs the full pipeline (fresh child interpreters, correctness checks,
tracing, result line) on shrunken copies of the three workloads.  Nothing
here asserts on wall-clock time.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

# Tiny sizes; the frozen reference band only holds at M = N = 1024, and the
# exact-solution tolerance is widened to the coarse meshes' error.
TINY = {
    "march-ex1-m1024": {"M": 32, "N": 8, "max_rel_error": 5e-2,
                        "reference_band": None},
    "decay-ex2-m128": {"M": 16, "N": 8},
    "oneshot-ex1-m4096": {"M": 64, "N": 2, "max_rel_error": 5e-2},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, {**run.WORKLOADS[name], **sizes})
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def result_of(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = result_of(capsys, [
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace)])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"{name} " in "\n".join(lines)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tiny / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["cpu_count"] >= 1
    assert "loadavg_after" in record["environment"]
    if trace:
        layers = result["metrics"]
        # the self times of the traced layers account for the traced total
        modules = sum(layers[f"{m}.self_s"]["value"] for m in
                      ("toeplitz", "fracquad", "assembly", "multigrid", "timestep"))
        assert modules == pytest.approx(layers["trace.total_s"]["value"], rel=1e-9)
        assert layers["multigrid.vcycles"]["value"] > 0
        assert (tiny / f"{workload}-seed3-trace1-spans.npz").is_file()


def test_counts_repeat_exactly(tiny, capsys):
    runs = [result_of(capsys, ["--workload", "decay-ex2-m128", "--seed", "5",
                               "--seconds", "0", "--trace", "1"])[2]["metrics"]
            for _ in range(2)]
    for name in ("toeplitz.matvec.calls", "multigrid.vcycles",
                 "multigrid.matvecs_per_vcycle", "timestep.cn_step.calls"):
        assert runs[0][name] == runs[1][name]


def test_failed_check_is_counted_not_dropped(tiny):
    spec = run.resolve("march-ex1-m1024", 0)
    spec["reference_band"] = [0.0, 1e-12]
    rep = run.run_child(spec, trace=False, timeout=120)
    assert not rep["ok"] and "reference band" in rep["reason"]

    spec = run.resolve("decay-ex2-m128", 0)
    spec["max_rel_error"] = 1e-30
    reps = run.measure(spec, seconds=0, trace=False)
    assert len(reps) == run.MIN_REPS and not any(r["ok"] for r in reps)
    assert all("dense direct solve" in r["reason"] for r in reps)
    assert run.summarize(reps, trace=False) == {}


def test_seeds_move_one_parameter_within_its_band():
    for name, base in run.WORKLOADS.items():
        assert run.resolve(name, 0)[base["vary"]] == base[base["vary"]]
        for seed in (1, 2, 3):
            spec = run.resolve(name, seed)
            assert spec == run.resolve(name, seed)
            assert abs(spec[base["vary"]] - base[base["vary"]]) <= base["band"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-ex2-m128",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
