"""tempermg benchmark: time to solution on three fixed solver workloads.

Run from the repository root::

    python3 perfbench/run.py --workload march-ex1-m1024 --seed 0 --seconds 35 --trace 0

Each repetition runs in a fresh single-threaded interpreter (``child.py``),
so every repetition pays the full set-up.  Repetitions continue until
``--seconds`` of wall time are used (at least three).  With ``--trace 0`` the
result carries the end-to-end metrics, each the median over repetitions
(the loop in reference seconds, see ``refclock.py``);
with ``--trace 1`` untraced and traced repetitions alternate and the result
carries the per-layer metrics of the traced ones, plus the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy
of the run's environment, raw repetitions and result is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Frozen reference L2 error of make_example1(alpha=1.8, lam=0.5) at
# M = N = 1024 (EX1_REFERENCE in tests/test_acceptance.py); the acceptance
# gate holds the error within a factor of two of it.
EX1_REF_ALPHA18_M1024 = 2.4353e-04

# Seed 0 gives exactly these parameters.  Other seeds move the parameter
# named in "vary" uniformly within +-"band" of it: narrow enough that the
# V-cycle count, the assembly quadrature and the reference band stay put
# (alpha in [1.09, 1.11] keeps frac_pair_symbol's grading depth at 23).
WORKLOADS = {
    "march-ex1-m1024": {
        "problem": "example1", "alpha": 1.8, "lam": 0.5, "M": 1024, "N": 1024,
        "vary": "lam", "band": 0.01, "max_rel_error": 1e-5,
        "reference_band": [EX1_REF_ALPHA18_M1024 / 2, EX1_REF_ALPHA18_M1024 * 2],
    },
    "decay-ex2-m128": {
        "problem": "example2", "alpha": 1.1, "lam": 0.5, "M": 128, "N": 1024,
        "vary": "lam", "band": 0.01, "max_rel_error": 1e-8,
    },
    "oneshot-ex1-m4096": {
        "problem": "example1", "alpha": 1.1, "lam": 0.0, "M": 4096, "N": 4,
        "vary": "alpha", "band": 0.01, "max_rel_error": 1e-2,
    },
}

MIN_REPS = 3
# Stop starting repetitions once this much of the 180 s run limit is used.
RUN_BUDGET_S = 150.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def resolve(name, seed):
    """Problem parameters of workload ``name`` for ``seed``."""
    spec = {k: v for k, v in WORKLOADS[name].items() if k not in ("vary", "band")}
    spec["name"] = name
    if seed != 0:
        base = WORKLOADS[name]
        shift = np.random.default_rng(seed).uniform(-1.0, 1.0) * base["band"]
        spec[base["vary"]] = base[base["vary"]] + shift
    return spec


def cache_sizes():
    """L2/L3 sizes as the kernel reports them for cpu0 ('unknown' if not)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"L2": sizes.get("L2", "unknown"), "L3": sizes.get("L3", "unknown")}


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "cache": cache_sizes(),
    }


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(spec, trace, timeout, spans_path=None):
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec),
           "--trace", str(int(trace))]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "reason": f"repetition exceeded {timeout:.0f} s"}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "reason": f"child exited with {proc.returncode}"}
    return json.loads(lines[-1])


def measure(spec, seconds, trace, spans_path=None):
    """Run repetitions for ``seconds``; returns the list of child results.

    Traced runs alternate untraced and traced repetitions, starting
    untraced, so both sides see the same machine state.
    """
    reps = []
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(durations) if durations else 0.0
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
        if reps and elapsed + typical > RUN_BUDGET_S:
            break
        traced = trace and len(reps) % 2 == 1
        t0 = time.perf_counter()
        rep = run_child(spec, traced, max(RUN_BUDGET_S + 20.0 - elapsed, 1.0),
                        spans_path if traced else None)
        durations.append(time.perf_counter() - t0)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def summarize(reps, trace):
    """The run's metrics from its successful repetitions ({} if none)."""
    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not trace:
        return {name: {"value": statistics.median(r["metrics"][name] for r in plain),
                       "unit": unit}
                for name, unit in END_TO_END.items()} if plain else {}
    if not plain or not traced:
        return {}
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_share":
            value = (statistics.median(r["wall"]["total_s"] for r in traced)
                     / statistics.median(r["wall"]["total_s"] for r in plain) - 1.0)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tempermg" / "__init__.py").is_file():
        print(f"error: no tempermg sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    spec = resolve(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    reps = measure(spec, args.seconds, bool(args.trace), OUT / f"{tag}-spans.npz")
    env["loadavg_after"] = os.getloadavg()

    failed = sum(not r["ok"] for r in reps)
    metrics = summarize(reps, bool(args.trace))
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(reps),
              "failed": failed, "metrics": metrics}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"spec": spec, "environment": env, "repetitions": reps,
                   "result": result}, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} "
          + " ".join(f"{k}={spec[k]}" for k in ("alpha", "lam", "M", "N")))
    print("# environment " + json.dumps(env))
    for rep in reps:
        if not rep["ok"]:
            print(f"# failed repetition: {rep['reason']}")
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    plain = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    if plain:
        print("# time to solution, not bounded (set-up carries the host's "
              "noise): " + " ".join(
                  f"{name}={statistics.median(rep['metrics'][name] for rep in plain):.6g}"
                  for name in ("total_s", "total_cpu_s")))
        print("# raw wall-clock medians: " + " ".join(
            f"{name}={statistics.median(rep['wall'][name] for rep in plain):.6g}"
            for name in plain[0]["wall"]))
    print(f"failed_share {failed / len(reps):.6g} 1")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
