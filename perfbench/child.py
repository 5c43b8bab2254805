"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A fresh process per repetition matters: ``tempermg.assembly`` caches
stiffness symbols for the life of the process, so a second in-process run
would skip assembly and report a near-zero set-up time.

Usage (normally only ``run.py`` calls this)::

    python3 perfbench/child.py '<workload spec as JSON>' --trace 0|1 [--spans PATH]

The spec holds the resolved problem parameters (see ``run.resolve``).  The
child solves the problem once through ``timestep.run_simulation``, checks the
result, and prints one JSON object on its last stdout line: ``ok``, the
failure reason if any, and its measurements.  Without tracing, a reference
clock marks the call and every 16th time step (see ``refclock.py``).  With ``--trace 1``
the public functions of every solver module are wrapped instead (see
``spans.py``) and the per-layer metrics are computed from the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg as sla

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tempermg  # noqa: E402
from tempermg import assembly, fracquad, multigrid, timestep, toeplitz  # noqa: E402

if not Path(tempermg.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"tempermg was imported from {tempermg.__file__}, not from {ROOT / 'src'}")

from metrics import LEVEL_CELLS  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402

STRUCTURE_WARNING = "stiffness structure check failed"


def make_problem(spec):
    if spec["problem"] == "example1":
        return assembly.make_example1(spec["alpha"], spec["lam"])
    if spec["problem"] == "example2":
        return assembly.make_example2(spec["alpha"], spec["lam"])
    raise ValueError(f"unknown problem {spec['problem']!r}")


def install_tracer(peaks, contraction, levels):
    """Wrap the public functions of each module on the solver's call paths."""
    tr = Tracer()

    def cells_of_vector(self, x):
        return self.n + 1

    def record_history(result):
        hist = result.residual_history
        contraction.extend(b / a for a, b in zip(hist, hist[1:]) if a > 0)

    tr.wrap(toeplitz.SymToeplitz, "matvec", "toeplitz.matvec", cells_of_vector)
    tr.wrap(toeplitz.SymToeplitz, "__init__", "toeplitz.init")
    tr.wrap(fracquad, "tempered_left_deriv", "fracquad.tempered_deriv")
    tr.wrap(fracquad, "tempered_right_deriv", "fracquad.tempered_deriv")
    tr.wrap(fracquad, "gauss_jacobi", "fracquad.gauss_jacobi")
    tr.wrap(fracquad, "jacobi_gl", "fracquad.jacobi_gl")
    tr.wrap(assembly, "frac_pair_symbol", "assembly.frac_pair_symbol",
            lambda mesh, *a: mesh.cells)
    # outside the span, so tracemalloc's own start/stop is not charged to it
    tr.wrap_peak_memory(assembly, "frac_pair_symbol", peaks)
    tr.wrap(multigrid, "assemble_level", "assembly.assemble_level",
            lambda problem, mesh, *a: mesh.cells)
    tr.wrap(timestep, "profile_load", "assembly.profile_load")
    tr.wrap(timestep, "build_hierarchy", "multigrid.build_hierarchy",
            on_result=lambda hier: levels.append(len(hier.levels)))
    tr.wrap(timestep, "mg_solve", "multigrid.mg_solve", on_result=record_history)
    tr.wrap(multigrid, "v_cycle", "multigrid.v_cycle",
            lambda hier, k, *a: hier.levels[k].mesh.cells)
    tr.wrap(multigrid, "jacobi_smooth", "multigrid.jacobi_smooth",
            lambda level, *a: level.mesh.cells)
    tr.wrap(multigrid, "restrict", "multigrid.restrict")
    tr.wrap(multigrid, "prolongate", "multigrid.prolongate")
    tr.wrap(multigrid.Hierarchy, "coarse_solve", "multigrid.coarse_solve")
    tr.wrap(timestep, "cn_step", "timestep.cn_step")
    tr.wrap(timestep, "run_simulation", "timestep.run_simulation")
    return tr


def layer_metrics(table: SpanTable, peaks, contraction, levels, warnings_seen):
    """Per-layer metrics from one traced run (see README.md for the table)."""
    out = {}

    def calls(name, parent=None):
        return int(np.count_nonzero(table.of(name, parent)))

    def total(name):
        return float(table.duration[table.of(name)].sum())

    def self_s(name):
        return float(table.self_time[table.of(name)].sum())

    matvec = table.of("toeplitz.matvec")
    out["toeplitz.matvec.calls"] = calls("toeplitz.matvec")
    out["toeplitz.matvec.self_s"] = self_s("toeplitz.matvec")
    for cells in LEVEL_CELLS:
        at = matvec & (table.size == cells)
        n = int(np.count_nonzero(at))
        out[f"toeplitz.matvec.calls.m{cells}"] = n
        out[f"toeplitz.matvec.us_per_call.m{cells}"] = (
            float(np.median(table.duration[at])) * 1e6 if n else 0.0)
    out["toeplitz.init.calls"] = calls("toeplitz.init")
    out["toeplitz.init.s"] = total("toeplitz.init")

    out["fracquad.tempered_deriv.calls"] = calls("fracquad.tempered_deriv")
    out["fracquad.tempered_deriv.s"] = total("fracquad.tempered_deriv")
    out["fracquad.gauss_jacobi.calls"] = calls("fracquad.gauss_jacobi")
    out["fracquad.gauss_jacobi.s"] = total("fracquad.gauss_jacobi")
    out["fracquad.jacobi_gl.calls"] = calls("fracquad.jacobi_gl")
    out["fracquad.jacobi_gl.s"] = total("fracquad.jacobi_gl")

    pair = table.of("assembly.frac_pair_symbol")
    out["assembly.frac_pair_symbol.calls"] = calls("assembly.frac_pair_symbol")
    out["assembly.frac_pair_symbol.self_s"] = self_s("assembly.frac_pair_symbol")
    for cells in LEVEL_CELLS:
        out[f"assembly.frac_pair_symbol.s.m{cells}"] = float(
            table.duration[pair & (table.size == cells)].sum())
    out["assembly.frac_pair_symbol.peak_mb"] = max(peaks, default=0.0)
    out["assembly.assemble_level.self_s"] = self_s("assembly.assemble_level")
    out["assembly.profile_load.s"] = total("assembly.profile_load")
    out["assembly.structure_warnings"] = warnings_seen

    out["multigrid.build_hierarchy.s"] = total("multigrid.build_hierarchy")
    out["multigrid.levels"] = max(levels, default=0)
    out["multigrid.mg_solve.calls"] = calls("multigrid.mg_solve")
    out["multigrid.mg_solve.self_s"] = self_s("multigrid.mg_solve")
    vcycles = calls("multigrid.v_cycle", "multigrid.mg_solve")
    out["multigrid.vcycles"] = vcycles
    cycle_matvecs = calls("toeplitz.matvec", ["multigrid.mg_solve",
                                              "multigrid.v_cycle",
                                              "multigrid.jacobi_smooth"])
    out["multigrid.matvecs_per_vcycle"] = cycle_matvecs / vcycles if vcycles else 0.0
    ratios = np.asarray(contraction) if contraction else np.zeros(1)
    out["multigrid.contraction.p50"] = float(np.percentile(ratios, 50))
    out["multigrid.contraction.p90"] = float(np.percentile(ratios, 90))
    out["multigrid.v_cycle.self_s"] = self_s("multigrid.v_cycle")
    out["multigrid.jacobi_smooth.calls"] = calls("multigrid.jacobi_smooth")
    out["multigrid.jacobi_smooth.self_s"] = self_s("multigrid.jacobi_smooth")
    out["multigrid.restrict.s"] = total("multigrid.restrict")
    out["multigrid.prolongate.s"] = total("multigrid.prolongate")
    out["multigrid.coarse_solve.calls"] = calls("multigrid.coarse_solve")
    out["multigrid.coarse_solve.s"] = total("multigrid.coarse_solve")

    steps_ms = table.duration[table.of("timestep.cn_step")] * 1e3
    out["timestep.cn_step.calls"] = int(steps_ms.size)
    out["timestep.cn_step.self_s"] = self_s("timestep.cn_step")
    out["timestep.step_ms.p50"] = float(np.median(steps_ms)) if steps_ms.size else 0.0
    # p99 needs at least ten samples beyond it
    out["timestep.step_ms.p99"] = (float(np.percentile(steps_ms, 99))
                                   if steps_ms.size >= 1000 else 0.0)
    out["timestep.run_simulation.self_s"] = self_s("timestep.run_simulation")

    # self time per module; together they cover the traced total exactly
    module = np.array([name.split(".")[0] for name in table.name])
    for mod in ("toeplitz", "fracquad", "assembly", "multigrid", "timestep"):
        out[f"{mod}.self_s"] = float(table.self_time[module == mod].sum())
    out["trace.total_s"] = total("timestep.run_simulation")
    out["trace.spans"] = int(table.duration.size)
    return out


def dense_cn_final(problem, mesh, N):
    """Final state of Crank-Nicolson with dense direct solves (homogeneous
    problems only): the oracle for the multigrid time loop."""
    level = assembly.assemble_level(problem, mesh, problem.T / N)
    lhs = sla.cho_factor(level.system.dense())
    rhs = (level.mass.dense() / level.tau - 0.5 * level.stiff.dense()) / mesh.h
    u = np.asarray(problem.u0(mesh.interior_nodes()), dtype=float)
    for _ in range(N):
        u = sla.cho_solve(lhs, rhs @ u)
    return u


def check(spec, problem, rec):
    """Correctness checks; returns (l2_error, failure reason or None)."""
    mesh = assembly.Mesh(problem.a, problem.b, spec["M"])
    if not np.all(np.isfinite(rec.final)):
        return float("nan"), "non-finite final state"
    if problem.exact is not None:
        err = rec.l2_error
        # the L2 norm of the exact solution: its distance to the zero state
        norm = assembly.fe_l2_error(mesh, np.zeros_like(rec.final),
                                    problem.exact, problem.T)
        if not err / norm <= spec["max_rel_error"]:
            return err, (f"relative L2 error {err / norm:.3e} above "
                         f"{spec['max_rel_error']:.1e}")
        band = spec.get("reference_band")
        if band and not band[0] <= err <= band[1]:
            return err, f"L2 error {err:.4e} outside the reference band {band}"
        return err, None
    ref = dense_cn_final(problem, mesh, spec["N"])
    diff = rec.final - ref
    err = float(np.sqrt(mesh.h * np.sum(diff ** 2)))
    norm = float(np.sqrt(mesh.h * np.sum(ref ** 2)))
    if not err <= spec["max_rel_error"] * norm:
        return err, (f"distance {err:.3e} to the dense direct solve above "
                     f"{spec['max_rel_error']:.1e} relative")
    return err, None


def run(spec, trace, spans_path=None):
    problem = make_problem(spec)
    peaks, contraction, levels = [], [], []
    clock = RefClock()
    if trace:
        # marks inside the call would land in the spans: none while tracing
        tracer = install_tracer(peaks, contraction, levels)
    else:
        tracer = None
        clock.install(timestep)
    out = {"ok": False, "reason": None}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            clock.mark()
            rec = timestep.run_simulation(problem, spec["M"], spec["N"])
            clock.mark()
    except (RuntimeError, FloatingPointError, ValueError) as exc:
        # a multigrid stall or an assembly structure failure: a failed run
        out["reason"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        clock.uninstall()
        if tracer is not None:
            tracer.unwrap()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    structure = sum(STRUCTURE_WARNING in str(w.message) for w in caught)
    for w in caught:
        if STRUCTURE_WARNING not in str(w.message):
            print(f"warning: {w.category.__name__}: {w.message}", file=sys.stderr)
    err, reason = check(spec, problem, rec)
    secs = clock.seconds()
    out.update(ok=reason is None, reason=reason, metrics={
        "setup_s": secs["setup_ref"],
        "march_s": secs["march_ref"],
        "total_s": secs["setup_ref"] + secs["march_ref"],
        "total_cpu_s": secs["setup_ref_cpu"] + secs["march_ref_cpu"],
        "vcycles_per_step": float(np.mean(rec.iterations)),
        "l2_error": err,
        "peak_rss_mb": peak_rss_mb,
    }, wall={
        "setup_s": secs["setup_wall"],
        "march_s": secs["march_wall"],
        "total_s": secs["setup_wall"] + secs["march_wall"],
        "total_cpu_s": secs["setup_cpu"] + secs["march_cpu"],
    }, vcycles=int(np.sum(rec.iterations)), structure_warnings=structure)
    if tracer is not None:
        table = SpanTable(tracer)
        out["layers"] = layer_metrics(table, peaks, contraction, levels, structure)
        if out["layers"]["multigrid.vcycles"] != out["vcycles"]:
            out.update(ok=False, reason="traced V-cycle count disagrees with "
                                        "the solution record")
        if spans_path:
            tracer.save(spans_path)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    print(json.dumps(run(json.loads(args.spec), bool(args.trace), args.spans)))


if __name__ == "__main__":
    main()
