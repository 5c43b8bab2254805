"""Names and units of the benchmark's metrics (mirrored in BENCHMARK.json)."""

# Mesh cell counts that any workload's hierarchy can reach (8 = the coarsest
# level at the default coarse_max = 7; 4096 = the finest of any workload).
# Per-level metrics of a level a workload does not have read 0.
LEVEL_CELLS = tuple(2 ** k for k in range(3, 13))

END_TO_END = {
    "setup_s": "s",
    "march_s": "s",
    "vcycles_per_step": "count",
    "l2_error": "L2",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "toeplitz.matvec.calls": "count",
    "toeplitz.matvec.self_s": "s",
    **{f"toeplitz.matvec.calls.m{c}": "count" for c in LEVEL_CELLS},
    **{f"toeplitz.matvec.us_per_call.m{c}": "us" for c in LEVEL_CELLS},
    "toeplitz.init.calls": "count",
    "toeplitz.init.s": "s",
    "fracquad.tempered_deriv.calls": "count",
    "fracquad.tempered_deriv.s": "s",
    "fracquad.gauss_jacobi.calls": "count",
    "fracquad.gauss_jacobi.s": "s",
    "fracquad.jacobi_gl.calls": "count",
    "fracquad.jacobi_gl.s": "s",
    "assembly.frac_pair_symbol.calls": "count",
    "assembly.frac_pair_symbol.self_s": "s",
    **{f"assembly.frac_pair_symbol.s.m{c}": "s" for c in LEVEL_CELLS},
    "assembly.frac_pair_symbol.peak_mb": "MB",
    "assembly.assemble_level.self_s": "s",
    "assembly.profile_load.s": "s",
    "assembly.structure_warnings": "count",
    "multigrid.build_hierarchy.s": "s",
    "multigrid.levels": "count",
    "multigrid.mg_solve.calls": "count",
    "multigrid.mg_solve.self_s": "s",
    "multigrid.vcycles": "count",
    "multigrid.matvecs_per_vcycle": "count",
    "multigrid.contraction.p50": "1",
    "multigrid.contraction.p90": "1",
    "multigrid.v_cycle.self_s": "s",
    "multigrid.jacobi_smooth.calls": "count",
    "multigrid.jacobi_smooth.self_s": "s",
    "multigrid.restrict.s": "s",
    "multigrid.prolongate.s": "s",
    "multigrid.coarse_solve.calls": "count",
    "multigrid.coarse_solve.s": "s",
    "timestep.cn_step.calls": "count",
    "timestep.cn_step.self_s": "s",
    "timestep.step_ms.p50": "ms",
    "timestep.step_ms.p99": "ms",
    "timestep.run_simulation.self_s": "s",
    "toeplitz.self_s": "s",
    "fracquad.self_s": "s",
    "assembly.self_s": "s",
    "multigrid.self_s": "s",
    "timestep.self_s": "s",
    "trace.total_s": "s",
    "trace.spans": "count",
    "trace.overhead_share": "1",
}
