"""Command-line front end: benchmark tables, multigrid sweeps, self-checks.

Four subcommands: `example1` (manufactured-solution convergence table),
`example2` (homogeneous decay, three-mesh rates), `mgbench` (V-cycle
contraction / iteration sweeps with uniformity checks), and `verify`
(property-suite manifest).  Exit codes: 0 success, 1 failed check or module
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from . import assembly, diagnostics, fracquad, multigrid, timestep, toeplitz


class UsageError(ValueError):
    """Semantically invalid flag combination (exit code 2)."""


# ---------------------------------------------------------------------------
# argument parsing


def _parse_sizes(text: str) -> List[int]:
    """Comma list of mesh sizes; accepts plain ints and the 2^k shorthand."""
    sizes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "^" in token:
                base, exp = token.split("^", 1)
                sizes.append(int(base) ** int(exp))
            else:
                sizes.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad mesh size {token!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    prob = shared.add_argument_group("problem")
    prob.add_argument("--alpha", action="append", type=float, metavar="A",
                      help="fractional order in (1,2); repeat for several")
    prob.add_argument("--lambda", dest="lam", type=float, default=0.5,
                      metavar="L", help="tempering strength (default 0.5)")
    prob.add_argument("--sigma", type=float, default=None, metavar="S",
                      help="reaction coefficient (mgbench only; benchmarks "
                           "derive their own)")
    prob.add_argument("--a", type=float, default=None, metavar="A0",
                      help="left endpoint (fixed for the benchmark runs)")
    prob.add_argument("--b", type=float, default=None, metavar="B0",
                      help="right endpoint")
    prob.add_argument("--T", type=float, default=None,
                      help="final time (default 1)")
    prob.add_argument("--M", type=_parse_sizes, action="extend", default=None,
                      metavar="LIST",
                      help='mesh sizes as a comma list ("2^7,2^8,512") '
                           "and/or repeated flags")
    mg = shared.add_argument_group("multigrid")
    mg.add_argument("--m1", type=int, default=1, help="pre-smoothing steps")
    mg.add_argument("--m2", type=int, default=2, help="post-smoothing steps")
    mg.add_argument("--eta-pre", type=float, default=0.5, metavar="R",
                    help="pre-smoother damping in (0, 1/2]")
    mg.add_argument("--eta-post", type=float, default=0.5, metavar="R",
                    help="post-smoother damping in (0, 1/2]")
    mg.add_argument("--tol", type=float, default=1e-10,
                    help="relative residual target")
    mg.add_argument("--max-iter", type=int, default=100,
                    help="V-cycle iteration cap")
    mg.add_argument("--coarse-max", type=int, default=7, metavar="I",
                    help="direct solve at or below this interior size")
    misc = shared.add_argument_group("run")
    misc.add_argument("--quad-order", type=int, default=None, metavar="I",
                      help="verify only: node count of the pointwise "
                           "fractional-derivative quadrature in the power-rule "
                           "check (default 100)")
    misc.add_argument("--seed", type=int, default=0,
                      help="seed for randomized checks")
    misc.add_argument("--threads", type=int, default=1,
                      help="worker threads for independent cases")
    misc.add_argument("--format", choices=("csv", "markdown"), default="csv",
                      help="table format")
    misc.add_argument("--out", default=None, metavar="PATH",
                      help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="solver",
        description="Tempered fractional diffusion benchmarks and checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "example1", parents=[shared],
        help="manufactured-solution convergence table (error/rate/iter/cpu)")
    sub.add_parser(
        "example2", parents=[shared],
        help="homogeneous decay benchmark; rates from three nested meshes")
    sub.add_parser(
        "mgbench", parents=[shared],
        help="V-cycle contraction factors across an (M, tau) grid")
    verify = sub.add_parser(
        "verify", parents=[shared],
        help="run the property suites and print a pass/fail manifest")
    verify.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _mg_config(args: argparse.Namespace) -> multigrid.MgConfig:
    return multigrid.MgConfig(
        m1=args.m1, m2=args.m2, eta_pre=args.eta_pre, eta_post=args.eta_post,
        tol=args.tol, max_iter=args.max_iter, coarse_max=args.coarse_max)


def _require_default(args, name: str, allowed=None):
    value = getattr(args, name)
    if value is not None and (allowed is None or value not in allowed):
        flag = name.replace("_", "-")
        raise UsageError(f"--{flag} cannot be set for {args.command}")


# ---------------------------------------------------------------------------
# output helpers


def _render_block(title: str, header: Sequence[str],
                  rows: Sequence[Sequence[str]], fmt: str) -> List[str]:
    if fmt == "csv":
        lines = [f"# {title}", ",".join(header)]
        lines += [",".join(row) for row in rows]
    else:
        lines = [f"### {title}", "",
                 "| " + " | ".join(header) + " |",
                 "|" + "|".join(" ---: " for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines.append("")
    return lines


def _emit(lines: List[str], out: Optional[str]) -> None:
    text = "\n".join(lines).rstrip("\n") + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _map_cases(fn: Callable, cases: Sequence, threads: int) -> list:
    if threads <= 1:
        return [fn(case) for case in cases]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cases))


def _fmt_rate(rate: Optional[float]) -> str:
    return "" if rate is None else f"{rate:.4f}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_example1(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.1, 1.8]
    sizes = args.M or [128, 256, 512, 1024]
    _require_default(args, "a", allowed=(0.0,))
    for name in ("sigma", "quad_order"):
        _require_default(args, name)
    b_end = 32.0 if args.b is None else args.b
    horizon = 1.0 if args.T is None else args.T
    config = _mg_config(args)
    problems = {alpha: assembly.make_example1(alpha, args.lam, b_end, horizon)
                for alpha in alphas}

    def run(case):
        alpha, m = case
        return timestep.run_simulation(problems[alpha], m, m, config=config)

    cases = [(alpha, m) for alpha in alphas for m in sizes]
    records = dict(zip(cases, _map_cases(run, cases, args.threads)))

    lines: List[str] = []
    for alpha in alphas:
        rows = []
        prev_err = None
        for m in sizes:
            rec = records[(alpha, m)]
            rate = (None if prev_err is None
                    else timestep.rate_from_errors(prev_err, rec.l2_error))
            prev_err = rec.l2_error
            rows.append((str(m), f"{rec.l2_error:.4e}", _fmt_rate(rate),
                         str(round(rec.mean_iterations)),
                         f"{rec.loop_seconds:.3f}",
                         f"{rec.assembly_seconds:.3f}"))
        lines += _render_block(f"alpha={alpha:g}",
                               ("N", "error", "rate", "iter", "cpu_s",
                                "assembly_s"), rows, args.format)
    _emit(lines, args.out)
    return 0


def cmd_example2(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.1, 1.5, 1.9]
    sizes = args.M or [128, 256, 512, 1024]
    for name in ("a", "b", "T", "sigma", "quad_order"):
        _require_default(args, name)
    config = _mg_config(args)

    def run(alpha):
        problem = assembly.make_example2(alpha, args.lam)
        cache: dict = {}
        rates = {}
        for prev, n in zip(sizes, sizes[1:]):
            if n == 2 * prev:  # rate defined only along a doubling chain
                rates[n] = timestep.rate_three_mesh(problem, n, n,
                                                    config=config, cache=cache)
        rows = []
        for n in sizes:
            for size in (n, 2 * n):
                if (size, size) not in cache:
                    cache[(size, size)] = timestep.run_simulation(
                        problem, size, size, config=config)
            dist = timestep.shared_node_distance(cache[(n, n)],
                                                 cache[(2 * n, 2 * n)])
            rows.append((str(n), f"{dist:.4e}", _fmt_rate(rates.get(n))))
        return rows

    results = _map_cases(run, alphas, args.threads)
    lines: List[str] = []
    for alpha, rows in zip(alphas, results):
        lines += _render_block(f"alpha={alpha:g}", ("N", "error", "rate"),
                               rows, args.format)
    _emit(lines, args.out)
    return 0


def cmd_mgbench(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.5]
    sizes = args.M or [64, 128, 256, 512, 1024]
    taus = (1.0, 1e-3, 1e-6)
    _require_default(args, "quad_order")
    lo = 0.0 if args.a is None else args.a
    hi = 1.0 if args.b is None else args.b
    sigma = 0.0 if args.sigma is None else args.sigma
    config = _mg_config(args)

    def hierarchy(problem, m, tau):
        return multigrid.build_hierarchy(problem, assembly.Mesh(lo, hi, m),
                                         tau, config)

    def run_cell(case):
        problem, m, tau = case
        hier = hierarchy(problem, m, tau)
        factor = multigrid.contraction_factor(hier, args.m1, args.m2,
                                              seed=args.seed)
        rng = np.random.default_rng(args.seed)
        target = rng.standard_normal(hier.fine.mesh.n_interior)
        result = multigrid.mg_solve(hier, hier.fine.apply(target))
        return factor, result.iters, result.converged

    lines: List[str] = []
    failures: List[str] = []
    for alpha in alphas:
        problem = assembly.ProblemSpec(alpha, args.lam, sigma, lo, hi, 1.0)
        cells = [(problem, m, tau) for m in sizes for tau in taus]
        measured = dict(zip([(m, tau) for _, m, tau in cells],
                            _map_cases(run_cell, cells, args.threads)))
        rows = [(str(m), f"{tau:.0e}", f"{measured[(m, tau)][0]:.4f}",
                 str(measured[(m, tau)][1]))
                for m in sizes for tau in taus]
        lines += _render_block(f"alpha={alpha:g}",
                               ("M", "tau", "factor", "iters"),
                               rows, args.format)

        sweep_hier = hierarchy(problem, max(sizes), 1.0)
        sweep = [(m, multigrid.contraction_factor(sweep_hier, m, m,
                                                  seed=args.seed))
                 for m in (1, 2, 4, 8)]
        lines += _render_block(
            f"smoothing sweep alpha={alpha:g} M={max(sizes)} tau=1",
            ("m", "factor"), [(str(m), f"{f:.4f}") for m, f in sweep],
            args.format)

        factors = [measured[key][0] for key in measured]
        iters = [measured[key][1] for key in measured]
        solved = all(measured[key][2] for key in measured)
        spread = max(factors) - min(factors)
        checks = (
            ("factor_below_0.9", max(factors) < 0.9,
             f"max {max(factors):.4f}"),
            ("iterations_at_most_30", solved and max(iters) <= 30,
             f"max {max(iters)}"),
            ("smoothing_monotone",
             all(x > y for (_, x), (_, y) in zip(sweep, sweep[1:])),
             "factors " + "/".join(f"{f:.3f}" for _, f in sweep)),
            ("factor_spread_below_0.15", spread < 0.15,
             f"spread {spread:.4f}"),
        )
        rows = []
        for name, ok, detail in checks:
            rows.append((name, "PASS" if ok else "FAIL", detail))
            if not ok:
                failures.append(f"alpha={alpha:g} {name}")
        lines += _render_block(f"checks alpha={alpha:g}",
                               ("check", "status", "detail"), rows,
                               args.format)
    _emit(lines, args.out)
    if failures:
        print("failed: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify checks


def _rel(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))


def _check_fft_vs_dense(args) -> Tuple[str, str]:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for n in (2, 3, 5, 8, 16, 64, 129, 512):
        op = toeplitz.SymToeplitz(rng.standard_normal(n))
        x = rng.standard_normal(n)
        ref = scipy.linalg.toeplitz(op.first_col) @ x
        # the FFT path at every size, whichever path matvec takes at this n
        worst = max(worst, _rel(op._fft_matvec(x), ref), _rel(op.matvec(x), ref))
    return ("PASS" if worst <= 1e-12 else "FAIL", f"max rel {worst:.2e}")


def _check_adjointness(args) -> Tuple[str, str]:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for nc in (7, 15, 31):
        nf = 2 * nc + 1
        hf = 1.0 / (nf + 1)
        w, v = rng.standard_normal(nf), rng.standard_normal(nc)
        lhs = 2.0 * hf * float(multigrid.restrict(w) @ v)
        rhs = hf * float(w @ multigrid.prolongate(v))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return ("PASS" if worst <= 1e-14 else "FAIL", f"max rel {worst:.2e}")


def _check_galerkin(args) -> Tuple[str, str]:
    # each coarse level against the variational product of the level above
    # and against an independent re-discretization of the problem on its mesh
    problem = assembly.make_example1(1.5, args.lam)
    hier = multigrid.build_hierarchy(problem, assembly.Mesh(0.0, 32.0, 32),
                                     0.1, _mg_config(args))

    def gap(x, ref):
        return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))

    product_gap = rebuilt_gap = 0.0
    for coarse, fine in zip(hier.levels, hier.levels[1:]):
        basis = np.eye(coarse.mesh.n_interior)
        prolong = np.column_stack([multigrid.prolongate(col) for col in basis])
        product = 0.5 * prolong.T @ fine.system.dense() @ prolong
        rebuilt = assembly.assemble_level(problem, coarse.mesh, hier.tau)
        got = coarse.system.dense()
        product_gap = max(product_gap, gap(product, got))
        rebuilt_gap = max(rebuilt_gap, gap(got, rebuilt.system.dense()))
    ok = max(product_gap, rebuilt_gap) <= 1e-12
    return ("PASS" if ok else "FAIL",
            f"max entry rel {product_gap:.2e} vs P^T A P, "
            f"{rebuilt_gap:.2e} vs re-discretized")


def _check_power_rule(args) -> Tuple[str, str]:
    from scipy.special import gamma as gamma_fn
    order = 100 if args.quad_order is None else args.quad_order
    x = np.linspace(0.05, 1.0, 20)
    worst = 0.0
    for alpha in (1.25, 1.75):
        for p in (2, 3, 4):
            u = fracquad.SmoothFn(
                value=lambda s, p=p: s**p,
                first_derivative=lambda s, p=p: p * s**(p - 1),
                second_derivative=lambda s, p=p: p * (p - 1) * s**(p - 2))
            ref = gamma_fn(p + 1) / gamma_fn(p + 1 - alpha) * x**(p - alpha)
            got = fracquad.rl_left_deriv(u, alpha, 0.0, x, order=order)
            worst = max(worst, _rel(got, ref))
            mirrored = fracquad.SmoothFn(
                value=lambda s, p=p: (1.0 - s)**p,
                first_derivative=lambda s, p=p: -p * (1.0 - s)**(p - 1),
                second_derivative=lambda s, p=p: p * (p - 1) * (1.0 - s)**(p - 2))
            got_r = fracquad.rl_right_deriv(mirrored, alpha, 1.0, 1.0 - x,
                                            order=order)
            worst = max(worst, _rel(got_r, ref))
    return ("PASS" if worst <= 1e-8 else "FAIL", f"max rel {worst:.2e}")


def _check_fourier(args) -> Tuple[str, str]:
    bump = diagnostics.windowed_bump(0.0, 1.0)
    cases = (
        (1.0, 0.3, "left", 4096, 1e-6),
        (0.75, 0.0, "left", 4096, 1e-3),
        (0.6, 0.4, "right", 4096, 1e-3),
    )
    details = []
    ok = True
    for nu, lam, direction, grid, tol in cases:
        err = diagnostics.verify_fourier_symbol(bump, nu, lam, grid_size=grid,
                                                direction=direction)
        ok = ok and err <= tol
        details.append(f"nu={nu:g},lam={lam:g},{direction}: {err:.1e}")
    return ("PASS" if ok else "FAIL", "; ".join(details))


def _check_coercivity(args) -> Tuple[str, str]:
    worst = np.inf
    for alpha in args.alpha or (1.1, 1.5, 1.9):
        problem = assembly.make_example1(alpha, lam=1.0)
        level = assembly.assemble_level(problem, assembly.Mesh(0.0, 32.0, 64),
                                        1.0)
        margin = diagnostics.check_discrete_coercivity(level, problem,
                                                       seed=args.seed)
        worst = min(worst, margin)
    return ("PASS" if worst >= -1e-12 else "FAIL", f"min margin {worst:.3e}")


def _check_structure_untempered(args) -> Tuple[str, str]:
    bad = 0
    for alpha in args.alpha or (1.1, 1.5, 1.9):
        problem = assembly.ProblemSpec(alpha, 0.0, 0.0, 0.0, 1.0, 1.0)
        rows = diagnostics.structure_sweep(problem, [64], 1.0)
        bad += len(diagnostics.structure_hard_failures(rows))
    return ("PASS" if bad == 0 else "FAIL", f"{bad} hard failures")


def _check_structure_tempered(args) -> Tuple[str, str]:
    problem = assembly.ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(problem, [64], 1.0)
    suspect = [r for r in rows if r["severity"] == "warn" and not r["ok"]]
    if suspect:
        return ("WARN", f"{len(suspect)} suspect stiffness levels")
    return ("PASS", f"{sum(r['severity'] == 'warn' for r in rows)} levels clean")


def _check_cn_stability(args) -> Tuple[str, str]:
    problem = assembly.make_example2(1.5, args.lam)
    mesh = assembly.Mesh(0.0, 1.0, 64)
    worst = -np.inf
    for steps in (16, 6):  # tau = T/6 is ~10x the mesh width
        hier = multigrid.build_hierarchy(problem, mesh, problem.T / steps,
                                         _mg_config(args))
        u = problem.u0(mesh.interior_nodes())
        norm_prev = float(np.sqrt(mesh.h * (u @ hier.fine.mass.matvec(u))))
        for step in range(steps):
            u, _ = timestep.cn_step(hier, u, step * hier.tau, problem=problem)
            norm_now = float(np.sqrt(mesh.h * (u @ hier.fine.mass.matvec(u))))
            worst = max(worst, (norm_now - norm_prev) / norm_prev)
            norm_prev = norm_now
    return ("PASS" if worst <= 1e-12 else "FAIL", f"max growth {worst:.2e}")


def _check_spectral_scaling(args) -> Tuple[str, str]:
    problem = assembly.ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.spectral_radius_sweep(problem, [32, 64, 128, 256], 1e6)
    if not all(r["converged"] for r in rows):
        return ("FAIL", "power iteration did not converge")
    ratio = rows[-1]["rho"] / rows[-2]["rho"]
    target = 2.0**problem.alpha
    bounds = [r["bound_ratio"] for r in rows]
    ok = abs(ratio - target) <= 0.05 * target and max(bounds) < 2 * min(bounds)
    return ("PASS" if ok else "FAIL",
            f"rho ratio {ratio:.3f} (target {target:.3f}), "
            f"bound spread {max(bounds) / min(bounds):.2f}x")


def cmd_verify(args: argparse.Namespace) -> int:
    checks = (
        ("fft_vs_dense", _check_fft_vs_dense),
        ("transfer_adjointness", _check_adjointness),
        ("galerkin_consistency", _check_galerkin),
        ("power_rule_derivatives", _check_power_rule),
        ("fourier_symbol", _check_fourier),
        ("coercivity_margin", _check_coercivity),
        ("structure_untempered", _check_structure_untempered),
        ("structure_tempered", _check_structure_tempered),
        ("cn_stability", _check_cn_stability),
        ("spectral_scaling", _check_spectral_scaling),
    )
    if args.inject_fault:
        assembly._INJECT_SIGN_FLIP = True
    rows = []
    try:
        for name, fn in checks:
            try:
                status, detail = fn(args)
            except Exception as exc:  # a hard failure, not a crash of ours
                status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
            rows.append((name, status, detail))
    finally:
        assembly._INJECT_SIGN_FLIP = False
    failed = sum(status == "FAIL" for _, status, _ in rows)
    warned = sum(status == "WARN" for _, status, _ in rows)
    lines = _render_block("verification manifest",
                          ("check", "status", "detail"), rows, args.format)
    lines.append(f"RESULT: {'FAIL' if failed else 'PASS'} "
                 f"({len(rows)} checks, {failed} failed, {warned} warnings)")
    _emit(lines, args.out)
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"example1": cmd_example1, "example2": cmd_example2,
                "mgbench": cmd_mgbench, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive surface
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
