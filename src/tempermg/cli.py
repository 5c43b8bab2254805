"""Command-line front end: benchmark tables, multigrid sweeps, self-checks.

Four subcommands: `example1` (manufactured-solution convergence table),
`example2` (homogeneous decay, three-mesh rates), `mgbench` (V-cycle
contraction / iteration sweeps with uniformity checks), and `verify`
(property-suite manifest).  Exit codes: 0 success, 1 failed check or module
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import assembly, diagnostics, multigrid, timestep, toeplitz


class UsageError(ValueError):
    """Semantically invalid flag combination (exit code 2)."""


# ---------------------------------------------------------------------------
# argument parsing


# The largest mesh size numpy can index: its cells + 1 float64 nodes fit in
# np.intp bytes (2^59 is the largest power of two below it on 64-bit builds).
_MAX_CELLS = np.iinfo(np.intp).max // 8 - 1


def _parse_sizes(text: str) -> List[int]:
    """Comma list of mesh sizes; accepts plain ints and the 2^k shorthand.

    Each size must be a cell count ``assembly.Mesh`` accepts, at most
    ``_MAX_CELLS``, whose interior size is above ``multigrid.COARSEST_N``:
    one at or below it would be a single level, which the V-cycle cannot
    run.  A 2^k exponent is bounded before the power is taken.
    """
    sizes = []
    max_exp = _MAX_CELLS.bit_length() - 1
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if "^" in token:
                base, exp = (int(part) for part in token.split("^", 1))
                if not 0 <= exp <= max_exp:
                    raise argparse.ArgumentTypeError(
                        f"mesh size {token!r}: exponent must be in "
                        f"[0, {max_exp}]")
                size = base ** exp
            else:
                size = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad mesh size {token!r}")
        if size > _MAX_CELLS:
            raise argparse.ArgumentTypeError(
                f"mesh size {token!r}: above {_MAX_CELLS}, the largest "
                "numpy can index")
        try:
            assembly.Mesh(0.0, 1.0, size)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"mesh size {token!r}: {exc}")
        if size - 1 <= multigrid.COARSEST_N:
            raise argparse.ArgumentTypeError(
                f"mesh size {token!r}: {size} cells leave {size - 1} interior "
                f"nodes, at or below the coarsest level size "
                f"{multigrid.COARSEST_N}: a single multigrid level")
        sizes.append(size)
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _value(kind: type, bound: str, ok: Callable = lambda value: True):
    """An argparse type for a finite ``kind`` value that satisfies ``ok``.

    argparse refuses anything else naming the flag, exit 2, before any work.
    """
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} {text!r}")
        if not (np.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{text}: must be {bound}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding exactly the flags it reads."""
    def group(title: str):
        parent = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        return parent, parent.add_argument_group(title)

    problem, prob = group("problem")
    prob.add_argument("--alpha", action="append",
                      type=_value(float, "in (1, 2)", lambda a: 1.0 < a < 2.0),
                      metavar="A",
                      help="fractional order in (1,2); repeat for several")
    prob.add_argument("--lambda", dest="lam", default=0.5, metavar="L",
                      type=_value(float, "finite and >= 0", lambda v: v >= 0),
                      help="tempering strength (default 0.5)")
    meshes, mesh = group("mesh")
    mesh.add_argument("--M", type=_parse_sizes, action="extend", metavar="LIST",
                      help='mesh sizes as a comma list ("2^7,2^8,512") '
                           "and/or repeated flags")
    multigrid_flags, mg = group("multigrid")
    mg.add_argument("--m1", type=int, default=1, help="pre-smoothing steps")
    mg.add_argument("--m2", type=int, default=2, help="post-smoothing steps")
    seed, run = group("run")
    run.add_argument("--seed", type=_value(int, ">= 0", lambda s: s >= 0),
                     default=0, help="seed for randomized checks")
    output, out = group("output")
    out.add_argument("--format", choices=("csv", "markdown"), default="csv",
                     help="table format")
    out.add_argument("--out", default=None, metavar="PATH",
                     help="write output here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="solver", allow_abbrev=False,
        description="Tempered fractional diffusion benchmarks and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *parents):
        return sub.add_parser(name, parents=parents, help=summary,
                              allow_abbrev=False)

    example1 = command(
        "example1",
        "manufactured-solution convergence table (error/rate/iter/cpu)",
        problem, meshes, multigrid_flags, output)
    domain = example1.add_argument_group("domain and horizon")
    domain.add_argument("--b", type=_value(float, "finite and > 0",
                                           lambda b: b > 0),
                        default=32.0, help="right endpoint (default 32)")
    domain.add_argument("--T", type=_value(float, "finite and > 0",
                                           lambda t: t > 0),
                        default=1.0, help="final time (default 1)")
    command("example2",
            "homogeneous decay benchmark; rates from three nested meshes",
            problem, meshes, multigrid_flags, output)
    mgbench = command(
        "mgbench", "V-cycle contraction factors across an (M, tau) grid",
        problem, meshes, multigrid_flags, seed, output)
    domain = mgbench.add_argument_group("reaction and domain")
    domain.add_argument("--sigma", default=0.0, metavar="S",
                        type=_value(float, "finite and >= 0",
                                    lambda s: s >= 0),
                        help="reaction coefficient (default 0)")
    domain.add_argument("--a", type=_value(float, "finite"), default=0.0,
                        metavar="A0", help="left endpoint (default 0)")
    domain.add_argument("--b", type=_value(float, "finite"), default=1.0,
                        metavar="B0", help="right endpoint (default 1)")
    verify = command(
        "verify", "run the property suites and print a pass/fail manifest",
        problem, multigrid_flags, seed, output)
    verify.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def _mg_config(args: argparse.Namespace) -> multigrid.MgConfig:
    """The ``--m1`` and ``--m2`` flags; a count ``MgConfig`` rejects is a
    usage error naming its flag."""
    for name in ("m1", "m2"):
        value = getattr(args, name)
        try:  # against the defaults, so the error names this flag alone
            multigrid.MgConfig(**{name: value})
        except ValueError as exc:
            raise UsageError(f"--{name} {value}: {exc}")
    return multigrid.MgConfig(args.m1, args.m2)


def _problems(args: argparse.Namespace, alphas: Sequence[float],
              build: Callable) -> dict:
    """build(alpha) for each alpha; a problem ``ProblemSpec`` refuses is a
    usage error naming the domain and tempering flags the command reads."""
    try:
        return {alpha: build(alpha) for alpha in alphas}
    except ValueError as exc:
        flags = [f"--{end} {getattr(args, end):g}" for end in ("a", "b")
                 if hasattr(args, end)] + [f"--lambda {args.lam:g}"]
        raise UsageError(f"{' '.join(flags)}: {exc}")


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


def _rate_column(sizes: Sequence[int], errors: dict) -> List[str]:
    """log2(error ratio) at each size twice the one before it, else blank:
    an observed order is defined only along a doubling chain."""
    rates = {n: timestep.rate_from_errors(errors[prev], errors[n])
             for prev, n in zip(sizes, sizes[1:]) if n == 2 * prev}
    return [f"{rates[n]:.4f}" if n in rates else "" for n in sizes]


# ---------------------------------------------------------------------------
# subcommands


def cmd_example1(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.1, 1.8]
    sizes = args.M or [128, 256, 512, 1024]
    config = _mg_config(args)
    problems = _problems(args, alphas, lambda alpha: assembly.make_example1(
        alpha, args.lam, args.b, args.T))

    lines: List[str] = []
    for alpha in alphas:
        runs = {m: timestep.run_simulation(problems[alpha], m, m,
                                           config=config) for m in sizes}
        errors = {m: run.l2_error for m, run in runs.items()}
        rows = [(str(m), f"{errors[m]:.4e}", rate,
                 str(round(runs[m].mean_iterations)),
                 f"{runs[m].loop_seconds:.3f}",
                 f"{runs[m].assembly_seconds:.3f}")
                for m, rate in zip(sizes, _rate_column(sizes, errors))]
        lines += _render_block(f"alpha={alpha:g}",
                               ("N", "error", "rate", "iter", "cpu_s",
                                "assembly_s"), rows, args.format)
    _emit(lines, args.out)
    return 0


def cmd_example2(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.1, 1.5, 1.9]
    sizes = args.M or [128, 256, 512, 1024]
    config = _mg_config(args)
    problems = _problems(args, alphas,
                         lambda alpha: assembly.make_example2(alpha, args.lam))

    lines: List[str] = []
    for alpha in alphas:
        # the error at n is the distance to the run on 2n
        runs = {m: timestep.run_simulation(problems[alpha], m, m,
                                           config=config)
                for m in {size for n in sizes for size in (n, 2 * n)}}
        dist = {n: timestep.shared_node_distance(runs[n], runs[2 * n])
                for n in sizes}
        rows = [(str(n), f"{dist[n]:.4e}", rate)
                for n, rate in zip(sizes, _rate_column(sizes, dist))]
        lines += _render_block(f"alpha={alpha:g}", ("N", "error", "rate"),
                               rows, args.format)
    _emit(lines, args.out)
    return 0


def cmd_mgbench(args: argparse.Namespace) -> int:
    alphas = args.alpha or [1.5]
    sizes = args.M or [64, 128, 256, 512, 1024]
    taus = (1.0, 1e-3, 1e-6)
    problems = _problems(args, alphas, lambda alpha: assembly.ProblemSpec(
        alpha, args.lam, args.sigma, args.a, args.b, 1.0))
    config = _mg_config(args)

    def hierarchy(problem, m, tau, config=config):
        return multigrid.build_hierarchy(
            problem, assembly.Mesh(args.a, args.b, m), tau, config)

    lines: List[str] = []
    failures: List[str] = []
    for alpha, problem in problems.items():
        rows, factors, iters, solved = [], [], [], True
        for m in sizes:
            for tau in taus:
                hier = hierarchy(problem, m, tau)
                factors.append(
                    multigrid.contraction_factor(hier, seed=args.seed))
                rng = np.random.default_rng(args.seed)
                target = rng.standard_normal(hier.fine.mesh.n_interior)
                result = multigrid.mg_solve(
                    hier, hier.fine.system.matvec(target))
                iters.append(result.iters)
                solved = solved and result.converged
                rows.append((str(m), f"{tau:.0e}", f"{factors[-1]:.4f}",
                             str(result.iters)))
        lines += _render_block(f"alpha={alpha:g}",
                               ("M", "tau", "factor", "iters"),
                               rows, args.format)

        sweep = [(m, multigrid.contraction_factor(
                     hierarchy(problem, max(sizes), 1.0,
                               dataclasses.replace(config, m1=m, m2=m)),
                     seed=args.seed))
                 for m in (1, 2, 4, 8)]
        lines += _render_block(
            f"smoothing sweep alpha={alpha:g} M={max(sizes)} tau=1",
            ("m", "factor"), [(str(m), f"{f:.4f}") for m, f in sweep],
            args.format)

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
    # dense products up to 255 unknowns, packed real FFT products at 512
    # and at 301, whose embedding length (625) is odd, and a half-length
    # complex one at 4095; against direct convolution with the mirrored
    # column, which needs no n x n matrix
    for n in (2, 3, 5, 8, 16, 64, 129, 512, 301, 4095):
        op = toeplitz.SymToeplitz(rng.standard_normal(n))
        x = rng.standard_normal(n)
        mirrored = np.concatenate((op.first_col[:0:-1], op.first_col))
        ref = np.convolve(x, mirrored)[n - 1: 2 * n - 1]
        worst = max(worst, _rel(op.matvec(x), ref))
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
        prolong = multigrid.prolongate(np.eye(coarse.mesh.n_interior))
        product = 0.5 * prolong.T @ fine.system.dense() @ prolong
        rebuilt = assembly.assemble_level(problem, coarse.mesh, hier.tau)
        got = coarse.system.dense()
        product_gap = max(product_gap, gap(product, got))
        rebuilt_gap = max(rebuilt_gap, gap(got, rebuilt.system.dense()))
    ok = max(product_gap, rebuilt_gap) <= 1e-12
    return ("PASS" if ok else "FAIL",
            f"max entry rel {product_gap:.2e} vs P^T A P, "
            f"{rebuilt_gap:.2e} vs re-discretized")


def _check_stiffness_symbol(args) -> Tuple[str, str]:
    # h = 1/64; tempered meshes hold >= 40 / (lam h) lags, so e^{-lam h m}
    # ends below rounding, and lam = 0 runs at 2^17 cells
    cases = ((1.9, 1.0, 64), (1.5, 0.125, 512), (1.1, 0.5, 128),
             (1.5, 0.003, 16384), (1.1, 0.0, 2**17), (1.5, 0.0, 2**17),
             (1.9, 0.0, 2**17))
    worst = max(diagnostics.stiffness_symbol_gap(
        assembly.Mesh(0.0, cells / 64.0, cells), alpha, 64.0 * lam_h)
        for alpha, lam_h, cells in cases)
    return ("PASS" if worst <= 1e-9 else "FAIL", f"max rel {worst:.2e}")


def _check_coercivity(args) -> Tuple[str, str]:
    worst = np.inf
    for alpha in args.alpha or (1.1, 1.5, 1.9):
        problem = assembly.make_example1(alpha, lam=1.0)
        level = assembly.assemble_level(problem, assembly.Mesh(0.0, 32.0, 64),
                                        1.0)
        worst = min(worst,
                    diagnostics.check_discrete_coercivity(level, problem))
    return ("PASS" if worst >= -1e-12 else "FAIL", f"min margin {worst:.3e}")


def _structure_hierarchy(args, problem) -> multigrid.Hierarchy:
    """The M = 64, tau = 1 hierarchy a structure check inspects.

    Under ``--inject-fault`` its fine-level stiffness column is replaced by
    a copy with the sign of lag 1 flipped, which the check must catch.
    """
    hier = multigrid.build_hierarchy(
        problem, assembly.Mesh(problem.a, problem.b, 64), 1.0)
    if args.inject_fault:
        col = hier.fine.stiff_col.copy()
        col[1] = -col[1]
        hier.levels[-1] = dataclasses.replace(hier.fine, stiff_col=col)
    return hier


def _check_structure_untempered(args) -> Tuple[str, str]:
    bad = 0
    for alpha in args.alpha or (1.1, 1.5, 1.9):
        problem = assembly.ProblemSpec(alpha, 0.0, 0.0, 0.0, 1.0, 1.0)
        rows = diagnostics.structure_sweep(_structure_hierarchy(args, problem))
        bad += sum(r["severity"] == "hard" and not r["ok"] for r in rows)
    return ("PASS" if bad == 0 else "FAIL", f"{bad} hard failures")


def _check_structure_tempered(args) -> Tuple[str, str]:
    problem = assembly.ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(_structure_hierarchy(args, problem))
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
        norm_prev = float(np.sqrt(mesh.h * (u @ hier.fine.apply_mass(u))))
        au = None  # A u, passed from step to step as run_simulation does
        for step in range(steps):  # homogeneous: a zero load
            u, _, au = timestep.cn_step(hier, u, step * hier.tau,
                                        np.zeros_like(u), au)
            norm_now = float(np.sqrt(mesh.h * (u @ hier.fine.apply_mass(u))))
            worst = max(worst, (norm_now - norm_prev) / norm_prev)
            norm_prev = norm_now
    return ("PASS" if worst <= 1e-12 else "FAIL", f"max growth {worst:.2e}")


def _check_spectral_scaling(args) -> Tuple[str, str]:
    problem = assembly.ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.spectral_radius_sweep(problem, [32, 64, 128, 256], 1e6)
    ratio = rows[-1]["rho"] / rows[-2]["rho"]
    target = 2.0**problem.alpha
    bounds = [r["bound_ratio"] for r in rows]
    ok = abs(ratio - target) <= 0.05 * target and max(bounds) < 2 * min(bounds)
    return ("PASS" if ok else "FAIL",
            f"rho ratio {ratio:.3f} (target {target:.3f}), "
            f"bound spread {max(bounds) / min(bounds):.2f}x")


def cmd_verify(args: argparse.Namespace) -> int:
    _mg_config(args)  # refuse a bad multigrid flag before any check
    # --lambda enters example 1 on (0, 32) and example 2 on (0, 1)
    _problems(args, (1.5,), lambda alpha: assembly.make_example1(alpha, args.lam))
    checks = (
        ("fft_vs_dense", _check_fft_vs_dense),
        ("transfer_adjointness", _check_adjointness),
        ("galerkin_consistency", _check_galerkin),
        ("stiffness_symbol", _check_stiffness_symbol),
        ("coercivity_margin", _check_coercivity),
        ("structure_untempered", _check_structure_untempered),
        ("structure_tempered", _check_structure_tempered),
        ("cn_stability", _check_cn_stability),
        ("spectral_scaling", _check_spectral_scaling),
    )
    rows = []
    for name, fn in checks:
        try:
            status, detail = fn(args)
        except Exception as exc:  # a hard failure, not a crash of ours
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        rows.append((name, status, detail))
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
