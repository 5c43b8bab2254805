"""Mesh-dependent norms and numerical verification sweeps.

Everything here measures consequences of the analysis the solver relies on:
the discrete norm family built from powers of the system operator, the
closed-form coercivity constant and its discrete margin, Fourier-symbol
checks of the one-sided tempered derivatives, spectral-radius scaling of the
system operator, and the structural (sign/dominance) sweeps that back the
smoother's admissibility.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from . import fracquad
from .assembly import LevelOperator, Mesh, ProblemSpec, assemble_level
from .multigrid import Hierarchy
from .toeplitz import power_iteration, structure_report


def mesh_norm(level: LevelOperator, v: np.ndarray, s: int) -> float:
    """Discrete norm sqrt(h * v' A^s v) for s in {0, 1, 2}."""
    v = np.asarray(v, dtype=float)
    h = level.mesh.h
    if s == 0:
        return float(np.sqrt(h * np.dot(v, v)))
    if s == 1:
        return float(np.sqrt(h * np.dot(v, level.apply(v))))
    if s == 2:
        av = level.apply(v)
        return float(np.sqrt(h * np.dot(av, av)))
    raise ValueError("s must be 0, 1 or 2")


def coercivity_constant(alpha: float, lam: float, sigma: float) -> Optional[float]:
    """Closed-form lower bound for the bilinear form against the L2 norm.

    min{1, lam^alpha} * min{2 kappa (2^-alpha - cos(alpha pi / 3)),
    sigma / (2 lam)^alpha}.  Defined only for lam > 0 and sigma > 0; returns
    None otherwise (callers fall back to plain positive-semidefiniteness).
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if lam <= 0.0 or sigma <= 0.0:
        return None
    kap = fracquad.riesz_kappa(alpha)
    term1 = 2.0 * kap * (2.0 ** (-alpha) - np.cos(alpha * np.pi / 3.0))
    term2 = sigma / (2.0 * lam) ** alpha
    return float(min(1.0, lam**alpha) * min(term1, term2))


def check_discrete_coercivity(level: LevelOperator, problem: ProblemSpec,
                              trials: int = 100, seed: int = 0) -> float:
    """min over random v of (v'Bv)/(v'Mv) - C0; nonnegative when the bound holds.

    With the closed form inapplicable (lam or sigma zero) the margin is taken
    against C0 = 0, i.e. plain positive-semidefiniteness of the stiffness.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    c0 = coercivity_constant(problem.alpha, problem.lam, problem.sigma) or 0.0
    rng = np.random.default_rng(seed)
    n = level.mesh.n_interior
    stiff = level.stiff
    margin = np.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        ratio = float(v @ stiff.matvec(v)) / float(v @ level.apply_mass(v))
        margin = min(margin, ratio - c0)
    return float(margin)


def windowed_bump(lo: float = 0.0, hi: float = 1.0) -> fracquad.SmoothFn:
    """C^3 bump ((x-lo)(hi-x))^4, normalized to peak 1, zero outside (lo, hi).

    Smooth enough at the support edges that its spectrum decays well past the
    low-frequency band verify_fourier_symbol compares on.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    scale = ((hi - lo) / 2.0) ** 8

    def value(x):
        x = np.asarray(x, dtype=float)
        p = (x - lo) * (hi - x)
        return np.where((x > lo) & (x < hi), p**4 / scale, 0.0)

    def first(x):
        x = np.asarray(x, dtype=float)
        p = (x - lo) * (hi - x)
        dp = lo + hi - 2.0 * x
        return np.where((x > lo) & (x < hi), 4.0 * p**3 * dp / scale, 0.0)

    def second(x):
        x = np.asarray(x, dtype=float)
        p = (x - lo) * (hi - x)
        dp = lo + hi - 2.0 * x
        return np.where((x > lo) & (x < hi),
                        (12.0 * p**2 * dp**2 - 8.0 * p**3) / scale, 0.0)

    return fracquad.SmoothFn(value=value, first_derivative=first,
                             second_derivative=second)


def _farfield_deriv(u: fracquad.SmoothFn, nu: float, lam: float,
                    support, x: np.ndarray, direction: str) -> np.ndarray:
    """Tempered derivative at points strictly beyond the density's support.

    Outside the support of (u' + lam u) the integrand has no singularity, so
    plain Gauss-Legendre against the compactly supported density converges
    spectrally; the near-support quadratures lose accuracy out here because
    their nodes cluster at the (absent) endpoint singularity.
    """
    from scipy.special import gamma as gamma_fn, roots_legendre

    sa, sb = support
    z, w = roots_legendre(64)
    nodes = sa + 0.5 * (sb - sa) * (1.0 + z)
    weights = 0.5 * (sb - sa) * w
    if direction == "left":
        dens = u.first_derivative(nodes) + lam * u.value(nodes)
        gap = x[:, None] - nodes[None, :]
    else:
        dens = lam * u.value(nodes) - u.first_derivative(nodes)
        gap = nodes[None, :] - x[:, None]
    if np.any(gap <= 0.0):
        raise ValueError("far-field points must lie beyond the support")
    kernel = gap**(-nu) * np.exp(-lam * gap)
    return kernel @ (weights * dens) / gamma_fn(1.0 - nu)


def verify_fourier_symbol(u: fracquad.SmoothFn, nu: float, lam: float,
                          grid_size: int = 4096, support=(0.0, 1.0),
                          direction: str = "left", order: int = 200,
                          periods: int = 64) -> float:
    """Relative mismatch between a sampled tempered derivative and its symbol.

    ``u`` (with derivatives) must evaluate to zero outside ``support`` and
    vanish smoothly at its edges.  The derivative is sampled on a uniform
    grid over a domain padded to 4x the support length (anchoring at the
    support edge is then exact: nothing accumulates over the zero stretch),
    and its DFT is compared against symbol * DFT(u) on the low-frequency
    half of the resolved band.

    The symbol side of that comparison is the transform of the derivative's
    *periodization*, so the derivative's trailing tail — algebraic, x^(-1-nu),
    when lam = 0 — must be folded back into the window rather than truncated;
    ``periods - 1`` extra window lengths are evaluated far-field and wrapped
    (the tail runs right of the window for the left derivative and left of it
    for the right one).  Truncating instead leaves an O(1e-2) floor at lam=0.

    With the DFT kernel e^{-i omega x}, differentiation maps to +i omega, so
    the left-derivative symbol is (lam + i omega)^nu and the right one is
    (lam - i omega)^nu.
    """
    sa, sb = float(support[0]), float(support[1])
    if not sb > sa:
        raise ValueError("support must be a nonempty interval")
    if periods < 1:
        raise ValueError("periods must be >= 1")
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    width = sb - sa
    span = 4.0 * width
    lo = sa - 1.5 * width
    dx = span / grid_size
    x = lo + dx * np.arange(grid_size)
    u_samp = np.asarray(u.value(x), dtype=float)
    if direction == "left":
        d_samp = fracquad.tempered_left_deriv_low(u, nu, lam, sa, x, order)
    else:
        d_samp = fracquad.tempered_right_deriv_low(u, nu, lam, sb, x, order)
    if nu < 1.0:  # at nu = 1 the derivative is local: nothing beyond support
        for k in range(1, periods):
            shift = k * span if direction == "left" else -k * span
            d_samp = d_samp + _farfield_deriv(u, nu, lam, (sa, sb), x + shift,
                                              direction)
    omega = 2.0 * np.pi * np.fft.fftfreq(grid_size, dx)
    base = lam + 1j * omega if direction == "left" else lam - 1j * omega
    symbol = base**nu
    lhs = np.fft.fft(d_samp)
    rhs = symbol * np.fft.fft(u_samp)
    band = np.abs(np.fft.fftfreq(grid_size)) <= 0.25  # low half of the resolved band
    num = np.linalg.norm(lhs[band] - rhs[band])
    den = np.linalg.norm(rhs[band])
    return float(num / den)


def spectral_radius_sweep(problem: ProblemSpec, Ms: List[int], tau: float,
                          tol: float = 1e-8, max_iter: int = 30000) -> List[dict]:
    """Rows {M, rho, bound_ratio, converged} for the finest-level operator.

    bound_ratio = rho h^alpha / (1 + h^alpha / tau) should stay bounded by a
    constant across M; in the stiffness-dominated regime rho(h/2)/rho(h)
    approaches 2^alpha.
    """
    rows = []
    for M in Ms:
        mesh = Mesh(problem.a, problem.b, M)
        level = assemble_level(problem, mesh, tau)
        rho, converged = power_iteration(level.apply, mesh.n_interior,
                                         tol=tol, max_iter=max_iter)
        h = mesh.h
        rows.append({
            "M": M,
            "rho": rho,
            "bound_ratio": rho * h**problem.alpha / (1.0 + h**problem.alpha / tau),
            "converged": converged,
        })
    return rows


def structure_sweep(hier: Hierarchy) -> List[dict]:
    """Structure reports for stiffness and system operators on all levels.

    The levels are those of ``hier``, listed from fine to coarse; ``M`` in
    every row is the fine level's cell count.  Severity policy: the
    stiffness check is "hard" only in the untempered reaction-free case,
    where the sign/dominance structure is provable; otherwise it is a
    "warn"-level empirical expectation.  The system operator's report is
    informational: its off-diagonal sign genuinely flips with the mass
    contribution at small tau.
    """
    rows: List[dict] = []
    hard = hier.problem.lam == 0.0 and hier.problem.sigma == 0.0
    for level in reversed(hier.levels):
        for name, col, severity in (
                ("stiffness", level.stiff_col, "hard" if hard else "warn"),
                ("system", level.system.first_col, "info")):
            rep = structure_report(col)
            ok = rep["is_m_matrix_sign_pattern"] and rep["is_weakly_diag_dominant"]
            rows.append({
                "M": hier.fine.mesh.cells, "n": level.mesh.n_interior,
                "matrix": name, "severity": severity, "ok": bool(ok), **rep,
            })
    return rows


def structure_hard_failures(rows: List[dict]) -> List[dict]:
    return [r for r in rows if r["severity"] == "hard" and not r["ok"]]
