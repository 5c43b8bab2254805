"""Numerical verification sweeps.

Everything here measures consequences of the analysis the solver relies on:
the closed-form coercivity constant and its exact discrete margin, the
assembled fractional pairing against its Fourier symbol (the tempered Riesz
symbol against the hat's transform), spectral-radius scaling of the system
operator, and the structural (sign/dominance) sweep of the stiffness that
backs the smoother's admissibility.  Margin and spectral radius are exact eigenvalues
of the dense matrices of the small meshes they run on.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.linalg

from . import assembly, fracquad
from .assembly import LevelOperator, Mesh, ProblemSpec, assemble_level
from .multigrid import Hierarchy
from .toeplitz import structure_report


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


def check_discrete_coercivity(level: LevelOperator,
                              problem: ProblemSpec) -> float:
    """min over v of (v'Bv)/(v'Mv) - C0; nonnegative when the bound holds.

    The minimum is the smallest generalized eigenvalue of the dense
    stiffness B and mass M.  With the closed form inapplicable (lam or sigma
    zero) the margin is taken against C0 = 0, i.e. plain
    positive-semidefiniteness of the stiffness.
    """
    c0 = coercivity_constant(problem.alpha, problem.lam, problem.sigma) or 0.0
    eigs = scipy.linalg.eigh(level.stiff.dense(), level.mass.dense(),
                             eigvals_only=True)
    return float(eigs[0] - c0)


# stiffness_symbol_gap compares at these frequencies and sums the symbol's
# aliases up to |k| = _ALIASES
_SYMBOL_THETAS = (0.3, 1.0, 2.0, np.pi)
_ALIASES = 20000


def stiffness_symbol_gap(mesh: Mesh, alpha: float, lam: float) -> float:
    """Worst relative gap between the pairing column and its Fourier symbol.

    By Poisson summation the generating function S_0 + 2 sum_m S_m cos(m t)
    of S = ``assembly.frac_pair_symbol(mesh, alpha, lam)`` is the tempered
    Riesz symbol Re(lam + i w)^alpha (Sabzikar, Meerschaert & Chen 2015)
    against the hat's h^2 sinc^4(w h / 2), aliased:
    h sum_k Re(lam + i x_k / h)^alpha sinc^4(x_k / 2), x_k = t + 2 pi k.
    That form shares nothing with the Levy-kernel integrals of the assembly.
    Past |k| = _ALIASES the terms go as |x_k|^(alpha-4), added back as an
    integral.  The mesh must hold enough lags for the dropped S_m tail.
    """
    h, t = mesh.h, np.array(_SYMBOL_THETAS)
    col = assembly.frac_pair_symbol(mesh, alpha, lam)
    stiff = col[0] + 2.0 * np.cos(np.outer(t, np.arange(1, col.size))) @ col[1:]
    x = t[:, None] + 2.0 * np.pi * np.arange(-_ALIASES, _ALIASES + 1)
    sym = h * np.sum(np.real((lam + 1j * x / h) ** alpha)
                     * np.sinc(x / (2.0 * np.pi)) ** 4, axis=1)
    edge = 2.0 * np.pi * (_ALIASES + 0.5)
    sym += (16.0 * np.sin(t / 2.0) ** 4 * np.cos(alpha * np.pi / 2.0)
            * h ** (1.0 - alpha) / (2.0 * np.pi * (3.0 - alpha))
            * ((edge + t) ** (alpha - 3.0) + (edge - t) ** (alpha - 3.0)))
    return float(np.max(np.abs(stiff - sym) / np.abs(sym)))


def spectral_radius_sweep(problem: ProblemSpec, Ms: List[int],
                          tau: float) -> List[dict]:
    """Rows {M, rho, bound_ratio} for the finest-level operator.

    rho is the largest eigenvalue of the dense system matrix.
    bound_ratio = rho h^alpha / (1 + h^alpha / tau) should stay bounded by a
    constant across M; in the stiffness-dominated regime rho(h/2)/rho(h)
    approaches 2^alpha.
    """
    rows = []
    for M in Ms:
        mesh = Mesh(problem.a, problem.b, M)
        level = assemble_level(problem, mesh, tau)
        rho = float(np.linalg.eigvalsh(level.system.dense())[-1])
        h = mesh.h
        rows.append({
            "M": M,
            "rho": rho,
            "bound_ratio": rho * h**problem.alpha / (1.0 + h**problem.alpha / tau),
        })
    return rows


def structure_sweep(hier: Hierarchy) -> List[dict]:
    """Structure reports of the stiffness on every level of ``hier``.

    Rows run from fine to coarse; each carries the level's interior size
    ``n`` and the problem's ``stiffness_severity``.
    """
    severity = hier.problem.stiffness_severity
    return [{"n": level.mesh.n_interior, "severity": severity,
             **structure_report(level.stiff_col)}
            for level in reversed(hier.levels)]
