"""Geometric V-cycle multigrid for the Toeplitz time-step systems.

Levels are built by halving the cell count until the interior size drops to
the direct-solve threshold.  Only the finest level is assembled by
quadrature; each coarser level takes the closed-form mass of its mesh and the
Galerkin product P^T B P of the stiffness above it, which for a symmetric
Toeplitz B is symmetric Toeplitz again and costs O(n) (Chan, Chang & Sun,
SIAM J. Sci. Comput. 19, 1998).  For nested linear elements that product
equals re-discretization up to quadrature error (checked against
re-discretized assembly in the tests and in ``verify``, not assumed).
Transfers are linear interpolation and its h-weighted adjoint; the smoother
is damped Jacobi, which for these constant-diagonal operators is plain
scalar Richardson.

Every cycle starts from zero, so it is a fixed linear map of its right-hand
side, and set-up stores all of it at and below one level b as a read-only
bottom matrix C_b: C_0 = A_0^{-1}, or, when a dense level lies strictly
between the coarsest and the fine one, C_b = V_b(I) for the largest such
level, built level by level from C_0 as C_k = V_k(I) with coarse
correction C_{k-1}.  When the fine level is dense too, b is the level below
it, and set-up also stores K = S + P C_b R E^{m1}, the fine cycle up to its
first post-smoothing step (the pre-smoothed iterate S g plus the coarse
correction of its residual E^{m1} g): there a cycle is K g and m2
post-smoothing steps.
``mg_solve`` and ``contraction_factor`` iterate in correction form,
z <- z + V(g - A z).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .assembly import (LevelOperator, Mesh, ProblemSpec, assemble_level,
                       level_from_symbols)
from .toeplitz import _DENSE_MAX_N


@dataclass(frozen=True)
class MgConfig:
    m1: int = 1              # pre-smoothing steps
    m2: int = 2              # post-smoothing steps
    eta_pre: float = 0.5     # damping, in (0, 1/2]
    eta_post: float = 0.5
    tol: float = 1e-10       # relative residual target, in (0, 1)
    max_iter: int = 100
    coarse_max: int = 7      # coarsest level: at or below this interior size

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 0:
            raise ValueError("need m1 >= 1 and m2 >= 0")
        if not (0.0 < self.eta_pre <= 0.5 and 0.0 < self.eta_post <= 0.5):
            raise ValueError("damping factors must lie in (0, 1/2]")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1 or self.coarse_max < 1:
            raise ValueError("need max_iter >= 1 and coarse_max >= 1")


@dataclass
class Hierarchy:
    """Nested levels (coarsest first) sharing one problem and time step."""

    problem: ProblemSpec
    tau: float
    config: MgConfig
    levels: List[LevelOperator]
    assembly_seconds: float = 0.0
    # (b, C_b): bottom level index and the read-only matrix that replaces
    # the cycle at and below it
    _bottom: tuple = field(default=None, repr=False)
    # K: the read-only zero-start top cycle up to its post-smoothing, stored
    # when the fine level is dense; None otherwise
    _top: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def fine(self) -> LevelOperator:
        return self.levels[-1]

    def coarse_solve(self, g: np.ndarray) -> np.ndarray:
        """C_b @ g; the calling cycle's finiteness check guards the result."""
        return self._bottom[1] @ g


def coarsen_symbol(first_col: np.ndarray) -> np.ndarray:
    """First column of P^T T P for a symmetric Toeplitz T of odd size 2nc + 1.

    P is the linear interpolation of ``prolongate`` (weights 1/2, 1, 1/2), so
    c_k = t_{2k-2}/4 + t_{2k-1} + 3/2 t_{2k} + t_{2k+1} + t_{2k+2}/4 with
    t_{-j} = t_j; the product is exactly symmetric Toeplitz of size nc.
    """
    col = np.asarray(first_col, dtype=float)
    if col.ndim != 1 or col.size < 3 or col.size % 2 == 0:
        raise ValueError("first_col must have odd size >= 3")
    t = np.concatenate((col[2:0:-1], col))  # t[j + 2] = t_j for j >= -2
    return (0.25 * (t[0:-4:2] + t[4::2]) + t[1:-3:2] + t[3:-1:2]
            + 1.5 * t[2:-2:2])


def build_hierarchy(problem: ProblemSpec, fine_mesh: Mesh, tau: float,
                    config: Optional[MgConfig] = None) -> Hierarchy:
    """Assemble fine_mesh and Galerkin-coarsen down to the direct-solve size.

    Each coarse level takes the closed-form mass symbol of its mesh and the
    stiffness symbol ``coarsen_symbol`` derives from the level above.
    ``assembly_seconds`` covers the bottom matrix and K (``_with_bottom``)
    too.
    """
    config = config or MgConfig()
    meshes = [fine_mesh]
    while meshes[-1].n_interior > config.coarse_max:
        meshes.append(meshes[-1].coarsen())
    if len(meshes) < 2:
        raise ValueError(
            f"M={fine_mesh.cells} yields a single level at "
            f"coarse_max={config.coarse_max}; refine the mesh")
    t0 = time.perf_counter()
    levels = [assemble_level(problem, fine_mesh, tau)]
    for mesh in meshes[1:]:
        levels.append(level_from_symbols(problem, mesh, tau,
                                         coarsen_symbol(levels[-1].stiff_col)))
    levels.reverse()
    hier = Hierarchy(problem=problem, tau=tau, config=config, levels=levels)
    _with_bottom(hier)
    hier.assembly_seconds = time.perf_counter() - t0
    return hier


def _with_bottom(hier: Hierarchy) -> Hierarchy:
    """Store hier's bottom matrix, and K on a dense fine level; return hier.

    C_0 = A_0^{-1} = L^{-T} L^{-1} from the Cholesky factor L, so a non-SPD
    A_0 raises ``LinAlgError``.  Then every level k strictly between the
    coarsest and the fine one that is stored dense (n <= 255; these are the
    lowest ones) gets, in turn, C_k = V_k(I): the zero-start cycle of level
    k on the identity, with A I the level's stored dense matrix and coarse
    correction C_{k-1}, so it makes m1 - 1 + m2 block products.  The
    largest such level is the bottom.  When the fine level is dense too, the
    same loop gives it K, its cycle stopped before the post-smoothing.
    """
    config = hier.config
    levels = hier.levels
    chol_inv = np.linalg.inv(np.linalg.cholesky(levels[0].system.dense()))
    hier._bottom, hier._top = (0, chol_inv.T @ chol_inv), None
    for k in range(1, len(levels)):
        level = levels[k]
        n = level.mesh.n_interior
        if n > _DENSE_MAX_N:
            break
        eye = np.eye(n)
        z = _presmooth_and_correct(hier, k, eye, level.system._dense)
        if k == len(levels) - 1:   # K: v_cycle post-smooths on this level
            hier._top = z
            break
        hier._bottom = (k, jacobi_smooth(level, z, eye, config.eta_post,
                                         config.m2))
    for name, k, matrix in (("bottom", *hier._bottom),
                            ("top", len(levels) - 1, hier._top)):
        if matrix is None:
            continue
        if not np.isfinite(matrix).all():
            raise FloatingPointError(f"non-finite {name} matrix on level {k}")
        matrix.flags.writeable = False
    return hier


def prolongate(coarse: np.ndarray) -> np.ndarray:
    """Linear interpolation in nodal values: nc -> 2*nc + 1 (zero boundary).

    Acts along axis 0, so an (nc, k) block is prolongated column by column.
    """
    vc = np.asarray(coarse, dtype=float)
    nc = vc.shape[0]
    vf = np.zeros((2 * nc + 1,) + vc.shape[1:])
    vf[1::2] = vc
    half = 0.5 * vc
    vf[0:-2:2] += half   # coarse j feeds fine node 2j
    vf[2::2] += half     # and fine node 2j + 2
    return vf


def restrict(fine: np.ndarray) -> np.ndarray:
    """Full weighting 1/4 (1, 2, 1): the h-weighted adjoint of prolongate.

    Acts along axis 0, like ``prolongate``.
    """
    vf = np.asarray(fine, dtype=float)
    if vf.ndim == 0 or vf.shape[0] < 3 or vf.shape[0] % 2 == 0:
        raise ValueError("fine vector must have odd size >= 3")
    # (0.25 left + 0.5 centre) + 0.25 right, summed in place
    out = np.multiply(vf[0:-2:2], 0.25)
    part = np.multiply(vf[1::2], 0.5)
    out += part
    out += np.multiply(vf[2::2], 0.25, out=part)
    return out


def jacobi_smooth(level: LevelOperator, z: np.ndarray, g: np.ndarray,
                  eta: float, steps: int) -> np.ndarray:
    """steps of z <- z + (eta/diag)(g - A z).

    The system diagonal is constant (Toeplitz), so damped Jacobi here is
    scalar Richardson; implemented that way.
    """
    scale = eta / level.diag
    for _ in range(steps):
        step = level.apply(z)   # the new iterate, built in A z's fresh buffer
        np.subtract(g, step, out=step)
        step *= scale
        step += z
        z = step
    return z


def _presmooth_and_correct(hier: Hierarchy, k: int, g: np.ndarray,
                           ag: np.ndarray) -> np.ndarray:
    """Level k's zero-start pre-smoothing of g plus the coarse correction of
    its residual, given ag = A g.

    The first smoothing step gives s g with residual g - s A g, so the m1 - 1
    further steps make one product each: z <- z + s r, r <- r - s A r.
    """
    config = hier.config
    level = hier.levels[k]
    s = config.eta_pre / level.diag
    z = s * g
    residual = np.multiply(ag, -s)
    residual += g
    for _ in range(config.m1 - 1):
        z += s * residual
        residual -= s * level.apply(residual)
    residual = restrict(residual)
    if k - 1 == hier._bottom[0]:
        z += prolongate(hier.coarse_solve(residual))
    else:
        z += prolongate(v_cycle(hier, k - 1, residual))
    return z


def v_cycle(hier: Hierarchy, k: int, g: np.ndarray) -> np.ndarray:
    """One zero-start V-cycle on level index k > b with ``hier.config``.

    g may be an (n, k) block, cycled column by column.  The correction from
    the bottom level b is ``hier.coarse_solve(residual)``.  On the fine
    level, when K is stored, pre-smoothing and coarse correction are K @ g.
    """
    config = hier.config
    level = hier.levels[k]
    n = level.mesh.n_interior
    bottom = hier._bottom[0]
    if g.ndim not in (1, 2) or g.shape[0] != n:
        raise ValueError(f"level {k} expects vectors of size {n}")
    if k <= bottom:
        raise ValueError(f"level {k} is at or below the bottom level {bottom}")
    if hier._top is not None and k == len(hier.levels) - 1:
        z = hier._top @ g
    else:
        z = _presmooth_and_correct(hier, k, g, level.apply(g))
    z = jacobi_smooth(level, z, g, config.eta_post, config.m2)
    if not np.isfinite(z).all():
        raise FloatingPointError(f"non-finite iterate on level {k}")
    return z


@dataclass
class MgResult:
    solution: np.ndarray
    iters: int
    residual_history: List[float]  # relative euclidean residuals, starts at 1
    converged: bool


def mg_solve(hier: Hierarchy, g: np.ndarray) -> MgResult:
    """Correction-form V-cycles z <- z + V(g - A z) from zero to tol.

    The residual of each stopping test is the next cycle's right-hand side.

    Non-convergence within max_iter is reported via ``converged=False`` with
    the last iterate, never raised, so parameter sweeps can record failures.
    A non-finite right-hand side raises ``ValueError`` before any cycle runs.
    """
    config = hier.config
    g = np.asarray(g, dtype=float)
    top = len(hier.levels) - 1
    z = np.zeros_like(g)
    r0 = math.sqrt(g @ g)
    if not np.isfinite(r0):
        raise ValueError("right-hand side g is not finite")
    if r0 == 0.0:
        return MgResult(z, 0, [0.0], True)
    history = [1.0]
    r = g
    for it in range(1, config.max_iter + 1):
        z += v_cycle(hier, top, r)
        r = hier.fine.apply(z)
        np.subtract(g, r, out=r)
        rel = math.sqrt(r @ r) / r0
        history.append(rel)
        if rel < config.tol:
            return MgResult(z, it, history, True)
    return MgResult(z, config.max_iter, history, False)


def contraction_factor(hier: Hierarchy, m1: int, m2: int,
                       seed: int = 0) -> float:
    """Asymptotic per-cycle energy-norm error reduction, max over 3 trials.

    Smoothing counts other than the hierarchy's get their own bottom matrix
    and K on the same levels.  For random z* with g = A z*, iterate
    z <- z + V(g - A z) from zero, at most 20 cycles, and measure the error
    in the energy norm sqrt(h d'A d).  The factor is the geometric mean of
    the last few (<= 5) consecutive ratios.  Each trial stops once the error
    falls eight orders below its first measurement: past that point the
    iterate approaches the double-precision stagnation floor (roughly
    cond(A) * eps relative) and ratios turn into roundoff noise, which for
    fast-contracting cycles used to inflate the estimate past 1.
    """
    if (m1, m2) != (hier.config.m1, hier.config.m2):
        hier = _with_bottom(replace(hier, config=replace(hier.config,
                                                         m1=m1, m2=m2)))
    rng = np.random.default_rng(seed)
    level = hier.fine
    top = len(hier.levels) - 1
    h = level.mesh.h
    worst = 0.0
    for _ in range(3):
        z_star = rng.standard_normal(level.mesh.n_interior)
        g = level.apply(z_star)
        z = np.zeros_like(g)
        errs = []
        e0 = None
        for _ in range(20):
            z = z + v_cycle(hier, top, g - level.apply(z))
            d = z_star - z
            e = float(np.sqrt(h * (d @ level.apply(d))))
            if e0 is None:
                e0 = e
            elif e < 1e-8 * e0:
                break
            errs.append(e)
        k = len(errs)
        lo = max(0, k - 6)
        if k - 1 - lo < 1:
            raise RuntimeError("too few cycles to estimate a contraction factor")
        factor = (errs[k - 1] / errs[lo]) ** (1.0 / (k - 1 - lo))
        worst = max(worst, factor)
    return worst
