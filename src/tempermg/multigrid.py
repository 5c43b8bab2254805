"""Geometric V-cycle multigrid for the Toeplitz time-step systems.

Levels are built by halving the cell count until the interior size is at
most ``COARSEST_N``.  Only the finest level is assembled by quadrature; each
coarser level takes the closed-form mass of its mesh and the Galerkin
product P^T B P of the stiffness above it, which for a symmetric
Toeplitz B is symmetric Toeplitz again and costs O(n) (Chan, Chang & Sun,
SIAM J. Sci. Comput. 19, 1998).  For nested linear elements that product
equals re-discretization up to quadrature error (checked against
re-discretized assembly in the tests and in ``verify``, not assumed).
Transfers are linear interpolation and its h-weighted adjoint; the smoother
is damped Jacobi, which for these constant-diagonal operators is plain
scalar Richardson.

Every cycle starts from zero, so it is a fixed linear map of its right-hand
side, and set-up stores all of it at and below one level b as a read-only
bottom matrix C_b.  b is the highest level whose system stores its dense
matrix, the fine level included: C_0 = A_0^{-1}, and each dense level k >= 1
in turn gets C_k = V_k(I), its whole cycle with coarse correction C_{k-1}.
On a dense fine level a cycle is therefore one product with C_b.
``mg_solve`` and ``contraction_factor`` iterate in correction form,
z <- z + V(g - A z).

Each solve, dense fine level or not, allocates its buffers once: the fine
right-hand side, iterate and product, and per level above b
(``_scratch``) a right-hand side, an iterate and a residual in the heads
of operands the system lays out (``SymToeplitz._operand``), and a product
buffer.  Restriction writes the level below's right-hand side in place,
every product reads its operand where it lies
(``SymToeplitz._padded_matvec``), and C_b's product lands in the product
buffer of the level above, so a cycle above a dense fine level allocates
nothing.  The arithmetic and its order are those of an
allocate-per-operation cycle, bit for bit.  The hierarchy stays
read-only, so solves may share it across threads.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .assembly import (LevelOperator, Mesh, ProblemSpec, assemble_level,
                       level_from_symbols)

# coarsening stops at the first level with at most this interior size
COARSEST_N = 7
# Jacobi damping before and after the coarse correction; must be in (0, 1/2]
ETA = 0.5
# mg_solve's relative residual target and cycle cap
TOL = 1e-10
MAX_ITER = 100


@dataclass(frozen=True)
class MgConfig:
    """Smoothing steps of the V-cycle, each damped by ``ETA``."""

    m1: int = 1              # pre-smoothing steps
    m2: int = 2              # post-smoothing steps

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 0:
            raise ValueError("need m1 >= 1 and m2 >= 0")


@dataclass
class Hierarchy:
    """Nested levels (coarsest first) sharing one problem and time step."""

    problem: ProblemSpec
    tau: float
    config: MgConfig
    levels: List[LevelOperator]
    assembly_seconds: float = 0.0
    # (b, C_b): the highest dense level and the read-only matrix of its
    # whole zero-start cycle (A_0^{-1} at b = 0)
    _bottom: tuple = field(default=None, repr=False)

    @property
    def fine(self) -> LevelOperator:
        return self.levels[-1]

    def coarse_solve(self, g: np.ndarray, out=None) -> np.ndarray:
        """C_b g, level b's whole cycle, into ``out`` if given; ``v_cycle``
        checks the result."""
        return self._bottom[1].dot(g, out)


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
    """Assemble fine_mesh and Galerkin-coarsen down to ``COARSEST_N``.

    Each coarse level takes the closed-form mass symbol of its mesh and the
    stiffness symbol ``coarsen_symbol`` derives from the level above.
    ``assembly_seconds`` covers the bottom matrix (``_with_bottom``) too.
    """
    config = config or MgConfig()
    meshes = [fine_mesh]
    while meshes[-1].n_interior > COARSEST_N:
        meshes.append(meshes[-1].coarsen())
    if len(meshes) < 2:
        raise ValueError(
            f"M={fine_mesh.cells} yields a single level at coarsest "
            f"size {COARSEST_N}; refine the mesh")
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


def _with_bottom(hier: Hierarchy) -> None:
    """Store hier's bottom matrix C_b, the whole zero-start cycle of level b.

    C_0 = A_0^{-1} = L^{-T} L^{-1} from the Cholesky factor L, so a non-SPD
    A_0 raises ``LinAlgError``.  Then every level k >= 1 whose system stores
    its dense matrix (these are the lowest ones, the fine level among them
    when it is dense) gets, in turn, C_k = V_k(I): the zero-start cycle of
    level k on the identity, with A I that stored matrix and coarse
    correction C_{k-1}, so it makes m1 - 1 + m2 block products.  The highest
    such level is b.
    """
    levels = hier.levels
    chol_inv = np.linalg.inv(np.linalg.cholesky(levels[0].system._dense))
    hier._bottom = (0, chol_inv.T @ chol_inv)
    for k in range(1, len(levels)):
        dense = levels[k].system._dense
        if dense is None:
            break
        eye = np.eye(len(dense))
        hier._bottom = (k, _cycle(hier, k, eye, dense,
                                  _scratch(hier, k, eye)))
    k, matrix = hier._bottom
    if not np.isfinite(matrix).all():
        raise FloatingPointError(f"non-finite bottom matrix on level {k}")
    matrix.flags.writeable = False


def prolongate(coarse: np.ndarray, out: Optional[np.ndarray] = None,
               half: Optional[np.ndarray] = None) -> np.ndarray:
    """Linear interpolation in nodal values: nc -> 2*nc + 1 (zero boundary).

    Acts along axis 0, so an (nc, k) block is prolongated column by column.
    ``out`` (2*nc + 1 rows) receives the result, and ``half`` (nc rows) is
    scratch; both are optional and overlap neither coarse nor each other.
    """
    vc = np.asarray(coarse, dtype=float)
    nc = vc.shape[0]
    if out is None:
        out = np.empty((2 * nc + 1,) + vc.shape[1:])
    # even node 2j sums the halves of coarse j and j - 1 (one of them at
    # either end); halves in out's odd rows would make numpy copy a block
    half = np.multiply(vc, 0.5, out=half)
    np.add(half[1:], half[:-1], out=out[2:-1:2])
    out[0] = half[0]
    out[-1] = half[-1]
    out[1::2] = vc
    return out


def restrict(fine: np.ndarray, out: Optional[np.ndarray] = None,
             quarter: Optional[np.ndarray] = None) -> np.ndarray:
    """Full weighting 1/4 (1, 2, 1): the h-weighted adjoint of prolongate.

    Acts along axis 0, like ``prolongate``.  ``out`` (nc rows) receives the
    result, and ``quarter`` (nc + 1 rows) is scratch; both are optional.
    """
    vf = np.asarray(fine, dtype=float)
    if vf.ndim == 0 or vf.shape[0] < 3 or vf.shape[0] % 2 == 0:
        raise ValueError("fine vector must have odd size >= 3")
    # (0.25 left + 0.5 centre) + 0.25 right; left and right both come from
    # one quarter-scaled copy of the even entries
    quarter = np.multiply(vf[::2], 0.25, out=quarter)
    out = np.multiply(vf[1::2], 0.5, out=out)
    np.add(quarter[:-1], out, out=out)
    out += quarter[1:]
    return out


class _Buffers:
    """One level's buffers for the cycles of one solve, above level b.

    The level's right-hand side, iterate and residual live in the heads of
    the operands ``rhs_pad`` (the caller's), ``z_pad`` and ``res_pad`` that
    ``system._operand`` lays out, so that
    ``system._padded_matvec(x_pad, prod)`` forms A x in ``prod`` with no
    copy; ``z`` and ``res`` are the latter two heads.  With the level below,
    ``coarse`` is the head of ``coarse_pad``, that level's right-hand side,
    and ``restrict``'s scratch ``quarter`` is the head of the idle ``prod``.
    """

    __slots__ = ("rhs_pad", "z_pad", "res_pad", "coarse_pad", "z", "res",
                 "coarse", "prod", "quarter")

    def __init__(self, system, tail, rhs_pad=None, below=None):
        n = system.n
        self.rhs_pad = rhs_pad
        self.z_pad = system._operand(tail)
        self.res_pad = system._operand(tail)
        self.prod = np.empty_like(self.z_pad)
        self.z, self.res = self.z_pad[:n], self.res_pad[:n]
        if below is not None:
            self.coarse_pad = below._operand(tail)
            self.coarse = self.coarse_pad[:below.n]
            self.quarter = self.prod[:below.n + 1]


def _scratch(hier: Hierarchy, k: int, rhs_pad: np.ndarray) -> list:
    """Buffers for the cycles of one solve on level k, indexed by level:
    ``_Buffers`` on levels b + 1 .. k; at b < k, for the bottom product,
    the head of level b + 1's ``prod``, idle while level b cycles.
    ``rhs_pad``, an operand of level k's system (``_operand``), holds that
    level's right-hand side in its head; each level below takes its
    right-hand side from the one above."""
    scratch = [None] * (k + 1)
    tail = rhs_pad.shape[1:]
    for j in range(k, hier._bottom[0], -1):
        scratch[j] = work = _Buffers(hier.levels[j].system, tail, rhs_pad,
                                     hier.levels[j - 1].system)
        rhs_pad = work.coarse_pad
    if k > hier._bottom[0]:
        scratch[j - 1] = work.prod[:len(work.coarse)]
    return scratch


def jacobi_smooth(level: LevelOperator, z: np.ndarray, g: np.ndarray,
                  steps: int, work: Optional[_Buffers] = None) -> np.ndarray:
    """steps of z <- z + (ETA/diag)(g - A z).

    The system diagonal is constant (Toeplitz), so damped Jacobi here is
    scalar Richardson; implemented that way.  With ``work``, the level's
    buffers whose ``z`` is z, the steps update z in place; without, they
    run on a copy of z.
    """
    if work is None:
        work = _Buffers(level.system, z.shape[1:])
        work.z[...] = z
    z = work.z
    scale = ETA / level.diag
    for _ in range(steps):
        # t = (g - A z) s in the product's buffer, then z + t
        t = level.system._padded_matvec(work.z_pad, work.prod)
        np.subtract(g, t, out=t)
        t *= scale
        z += t
    return z


def _cycle(hier: Hierarchy, k: int, g: np.ndarray, ag: np.ndarray,
           scratch: list) -> np.ndarray:
    """Level k's zero-start V-cycle of g above the bottom level, given
    ag = A g, in the buffers ``scratch[k]``; returns their iterate.

    With s = ETA / diag, the first pre-smoothing step gives s g with
    residual g - s A g, so the m1 - 1 further steps make one product each:
    z <- z + s r, r <- r - s A r, with s r first written into the
    product's buffer.  The coarse correction is the cycle of level k - 1
    on the restricted residual, written into that level's right-hand side,
    and m2 post-smoothing steps follow; m1 and m2 come from
    ``hier.config``.  Set-up builds each C_k with this routine too, on
    (n, n) blocks.
    """
    config = hier.config
    level = hier.levels[k]
    work = scratch[k]
    s = ETA / level.diag
    z = np.multiply(g, s, out=work.z)
    residual = np.multiply(ag, -s, out=work.res)
    residual += g
    for _ in range(config.m1 - 1):
        z += np.multiply(residual, s, out=work.prod[:len(z)])
        t = level.system._padded_matvec(work.res_pad, work.prod)
        t *= s
        residual -= t
    coarse = restrict(residual, work.coarse, work.quarter)
    # the residual and, once the level below has cycled, its right-hand
    # side are spent: they take the correction and its halves
    z += prolongate(v_cycle(hier, k - 1, coarse, scratch), work.res,
                    work.coarse)
    return jacobi_smooth(level, z, g, config.m2, work)


def v_cycle(hier: Hierarchy, k: int, g: np.ndarray,
            scratch: Optional[list] = None) -> np.ndarray:
    """One zero-start V-cycle on level index k >= b with ``hier.config``.

    g may be an (n, k) block, cycled column by column.  On the bottom level
    b the cycle is ``hier.coarse_solve(g)``, so on a dense fine level it is
    one product; with ``scratch`` from a level above, it is written into
    ``scratch[b]``.  Above b the cycle runs in ``scratch``, a solve's
    buffers from ``_scratch``, where g must be the head of
    ``scratch[k].rhs_pad``; the result is then the view ``scratch[k].z``,
    valid until the next cycle.  Without ``scratch`` the call makes its own
    and copies g into it.
    A non-finite iterate raises ``FloatingPointError`` naming level k.
    This runs on every level of every cycle, so the finiteness check is
    one dot: every square is >= 0 or NaN, so a finite sum of squares proves
    every entry finite.  Only a non-finite sum, which huge finite entries
    (about 1e154 and up) reach by overflow, takes the exact entrywise test.
    """
    system = hier.levels[k].system
    n = system.n
    bottom, _ = hier._bottom
    if g.ndim not in (1, 2) or g.shape[0] != n:
        raise ValueError(f"level {k} expects vectors of size {n}")
    if k < bottom:
        raise ValueError(f"level {k} is below the bottom level {bottom}")
    if k == bottom:
        z = hier.coarse_solve(g, None if scratch is None else scratch[k])
    else:
        if scratch is None:
            rhs_pad = system._operand(g.shape[1:])
            rhs_pad[:n] = g
            scratch = _scratch(hier, k, rhs_pad)
        work = scratch[k]
        z = _cycle(hier, k, g, system._padded_matvec(work.rhs_pad, work.prod),
                   scratch)
    if (not math.isfinite(z.dot(z) if z.ndim == 1 else np.vdot(z, z))
            and not np.isfinite(z).all()):
        raise FloatingPointError(f"non-finite iterate on level {k}")
    return z


@dataclass
class MgResult:
    solution: np.ndarray
    iters: int
    # relative euclidean residuals: 1, then one a cycle; [0.0] for g = 0
    residual_history: List[float]
    converged: bool
    # g - A solution, the last residual formed: once a cycle has run,
    # always a view of this solve's buffers; never g
    residual: np.ndarray


def mg_solve(hier: Hierarchy, g: np.ndarray) -> MgResult:
    """Correction-form V-cycles z <- z + V(g - A z) from zero to ``TOL``.

    The residual of each stopping test is the next cycle's right-hand side,
    and the last one is returned, so a caller gets A z = g - r without a
    product (``cn_step`` does).  The cycles run in buffers this call
    allocates once, for a dense fine level as for an FFT one, and every
    fine product reads the iterate where it lies; the returned solution
    and residual are views of buffers no other solve shares.

    Non-convergence within ``MAX_ITER`` cycles is reported via
    ``converged=False`` with the last iterate, never raised, so parameter
    sweeps can record failures.  A non-finite right-hand side raises
    ``ValueError`` before any cycle runs.  A finite g whose sum of squares
    overflows is solved as g 2^-e, with 2^e its largest entry's binade, and
    the solution and residual are scaled back: power-of-two scaling is
    exact barring underflow, so the cycles and history are those of any
    other power-of-two multiple of g.
    """
    g = np.asarray(g, dtype=float)
    top = len(hier.levels) - 1
    system = hier.levels[top].system
    if g.shape != (system.n,):
        raise ValueError(f"g must have shape ({system.n},), got {g.shape}")
    r0 = math.sqrt(g.dot(g))
    if not math.isfinite(r0):
        if not np.isfinite(g).all():
            raise ValueError("right-hand side g is not finite")
        e = int(np.frexp(np.abs(g).max())[1])
        res = mg_solve(hier, np.ldexp(g, -e))
        np.ldexp(res.solution, e, out=res.solution)
        np.ldexp(res.residual, e, out=res.residual)
        return res
    if r0 == 0.0:
        return MgResult(np.zeros_like(g), 0, [0.0], True, g.copy())
    rhs_pad = system._operand(())
    z_pad, prod = np.zeros_like(rhs_pad), np.empty_like(rhs_pad)
    z, r = z_pad[:system.n], rhs_pad[:system.n]
    r[...] = g
    scratch = _scratch(hier, top, rhs_pad)
    history = [1.0]
    for it in range(1, MAX_ITER + 1):
        z += v_cycle(hier, top, r, scratch)
        # written where the next cycle reads its right-hand side
        np.subtract(g, system._padded_matvec(z_pad, prod), out=r)
        rel = math.sqrt(r.dot(r)) / r0
        history.append(rel)
        if rel < TOL:
            return MgResult(z, it, history, True, r)
    return MgResult(z, MAX_ITER, history, False, r)


def contraction_factor(hier: Hierarchy, seed: int = 0) -> float:
    """Asymptotic per-cycle energy-norm error reduction, max over 3 trials.

    The cycle is the hierarchy's own, with the smoothing counts of
    ``hier.config``.  For random z* with g = A z*, iterate
    z <- z + V(r), r = g - A z, from zero, at most 20 cycles.  The error
    d = z* - z has energy norm sqrt(h d'A d) = sqrt(h d'r), so the residual
    that is the next cycle's right-hand side also gives the error; it
    starts at e_init = sqrt(h z*'g).  The factor is the geometric mean of
    the last few (<= 5) consecutive ratios.  Each trial stops once the
    error falls eight orders below its first measurement or twelve below
    e_init, or h d'r is not positive: past that point the iterate
    approaches the double-precision stagnation floor (roughly cond(A) * eps
    relative) and ratios turn into roundoff noise that reads near 1.  A
    trial that keeps fewer than two errors, because its first cycle or two
    already reach that floor, reads (e_last / e_init)^(1 / cycles) instead.
    """
    rng = np.random.default_rng(seed)
    level = hier.fine
    top = len(hier.levels) - 1
    h = level.mesh.h
    worst = 0.0
    for _ in range(3):
        z_star = rng.standard_normal(level.mesh.n_interior)
        g = level.system.matvec(z_star)
        e_init = math.sqrt(h * (z_star @ g))
        z = np.zeros_like(g)
        r = g
        errs = []
        for cycles in range(1, 21):
            z += v_cycle(hier, top, r)
            r = g - level.system.matvec(z)
            e = math.sqrt(max(h * ((z_star - z) @ r), 0.0))
            if e < 1e-12 * e_init or (errs and e < 1e-8 * errs[0]):
                break
            errs.append(e)
        k = len(errs)
        if k < 2:
            factor = (e / e_init) ** (1.0 / cycles)
        else:
            lo = max(0, k - 6)
            factor = (errs[k - 1] / errs[lo]) ** (1.0 / (k - 1 - lo))
        worst = max(worst, factor)
    return worst
