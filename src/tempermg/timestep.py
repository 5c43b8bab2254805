"""Crank-Nicolson time marching with a multigrid solve per step.

One hierarchy serves all N steps of a simulation (mesh and tau are fixed), so
assembly is amortized.  The source is separable (space profile times scalar
time factor), so its space profile is integrated against the basis once and
rescaled at each midpoint time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .assembly import Mesh, ProblemSpec, fe_l2_error, profile_load
from .multigrid import Hierarchy, MgConfig, build_hierarchy, mg_solve


@dataclass
class SolutionRecord:
    problem: ProblemSpec
    M: int
    N: int
    final: np.ndarray
    iterations: List[int]          # one multigrid count per step
    loop_seconds: float            # time loop incl. per-step RHS assembly
    assembly_seconds: float        # one-time hierarchy assembly
    l2_error: Optional[float]      # at t = T, when an exact solution exists

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0


def cn_step(hier: Hierarchy, u_prev: np.ndarray, t_prev: float,
            load: np.ndarray, au_prev: Optional[np.ndarray] = None):
    """One Crank-Nicolson step of hier.problem; returns
    (u_next, iters, au_next) with au_next = A u_next.

    ``load`` is the source f integrated against the fine basis at the
    midpoint time t_prev + tau / 2.  The right-hand side
    (M u / tau - B u / 2 + f) / h is formed as (2 M u / tau + f) / h - A u
    with the fine system A = (M / tau + B / 2) / h, and the mass applied as
    its 3-point stencil.  ``au_prev`` is A u_prev, as the previous step
    returned it; without it (step 0, or a caller that has none) the step
    makes its one fine product outside the solve.  au_next is g - r from
    the solver's last residual r = g - A u_next, so the next step makes
    none: where A u_next and g agree within a factor of 2 (Sterbenz's
    lemma) it is the product bit for bit.  A solver stall is escalated with
    step context (the solver itself only flags it).
    """
    level = hier.fine
    tau, h = hier.tau, level.mesh.h
    g = level.apply_mass(u_prev)
    g *= 2.0 / tau
    g += load
    g /= h
    g -= level.system.matvec(u_prev) if au_prev is None else au_prev
    result = mg_solve(hier, g)
    if not result.converged:
        raise RuntimeError(
            f"multigrid stalled at t={t_prev + tau:.6g} "
            f"(relative residual {result.residual_history[-1]:.3e} "
            f"after {result.iters} cycles)")
    au_next = np.subtract(g, result.residual, out=result.residual)
    return result.solution, result.iters, au_next


def run_simulation(problem: ProblemSpec, M: int, N: int,
                   config: Optional[MgConfig] = None) -> SolutionRecord:
    """March the problem to t = T on an M-cell mesh with N steps.

    The space profile of the source is integrated once, before the first
    step, and each step gets it scaled by the time factor at its midpoint.
    Each step passes A u to the next, so only step 0 makes a fine product
    outside its solve.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if problem.u0 is None:
        raise ValueError("problem has no initial state: set ProblemSpec.u0")
    config = config or MgConfig()
    mesh = Mesh(problem.a, problem.b, M)
    tau = problem.T / N
    hier = build_hierarchy(problem, mesh, tau, config)
    u = np.asarray(problem.u0(mesh.interior_nodes()), dtype=float)
    if problem.f is None:
        space_load, time_factor = np.zeros(mesh.n_interior), lambda t: 1.0
    else:
        space_load = profile_load(mesh, problem.f.space)
        time_factor = problem.f.time_factor
    iterations: List[int] = []
    au = None  # A u, handed from each step to the next
    t0 = time.perf_counter()
    for step in range(N):
        t_prev = step * tau
        load = time_factor(t_prev + 0.5 * tau) * space_load
        u, iters, au = cn_step(hier, u, t_prev, load, au)
        iterations.append(iters)
    loop_seconds = time.perf_counter() - t0
    err = None
    if problem.exact is not None:
        err = fe_l2_error(mesh, u, problem.exact, problem.T)
    return SolutionRecord(problem=problem, M=M, N=N, final=u,
                          iterations=iterations, loop_seconds=loop_seconds,
                          assembly_seconds=hier.assembly_seconds, l2_error=err)


def rate_from_errors(err_coarse: float, err_fine: float) -> float:
    """Observed order log2(err_coarse / err_fine) for a mesh halving."""
    if err_coarse <= 0 or err_fine <= 0:
        raise ValueError("errors must be positive")
    return float(np.log2(err_coarse / err_fine))


def shared_node_distance(coarse: SolutionRecord, fine: SolutionRecord) -> float:
    """Discrete L2 distance on the coarse run's nodes (fine odd-index nodes)."""
    h_coarse = (coarse.problem.b - coarse.problem.a) / coarse.M
    diff = coarse.final - fine.final[1::2]
    return float(np.sqrt(h_coarse * np.sum(diff**2)))

