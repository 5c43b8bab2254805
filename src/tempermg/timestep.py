"""Crank-Nicolson time marching with a multigrid solve per step.

One hierarchy serves all N steps of a simulation (mesh and tau are fixed), so
assembly is amortized.  A separable forcing (space profile times scalar time
factor) enables the fast path: the space profile is integrated against the
basis once and rescaled at each midpoint time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .assembly import Mesh, ProblemSpec, fe_l2_error, load_vector, profile_load
from .fracquad import SeparableForcing
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
    def tau(self) -> float:
        return self.problem.T / self.N

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations)) if self.iterations else 0.0


def cn_step(hier: Hierarchy, u_prev: np.ndarray, t_prev: float,
            midpoint_load: Optional[np.ndarray] = None):
    """One Crank-Nicolson step of hier.problem; returns (u_next, iters).

    The right-hand side (M u / tau - B u / 2 + f) / h, with the source f
    integrated at the midpoint time, is formed as (2 M u / tau + f) / h - A u
    with the fine system A = (M / tau + B / 2) / h: the mass is applied as
    its 3-point stencil, so the step makes one fine product outside the
    solve.  A solver stall is escalated with step context (the solver
    itself only flags it).
    """
    problem = hier.problem
    level = hier.fine
    tau, h = hier.tau, level.mesh.h
    if midpoint_load is None:
        if problem.f is None:
            midpoint_load = np.zeros(level.mesh.n_interior)
        else:
            midpoint_load = load_vector(level.mesh, problem.f, t_prev + 0.5 * tau)
    g = level.apply_mass(u_prev)
    g *= 2.0 / tau
    g += midpoint_load
    g /= h
    g -= level.apply(u_prev)
    result = mg_solve(hier, g)
    if not result.converged:
        raise RuntimeError(
            f"multigrid stalled at t={t_prev + tau:.6g} "
            f"(relative residual {result.residual_history[-1]:.3e} "
            f"after {result.iters} cycles)")
    return result.solution, result.iters


def run_simulation(problem: ProblemSpec, M: int, N: int,
                   config: Optional[MgConfig] = None) -> SolutionRecord:
    """March the problem to t = T on an M-cell mesh with N steps."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if problem.u0 is None:
        raise ValueError("problem has no initial state: set ProblemSpec.u0")
    config = config or MgConfig()
    mesh = Mesh(problem.a, problem.b, M)
    tau = problem.T / N
    hier = build_hierarchy(problem, mesh, tau, config)
    u = np.asarray(problem.u0(mesh.interior_nodes()), dtype=float)
    separable = isinstance(problem.f, SeparableForcing)
    base_load = profile_load(mesh, problem.f.space) if separable else None
    iterations: List[int] = []
    t0 = time.perf_counter()
    for step in range(N):
        t_prev = step * tau
        mid = None
        if separable:
            mid = problem.f.time_factor(t_prev + 0.5 * tau) * base_load
        u, iters = cn_step(hier, u, t_prev, midpoint_load=mid)
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

