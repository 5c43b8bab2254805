"""Crank-Nicolson marching: stability, accuracy, and observed-order helpers."""

import numpy as np
import pytest
import scipy.linalg as sla

from tempermg import assembly, fracquad, multigrid, timestep
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.timestep import SolutionRecord


def zero_field(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# single step


@pytest.mark.parametrize("steps", [64, 6])  # 6 steps puts tau near 10 h
def test_cn_step_mass_norm_never_grows(steps):
    prob = assembly.make_example2(1.5)
    mesh = Mesh(0.0, 1.0, 64)
    tau = prob.T / steps
    hier = multigrid.build_hierarchy(prob, mesh, tau)
    u = prob.u0(mesh.interior_nodes())
    norm = lambda v: np.sqrt(v @ hier.fine.mass.matvec(v))
    prev = norm(u)
    for step in range(min(steps, 8)):
        u, _ = timestep.cn_step(hier, u, step * tau)
        cur = norm(u)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_cn_step_preserves_zero_state():
    prob = assembly.make_example2(1.8)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 0.125)
    u, iters = timestep.cn_step(hier, np.zeros(31), 0.0)
    assert iters == 0
    assert np.all(u == 0.0)


def test_cn_step_matches_dense_direct_solve():
    prob = assembly.make_example1(1.5, 0.0)
    mesh = Mesh(0.0, 32.0, 32)
    tau = prob.T / 8.0
    hier = multigrid.build_hierarchy(prob, mesh, tau)
    u0 = prob.u0(mesh.interior_nodes())
    got, _ = timestep.cn_step(hier, u0, 0.0)

    mass = sla.toeplitz(assembly.mass_symbol(mesh))
    stiff = sla.toeplitz(assembly.stiffness_symbol(prob, mesh))
    load = assembly.load_vector(mesh, prob.f, 0.5 * tau)
    rhs = (mass @ u0 / tau - 0.5 * stiff @ u0 + load) / mesh.h
    system = (mass / tau + 0.5 * stiff) / mesh.h
    ref = np.linalg.solve(system, rhs)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_cn_step_escalates_solver_stall():
    prob = assembly.make_example2(1.5)
    config = multigrid.MgConfig(tol=1e-14, max_iter=1)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 64), 0.01, config)
    u0 = prob.u0(hier.fine.mesh.interior_nodes())
    with pytest.raises(RuntimeError, match="stalled"):
        timestep.cn_step(hier, u0, 0.0)


# ---------------------------------------------------------------------------
# full simulation


def test_zero_data_gives_zero_trajectory():
    prob = ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0, f=None, u0=zero_field)
    rec = timestep.run_simulation(prob, 32, 8)
    assert np.all(rec.final == 0.0)
    assert rec.iterations == [0] * 8
    assert rec.l2_error is None


def test_record_metadata():
    prob = assembly.make_example2(1.3)
    rec = timestep.run_simulation(prob, 32, 16)
    assert (rec.M, rec.N) == (32, 16)
    assert rec.tau == pytest.approx(1.0 / 16.0)
    assert len(rec.iterations) == 16
    assert rec.mean_iterations == pytest.approx(np.mean(rec.iterations))
    assert rec.loop_seconds > 0.0 and rec.assembly_seconds > 0.0
    assert rec.final.shape == (31,)


def test_empty_iteration_list_mean():
    rec = SolutionRecord(problem=assembly.make_example2(1.5), M=4, N=1,
                         final=np.zeros(3), iterations=[], loop_seconds=0.0,
                         assembly_seconds=0.0, l2_error=None)
    assert rec.mean_iterations == 0.0


def test_simulation_requires_steps():
    with pytest.raises(ValueError):
        timestep.run_simulation(assembly.make_example2(1.5), 32, 0)


def test_simulation_requires_initial_state(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("hierarchy built before the input check")

    monkeypatch.setattr(timestep, "build_hierarchy", no_build)
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="u0"):
        timestep.run_simulation(prob, 16, 4)


@pytest.mark.parametrize("alpha,expected", [(1.1, 4.7035e-03), (1.8, 1.5598e-02)])
def test_manufactured_problem_error_level(alpha, expected):
    rec = timestep.run_simulation(assembly.make_example1(alpha, 0.5), 128, 128)
    assert rec.l2_error == pytest.approx(expected, rel=1.0)  # same magnitude
    assert rec.l2_error < 2.0 * expected
    assert 0 < rec.mean_iterations <= 30


def test_manufactured_run_uses_no_pointwise_quadrature(monkeypatch):
    # the forcing is closed form: a run must never build a Lobatto rule
    def forbidden(*args, **kwargs):
        raise AssertionError("pointwise fractional quadrature on a solve path")

    monkeypatch.setattr(fracquad, "jacobi_gl", forbidden)
    rec = timestep.run_simulation(assembly.make_example1(1.8, 0.5), 64, 4)
    assert np.isfinite(rec.l2_error) and rec.l2_error < 1.0


def test_separable_fast_path_matches_generic_loads():
    # the cached space profile rescaled by the midpoint factor must equal
    # a fresh space-time quadrature of the same separable source
    prob = assembly.make_example1(1.5, 0.5)
    mesh = Mesh(0.0, 32.0, 64)
    base = assembly.profile_load(mesh, prob.f.space)
    t_mid = 0.3125
    direct = assembly.load_vector(mesh, prob.f, t_mid)
    np.testing.assert_allclose(prob.f.time_factor(t_mid) * base, direct,
                               rtol=1e-12)


def test_reaction_absorbed_by_exponential_rescaling():
    # u_t = Lu - sigma u and v_t = Lv with v = e^{sigma t} u: march both,
    # undo the rescaling at t = T.  The two discretizations differ only at
    # the scheme's own order, so the gap must shrink ~4x per refinement.
    alpha, lam, sigma = 1.5, 0.5, 0.8
    with_reaction = ProblemSpec(alpha, lam, sigma, 0.0, 1.0, 1.0,
                                f=None, u0=lambda x: x * (1.0 - x))
    without = ProblemSpec(alpha, lam, 0.0, 0.0, 1.0, 1.0,
                          f=None, u0=lambda x: x * (1.0 - x))
    gaps = []
    for size in (32, 64):
        rec_u = timestep.run_simulation(with_reaction, size, size)
        rec_v = timestep.run_simulation(without, size, size)
        recovered = rec_v.final * np.exp(-sigma * without.T)
        gaps.append(np.linalg.norm(rec_u.final - recovered)
                    / np.linalg.norm(rec_u.final))
    assert gaps[1] <= 2e-3
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.3)


def test_time_discretization_second_order():
    # freeze the mesh, refine only tau: error must drop ~4x per halving
    prob = assembly.make_example1(1.8, 0.0)
    errs = [timestep.run_simulation(prob, 512, N).l2_error for N in (8, 16, 32)]
    assert timestep.rate_from_errors(errs[0], errs[1]) == pytest.approx(2.0, abs=0.15)
    assert timestep.rate_from_errors(errs[1], errs[2]) == pytest.approx(2.0, abs=0.15)


# ---------------------------------------------------------------------------
# observed-order helpers


def test_rate_from_errors_exact_ratios():
    assert timestep.rate_from_errors(4.0, 1.0) == pytest.approx(2.0)
    assert timestep.rate_from_errors(2.0, 1.0) == pytest.approx(1.0)
    assert timestep.rate_from_errors(4.7035e-03, 1.1469e-03) == pytest.approx(
        2.0360, abs=5e-4)


def test_rate_from_errors_validation():
    with pytest.raises(ValueError):
        timestep.rate_from_errors(0.0, 1.0)
    with pytest.raises(ValueError):
        timestep.rate_from_errors(1.0, -1.0)


def test_shared_node_distance_by_hand():
    prob = assembly.make_example2(1.5)
    coarse = SolutionRecord(problem=prob, M=4, N=4, final=np.array([1.0, 2.0, 3.0]),
                            iterations=[], loop_seconds=0.0, assembly_seconds=0.0,
                            l2_error=None)
    fine = SolutionRecord(problem=prob, M=8, N=8,
                          final=np.array([0.0, 1.0, 0.0, 2.0, 0.0, 4.0, 0.0]),
                          iterations=[], loop_seconds=0.0, assembly_seconds=0.0,
                          l2_error=None)
    # differences at shared nodes: (0, 0, -1); h_coarse = 1/4
    assert timestep.shared_node_distance(coarse, fine) == pytest.approx(0.5)


def test_three_mesh_rate_on_manufactured_control():
    prob = assembly.make_example1(1.5, 0.0)
    cache = {}
    rate = timestep.rate_three_mesh(prob, 32, 32, cache=cache)
    assert rate == pytest.approx(2.0, abs=0.25)
    assert set(cache) == {(16, 16), (32, 32), (64, 64)}


def test_three_mesh_rate_reuses_cache():
    prob = assembly.make_example1(1.5, 0.0)
    cache = {}
    timestep.rate_three_mesh(prob, 32, 32, cache=cache)
    marker = cache[(32, 32)]
    timestep.rate_three_mesh(prob, 64, 64, cache=cache)
    assert cache[(32, 32)] is marker
    assert (128, 128) in cache


def test_three_mesh_rate_validation():
    prob = assembly.make_example2(1.5)
    with pytest.raises(ValueError):
        timestep.rate_three_mesh(prob, 31, 32)
    with pytest.raises(ValueError):
        timestep.rate_three_mesh(prob, 32, 7)
