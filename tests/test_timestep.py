"""Crank-Nicolson marching: stability, accuracy, and observed-order helpers."""

import numpy as np
import pytest
import scipy.linalg as sla

from tempermg import assembly, fracquad, multigrid, timestep, toeplitz
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.timestep import SolutionRecord


def zero_field(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def midpoint_load(prob, mesh, t_mid):
    """The source of a separable problem integrated at time t_mid."""
    return prob.f.time_factor(t_mid) * assembly.profile_load(mesh, prob.f.space)


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
        u, _ = timestep.cn_step(hier, u, step * tau, np.zeros_like(u))
        cur = norm(u)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


def test_cn_step_makes_one_fine_product_outside_the_solve(monkeypatch):
    # g = (2 M u / tau + f) / h - A u, with M as its stencil, is the
    # right-hand side (M u / tau - B u / 2 + f) / h, and A u is the one
    # product the step makes outside mg_solve
    prob = assembly.make_example1(1.8, 0.5)
    mesh = Mesh(prob.a, prob.b, 512)
    tau = prob.T / 64
    hier = multigrid.build_hierarchy(prob, mesh, tau)
    u = prob.u0(mesh.interior_nodes())
    load = midpoint_load(prob, mesh, 0.5 * tau)
    fine = hier.fine
    expected = (fine.mass.matvec(u) / tau - 0.5 * fine.stiff.matvec(u)
                + load) / mesh.h
    outside, rhs, solving = [], [], []
    matvec = toeplitz.SymToeplitz.matvec
    solve = timestep.mg_solve

    def recording_matvec(self, x):
        if not solving:
            outside.append(self)
        return matvec(self, x)

    def recording_solve(hier_, g):
        rhs.append(g)
        solving.append(True)
        try:
            return solve(hier_, g)
        finally:
            solving.pop()

    monkeypatch.setattr(toeplitz.SymToeplitz, "matvec", recording_matvec)
    monkeypatch.setattr(timestep, "mg_solve", recording_solve)
    _, iters = timestep.cn_step(hier, u, 0.0, load)
    assert iters > 0
    assert len(outside) == 1 and outside[0] is fine.system
    np.testing.assert_allclose(rhs[0], expected, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(expected)))


def test_cn_step_preserves_zero_state():
    prob = assembly.make_example2(1.8)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 0.125)
    u, iters = timestep.cn_step(hier, np.zeros(31), 0.0, np.zeros(31))
    assert iters == 0
    assert np.all(u == 0.0)


def test_cn_step_matches_dense_direct_solve():
    prob = assembly.make_example1(1.5, 0.0)
    mesh = Mesh(0.0, 32.0, 32)
    tau = prob.T / 8.0
    hier = multigrid.build_hierarchy(prob, mesh, tau)
    u0 = prob.u0(mesh.interior_nodes())
    load = midpoint_load(prob, mesh, 0.5 * tau)
    got, _ = timestep.cn_step(hier, u0, 0.0, load)

    mass = sla.toeplitz(assembly.mass_symbol(mesh))
    stiff = sla.toeplitz(assembly.stiffness_symbol(prob, mesh))
    rhs = (mass @ u0 / tau - 0.5 * stiff @ u0 + load) / mesh.h
    system = (mass / tau + 0.5 * stiff) / mesh.h
    ref = np.linalg.solve(system, rhs)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_cn_step_escalates_solver_stall(monkeypatch):
    monkeypatch.setattr(multigrid, "TOL", 1e-14)
    monkeypatch.setattr(multigrid, "MAX_ITER", 1)
    prob = assembly.make_example2(1.5)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 64), 0.01)
    u0 = prob.u0(hier.fine.mesh.interior_nodes())
    with pytest.raises(RuntimeError, match="stalled"):
        timestep.cn_step(hier, u0, 0.0, np.zeros_like(u0))


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


def test_simulation_integrates_the_source_once(monkeypatch):
    # the space profile is integrated once, before the first step, and each
    # step gets it scaled by the time factor at its midpoint; both names are
    # looked up on the module at call time, where the benchmark harness
    # wraps them
    prob = assembly.make_example1(1.5, 0.5)
    calls = []
    profile_load, cn_step = timestep.profile_load, timestep.cn_step

    def recording_load(mesh, profile):
        calls.append(("profile_load", profile))
        return profile_load(mesh, profile)

    def recording_step(hier, u, t_prev, load):
        calls.append(("cn_step", t_prev, load))
        return cn_step(hier, u, t_prev, load)

    monkeypatch.setattr(timestep, "profile_load", recording_load)
    monkeypatch.setattr(timestep, "cn_step", recording_step)
    timestep.run_simulation(prob, 64, 4)
    assert [call[0] for call in calls] == ["profile_load"] + ["cn_step"] * 4
    assert calls[0][1] is prob.f.space
    base = profile_load(Mesh(0.0, 32.0, 64), prob.f.space)
    for step, (_, t_prev, load) in enumerate(calls[1:]):
        assert t_prev == step * 0.25
        np.testing.assert_array_equal(load, np.exp(-(t_prev + 0.125)) * base)


def test_homogeneous_simulation_integrates_no_source(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a load integrated for a problem with f = None")

    monkeypatch.setattr(timestep, "profile_load", forbidden)
    rec = timestep.run_simulation(assembly.make_example2(1.5), 32, 4)
    assert np.all(np.isfinite(rec.final)) and len(rec.iterations) == 4


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
    # the order from distances between nested runs, with no exact solution
    # consulted, recovers the second order of the manufactured problem
    prob = assembly.make_example1(1.5, 0.0)
    runs = [timestep.run_simulation(prob, m, m) for m in (16, 32, 64)]
    d_coarse = timestep.shared_node_distance(runs[0], runs[1])
    d_fine = timestep.shared_node_distance(runs[1], runs[2])
    rate = timestep.rate_from_errors(d_coarse, d_fine)
    assert rate == pytest.approx(2.0, abs=0.25)
