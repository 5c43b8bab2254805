"""V-cycle multigrid: transfers, smoother, cycle algebra, solver driver."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg as sla

from tempermg import assembly, multigrid, toeplitz
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.multigrid import MgConfig


def model_problem(alpha=1.5, lam=0.5, sigma=0.3):
    return ProblemSpec(alpha, lam, sigma, 0.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def hier128():
    return multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 128),
                                     tau=1.0 / 128.0)


# ---------------------------------------------------------------------------
# hierarchy construction


def test_hierarchy_level_sizes():
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 256), 0.1)
    sizes = [lvl.mesh.n_interior for lvl in hier.levels]
    assert sizes == [7, 15, 31, 63, 127, 255]
    assert hier.fine is hier.levels[-1]
    assert all(lvl.tau == 0.1 for lvl in hier.levels)
    assert hier.assembly_seconds > 0.0


def test_hierarchy_runs_quadrature_on_fine_level_only(monkeypatch):
    cells = []
    pair_symbol = assembly.frac_pair_symbol

    def counting(mesh, *args):
        cells.append(mesh.cells)
        return pair_symbol(mesh, *args)

    monkeypatch.setattr(assembly, "frac_pair_symbol", counting)
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 64), 0.1)
    assert cells == [64]
    assert len(hier.levels) == 4


def test_hierarchy_rejects_single_level():
    with pytest.raises(ValueError):
        multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 8), 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        MgConfig(m1=0)
    with pytest.raises(ValueError):
        MgConfig(m2=-1)
    with pytest.raises(ValueError):
        MgConfig(eta_pre=0.7)
    with pytest.raises(ValueError):
        MgConfig(eta_post=0.0)
    with pytest.raises(ValueError):
        MgConfig(tol=0.0)
    with pytest.raises(ValueError):
        MgConfig(max_iter=0)
    with pytest.raises(ValueError):
        MgConfig(coarse_max=0)


def test_rediscretized_levels_satisfy_galerkin_relation():
    # each coarse level is the variational product 0.5 P^T A_fine P, and for
    # nested linear elements that product is what re-discretizing the problem
    # on the coarse mesh gives, up to the rounding error of the symbols
    problem = model_problem()
    hier = multigrid.build_hierarchy(problem, Mesh(0.0, 1.0, 64), 0.25)
    for k in range(1, len(hier.levels)):
        fine, coarse = hier.levels[k], hier.levels[k - 1]
        nc = coarse.mesh.n_interior
        p_mat = np.column_stack([multigrid.prolongate(col)
                                 for col in np.eye(nc)])
        product = 0.5 * p_mat.T @ fine.system.dense() @ p_mat
        dense_c = coarse.system.dense()
        gap = np.linalg.norm(product - dense_c) / np.linalg.norm(dense_c)
        assert gap <= 1e-13
        rebuilt = assembly.assemble_level(problem, coarse.mesh, 0.25)
        dense_r = rebuilt.system.dense()
        gap = np.linalg.norm(dense_r - dense_c) / np.linalg.norm(dense_r)
        assert gap <= 1e-13


@pytest.mark.parametrize("nc", [1, 3, 7, 31])
def test_coarsen_symbol_matches_dense_galerkin_product(nc):
    rng = np.random.default_rng(nc)
    col = rng.standard_normal(2 * nc + 1)
    p_mat = np.column_stack([multigrid.prolongate(e) for e in np.eye(nc)])
    product = p_mat.T @ sla.toeplitz(col) @ p_mat
    got = multigrid.coarsen_symbol(col)
    scale = np.max(np.abs(product))
    assert np.max(np.abs(got - product[:, 0])) <= 1e-13 * scale
    assert np.max(np.abs(sla.toeplitz(got) - product)) <= 1e-13 * scale


def test_coarsen_symbol_validation():
    with pytest.raises(ValueError):
        multigrid.coarsen_symbol(np.ones(4))
    with pytest.raises(ValueError):
        multigrid.coarsen_symbol(np.ones(1))


# ---------------------------------------------------------------------------
# grid transfers


def test_prolongate_unit_stencil():
    got = multigrid.prolongate(np.array([0.0, 1.0, 0.0]))
    np.testing.assert_allclose(got, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0],
                               atol=0)


def test_prolongate_constant():
    got = multigrid.prolongate(np.ones(7))
    assert got.shape == (15,)
    np.testing.assert_allclose(got[1:-1], np.ones(13), atol=0)
    assert got[0] == 0.5 and got[-1] == 0.5  # boundary value is implicitly 0


def test_prolongate_reproduces_piecewise_linear():
    # tent function with its kink on a coarse node interpolates exactly
    coarse_mesh = Mesh(0.0, 1.0, 8)
    fine_mesh = Mesh(0.0, 1.0, 16)
    tent = lambda x: np.minimum(x, 1.0 - x)
    got = multigrid.prolongate(tent(coarse_mesh.interior_nodes()))
    np.testing.assert_allclose(got, tent(fine_mesh.interior_nodes()), atol=1e-15)


def test_restrict_center_stencil():
    e = np.zeros(7)
    e[3] = 1.0
    np.testing.assert_allclose(multigrid.restrict(e), [0.0, 0.5, 0.0], atol=0)
    e = np.zeros(7)
    e[2] = 1.0
    np.testing.assert_allclose(multigrid.restrict(e), [0.25, 0.25, 0.0], atol=0)


def test_restrict_constant():
    np.testing.assert_allclose(multigrid.restrict(np.ones(15)), np.ones(7),
                               atol=0)


def test_restrict_validation():
    with pytest.raises(ValueError):
        multigrid.restrict(np.ones(8))
    with pytest.raises(ValueError):
        multigrid.restrict(np.ones(1))


def test_transfers_act_on_blocks_column_by_column():
    rng = np.random.default_rng(8)
    coarse = rng.standard_normal((7, 3))
    fine = rng.standard_normal((15, 3))
    np.testing.assert_array_equal(
        multigrid.prolongate(coarse),
        np.column_stack([multigrid.prolongate(c) for c in coarse.T]))
    np.testing.assert_array_equal(
        multigrid.restrict(fine),
        np.column_stack([multigrid.restrict(c) for c in fine.T]))


@pytest.mark.parametrize("nc", [7, 15, 31])
def test_transfers_are_mesh_weighted_adjoints(nc):
    rng = np.random.default_rng(nc)
    h_f = 1.0 / (nc + 1) * 0.5
    h_c = 2.0 * h_f
    w = rng.standard_normal(2 * nc + 1)
    v = rng.standard_normal(nc)
    lhs = h_c * float(multigrid.restrict(w) @ v)
    rhs = h_f * float(w @ multigrid.prolongate(v))
    assert lhs == pytest.approx(rhs, rel=1e-14)


# ---------------------------------------------------------------------------
# smoother


def test_smoother_fixed_point(hier128):
    level = hier128.fine
    rng = np.random.default_rng(0)
    z_star = rng.standard_normal(level.mesh.n_interior)
    g = level.apply(z_star)
    out = multigrid.jacobi_smooth(level, z_star.copy(), g, 0.5, 3)
    np.testing.assert_allclose(out, z_star, rtol=1e-12)


def test_smoother_single_step_from_zero(hier128):
    level = hier128.fine
    rng = np.random.default_rng(1)
    g = rng.standard_normal(level.mesh.n_interior)
    out = multigrid.jacobi_smooth(level, np.zeros_like(g), g, 0.4, 1)
    np.testing.assert_allclose(out, 0.4 / level.diag * g, rtol=1e-14)


def test_smoother_energy_monotone(hier128):
    level = hier128.fine
    h = level.mesh.h
    rng = np.random.default_rng(2)
    z_star = rng.standard_normal(level.mesh.n_interior)
    g = level.apply(z_star)
    z = np.zeros_like(g)
    energies = []
    for _ in range(6):
        d = z_star - z
        energies.append(np.sqrt(h * (d @ level.apply(d))))
        z = multigrid.jacobi_smooth(level, z, g, 0.5, 1)
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * energies[0])


# ---------------------------------------------------------------------------
# V-cycle algebra


def test_vcycle_zero_data_is_zero(hier128):
    top = len(hier128.levels) - 1
    n = hier128.fine.mesh.n_interior
    out = multigrid.v_cycle(hier128, top, np.zeros(n))
    assert np.all(out == 0.0)


@pytest.fixture(scope="module")
def hier16():
    # two levels: nothing between the coarsest and the fine one
    return multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 16), 0.1)


def test_vcycle_coarsest_is_direct_solve(hier16, hier128):
    coarse = hier16.levels[0]
    rng = np.random.default_rng(4)
    g = rng.standard_normal(coarse.mesh.n_interior)
    ref = np.linalg.solve(coarse.system.dense(), g)
    out = hier16.coarse_solve(g)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    # no cycle runs on the bottom level or below it
    for hier in (hier16, hier128):
        for k in range(hier._bottom[0] + 1):
            g = np.ones(hier.levels[k].mesh.n_interior)
            with pytest.raises(ValueError, match="bottom level"):
                multigrid.v_cycle(hier, k, g)


def test_coarse_solve_rejects_non_finite_rhs(hier16, hier128):
    for hier in (hier16, hier128, uncollapsed(hier128)):
        g = np.ones(hier.fine.mesh.n_interior)
        g[5] = np.nan
        with pytest.raises(FloatingPointError):
            multigrid.v_cycle(hier, len(hier.levels) - 1, g)
    with pytest.raises(ValueError):
        multigrid.mg_solve(hier128, g)
    # a non-finite bottom product is caught by the level above it
    k, c_k = hier128._bottom
    poisoned = dataclasses.replace(hier128,
                                   _bottom=(k, np.full_like(c_k, np.nan)))
    g = np.ones(hier128.levels[k + 1].mesh.n_interior)
    with pytest.raises(FloatingPointError, match=f"level {k + 1}"):
        multigrid.v_cycle(poisoned, k + 1, g)
    # a contraction estimate with the hierarchy's smoothing counts reads it
    with pytest.raises(FloatingPointError):
        multigrid.contraction_factor(poisoned, hier128.config.m1,
                                     hier128.config.m2)


def test_mg_solve_rejects_non_finite_rhs_before_cycling(hier128, monkeypatch):
    cycles = []
    v_cycle = multigrid.v_cycle

    def counting(*args, **kwargs):
        cycles.append(1)
        return v_cycle(*args, **kwargs)

    monkeypatch.setattr(multigrid, "v_cycle", counting)
    g = np.ones(hier128.fine.mesh.n_interior)
    g[5] = np.nan
    with pytest.raises(ValueError, match="right-hand side"):
        multigrid.mg_solve(hier128, g)
    assert cycles == []


def test_vcycle_shape_validation(hier128):
    top = len(hier128.levels) - 1
    with pytest.raises(ValueError):
        multigrid.v_cycle(hier128, top, np.zeros(5))


def test_vcycle_error_operator_selfadjoint_in_energy():
    # with symmetric smoothing (m1 = m2, same damping) the cycle's error
    # operator I - V A is self-adjoint in the operator inner product; at
    # M = 32 the cycle ends in the stored C_K of the middle level
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 32),
                                     tau=0.25, config=MgConfig(m1=1, m2=1))
    assert hier._bottom[0] == 1 and len(hier.levels) == 3
    top = len(hier.levels) - 1
    a_dense = hier.fine.system.dense()
    e_mat = np.eye(len(a_dense)) - np.column_stack([
        multigrid.v_cycle(hier, top, col) for col in a_dense.T])
    sym = a_dense @ e_mat
    assert np.linalg.norm(sym - sym.T) <= 1e-10 * np.linalg.norm(sym)


# ---------------------------------------------------------------------------
# stored bottom matrix


@pytest.fixture(scope="module")
def hier1024():
    return multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 1024),
                                     tau=1.0 / 1024.0)


def uncollapsed(hier):
    # the same cycle with bottom level b = 0: it recurses to the coarsest
    # level and ends in A_0^{-1}
    a_0 = hier.levels[0].system.dense()
    return dataclasses.replace(hier, _bottom=(0, np.linalg.inv(a_0)))


def test_collapse_level_is_the_largest_dense_coarse_level(hier16, hier128,
                                                          hier1024):
    # fine n = 127: every level below it is dense, so K is the one under the
    # fine level; fine n = 1023: K is n = 255, two levels down
    assert hier128._bottom[0] == len(hier128.levels) - 2
    assert hier1024._bottom[0] == len(hier1024.levels) - 3
    for hier in (hier16, hier128, hier1024):
        k, c_k = hier._bottom
        n = hier.levels[k].mesh.n_interior
        assert n <= toeplitz._DENSE_MAX_N
        assert c_k.shape == (n, n) and not c_k.flags.writeable
    # no coarse level strictly between the coarsest and the fine one: the
    # bottom matrix is the coarsest inverse
    assert len(hier16.levels) == 2 and hier16._bottom[0] == 0
    inv = np.linalg.inv(hier16.levels[0].system.dense())
    gap = np.linalg.norm(hier16._bottom[1] - inv)
    assert gap <= 1e-13 * np.linalg.norm(inv)


@pytest.mark.parametrize("cells", [128, 1024])
@pytest.mark.parametrize("lam, sigma", [(0.5, 0.3), (0.0, 0.0)])
def test_collapsed_matrix_matches_recursive_zero_start_cycle(cells, lam, sigma):
    hier = multigrid.build_hierarchy(model_problem(lam=lam, sigma=sigma),
                                     Mesh(0.0, 1.0, cells), tau=1.0 / cells)
    k, c_k = hier._bottom
    ref_hier = uncollapsed(hier)
    # the recursive cycle on level K itself, column by column
    ref = np.column_stack([multigrid.v_cycle(ref_hier, k, col)
                           for col in np.eye(len(c_k))])
    assert np.linalg.norm(c_k - ref) <= 1e-13 * np.linalg.norm(ref)
    rng = np.random.default_rng(cells)
    top = len(hier.levels) - 1
    g = rng.standard_normal(hier.fine.mesh.n_interior)
    ref = multigrid.v_cycle(ref_hier, top, g)
    got = multigrid.v_cycle(hier, top, g)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_block_vcycle_matches_column_by_column(hier128):
    rng = np.random.default_rng(10)
    top = len(hier128.levels) - 1
    block = rng.standard_normal((hier128.fine.mesh.n_interior, 3))
    for hier in (hier128, uncollapsed(hier128)):
        got = multigrid.v_cycle(hier, top, block)
        cols = np.column_stack([multigrid.v_cycle(hier, top, block[:, j])
                                for j in range(block.shape[1])])
        assert np.linalg.norm(got - cols) <= 1e-14 * np.linalg.norm(cols)


@pytest.mark.parametrize("cells, per_cycle", [
    (128, {127: 4}),
    (1024, {1023: 4, 511: 3}),
])
def test_toeplitz_matvecs_per_vcycle(hier128, hier1024, monkeypatch,
                                     cells, per_cycle):
    # machine-independent cost of one mg_solve iteration: fine level 1 in
    # mg_solve's residual + 1 cycle residual + m2 = 2 post-smoothing (the
    # zero-start pre-smoothing step needs no product); each uncollapsed
    # level between the fine level and K costs 3; nothing at or below K
    hier = hier128 if cells == 128 else hier1024
    sizes = []
    matvec = toeplitz.SymToeplitz.matvec

    def counting(self, x):
        sizes.append(self.n)
        return matvec(self, x)

    monkeypatch.setattr(toeplitz.SymToeplitz, "matvec", counting)
    g = np.random.default_rng(12).standard_normal(hier.fine.mesh.n_interior)
    res = multigrid.mg_solve(hier, g)
    assert res.converged and res.iters >= 2
    assert Counter(sizes) == {n: c * res.iters for n, c in per_cycle.items()}


# ---------------------------------------------------------------------------
# solver driver


def test_mg_solve_recovers_manufactured_solution(hier128):
    rng = np.random.default_rng(6)
    z_star = rng.standard_normal(hier128.fine.mesh.n_interior)
    g = hier128.fine.apply(z_star)
    res = multigrid.mg_solve(hier128, g)
    assert res.converged
    assert np.linalg.norm(res.solution - z_star) <= 1e-8 * np.linalg.norm(z_star)
    assert res.residual_history[0] == 1.0
    assert res.residual_history[-1] < hier128.config.tol
    assert len(res.residual_history) == res.iters + 1


def test_mg_solve_zero_rhs(hier128):
    n = hier128.fine.mesh.n_interior
    res = multigrid.mg_solve(hier128, np.zeros(n))
    assert res.converged and res.iters == 0
    assert np.all(res.solution == 0.0)


def test_mg_solve_reports_nonconvergence():
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 128),
                                     tau=1.0 / 128.0,
                                     config=MgConfig(tol=1e-14, max_iter=1))
    rng = np.random.default_rng(7)
    g = rng.standard_normal(hier.fine.mesh.n_interior)
    res = multigrid.mg_solve(hier, g)
    assert not res.converged
    assert res.iters == 1


# ---------------------------------------------------------------------------
# contraction factor


def test_contraction_factor_bounds(hier128):
    fac = multigrid.contraction_factor(hier128, 1, 1)
    assert 0.0 < fac < 1.0


def test_contraction_improves_with_smoothing(hier128):
    lazy = multigrid.contraction_factor(hier128, 1, 1)
    eager = multigrid.contraction_factor(hier128, 4, 4)
    assert eager < lazy


@pytest.mark.parametrize("cells", [128, 1024])
def test_contraction_factor_other_smoothing_reuses_levels(
        hier128, hier1024, monkeypatch, cells):
    # other smoothing counts rebuild only the bottom matrix: no quadrature,
    # the stored one is never read, and the factor is that of a hierarchy
    # built with those counts
    hier = hier128 if cells == 128 else hier1024
    m1, m2 = 3, 1
    built = multigrid.build_hierarchy(hier.problem, hier.fine.mesh, hier.tau,
                                      MgConfig(m1=m1, m2=m2))
    ref = multigrid.contraction_factor(built, m1, m2)
    bottom = hier._bottom
    calls = []
    pair_symbol = assembly.frac_pair_symbol

    def counting(*args):
        calls.append(1)
        return pair_symbol(*args)

    monkeypatch.setattr(assembly, "frac_pair_symbol", counting)
    assert multigrid.contraction_factor(hier, m1, m2) == ref
    poisoned = dataclasses.replace(
        hier, _bottom=(bottom[0], np.full_like(bottom[1], np.nan)))
    assert multigrid.contraction_factor(poisoned, m1, m2) == ref
    assert calls == []
    assert hier._bottom is bottom


def test_contraction_factor_validation(hier128):
    with pytest.raises(ValueError):
        multigrid.contraction_factor(hier128, 1, 1, trials=0)
    with pytest.raises(RuntimeError):
        multigrid.contraction_factor(hier128, 1, 1, cycles=1)
