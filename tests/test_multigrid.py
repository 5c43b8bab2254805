"""V-cycle multigrid: transfers, smoother, cycle algebra, solver driver."""

import dataclasses
import math
import os
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla

import oracles
from tempermg import assembly, multigrid, timestep, toeplitz
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
    # the in-place transfers keep the stencil's operations in order, so a
    # block (C or Fortran order), its strided columns and the plain
    # expression agree to the last bit, and no input is written
    rng = np.random.default_rng(8)
    for nc in (1, 7, 127):
        coarse = rng.standard_normal((nc, 3))
        fine = rng.standard_normal((2 * nc + 1, 3))
        kept = coarse.copy(), fine.copy()
        want_p = np.zeros((2 * nc + 1, 3))
        want_p[1::2] = coarse
        want_p[0:-2:2] += 0.5 * coarse
        want_p[2::2] += 0.5 * coarse
        want_r = 0.25 * fine[0:-2:2] + 0.5 * fine[1::2] + 0.25 * fine[2::2]
        for c_block, f_block in ((coarse, fine), (np.asfortranarray(coarse),
                                                  np.asfortranarray(fine))):
            np.testing.assert_array_equal(multigrid.prolongate(c_block), want_p)
            np.testing.assert_array_equal(multigrid.restrict(f_block), want_r)
            np.testing.assert_array_equal(
                np.column_stack([multigrid.prolongate(c) for c in c_block.T]),
                want_p)
            np.testing.assert_array_equal(
                np.column_stack([multigrid.restrict(c) for c in f_block.T]),
                want_r)
        np.testing.assert_array_equal(coarse, kept[0])
        np.testing.assert_array_equal(fine, kept[1])


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
    g = level.system.matvec(z_star)
    out = multigrid.jacobi_smooth(level, z_star.copy(), g, 3)
    np.testing.assert_allclose(out, z_star, rtol=1e-12)


def test_smoother_single_step_from_zero(hier128):
    level = hier128.fine
    rng = np.random.default_rng(1)
    g = rng.standard_normal(level.mesh.n_interior)
    out = multigrid.jacobi_smooth(level, np.zeros_like(g), g, 1)
    np.testing.assert_allclose(out, multigrid.ETA / level.diag * g,
                               rtol=1e-14)


def test_smoother_energy_monotone(hier128):
    level = hier128.fine
    h = level.mesh.h
    rng = np.random.default_rng(2)
    z_star = rng.standard_normal(level.mesh.n_interior)
    g = level.system.matvec(z_star)
    z = np.zeros_like(g)
    energies = []
    for _ in range(6):
        d = z_star - z
        energies.append(np.sqrt(h * (d @ level.system.matvec(d))))
        z = multigrid.jacobi_smooth(level, z, g, 1)
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


def test_vcycle_coarsest_is_direct_solve(hier16):
    # a hierarchy of the coarsest level alone: its bottom matrix is A_0^{-1}
    coarsest = coarsest_only(hier16)
    coarse = coarsest.levels[0]
    rng = np.random.default_rng(4)
    g = rng.standard_normal(coarse.mesh.n_interior)
    ref = np.linalg.solve(coarse.system.dense(), g)
    for out in (coarsest.coarse_solve(g), multigrid.v_cycle(coarsest, 0, g)):
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


def test_coarse_solve_rejects_non_finite_rhs(hier16, hier128, hier1024):
    for hier in (hier16, hier128, uncollapsed(hier128)):
        g = np.ones(hier.fine.mesh.n_interior)
        g[5] = np.nan
        with pytest.raises(FloatingPointError):
            multigrid.v_cycle(hier, len(hier.levels) - 1, g)
    with pytest.raises(ValueError):
        multigrid.mg_solve(hier128, g)
    # a non-finite product with C_b is caught by level b itself, whether b
    # is the dense fine level or lies below an FFT fine one, and whether the
    # cycle starts at b or at the fine level; a contraction estimate reads
    # both
    for hier in (hier128, hier1024):
        k, c_k = hier._bottom
        poisoned = dataclasses.replace(hier,
                                       _bottom=(k, np.full_like(c_k, np.nan)))
        for level in (k, len(hier.levels) - 1):
            g = np.ones(poisoned.levels[level].mesh.n_interior)
            with pytest.raises(FloatingPointError, match=f"level {k}$"):
                multigrid.v_cycle(poisoned, level, g)
        with pytest.raises(FloatingPointError):
            multigrid.contraction_factor(poisoned)


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


# about 1.2e200: squares overflow, and scaling by a power of 2 is exact in
# every operation of a cycle
HUGE = 2.0 ** 664


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
def test_vcycle_passes_huge_finite_iterates(hier16, hier128, hier1024, block):
    # the finiteness check's sum of squares overflows on these iterates, so
    # it falls back to the exact entrywise test, which passes them: each
    # cycle is the ordinary one scaled, bit for bit
    rng = np.random.default_rng(7)
    for hier in (hier16, hier128, uncollapsed(hier128), hier1024):
        for k in range(hier._bottom[0], len(hier.levels)):
            n = hier.levels[k].mesh.n_interior
            g = rng.standard_normal((n, 3) if block else n)
            z = multigrid.v_cycle(hier, k, HUGE * g)
            assert not math.isfinite(np.vdot(z, z))
            scaled = HUGE * multigrid.v_cycle(hier, k, g)
            assert z.tobytes() == scaled.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1.0, HUGE], ids=["unit", "huge"])
@pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vcycle_names_the_level_of_each_non_finite_value(hier128, hier1024,
                                                         bad, block, scale):
    # one NaN, +inf or -inf entry of C_b puts one non-finite entry among
    # ordinary or huge finite ones into level b's iterate, and level b
    # raises, whether the cycle starts at b or at the fine level above it
    for hier in (hier128, hier1024):
        k, c_k = hier._bottom
        c_bad = c_k.copy()
        c_bad[0, 0] = bad
        poisoned = dataclasses.replace(hier, _bottom=(k, c_bad))
        for level in {k, len(hier.levels) - 1}:
            n = poisoned.levels[level].mesh.n_interior
            g = np.full((n, 3) if block else n, scale)
            with pytest.raises(FloatingPointError, match=f"level {k}$"):
                multigrid.v_cycle(poisoned, level, g)


def test_vcycle_shape_validation(hier128):
    top = len(hier128.levels) - 1
    with pytest.raises(ValueError):
        multigrid.v_cycle(hier128, top, np.zeros(5))


def test_vcycle_error_operator_selfadjoint_in_energy():
    # with symmetric smoothing (m1 = m2, same damping) the cycle's error
    # operator I - V A is self-adjoint in the operator inner product; at
    # M = 32 the fine level is the bottom level, and its whole cycle is the
    # stored C_b, built on the stored C_1 of the middle level
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 32),
                                     tau=0.25, config=MgConfig(m1=1, m2=1))
    assert hier._bottom[0] == 2 and len(hier.levels) == 3
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


def coarsest_only(hier):
    # hier's coarsest level alone, with the bottom matrix set-up gives it
    single = dataclasses.replace(hier, levels=hier.levels[:1])
    multigrid._with_bottom(single)
    return single


def test_collapse_level_is_the_largest_dense_coarse_level(hier16, hier128,
                                                          hier1024):
    # fine n = 15 or 127: every level is dense, so b is the fine level;
    # fine n = 1023: b is n = 255, two levels down
    assert hier16._bottom[0] == len(hier16.levels) - 1 == 1
    assert hier128._bottom[0] == len(hier128.levels) - 1
    assert hier1024._bottom[0] == len(hier1024.levels) - 3
    for hier in (hier16, hier128, hier1024):
        k, c_k = hier._bottom
        n = hier.levels[k].mesh.n_interior
        assert n <= toeplitz._DENSE_MAX_N
        assert c_k.shape == (n, n) and not c_k.flags.writeable
    # no dense level above the coarsest one: the bottom matrix is the
    # coarsest inverse
    coarsest = coarsest_only(hier16)
    assert coarsest._bottom[0] == 0
    assert not coarsest._bottom[1].flags.writeable
    inv = np.linalg.inv(hier16.levels[0].system.dense())
    gap = np.linalg.norm(coarsest._bottom[1] - inv)
    assert gap <= 1e-13 * np.linalg.norm(inv)


@pytest.mark.parametrize("cells", [16, 128, 1024])
def test_vcycle_on_the_bottom_level_is_its_stored_matrix(cells):
    # on level b the cycle is one product with C_b, bit for bit: b is the
    # fine level at M = 16 and 128, and the n = 255 level at M = 1024; no
    # cycle runs below b
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, cells),
                                     tau=1.0 / cells)
    k = hier._bottom[0]
    n = hier.levels[k].mesh.n_interior
    assert n == min(cells - 1, 255)
    rng = np.random.default_rng(cells)
    for g in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        np.testing.assert_array_equal(multigrid.v_cycle(hier, k, g),
                                      hier.coarse_solve(g))
    for j in range(k):
        g = np.ones(hier.levels[j].mesh.n_interior)
        with pytest.raises(ValueError, match=f"below the bottom level {k}"):
            multigrid.v_cycle(hier, j, g)


def test_non_spd_coarsest_level_raises_linalg_error(hier16):
    coarse = hier16.levels[0]
    flipped = dataclasses.replace(
        coarse, system=toeplitz.SymToeplitz(-coarse.system.first_col))
    hier = dataclasses.replace(hier16, levels=[flipped, *hier16.levels[1:]])
    with pytest.raises(np.linalg.LinAlgError):
        multigrid._with_bottom(hier)


@pytest.mark.parametrize("cells", [128, 1024])
@pytest.mark.parametrize("lam, sigma", [(0.5, 0.3), (0.0, 0.0)])
def test_collapsed_matrix_matches_recursive_zero_start_cycle(cells, lam, sigma):
    hier = multigrid.build_hierarchy(model_problem(lam=lam, sigma=sigma),
                                     Mesh(0.0, 1.0, cells), tau=1.0 / cells)
    k, c_k = hier._bottom
    ref_hier = uncollapsed(hier)
    # the recursive cycle on level b itself, column by column
    ref = np.column_stack([multigrid.v_cycle(ref_hier, k, col)
                           for col in np.eye(len(c_k))])
    assert np.linalg.norm(c_k - ref) <= 1e-13 * np.linalg.norm(ref)
    rng = np.random.default_rng(cells)
    top = len(hier.levels) - 1
    g = rng.standard_normal(hier.fine.mesh.n_interior)
    ref = multigrid.v_cycle(ref_hier, top, g)
    got = multigrid.v_cycle(hier, top, g)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells", [16, 128, 256])
@pytest.mark.parametrize("m1, m2", [(1, 2), (3, 1), (2, 0), (2, 3)])
def test_top_matrix_matches_recursive_zero_start_cycle(cells, m1, m2):
    # on a dense fine level, the top of the hierarchy, the stored C_b is the
    # whole zero-start cycle, checked on every unit vector
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, cells),
                                     tau=1.0 / cells,
                                     config=MgConfig(m1=m1, m2=m2))
    ref_hier = uncollapsed(hier)
    top = len(hier.levels) - 1
    assert hier._bottom[0] == top
    for col in np.eye(hier.fine.mesh.n_interior):
        got = hier._bottom[1] @ col
        ref = multigrid.v_cycle(ref_hier, top, col)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def smoothed128(m1, m2):
    # hier128's problem and mesh with other smoothing counts
    return multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 128),
                                     tau=1.0 / 128.0,
                                     config=MgConfig(m1=m1, m2=m2))


def record_block_products(monkeypatch):
    # (operator, is the operand a scaled identity) per block product
    products = []
    matvec = toeplitz.SymToeplitz.matvec

    def recording(self, x):
        if np.ndim(x) == 2:
            d = np.diag(x)
            scaled_eye = (x.shape[0] == x.shape[1] and np.ptp(d) == 0.0
                          and np.count_nonzero(x - np.diag(d)) == 0)
            products.append((self, scaled_eye))
        return matvec(self, x)

    monkeypatch.setattr(toeplitz.SymToeplitz, "matvec", recording)
    return products


def assert_bottom_build_products(hier, products):
    # levels 1..b each get m1 - 1 pre- and m2 post-smoothing products with
    # their own system; none is on s * I, and the other levels get none
    config = hier.config
    k_bottom = hier._bottom[0]
    assert k_bottom > 0
    per_level = Counter()
    for op, scaled_eye in products:
        assert not scaled_eye
        k = next(k for k, lvl in enumerate(hier.levels) if lvl.system is op)
        per_level[k] += 1
    assert per_level == Counter({k: config.m1 - 1 + config.m2
                                 for k in range(1, k_bottom + 1)})


@pytest.mark.parametrize("cells, k_bottom", [(128, 4), (4096, 5)])
def test_bottom_build_makes_m1_minus_1_plus_m2_block_products(
        monkeypatch, cells, k_bottom):
    products = record_block_products(monkeypatch)
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, cells),
                                     tau=1.0 / cells)
    assert hier._bottom[0] == k_bottom
    # V(1,2): 2 per level 1..b, the dense fine level included at M = 128
    assert len(products) == {128: 2 * 4, 4096: 2 * 5}[cells]
    assert_bottom_build_products(hier, products)


@pytest.mark.parametrize("m1, m2", [(3, 1), (2, 3), (1, 0)])
def test_contraction_rebuild_makes_m1_minus_1_plus_m2_block_products(
        monkeypatch, m1, m2):
    # a contraction estimate at other smoothing counts runs on a hierarchy
    # built with them
    products = record_block_products(monkeypatch)
    assert_bottom_build_products(smoothed128(m1, m2), products)


def test_setup_builds_product_data_for_the_system_only(monkeypatch):
    # every level's system holds its dense matrix or spectrum once set-up
    # returns, and no mass or stiffness operator is constructed there
    built = []
    init = toeplitz.SymToeplitz.__init__

    def recording(self, first_col):
        init(self, first_col)
        built.append(self)

    monkeypatch.setattr(toeplitz.SymToeplitz, "__init__", recording)
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, 1024),
                                     tau=1.0 / 1024.0)
    assert [id(op) for op in built] == [id(lvl.system)
                                        for lvl in reversed(hier.levels)]
    for level in hier.levels:
        system = level.system
        if level.mesh.n_interior <= toeplitz._DENSE_MAX_N:
            assert system._dense is not None and system._spec is None
        else:
            assert system._spec is not None and system._dense is None
        np.testing.assert_array_equal(level.mass.first_col,
                                      assembly.mass_symbol(level.mesh))
        np.testing.assert_array_equal(level.stiff.first_col, level.stiff_col)
        assert not (level.mass_col.flags.writeable
                    or level.stiff_col.flags.writeable)


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
    (128, {127: 1}),
    (1024, {1023: 4, 511: 3}),
])
def test_toeplitz_matvecs_per_vcycle(hier128, hier1024, monkeypatch,
                                     cells, per_cycle):
    # machine-independent cost of one mg_solve iteration: fine level 1 in
    # mg_solve's residual + 1 cycle residual + m2 = 2 post-smoothing (the
    # zero-start pre-smoothing step needs no product); each uncollapsed
    # level between the fine level and b costs 3; nothing at or below b.
    # A dense fine level is b itself, so its cycle is one product with C_b,
    # leaving only the solver's residual
    hier = hier128 if cells == 128 else hier1024
    products = oracles.record_products(monkeypatch)
    g = np.random.default_rng(12).standard_normal(hier.fine.mesh.n_interior)
    res = multigrid.mg_solve(hier, g)
    assert res.converged and res.iters >= 2
    assert (Counter(op.n for op in products)
            == {n: c * res.iters for n, c in per_cycle.items()})


# ---------------------------------------------------------------------------
# solver driver


def test_mg_solve_recovers_manufactured_solution(hier128):
    rng = np.random.default_rng(6)
    z_star = rng.standard_normal(hier128.fine.mesh.n_interior)
    g = hier128.fine.system.matvec(z_star)
    res = multigrid.mg_solve(hier128, g)
    assert res.converged
    assert np.linalg.norm(res.solution - z_star) <= 1e-8 * np.linalg.norm(z_star)
    assert res.residual_history[0] == 1.0
    assert res.residual_history[-1] < multigrid.TOL
    assert len(res.residual_history) == res.iters + 1


def test_cycle_functions_leave_their_inputs_untouched(hier128):
    # smoother, cycle and mg_solve update in place, but only arrays they own
    rng = np.random.default_rng(11)
    level = hier128.fine
    top = len(hier128.levels) - 1
    z = rng.standard_normal(level.mesh.n_interior)
    g = rng.standard_normal(level.mesh.n_interior)
    kept = z.copy(), g.copy()
    for steps in (0, 1, 3):
        out = multigrid.jacobi_smooth(level, z, g, steps)
        assert steps == 0 or not np.shares_memory(out, z)
    multigrid.v_cycle(hier128, top, g)
    multigrid.v_cycle(hier128, top, np.column_stack((g, z)))
    multigrid.mg_solve(hier128, g)
    np.testing.assert_array_equal(z, kept[0])
    np.testing.assert_array_equal(g, kept[1])


@pytest.mark.parametrize("cells", (128, 1024))
def test_mg_solve_is_the_reference_loop_bit_for_bit(hier128, hier1024, cells):
    # mg_solve's arithmetic order, pinned against the plain correction loop
    # z <- z + V(r), r = g - A z, with relative residuals |r| / |g|; M = 128
    # has a dense fine level (one product with C_b a cycle), M = 1024 an FFT
    # fine level above it
    hier = hier128 if cells == 128 else hier1024
    top = len(hier.levels) - 1
    system = hier.fine.system
    g = np.random.default_rng(13).standard_normal(system.n)
    r0 = np.sqrt(g @ g)
    z, r, history = np.zeros_like(g), g, [1.0]
    while history[-1] >= multigrid.TOL and len(history) <= multigrid.MAX_ITER:
        z = z + multigrid.v_cycle(hier, top, r)
        r = g - system.matvec(z)
        history.append(float(np.sqrt(r @ r) / r0))
    res = multigrid.mg_solve(hier, g)
    assert res.converged and res.iters == len(history) - 1 >= 2
    np.testing.assert_array_equal(res.solution, z)
    assert res.residual_history == history


@pytest.mark.parametrize("cells", (128, 1024))
def test_mg_solve_calls_the_module_v_cycle_once_per_iteration(
        hier128, hier1024, monkeypatch, cells):
    # the benchmark's trace wraps multigrid.v_cycle after import and counts
    # the top-level calls it sees as mg_solve's cycles, so mg_solve must look
    # the function up at each cycle rather than hold an earlier binding
    hier = hier128 if cells == 128 else hier1024
    top = len(hier.levels) - 1
    levels = []
    v_cycle = multigrid.v_cycle

    def counting(hier_, k, g, *scratch):
        levels.append(k)
        return v_cycle(hier_, k, g, *scratch)

    monkeypatch.setattr(multigrid, "v_cycle", counting)
    g = np.random.default_rng(14).standard_normal(hier.fine.mesh.n_interior)
    res = multigrid.mg_solve(hier, g)
    assert res.converged and res.iters >= 2
    assert levels.count(top) == res.iters


@pytest.mark.parametrize("cells, bound", [(128, 3), (1024, 19)])
def test_mg_solve_python_frames_per_iteration(hier128, hier1024, cells,
                                              bound):
    # machine-independent per-call overhead of one mg_solve iteration: the
    # Python frames it enters in tempermg.  On a dense fine level a cycle is
    # v_cycle, coarse_solve and the residual's matvec.  At M = 1024 each of
    # the 7 FFT products is one _padded_matvec, and the two levels above
    # b = 255 add v_cycle, _cycle, restrict, prolongate and jacobi_smooth
    # each, plus v_cycle and coarse_solve on b: 7 + 10 + 2 = 19.  Once per
    # solve, above a dense fine level, mg_solve allocates its buffers: its
    # own two _operand arrays, then _scratch with one _Buffers.__init__ and
    # three _operand arrays for each of those two levels
    hier = hier128 if cells == 128 else hier1024
    above = len(hier.levels) - 1 - hier._bottom[0]
    per_solve = Counter(mg_solve=1)
    if above:
        per_solve.update(_scratch=1, __init__=above, _operand=2 + 3 * above)
    package = os.path.dirname(multigrid.__file__) + os.sep
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames.append(frame.f_code.co_name)

    g = np.random.default_rng(15).standard_normal(hier.fine.mesh.n_interior)
    sys.setprofile(profile)
    try:
        res = multigrid.mg_solve(hier, g)
    finally:
        sys.setprofile(None)
    assert res.converged and res.iters >= 2
    counts = Counter(frames)
    assert {name: counts[name] for name in per_solve} == per_solve
    assert len(frames) - per_solve.total() <= bound * res.iters, counts


@pytest.mark.parametrize("m1, m2", [(1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("cells", (512, 1024, 4096))
def test_vcycle_is_the_reference_cycle_bit_for_bit(cells, m1, m2):
    # the cycle in per-solve buffers makes the same arithmetic in the same
    # order as the allocate-per-operation cycle it replaced: equal bit for
    # bit on every level above b, on vectors and blocks, cycle by cycle in
    # a solve (whose buffers carry the last cycle's values into the next),
    # and in the bottom matrix set-up builds with it
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, cells),
                                     tau=1.0 / cells,
                                     config=MgConfig(m1=m1, m2=m2))
    bottom, top = hier._bottom[0], len(hier.levels) - 1
    assert bottom < top
    assert hier._bottom[1].tobytes() == oracles.reference_bottom(hier)[1].tobytes()
    rng = np.random.default_rng(cells + 10 * m1 + m2)
    for k in range(bottom + 1, top + 1):
        n = hier.levels[k].mesh.n_interior
        for g in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            got = multigrid.v_cycle(hier, k, g)
            assert got.tobytes() == oracles.reference_v_cycle(hier, k, g).tobytes()
    g = rng.standard_normal(hier.fine.mesh.n_interior)
    system = hier.fine.system
    z, r, history = np.zeros_like(g), g, [1.0]
    while history[-1] >= multigrid.TOL and len(history) <= multigrid.MAX_ITER:
        z = z + oracles.reference_v_cycle(hier, top, r)
        r = g - system.matvec(z)
        history.append(math.sqrt(r.dot(r)) / math.sqrt(g.dot(g)))
    res = multigrid.mg_solve(hier, g)
    assert res.converged and res.iters == len(history) - 1 >= 2
    assert res.residual_history == history
    assert res.solution.tobytes() == z.tobytes()
    assert res.residual.tobytes() == r.tobytes()


@pytest.mark.parametrize("m1, m2", [(1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("cells", (16, 128, 256))
def test_dense_fine_bottom_matrix_is_the_reference_build(cells, m1, m2):
    # on a dense fine level C_b is the whole cycle; set-up's buffered build
    # of it equals the allocate-per-operation build bit for bit
    hier = multigrid.build_hierarchy(model_problem(), Mesh(0.0, 1.0, cells),
                                     tau=1.0 / cells,
                                     config=MgConfig(m1=m1, m2=m2))
    k, c_k = hier._bottom
    ref_k, ref = oracles.reference_bottom(hier)
    assert k == ref_k == len(hier.levels) - 1
    assert c_k.tobytes() == ref.tobytes()


def test_vcycle_in_solve_buffers_allocates_no_fine_vector(hier1024):
    # in a solve's buffers a cycle allocates nothing as large as a vector of
    # the level below the fine one: only level b's product with C_b is a
    # fresh array
    top, bottom = len(hier1024.levels) - 1, hier1024._bottom[0]
    rhs_pad = multigrid._operand(hier1024.fine.system, ())
    scratch = multigrid._scratch(hier1024, top, rhs_pad)
    g = scratch[top].rhs
    g[...] = np.random.default_rng(16).standard_normal(len(g))
    ref = multigrid.v_cycle(hier1024, top, g).copy()
    multigrid.v_cycle(hier1024, top, g, scratch)  # warm the FFT plans
    tracemalloc.start()
    try:
        z = multigrid.v_cycle(hier1024, top, g, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.tobytes() == ref.tobytes()
    assert np.shares_memory(z, scratch[top].z_pad)
    assert peak < 8 * hier1024.levels[bottom + 1].system.n, peak


def test_shared_hierarchy_solves_from_threads_match_serial(hier1024):
    # each solve owns its buffers, so solves sharing one hierarchy from
    # several threads, switching as often as the interpreter allows, give
    # the serial results bit for bit
    rng = np.random.default_rng(17)
    gs = list(rng.standard_normal((8, hier1024.fine.mesh.n_interior)))

    def solve(g):
        res = multigrid.mg_solve(hier1024, g)
        return (res.solution.tobytes(), res.residual.tobytes(),
                res.residual_history, res.iters)

    serial = [solve(g) for g in gs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(solve, g) for _ in range(3) for g in gs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 3


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_mg_solve_scales_a_huge_finite_rhs(hier128, hier1024):
    # a right-hand side whose sum of squares overflows is solved at a
    # power-of-two scale: the same cycles and history, and the unscaled
    # solution and residual times the scale, bit for bit
    rng = np.random.default_rng(18)
    for hier in (hier128, hier1024):
        g = rng.standard_normal(hier.fine.mesh.n_interior)
        assert not math.isfinite((HUGE * g).dot(HUGE * g))
        res, big = multigrid.mg_solve(hier, g), multigrid.mg_solve(hier, HUGE * g)
        assert big.converged and big.iters == res.iters
        assert big.residual_history == res.residual_history
        assert big.solution.tobytes() == (HUGE * res.solution).tobytes()
        assert big.residual.tobytes() == (HUGE * res.residual).tobytes()
        for bad in (np.nan, np.inf, -np.inf):
            for scale in (1.0, HUGE):
                g_bad = scale * g
                g_bad[5] = bad
                with pytest.raises(ValueError,
                                   match="right-hand side g is not finite"):
                    multigrid.mg_solve(hier, g_bad)
    assert multigrid.mg_solve(hier128, np.full(127, 1e200)).converged


def test_mg_solve_zero_rhs(hier128):
    n = hier128.fine.mesh.n_interior
    res = multigrid.mg_solve(hier128, np.zeros(n))
    assert res.converged and res.iters == 0
    assert res.residual_history == [0.0]
    assert np.all(res.solution == 0.0)


def test_mg_solve_reports_nonconvergence(hier128, monkeypatch):
    monkeypatch.setattr(multigrid, "TOL", 1e-14)
    monkeypatch.setattr(multigrid, "MAX_ITER", 1)
    rng = np.random.default_rng(7)
    g = rng.standard_normal(hier128.fine.mesh.n_interior)
    res = multigrid.mg_solve(hier128, g)
    assert not res.converged
    assert res.iters == 1


def test_mg_solve_stops_at_the_cycle_cap(hier128):
    # a zero cycle matrix never reduces the residual, so mg_solve runs all
    # MAX_ITER cycles and reports the stall with its full history
    k, matrix = hier128._bottom
    assert k == len(hier128.levels) - 1
    stuck = dataclasses.replace(hier128, _bottom=(k, np.zeros_like(matrix)))
    g = np.random.default_rng(8).standard_normal(stuck.fine.mesh.n_interior)
    res = multigrid.mg_solve(stuck, g)
    assert not res.converged
    assert res.iters == multigrid.MAX_ITER
    assert res.residual_history == [1.0] * (multigrid.MAX_ITER + 1)
    np.testing.assert_array_equal(res.solution, 0.0)
    with pytest.raises(RuntimeError, match=r"stalled at t=0\.5 .* after "
                       rf"{multigrid.MAX_ITER} cycles"):
        timestep.cn_step(stuck, g, 0.5 - stuck.tau, np.zeros_like(g))


# ---------------------------------------------------------------------------
# contraction factor


def test_contraction_factor_bounds():
    fac = multigrid.contraction_factor(smoothed128(1, 1))
    assert 0.0 < fac < 1.0


def test_contraction_improves_with_smoothing():
    lazy = multigrid.contraction_factor(smoothed128(1, 1))
    eager = multigrid.contraction_factor(smoothed128(4, 4))
    assert eager < lazy


@pytest.mark.parametrize("cells", (128, 1024))
@pytest.mark.parametrize("alpha", (1.1, 1.9))
def test_contraction_factor_makes_one_fine_product_per_cycle(
        monkeypatch, alpha, cells):
    # outside its cycles the estimator makes one fine product per trial,
    # g = A z*, and one per cycle: the residual r = g - A z that is the next
    # cycle's right-hand side also gives the energy error, as A d = r
    hier = multigrid.build_hierarchy(model_problem(alpha),
                                     Mesh(0.0, 1.0, cells), tau=1.0 / cells)
    top = len(hier.levels) - 1
    cycle_products = []
    v_cycle = multigrid.v_cycle
    products = oracles.record_products(monkeypatch)

    def fine_products():
        return sum(op is hier.fine.system for op in products)

    def cycle(hier_, k, g, *scratch):
        before = fine_products()
        z = v_cycle(hier_, k, g, *scratch)
        if k == top:
            cycle_products.append(fine_products() - before)
        return z

    monkeypatch.setattr(multigrid, "v_cycle", cycle)
    multigrid.contraction_factor(hier)
    outside = fine_products() - sum(cycle_products)
    assert len(cycle_products) > 3
    assert outside == len(cycle_products) + 3


@pytest.mark.parametrize("cells, tau, m", [
    (16, 1e-9, 40), (128, 1.0 / 128.0, 80), (128, 1e-3, 80), (128, 1e-6, 80),
    (1024, 1e-3, 80),
])
def test_contraction_factor_reads_cycles_that_reach_the_rounding_floor(
        cells, tau, m):
    # strong smoothing takes the error to the rounding floor within a cycle
    # or two: the factor must read that reduction, not the noise after it
    hier = multigrid.build_hierarchy(assembly.make_example2(1.5),
                                     Mesh(0.0, 1.0, cells), tau,
                                     MgConfig(m1=m, m2=m))
    assert 0.0 <= multigrid.contraction_factor(hier) < 0.1

