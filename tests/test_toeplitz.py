"""Symmetric Toeplitz operator: FFT matvec vs dense oracles, spectra, structure."""

import numpy as np
import pytest
import scipy.linalg as sla

from tempermg import toeplitz

import oracles


def test_identity_matvec():
    op = toeplitz.SymToeplitz([1.0])
    x = np.array([3.5])
    np.testing.assert_allclose(op.matvec(x), x, rtol=0, atol=1e-15)


def test_identity_pattern_any_size():
    op = toeplitz.SymToeplitz([1.0, 0.0, 0.0, 0.0])
    x = np.array([1.0, -2.0, 0.5, 4.0])
    np.testing.assert_allclose(op.matvec(x), x, atol=1e-14)


def test_tridiagonal_all_ones():
    # [-1, 2, -1] stencil telescopes to zero except at the boundary rows
    op = toeplitz.SymToeplitz([2.0, -1.0, 0.0, 0.0, 0.0])
    got = op.matvec(np.ones(5))
    np.testing.assert_allclose(got, [1.0, 0.0, 0.0, 0.0, 1.0], atol=1e-13)


def test_direct_column_extraction():
    col = np.array([4.0, -1.5, 0.25, 0.0, 2.0, -0.125])
    op = toeplitz.SymToeplitz(col)
    e1 = np.zeros(6)
    e1[0] = 1.0
    np.testing.assert_allclose(op.matvec(e1), col, atol=0)
    np.testing.assert_allclose(op._fft_matvec(e1), col, rtol=0, atol=1e-15)


def test_direct_matches_materialized_dense():
    rng = np.random.default_rng(7)
    col = rng.standard_normal(16)
    op = toeplitz.SymToeplitz(col)
    dense = sla.toeplitz(col)
    x = rng.standard_normal(16)
    np.testing.assert_allclose(op.matvec(x), dense @ x,
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(op.dense(), dense, atol=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 31, 64, 100, 129, 256, 511, 512])
def test_fft_matvec_matches_direct(n):
    rng = np.random.default_rng(n)
    op = toeplitz.SymToeplitz(rng.standard_normal(n))
    x = rng.standard_normal(n)
    ref = sla.toeplitz(op.first_col) @ x
    # the FFT path at every n, even where matvec uses the stored dense matrix
    got = op._fft_matvec(x)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [255, 256, 511])
def test_matvec_across_dense_crossover(n):
    rng = np.random.default_rng(n)
    op = toeplitz.SymToeplitz(rng.standard_normal(n))
    x = rng.standard_normal(n)
    ref = sla.toeplitz(op.first_col) @ x
    got = op.matvec(x)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    if n <= toeplitz._DENSE_MAX_N:
        np.testing.assert_array_equal(op._dense, op.dense())
        with pytest.raises(ValueError):
            op._dense[0, 0] = 0.0
        assert op._spec is None  # built per call by _fft_matvec here
    else:
        assert op._dense is None and op._spec is not None


@pytest.mark.parametrize("n", [63, 255, 256, 511])
def test_block_matvec_matches_column_by_column(n):
    rng = np.random.default_rng(n)
    op = toeplitz.SymToeplitz(rng.standard_normal(n))
    block = rng.standard_normal((n, 4))
    cols = np.column_stack([op.matvec(col) for col in block.T])
    scale = np.linalg.norm(cols)
    assert np.linalg.norm(op.matvec(block) - cols) <= 1e-14 * scale
    fft_cols = np.column_stack([op._fft_matvec(col) for col in block.T])
    assert np.linalg.norm(op._fft_matvec(block) - fft_cols) <= 1e-14 * scale


def test_matvec_linearity_and_symmetry():
    rng = np.random.default_rng(3)
    op = toeplitz.SymToeplitz(rng.standard_normal(40))
    x, y = rng.standard_normal(40), rng.standard_normal(40)
    a, b = 1.7, -0.3
    lhs = op.matvec(a * x + b * y)
    rhs = a * op.matvec(x) + b * op.matvec(y)
    scale = np.linalg.norm(rhs)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale
    assert abs(op.matvec(x) @ y - x @ op.matvec(y)) <= 1e-12 * scale


def test_construction_validation():
    with pytest.raises(ValueError):
        toeplitz.SymToeplitz([])
    with pytest.raises(ValueError):
        toeplitz.SymToeplitz([1.0, np.nan])
    with pytest.raises(ValueError):
        toeplitz.SymToeplitz([[1.0, 2.0]])


def test_matvec_dimension_mismatch():
    op = toeplitz.SymToeplitz([2.0, -1.0])
    with pytest.raises(ValueError):
        op.matvec(np.ones(3))
    with pytest.raises(ValueError):
        op.matvec(np.ones((3, 2)))
    with pytest.raises(ValueError):
        op.matvec(np.ones((2, 2, 2)))


def test_first_col_immutable():
    op = toeplitz.SymToeplitz([2.0, -1.0])
    with pytest.raises(ValueError):
        op.first_col[0] = 99.0


# ---------------------------------------------------------------------------
# power iteration


def test_power_iteration_identity():
    op = toeplitz.SymToeplitz([1.0, 0.0, 0.0])
    rho, converged = toeplitz.power_iteration(op.matvec, 3, tol=1e-12)
    assert converged
    assert rho == pytest.approx(1.0, rel=1e-10)


def test_power_iteration_diagonal():
    op = toeplitz.SymToeplitz([3.0, 0.0, 0.0, 0.0])
    rho, converged = toeplitz.power_iteration(op.matvec, 4, tol=1e-12)
    assert converged
    assert rho == pytest.approx(3.0, rel=1e-10)


def test_power_iteration_laplacian_31():
    n = 31
    col = np.zeros(n)
    col[0], col[1] = 2.0, -1.0
    op = toeplitz.SymToeplitz(col)
    rho, converged = toeplitz.power_iteration(op.matvec, n, tol=1e-12,
                                              max_iter=100000)
    assert converged
    assert rho == pytest.approx(oracles.tridiag_eigs_max(n), rel=1e-8)


def test_power_iteration_nonconvergence_flag():
    col = np.zeros(31)
    col[0], col[1] = 2.0, -1.0
    op = toeplitz.SymToeplitz(col)
    rho, converged = toeplitz.power_iteration(op.matvec, 31, tol=1e-15,
                                              max_iter=3)
    assert not converged
    assert 0.0 < rho < 4.0  # best estimate still reported


# ---------------------------------------------------------------------------
# structure report


def test_structure_report_laplacian():
    rep = toeplitz.structure_report(toeplitz.SymToeplitz([2.0, -1.0, 0.0]))
    assert rep["is_m_matrix_sign_pattern"]
    assert rep["is_weakly_diag_dominant"]
    assert rep["gershgorin_low"] == pytest.approx(0.0, abs=1e-15)
    assert rep["gershgorin_high"] == pytest.approx(4.0)


def test_structure_report_positive_offdiagonal():
    rep = toeplitz.structure_report(toeplitz.SymToeplitz([1.0, 1.0]))
    assert not rep["is_m_matrix_sign_pattern"]


def test_structure_report_mass_symbol_distinguishes():
    # mass matrix: weakly dominant but NOT an M-matrix (positive off-diagonal)
    h = 0.125
    rep = toeplitz.structure_report(
        toeplitz.SymToeplitz([2 * h / 3, h / 6, 0.0, 0.0]))
    assert rep["is_weakly_diag_dominant"]
    assert not rep["is_m_matrix_sign_pattern"]
    assert rep["gershgorin_low"] > 0.0
