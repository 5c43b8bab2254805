"""Symmetric Toeplitz operator: FFT matvec vs dense oracles, spectra, structure."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.fftpack as fftpack
import scipy.linalg as sla

import oracles
from tempermg import toeplitz


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
    # the same head with a decaying tail, past the dense crossover: the FFT
    # product (embedding length 625) returns the column to rounding
    col = np.concatenate((col, 1.0 / (1.0 + np.arange(6, 301)) ** 1.5))
    op = toeplitz.SymToeplitz(col)
    assert op._dense is None
    e1 = np.zeros(301)
    e1[0] = 1.0
    np.testing.assert_allclose(op.matvec(e1), col, rtol=0, atol=1e-15)


def test_direct_matches_materialized_dense():
    rng = np.random.default_rng(7)
    col = rng.standard_normal(16)
    op = toeplitz.SymToeplitz(col)
    dense = sla.toeplitz(col)
    x = rng.standard_normal(16)
    np.testing.assert_allclose(op.matvec(x), dense @ x,
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(op.dense(), dense, atol=0)


# matvec is the stored dense product up to n = 255 and the FFT product
# above.  There, n = 301 and n = 312 have an odd embedding length (625), so
# the packed spectrum ends in a full (real, imaginary) pair, and n = 257,
# 511 and 1023 one longer than 2n (540, 1024 and 2048)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 31, 64, 100, 129, 256,
                               257, 301, 312, 511, 512, 1023])
def test_fft_matvec_matches_direct(n):
    rng = np.random.default_rng(n)
    op = toeplitz.SymToeplitz(rng.standard_normal(n))
    x = rng.standard_normal(n)
    ref = sla.toeplitz(op.first_col) @ x
    got = op.matvec(x)
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
        assert op._spec is None and op._pad_len == n
    else:
        assert op._dense is None and op._spec is not None


@pytest.mark.parametrize("n", [63, 255, 256, 301, 511])
def test_block_matvec_matches_column_by_column(n):
    rng = np.random.default_rng(n)
    op = toeplitz.SymToeplitz(rng.standard_normal(n))
    block = rng.standard_normal((n, 4))
    cols = np.column_stack([op.matvec(col) for col in block.T])
    scale = np.linalg.norm(cols)
    assert np.linalg.norm(op.matvec(block) - cols) <= 1e-14 * scale


@pytest.mark.parametrize("n", [256, 1023])
def test_packed_spectrum_is_the_real_circulant_spectrum(n):
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n)
    op = toeplitz.SymToeplitz(col)
    L = op._pad_len
    emb = np.concatenate((col, np.zeros(L - 2 * n + 1), col[:0:-1]))
    lam = sfft.rfft(emb)
    # the embedding is symmetric, so the dropped imaginary part is rounding
    assert np.max(np.abs(lam.imag)) <= 1e-13 * np.max(np.abs(lam))
    # scipy.fftpack's packed order: l0, then (Re, Im) slots of each bin
    # 1..L/2, the last bin unpaired when L is even
    spec = op._spec
    assert spec.dtype == float and spec.shape == (L,)
    assert spec[0] == lam[0].real
    np.testing.assert_array_equal(spec[1::2], lam.real[1: 1 + (L // 2)])
    np.testing.assert_array_equal(spec[2::2], lam.real[1: 1 + (L - 1) // 2])


@pytest.mark.parametrize("n", [301, 511, 1023])
def test_fft_matvec_is_the_rfft_multiply_irfft_product(n):
    # bitwise against an explicit fftpack rfft -> multiply by the packed
    # circulant spectrum -> irfft, at the power-of-two lengths every
    # multigrid level has (1024, 2048) and at L = 625 (n = 301)
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n)
    op = toeplitz.SymToeplitz(col)
    x = rng.standard_normal(n)
    L = op._pad_len
    emb = np.concatenate((col, np.zeros(L - 2 * n + 1), col[:0:-1]))
    packed = np.repeat(sfft.rfft(emb).real, 2)[1: L + 1]
    buf = np.zeros(L)
    buf[:n] = x
    ref = fftpack.irfft(fftpack.rfft(buf) * packed)[:n]
    np.testing.assert_array_equal(op.matvec(x), ref)


@pytest.mark.parametrize("shape", [(1023,), (511, 3), (127,), (127, 3),
                                   (255,), (255, 255)])
def test_padded_matvec_reads_its_operand_in_place(shape):
    # the copy-free entry, dense (n <= 255) or FFT: the product of the head
    # of a zero-tailed operand, written into the caller's buffer and
    # returned as its head, is matvec's bit for bit, and the operand is left
    # as it was
    rng = np.random.default_rng(shape[0])
    n = shape[0]
    op = toeplitz.SymToeplitz(1.0 / (1.0 + np.arange(n)) ** 1.5)
    assert op._pad_len == (n if n <= 255 else
                           sfft.next_fast_len(2 * n, real=True))
    x = rng.standard_normal(shape)
    padded = np.zeros((op._pad_len,) + shape[1:])
    padded[:n] = x
    before = padded.copy()
    out = np.full_like(padded, np.nan)
    got = op._padded_matvec(padded, out)
    assert got.shape == shape and got.ctypes.data == out.ctypes.data
    assert np.shares_memory(got, out)
    assert got.tobytes() == op.matvec(x).tobytes()
    assert padded.tobytes() == before.tobytes()


@pytest.mark.parametrize("shape", [(127,), (127, 3), (255,), (255, 4),
                                   (301,), (301, 3), (1023,), (1023, 4)])
def test_matvec_is_one_padded_product_of_its_input(monkeypatch, shape):
    # dense or FFT, vector or block, matvec makes exactly one copy-free
    # product, of an operand whose head is its input, and returns its result
    rng = np.random.default_rng(shape[0] + len(shape))
    n = shape[0]
    op = toeplitz.SymToeplitz(1.0 / (1.0 + np.arange(n)) ** 1.5)
    padded_matvec = toeplitz.SymToeplitz._padded_matvec
    operands, results = [], []

    def recording(self, padded, out):
        operands.append(padded.copy())
        results.append(padded_matvec(self, padded, out))
        return results[-1]

    monkeypatch.setattr(toeplitz.SymToeplitz, "_padded_matvec", recording)
    x = rng.standard_normal(shape)
    y = op.matvec(x)
    [padded] = operands
    assert padded.shape == (op._pad_len,) + shape[1:]
    assert padded[:n].tobytes() == x.tobytes() and not padded[n:].any()
    assert y is results[0]
    assert np.linalg.norm(y - sla.toeplitz(op.first_col) @ x) <= (
        1e-12 * np.linalg.norm(y))


def test_shared_operator_matvec_is_thread_safe():
    # one operator on the packed real path (n = 1023) and one on the
    # half-length complex path (n = 4095)
    rng = np.random.default_rng(11)
    for n in (1023, 4095):
        op = toeplitz.SymToeplitz(rng.standard_normal(n))
        xs = list(rng.standard_normal((64, n)))
        serial = [op.matvec(x) for x in xs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force thread switches inside matvec
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                rounds = [list(pool.map(op.matvec, xs, timeout=60))
                          for _ in range(8)]
        finally:
            sys.setswitchinterval(interval)
        for threaded in rounds:
            for got, ref in zip(threaded, serial):
                np.testing.assert_array_equal(got, ref)


# from n = 4095 (_HALF_MIN_N) on, a product is one complex transform of
# half the operand length each way: 4095 and 8191 are multigrid level sizes
# (L = 8192, 16384), and 7800's real fast length 15625 is odd, so its
# operand is 2 next_fast_len(7800) = 15680 long instead
HALF_SIZES = (4095, 7800, 8191)


def test_half_length_storage_starts_at_its_crossover():
    n = toeplitz._HALF_MIN_N
    below = toeplitz.SymToeplitz(1.0 / (1.0 + np.arange(n - 1)) ** 1.5)
    assert below._half is None and below._spec is not None
    assert below._pad_len == sfft.next_fast_len(2 * n - 2, real=True)
    at = toeplitz.SymToeplitz(1.0 / (1.0 + np.arange(n)) ** 1.5)
    assert at._half is not None and at._spec is None and at._dense is None
    assert at._pad_len == 2 * sfft.next_fast_len(n)


@pytest.mark.parametrize("n", HALF_SIZES)
def test_half_length_product_matches_convolution(n):
    # against the O(n^2) convolution oracle, vector and (n, 3) block, C- and
    # F-ordered; a block matches its column-by-column products as in
    # test_block_matvec_matches_column_by_column
    rng = np.random.default_rng(n)
    col = rng.standard_normal(n)
    op = toeplitz.SymToeplitz(col)
    assert op._half is not None and op._pad_len % 2 == 0
    x = rng.standard_normal(n)
    ref = oracles.toeplitz_product_ref(col, x)
    assert np.linalg.norm(op.matvec(x) - ref) <= 1e-12 * np.linalg.norm(ref)
    block = rng.standard_normal((n, 3))
    ref = oracles.toeplitz_product_ref(col, block)
    cols = np.column_stack([op.matvec(c) for c in block.T])
    for b in (block, np.asfortranarray(block)):
        got = op.matvec(b)
        assert got.shape == (n, 3)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(got - cols) <= 1e-14 * np.linalg.norm(cols)


@pytest.mark.parametrize("shape", [(4095,), (4095, 3), (7800,), (7800, 2)])
def test_half_length_padded_matvec_reads_its_operand_in_place(shape):
    # as test_padded_matvec_reads_its_operand_in_place on the half-length
    # path: out's head is the result, matvec's bit for bit, and a separate
    # operand is left as it was
    rng = np.random.default_rng(shape[0] + len(shape))
    n = shape[0]
    op = toeplitz.SymToeplitz(1.0 / (1.0 + np.arange(n)) ** 1.5)
    x = rng.standard_normal(shape)
    padded = op._operand(shape[1:])
    padded[:n] = x
    before = padded.copy()
    out = np.full_like(padded, np.nan)
    got = op._padded_matvec(padded, out)
    assert got.shape == shape and got.ctypes.data == out.ctypes.data
    assert got.tobytes() == op.matvec(x).tobytes()
    assert padded.tobytes() == before.tobytes()


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
# structure report


def gershgorin(col):
    """Gershgorin bounds t_0 -+ 2 sum |t_m| of a symmetric Toeplitz matrix."""
    off = 2.0 * np.sum(np.abs(col[1:]))
    return col[0] - off, col[0] + off


def test_structure_report_laplacian():
    rep = toeplitz.structure_report([2.0, -1.0, 0.0])
    assert rep["is_m_matrix_sign_pattern"]
    assert rep["is_weakly_diag_dominant"]
    assert rep["ok"]
    assert gershgorin([2.0, -1.0, 0.0]) == pytest.approx((0.0, 4.0),
                                                          abs=1e-15)


def test_structure_report_positive_offdiagonal():
    rep = toeplitz.structure_report([1.0, 1.0])
    assert not rep["is_m_matrix_sign_pattern"]
    assert not rep["ok"]


def test_structure_report_mass_symbol_distinguishes():
    # mass matrix: weakly dominant but NOT an M-matrix (positive off-diagonal)
    h = 0.125
    rep = toeplitz.structure_report([2 * h / 3, h / 6, 0.0, 0.0])
    assert rep["is_weakly_diag_dominant"]
    assert not rep["is_m_matrix_sign_pattern"]
    assert not rep["ok"]
    assert gershgorin([2 * h / 3, h / 6, 0.0, 0.0])[0] > 0.0
