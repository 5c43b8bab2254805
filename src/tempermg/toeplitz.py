"""Symmetric Toeplitz operators with O(n log n) matvec via circulant embedding.

A symmetric Toeplitz matrix is fully determined by its first column.  We embed
it into a circulant of length L >= 2n, diagonalize that once with an FFT, and
apply the operator as pad -> transform -> multiply -> inverse transform ->
truncate.  The embedding is symmetric, so its spectrum is real.  An operator
stores one of three things, chosen by n:

- n <= 255 (``_DENSE_MAX_N``): its dense matrix, and no spectrum;
- below 4095 (``_HALF_MIN_N``): the spectrum in packed real order, applied
  between the two real transforms of ``r2r_fftpack``, the pocketfft binding
  that ``scipy.fftpack.rfft`` and ``irfft`` end in, so products are
  bitwise-equal to that public pair;
- from 4095 on: two real arrays derived from the spectrum, which recombine
  bins k and L/2 - k of one complex transform (``c2c``, same binding) of
  the operand's L reals read as L/2 complex numbers, before the complex
  inverse transform: a transform pair of half the length.

The binding is private SciPy (``scipy.fft._pocketfft``), but it keeps the
fixed cost per product low: best of 40 interleaved batches of 500 per call
at n = 511 and 1023 (2-core x86 host, one thread), 9.0 and 16.2 us with an
operand laid out (``_padded_matvec``), 10.4 and 17.3 us laying out a fresh
one (``matvec``), 11.4 and 19.0 us through ``scipy.fftpack.convolve``, 14.4
and 22.0 us through the ``scipy.fftpack`` wrappers.  The operator owns the
layout of a product's operand (``_operand``), and every product is one call
of ``_padded_matvec``, so a caller's loop is one code path at any n.  The
module also carries the dense materialization and a structural report
(sign pattern, diagonal dominance) used by the solver's admissibility checks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft
from scipy.fft._pocketfft.pypocketfft import c2c, r2r_fftpack
from numpy.lib.stride_tricks import sliding_window_view

# Largest n whose matvec is a stored dense product rather than the FFT path.
# Measured per call on a 2-core x86 host (numpy 2.4, scipy 1.17, OpenBLAS,
# one thread), dense product (``ndarray.dot``) vs FFT product, best of 40
# interleaved batches of 500: 2.9 vs 4.4 us at n = 127, 9.4 vs 6.1 us at
# n = 255, 45 vs 9.6 us at n = 511.  Multigrid levels have n = 2^k - 1;
# at 255 the FFT product is the faster one per call.  The crossover stays
# at 255 because the stored dense matrix is what lets the multigrid set-up
# build C_255, the whole cycle of that level, as the bottom matrix (the
# fine level's own, when it has 255 unknowns); moving it would change the
# hierarchy and its frozen product counts.
_DENSE_MAX_N = 255

# Smallest n whose product takes the half-length complex pair (operand
# length L = 2 next_fast_len(n)) rather than the packed real pair.  Per call
# on the same host (``_padded_matvec``), packed vs half-length, best of 40
# interleaved batches: 27.9 vs 35.5 us at n = 1023, 62 vs 64 at 2047, 100
# vs 81 at 4095, 203 vs 184 at 8191, 419 vs 377 at 16383, 2.49 vs 2.03 ms
# at 65535, 6.44 vs 4.39 ms at 131071; lengths rich in factors of 5 sit at
# parity (5000: 118 vs 120 us, 100000: 3.78 vs 3.83 ms).
_HALF_MIN_N = 4095


class SymToeplitz:
    """Immutable symmetric Toeplitz operator ``T[i, j] = first_col[|i - j|]``.

    One read-only storage is set, by n: ``_dense`` (n <= 255), ``_spec``
    (a product is two real FFTs of length ~2n) or ``_half`` (two complex
    FFTs of length ~n, from n = 4095 on).  ``_pad_len`` is the row count of
    a product's operand: n, ``next_fast_len(2n, real=True)`` or the even
    ``2 next_fast_len(n)``.  ``_operand`` lays such an operand out, and
    every product, ``matvec``'s too, is one ``_padded_matvec`` call.
    Instances hold no mutable state and are safe to share across threads:
    products work in their caller's buffers and in per-call temporaries.
    """

    __slots__ = ("n", "first_col", "_pad_len", "_spec", "_half", "_dense")

    def __init__(self, first_col):
        col = np.asarray(first_col, dtype=float)
        if col.ndim != 1 or col.size == 0:
            raise ValueError("first_col must be a nonempty 1-d real vector")
        if not np.all(np.isfinite(col)):
            raise ValueError("first_col contains non-finite entries")
        n = col.size
        col = col.copy()
        col.flags.writeable = False
        self.n = n
        self.first_col = col
        self._spec = self._half = self._dense = None
        if n <= _DENSE_MAX_N:
            self._pad_len = n
            self._dense = self.dense()
            self._dense.flags.writeable = False
        elif n < _HALF_MIN_N:
            # Minimal embedding is 2n; next_fast_len may pad further for FFT
            # efficiency.  Extra padding is zero-filled and semantics-neutral.
            self._pad_len = L = sfft.next_fast_len(2 * n, real=True)
            # scipy.fftpack's packed order [l0, l1, l1, l2, l2, ...] (for
            # even L the last eigenvalue l_{L/2} is unpaired)
            self._spec = np.repeat(self._spectrum(), 2)[1: L + 1]
        else:
            # L must be even: L/2 complex points hold the L real ones
            self._pad_len = L = 2 * sfft.next_fast_len(n)
            self._half = self._recombination(self._spectrum())

    def _spectrum(self):
        """Eigenvalues l_0 .. l_{L/2} of the circulant of length
        L = ``_pad_len`` that embeds the operator (l_{L-k} = l_k)."""
        L = self._pad_len
        emb = np.zeros(L)
        emb[: self.n] = self.first_col
        emb[L - self.n + 1:] = self.first_col[1:][::-1]
        # emb is symmetric, so the imaginary part is rounding only
        return sfft.rfft(emb).real

    @staticmethod
    def _recombination(lam):
        """The real arrays (p, q) of the half-length product, each of
        L = 2m entries, from eigenvalues l_0 .. l_m.

        With z_j = x_{2j} + i x_{2j+1} and Z its m-point transform, the
        m-point inverse transform of U_k = p_k Z_k + q_k i conj(Z_{-k})
        (indices mod m) is y_{2j} + i y_{2j+1}, where y is the circulant
        product, p_k = (a_k - b_k sin(pi k/m)) / m, q_k = b_k cos(pi k/m) / m,
        and a_k and b_k are the half sum and half difference of l_k and
        l_{m-k}: the half-length identity for real FFTs (Sorensen, Jones,
        Heideman and Burrus, IEEE Trans. ASSP 35, 1987).  Each entry appears
        twice, for the real and the imaginary slot of bin k.
        """
        m = lam.size - 1
        a = 0.5 * (lam[:m] + lam[m:0:-1])
        b = 0.5 * (lam[:m] - lam[m:0:-1])
        theta = np.pi * np.arange(m) / m
        return (np.repeat((a - b * np.sin(theta)) / m, 2),
                np.repeat(b * np.cos(theta) / m, 2))

    def _operand(self, tail: tuple) -> np.ndarray:
        """An array whose head a product reads in place: ``_pad_len`` rows
        (and ``tail``), zero past n (the tail must stay so) and
        uninitialised in the first n, which every user writes before it
        reads them."""
        buf = np.empty((self._pad_len,) + tail)
        buf[self.n:] = 0.0
        return buf

    def matvec(self, x):
        """y_i = sum_j first_col[|i-j|] x_j: stored dense product at small n,
        O(n log n) circulant embedding above, in a fresh result.  An (n, k)
        block is applied column by column."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n},) or ({self.n}, k), "
                             f"got {x.shape}")
        if self._dense is not None:
            return self._padded_matvec(x, np.empty(x.shape))
        padded = self._operand(x.shape[1:])
        padded[: self.n] = x
        return self._padded_matvec(padded, padded)

    def _padded_matvec(self, padded, out):
        """A x for x in the first n rows of ``padded`` (laid out as
        ``_operand``'s), computed in the caller's ``out`` of the same shape.

        Returns the head ``out[:n]`` (``out`` itself when dense) and leaves
        ``padded`` as it is unless it is ``out`` (FFT only).  A dense or
        packed product allocates and copies nothing; a half-length one
        allocates an O(L) temporary, and for a block a transposed copy.
        """
        if self._dense is not None:
            return self._dense.dot(padded, out)
        if self._spec is not None:
            spec = self._spec if out.ndim == 1 else self._spec[:, None]
            # forward transform into out, multiply, inverse normalized by
            # 1/L (inorm=2) as in scipy.fftpack.irfft, in place
            r2r_fftpack(padded, (0,), True, True, 0, out, 1)
            out *= spec
            return r2r_fftpack(out, (0,), False, False, 2, out, 1)[: self.n]
        # half length: the complex view pairs rows 2j and 2j + 1, so a
        # block runs as the contiguous rows of its transposed copy
        work = out if out.ndim == 1 else padded.T.copy()
        source = padded if out.ndim == 1 else work
        p, q = self._half
        c2c(source.view(complex), (-1,), True, 0, work.view(complex), 1)
        # reversed, the reals of bins m - 1 .. 1 are the (Re, Im) slots of
        # i conj(Z_{m-k}) for k = 1 .. m - 1; bin 0 pairs with itself
        mirrored = work[..., :1:-1] * q[2:]
        first = work[..., 1::-1] * q[:2]
        work *= p
        work[..., 2:] += mirrored
        work[..., :2] += first
        c2c(work.view(complex), (-1,), False, 0, work.view(complex), 1)
        if work is not out:
            out[...] = work.T
        return out[: self.n]

    def dense(self):
        """Materialize the full matrix (small n: the dense matvec, diagnostics)."""
        # window r of [t_{n-1}, ..., t_1, t_0, t_1, ..., t_{n-1}] holds
        # t_{|r - (n-1) + j|}, so row i is window n - 1 - i
        mirrored = np.concatenate((self.first_col[:0:-1], self.first_col))
        return sliding_window_view(mirrored, self.n)[::-1].copy()


def structure_report(first_col) -> dict:
    """Sign-pattern / dominance report for the symmetric Toeplitz matrix
    with this first column.

    M-matrix sign pattern: positive diagonal, off-diagonals <= 1e-14 * t_0
    (tolerance absorbs quadrature noise on entries that vanish analytically).
    Weak diagonal dominance is checked on the full-length row sum, which
    bounds every row of any finite section.  ``ok`` is the verdict: both.
    """
    col = np.asarray(first_col, dtype=float)
    t0 = float(col[0])
    off = col[1:]
    off_sum = 2.0 * float(np.sum(np.abs(off)))
    sign = bool(t0 > 0.0 and np.all(off <= 1e-14 * t0))
    dominant = bool(t0 >= off_sum - 1e-12 * abs(t0))
    return {
        "ok": sign and dominant,
        "is_m_matrix_sign_pattern": sign,
        "is_weakly_diag_dominant": dominant,
    }
