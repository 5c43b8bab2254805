"""Symmetric Toeplitz operators with O(n log n) matvec via circulant embedding.

A symmetric Toeplitz matrix is fully determined by its first column.  We embed
it into a 2n x 2n circulant, diagonalize that once with an FFT, and apply the
operator as pad -> transform -> multiply -> inverse transform -> truncate.
The embedding is symmetric (``emb[k] == emb[L - k]``), so the circulant's
spectrum is real and the whole product stays in real arithmetic: one
packed real-to-real transform pair with an in-place multiply by the real
eigenvalues in between.  Both transforms call ``r2r_fftpack``, the pocketfft
binding that ``scipy.fftpack.rfft`` and ``irfft`` end in, directly, so
products are bitwise-equal to that public pair at any length.  The binding
sits in a private SciPy module (``scipy.fft._pocketfft``), but it is what
keeps the fixed cost per product low: best of 40 interleaved batches of
500 per call at n = 511 and 1023 (2-core x86 host, one thread), 9.0 and
16.2 us for an operand already laid out (``_padded_matvec``), 10.4 and
17.3 us laying out a fresh one (``matvec``), 11.4 and 19.0 us through
``scipy.fftpack.convolve.convolve`` (one compiled call for the whole
product), 14.4 and 22.0 us through the ``scipy.fftpack`` wrappers.
Small operators store their dense matrix instead (see ``_DENSE_MAX_N`` for
why the crossover sits where it does) and compute no spectrum.  Either
way the operator owns the layout of a product's operand (``_operand``),
and every product, ``matvec``'s included, is one call of the copy-free
``_padded_matvec``, so a caller's loop is one code path at any n.
The module also carries the dense materialization and a structural report
(sign pattern, diagonal dominance) used by the solver's admissibility
checks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft
from scipy.fft._pocketfft.pypocketfft import r2r_fftpack
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


class SymToeplitz:
    """Immutable symmetric Toeplitz operator ``T[i, j] = first_col[|i - j|]``.

    For n <= 255 the read-only dense matrix is stored and a product is one
    dense product; above that only the circulant spectrum is cached, at
    construction, as a real vector, and a product costs two real FFTs of
    length ~2n.  ``_pad_len`` is the row count of a product's operand: n
    with the dense matrix, the embedding length ``next_fast_len(2n)`` with
    the spectrum.  ``_operand`` lays such an operand out, and every
    product, ``matvec``'s too, is one ``_padded_matvec`` call.
    Instances hold no mutable state and are safe to share across threads:
    ``matvec`` allocates its result per call, and ``_padded_matvec`` works
    in buffers its caller owns (``mg_solve``'s per-solve scratch).
    """

    __slots__ = ("n", "first_col", "_pad_len", "_spec", "_dense")

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
        self._spec = None
        self._dense = None
        if n <= _DENSE_MAX_N:
            self._pad_len = n
            self._dense = self.dense()
            self._dense.flags.writeable = False
        else:
            # Minimal embedding is 2n; next_fast_len may pad further for FFT
            # efficiency.  Extra padding is zero-filled and semantics-neutral.
            self._pad_len = sfft.next_fast_len(2 * n, real=True)
            self._spec = self._spectrum()

    def _spectrum(self):
        """Eigenvalues of the circulant that embeds the operator, in
        ``scipy.fftpack``'s packed order ``[l0, l1, l1, l2, l2, ...]`` (for
        even length the last eigenvalue ``l_{L/2}`` is unpaired)."""
        L = self._pad_len
        emb = np.zeros(L)
        emb[: self.n] = self.first_col
        emb[L - self.n + 1:] = self.first_col[1:][::-1]
        # emb is symmetric, so the imaginary part is rounding only
        return np.repeat(sfft.rfft(emb).real, 2)[1: L + 1]

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

        Returns the head ``out[:n]`` (``out`` itself when dense), allocates
        and copies nothing, and leaves ``padded`` as it is unless it is
        ``out`` (FFT only).
        """
        if self._dense is not None:
            return self._dense.dot(padded, out)
        spec = self._spec if out.ndim == 1 else self._spec[:, None]
        # forward transform into out, multiply, inverse normalized by 1/L
        # (inorm=2) as in scipy.fftpack.irfft, in place
        r2r_fftpack(padded, (0,), True, True, 0, out, 1)
        out *= spec
        return r2r_fftpack(out, (0,), False, False, 2, out, 1)[: self.n]

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
