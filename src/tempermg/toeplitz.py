"""Symmetric Toeplitz operators with O(n log n) matvec via circulant embedding.

A symmetric Toeplitz matrix is fully determined by its first column.  We embed
it into a 2n x 2n circulant, diagonalize that once with an FFT, and apply the
operator as pad -> transform -> multiply -> inverse transform -> truncate.
Below a measured crossover size the FFT path's fixed per-call cost dominates,
so small operators also store their dense matrix and apply that instead.
The module also carries the dense materialization, a power-iteration
spectral-radius estimator, and a structural report (sign pattern, diagonal
dominance, Gershgorin bounds) used by the solver's admissibility checks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft
from numpy.lib.stride_tricks import sliding_window_view

# Largest n whose matvec is a stored dense product rather than the FFT path.
# Measured per call on a 2-core x86 host (numpy 2.4, OpenBLAS, pocketfft),
# dense vs FFT: 4.3 vs 21 us at n = 127, 12.8 vs 28 us at n = 255, 66 vs 40 us
# at n = 511.  Multigrid levels have n = 2^k - 1, so 255 is the last size
# where dense wins.
_DENSE_MAX_N = 255


class SymToeplitz:
    """Immutable symmetric Toeplitz operator ``T[i, j] = first_col[|i - j|]``.

    For n <= 255 the read-only dense matrix is stored and ``matvec`` is one
    dense product; above that only the circulant spectrum is cached, at
    construction, and ``matvec`` costs two real FFTs of length ~2n.
    Instances are safe to share across threads (matvec allocates per-call
    scratch).
    """

    __slots__ = ("n", "first_col", "_fft_len", "_spec", "_dense")

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
        # Minimal embedding is 2n; next_fast_len may pad further for FFT
        # efficiency.  Extra padding is zero-filled and semantics-neutral.
        self._fft_len = sfft.next_fast_len(2 * n, real=True)
        self._spec = None
        self._dense = None
        if n <= _DENSE_MAX_N:
            self._dense = self.dense()
            self._dense.flags.writeable = False
        else:
            self._spec = self._spectrum()

    def _spectrum(self):
        """Eigenvalues of the circulant that embeds the operator."""
        emb = np.zeros(self._fft_len)
        emb[: self.n] = self.first_col
        if self.n > 1:
            emb[self._fft_len - self.n + 1:] = self.first_col[1:][::-1]
        return sfft.rfft(emb)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"expected shape ({self.n},) or ({self.n}, k), "
                             f"got {x.shape}")
        return x

    def matvec(self, x):
        """y_i = sum_j first_col[|i-j|] x_j: stored dense product at small n,
        O(n log n) circulant embedding above.  An (n, k) block is applied
        column by column."""
        x = self._check(x)
        if self._dense is not None:
            return self._dense @ x
        return self._fft_matvec(x)

    def _fft_matvec(self, x):
        """Circulant-embedding matvec of a checked vector or block, at any n.

        Below the dense crossover the spectrum is not cached (only tests and
        ``verify`` take this path there), so it is computed per call.
        """
        spec = self._spec if self._spec is not None else self._spectrum()
        if x.ndim == 2:
            spec = spec[:, None]
        y = sfft.irfft(sfft.rfft(x, self._fft_len, axis=0) * spec,
                       self._fft_len, axis=0)
        return y[: self.n]

    def dense(self):
        """Materialize the full matrix (small n: the dense matvec, diagnostics)."""
        # window r of [t_{n-1}, ..., t_1, t_0, t_1, ..., t_{n-1}] holds
        # t_{|r - (n-1) + j|}, so row i is window n - 1 - i
        mirrored = np.concatenate((self.first_col[:0:-1], self.first_col))
        return sliding_window_view(mirrored, self.n)[::-1].copy()


def power_iteration(apply, n, tol=1e-10, max_iter=10000):
    """Spectral-radius estimate of a symmetric PSD operator.

    Deterministic start (normalized all-ones); Rayleigh-quotient estimates,
    stopping when successive estimates differ relatively by less than ``tol``.
    Returns ``(estimate, converged)``.  With a clustered top spectrum, the
    successive-difference rule stops with a small low bias; callers needing
    percent-level accuracy should keep tol <= 1e-8.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.full(n, 1.0 / np.sqrt(n))
    rho_prev = np.inf
    rho = 0.0
    for _ in range(max_iter):
        w = apply(v)
        rho = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # start vector is annihilated; spectral radius on its orbit is 0
            return 0.0, True
        v = w / nw
        if abs(rho - rho_prev) <= tol * max(abs(rho), np.finfo(float).tiny):
            return rho, True
        rho_prev = rho
    return rho, False


def structure_report(T: SymToeplitz) -> dict:
    """Sign-pattern / dominance report for a symmetric Toeplitz operator.

    M-matrix sign pattern: positive diagonal, off-diagonals <= 1e-14 * t_0
    (tolerance absorbs quadrature noise on entries that vanish analytically).
    Weak diagonal dominance is checked on the full-length row sum, which
    bounds every row of any finite section.
    """
    t0 = float(T.first_col[0])
    off = T.first_col[1:]
    off_sum = 2.0 * float(np.sum(np.abs(off)))
    return {
        "is_m_matrix_sign_pattern": bool(t0 > 0.0 and np.all(off <= 1e-14 * t0)),
        "is_weakly_diag_dominant": bool(t0 >= off_sum - 1e-12 * abs(t0)),
        "gershgorin_low": t0 - off_sum,
        "gershgorin_high": t0 + off_sum,
    }
