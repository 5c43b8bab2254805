"""Independent reference implementations the unit tests compare against.

Everything here is deliberately built from different machinery than the
package: incomplete-gamma closed forms and adaptive scipy quadrature instead
of fixed Gauss rules, nested integrals instead of convolution symbols, dense
matrices instead of Toeplitz symbols.  Agreement is then meaningful.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc


# ---------------------------------------------------------------------------
# tempered power moments and the hat-derivative profile


def j_moment(k, nu, lam, a, b):
    """integral_a^b u^(k-nu) e^(-lam u) du, closed form.

    Lower incomplete gamma for lam > 0, plain power rule at lam = 0.
    """
    p = k + 1.0 - nu
    if lam == 0.0:
        return (b**p - a**p) / p
    return lam**(-p) * gamma_fn(p) * (gammainc(p, lam * b) - gammainc(p, lam * a))


def hat_profile_ref(s, h, nu, lam):
    """Left tempered derivative of order nu of the unit hat, closed form.

    The hat sits at the origin with half-width h; the profile is
    (1/Gamma(1-nu)) * integral_{v<s} (s-v)^(-nu) e^(-lam(s-v))
    (hat' + lam*hat)(v) dv, and the density is linear on each of the two
    cells, so every piece reduces to the j_moment integrals above.
    """
    cells = (
        (-h, 0.0, (1.0 + lam * h) / h, lam / h),
        (0.0, h, (lam * h - 1.0) / h, -lam / h),
    )
    total = 0.0
    for lo, hi, p, q in cells:
        if s <= lo:
            continue
        a_u = max(0.0, s - hi)
        b_u = s - lo
        total += ((p + q * s) * j_moment(0, nu, lam, a_u, b_u)
                  - q * j_moment(1, nu, lam, a_u, b_u))
    return total / gamma_fn(1.0 - nu)


def hat_profile_quad(s, h, nu, lam):
    """Same profile by adaptive quadrature; validates the closed form."""
    if s <= -h:
        return 0.0

    def dens(v):
        if v < 0.0:
            return (1.0 + lam * h) / h + (lam / h) * v
        return (lam * h - 1.0) / h - (lam / h) * v

    total = 0.0
    edges = [e for e in (-h, 0.0, h) if e < s] + [min(s, h)]
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo:
            continue
        if hi == s:  # kernel singularity sits at the upper limit
            val, _ = quad(lambda v: dens(v) * np.exp(-lam * (s - v)), lo, hi,
                          weight="alg", wvar=(0.0, -nu), limit=200)
        else:
            val, _ = quad(lambda v: dens(v) * (s - v)**(-nu)
                          * np.exp(-lam * (s - v)), lo, hi, limit=200)
        total += val
    return total / gamma_fn(1.0 - nu)


# ---------------------------------------------------------------------------
# dense pairing-matrix assembly (no Toeplitz assumption anywhere)


def pairing_entry_ref(a, h, nu, lam, i, j):
    """Unsymmetrized pairing integral of basis pair (i, j).

    integral gL_j(x) gR_i(x) dx with gL_j the left-derivative profile of the
    hat at x_j and gR_i the mirrored right-derivative profile of the hat at
    x_i; both reduce to the same translation-invariant profile.
    """
    xi, xj = a + i * h, a + j * h
    lo, hi = xj - h, xi + h
    if lo >= hi:
        return 0.0
    kinks = sorted({p for p in (xj, xj + h, xi - h, xi) if lo < p < hi})

    def integrand(x):
        return (hat_profile_ref(x - xj, h, nu, lam)
                * hat_profile_ref(xi - x, h, nu, lam))

    val, _ = quad(integrand, lo, hi, points=kinks or None, limit=400,
                  epsabs=1e-13, epsrel=1e-11)
    return val


def dense_pair_matrix_ref(a, h, nu, lam, n):
    """Full n-by-n symmetrized pairing matrix, every entry its own integral."""
    mat = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            mat[i - 1, j - 1] = 0.5 * (pairing_entry_ref(a, h, nu, lam, i, j)
                                       + pairing_entry_ref(a, h, nu, lam, j, i))
    return mat


def far_pair_ref(h, alpha, lam, m):
    """Symmetrized pairing at a separated lag m >= 3, by adaptive quadrature.

    1/2 integral_{-2h}^{2h} A(r) K(m h + r) dr, with A the hat
    autocorrelation (h times the cubic B-spline in r/h) and
    K(x) = e^(-lam x) x^(-1-alpha) / Gamma(-alpha) the tempered Levy kernel;
    one adaptive integral per cubic piece of A.
    """
    def autocorr(r):
        t = abs(r) / h
        if t <= 1.0:
            return h * (2.0 / 3.0 - t**2 + 0.5 * t**3)
        return h * (2.0 - t)**3 / 6.0

    def integrand(r):
        x = m * h + r
        return autocorr(r) * np.exp(-lam * x) * x**(-1.0 - alpha)

    total = 0.0
    for k in (-2, -1, 0, 1):
        val, _ = quad(integrand, k * h, (k + 1) * h, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        total += val
    return 0.5 * total / gamma_fn(-alpha)


# ---------------------------------------------------------------------------
# adaptive references for the pointwise fractional derivatives


def rl_left_deriv_ref(d2u, alpha, a, x):
    """(1/Gamma(2-alpha)) integral_a^x (x-xi)^(1-alpha) u''(xi) dxi.

    Caputo form, valid when u(a) = u'(a) = 0; adaptive quadrature with the
    algebraic endpoint weight handled by scipy.
    """
    val, _ = quad(d2u, a, x, weight="alg", wvar=(0.0, 1.0 - alpha), limit=200)
    return val / gamma_fn(2.0 - alpha)


def rl_right_deriv_ref(d2u, alpha, b, x):
    """Mirror image: (1/Gamma(2-alpha)) integral_x^b (xi-x)^(1-alpha) u''."""
    val, _ = quad(d2u, x, b, weight="alg", wvar=(1.0 - alpha, 0.0), limit=200)
    return val / gamma_fn(2.0 - alpha)


def tempered_left_deriv_ref(u, alpha, lam, a, x):
    """e^(-lam x) * left RL derivative of e^(lam xi) u(xi), adaptively."""

    def d2v(xi):
        return np.exp(lam * xi) * (u.second_derivative(xi)
                                   + 2.0 * lam * u.first_derivative(xi)
                                   + lam**2 * u.value(xi))

    return np.exp(-lam * x) * rl_left_deriv_ref(d2v, alpha, a, x)


def tempered_right_deriv_ref(u, alpha, lam, b, x):
    """e^(lam x) * right RL derivative of e^(-lam xi) u(xi), adaptively."""

    def d2v(xi):
        return np.exp(-lam * xi) * (u.second_derivative(xi)
                                    - 2.0 * lam * u.first_derivative(xi)
                                    + lam**2 * u.value(xi))

    return np.exp(lam * x) * rl_right_deriv_ref(d2v, alpha, b, x)


# ---------------------------------------------------------------------------
# closed-form load integrals


def sin_load_ref(nodes, h):
    """integral of sin(pi x) against each interior hat on a uniform grid."""
    return (2.0 * (1.0 - np.cos(np.pi * h)) / (np.pi**2 * h)
            * np.sin(np.pi * np.asarray(nodes)))


def tridiag_eigs_max(n):
    """Largest eigenvalue of the n-by-n [-1, 2, -1] Toeplitz matrix."""
    return 2.0 - 2.0 * np.cos(n * np.pi / (n + 1))
