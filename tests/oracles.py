"""Independent reference implementations the unit tests compare against.

Everything here is deliberately built from different machinery than the
package: incomplete-gamma closed forms and adaptive scipy quadrature instead
of fixed Gauss rules, nested profile-product integrals instead of the kernel
form of the symbol, dense matrices instead of Toeplitz symbols, and
`mpmath` where double precision cancels.  Agreement is then meaningful.
Two sections are exceptions.  The pointwise-quadrature section applies the
package's Gauss-Jacobi rules where the package itself now uses closed forms.
The reference-cycle section keeps the V-cycle as it was before it ran in
per-solve buffers, one fresh array per operation, as the oracle that the
buffered cycle must equal bit for bit, since its arithmetic is unchanged.
"""

import dataclasses

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from tempermg import fracquad, multigrid, toeplitz


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
    """Full n-by-n symmetrized pairing matrix, every entry its own integral.

    Each ordered pair (i, j) is integrated once; the symmetrization then
    averages the two orders.
    """
    pair = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            pair[i - 1, j - 1] = pairing_entry_ref(a, h, nu, lam, i, j)
    return 0.5 * (pair + pair.T)


def _b3(t):
    """Cubic B-spline in units of h: the hat autocorrelation divided by h."""
    t = abs(t)
    if t <= 1.0:
        return 2.0 / 3.0 - t**2 + 0.5 * t**3
    return (2.0 - t)**3 / 6.0 if t < 2.0 else 0.0


def far_pair_ref(h, alpha, lam, m):
    """Symmetrized pairing at a separated lag m >= 3, by adaptive quadrature.

    1/2 integral_{-2h}^{2h} A(r) K(m h + r) dr, with A the hat
    autocorrelation (h times the cubic B-spline in r/h) and
    K(x) = e^(-lam x) x^(-1-alpha) / Gamma(-alpha) the tempered Levy kernel;
    one adaptive integral per cubic piece of A.
    """
    def integrand(r):
        x = m * h + r
        return h * _b3(r / h) * np.exp(-lam * x) * x**(-1.0 - alpha)

    total = 0.0
    for k in (-2, -1, 0, 1):
        val, _ = quad(integrand, k * h, (k + 1) * h, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        total += val
    return 0.5 * total / gamma_fn(-alpha)


def near_pair_ref(h, alpha, lam, m):
    """Symmetrized pairing at lag m in {0, 1, 2}, by adaptive quadrature.

    lam^alpha h B3(m) + h^(1-alpha) / (2 Gamma(-alpha)) I_m with
    I_m = integral_0^inf e^(-lam h t) t^(-1-alpha) D_m(t) dt and
    D_m(t) = B3(m+t) + B3(m-t) - 2 B3(m), the Levy-Khintchine form of the
    tempered Riesz symbol against the hat autocorrelation.  On [0, 1] the
    integrand is t^(1-alpha) (c2 + c3 t), with the algebraic weight left to
    scipy; [1, m+2] goes by unit pieces, where D_m is cubic, and beyond m+2
    D_m = -2 B3(m).
    """
    mu = lam * h
    c2, c3 = ((-2.0, 1.0), (1.0, -2.0 / 3.0), (0.0, 1.0 / 6.0))[m]
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    total, _ = quad(lambda t: np.exp(-mu * t) * (c2 + c3 * t), 0.0, 1.0,
                    weight="alg", wvar=(1.0 - alpha, 0.0), **opts)

    def integrand(t):
        d = _b3(m + t) + _b3(m - t) - 2.0 * _b3(m)
        return np.exp(-mu * t) * t**(-1.0 - alpha) * d

    for k in range(1, m + 2):
        total += quad(integrand, k, k + 1, **opts)[0]
    if m < 2:
        total += quad(integrand, m + 2, np.inf, **opts)[0]
    return (lam**alpha * h * _b3(m)
            + 0.5 * h**(1.0 - alpha) / gamma_fn(-alpha) * total)


def near_pair_mp(h, alpha, lam, m):
    """The near_pair_ref integral in `mpmath` at 30 digits.

    Checks the adaptive reference where tempering is strong.  On [0, 1] the
    substitution t = v^(1/s), s = 2 - alpha, turns the weight t^(s-1) dt into
    dv / s, so tanh-sinh quadrature sees no endpoint singularity; break
    points at 4^j / (lam h) follow the decay of e^(-lam h t).
    """
    def b3(t):
        t = abs(t)
        if t <= 1:
            return mpmath.mpf(2) / 3 - t**2 + t**3 / 2
        return (2 - t)**3 / 6 if t < 2 else mpmath.mpf(0)

    with mpmath.workdps(30):
        a, h = mpmath.mpf(alpha), mpmath.mpf(h)
        lam = mpmath.mpf(lam)
        mu, s = lam * h, 2 - a
        c2, c3 = ((-2, 1), (1, mpmath.mpf(-2) / 3), (0, mpmath.mpf(1) / 6))[m]
        breaks = [(4**j / mu)**s for j in range(8) if mu > 0 and 4**j < mu]
        total = mpmath.quad(
            lambda v: (c2 + c3 * v**(1 / s)) * mpmath.exp(-mu * v**(1 / s)),
            [0] + breaks + [1]) / s

        def integrand(t):
            d = b3(m + t) + b3(m - t) - 2 * b3(m)
            return mpmath.exp(-mu * t) * t**(-1 - a) * d

        total += mpmath.quad(integrand, list(range(1, m + 3)))
        if m < 2:
            total += mpmath.quad(integrand, [m + 2, mpmath.inf])
        return float(lam**a * h * b3(m)
                     + h**(1 - a) / (2 * mpmath.gamma(-a)) * total)


def untempered_pair_closed_form(h, alpha, m):
    """Symmetrized pairing at lag m for lam = 0, in closed form.

    1/2 h^(1-alpha) delta^4 |m|^(3-alpha) / Gamma(4-alpha), with delta^4 the
    fourth central difference in m; it cancels badly in double precision at
    large lags, so it is taken in mpmath at 30 digits.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        coeffs = (1, -4, 6, -4, 1)
        diff = sum(c * abs(mpmath.mpf(m + k))**(3 - a)
                   for c, k in zip(coeffs, range(-2, 3)))
        return float(mpmath.mpf(h)**(1 - a) / 2 * diff / mpmath.gamma(4 - a))


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
# pointwise quadrature: the package's Lobatto/Gauss-Jacobi rules


def riesz_apply(u, alpha, lam, a, b, x, order=100):
    """Symmetric two-sided tempered operator by pointwise Lobatto quadrature.

    kappa * (left + right - 2 lam^alpha u); the first-order drift terms of the
    left/right definitions cancel in the symmetric sum.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((xs <= a) | (xs >= b)):
        raise ValueError("evaluation points must lie strictly inside (a, b)")
    kap = fracquad.riesz_kappa(alpha)
    left = fracquad.tempered_left_deriv(u, alpha, lam, a, xs, order)
    right = fracquad.tempered_right_deriv(u, alpha, lam, b, xs, order)
    out = kap * (left + right - 2.0 * lam**alpha * u.value(xs))
    return float(out[0]) if scalar else out


def example1_space_mp(alpha, lam, b, x):
    """Space profile F of the example-1 forcing in `mpmath` at 30 digits.

    F = -(w (1 - 3 lam^alpha kappa) + kappa (L(x) + L(b - x) - 2 lam^alpha w))
    with w = x^2 (1 - x/b)^2 and L(x) = e^(-lam x) D^alpha(e^(lam s) w) taken
    term by term from the power rule with the unreduced Kummer function
    1F1(k+1; k+1-alpha; lam x), not the transformed one the package uses.
    """
    with mpmath.workdps(30):
        a, lam, b = mpmath.mpf(alpha), mpmath.mpf(lam), mpmath.mpf(b)
        x = mpmath.mpf(x)
        kap = -1 / (2 * mpmath.cos(a * mpmath.pi / 2))

        def left(y):
            return sum(c * mpmath.gamma(k + 1) / mpmath.gamma(k + 1 - a)
                       * y**(k - a) * mpmath.exp(-lam * y)
                       * mpmath.hyp1f1(k + 1, k + 1 - a, lam * y)
                       for k, c in ((2, 1), (3, -2 / b), (4, 1 / b**2)))

        w = x**2 * (1 - x / b)**2
        temper = lam**a if lam > 0 else 0
        return float(-(w * (1 - 3 * temper * kap)
                       + kap * (left(x) + left(b - x) - 2 * temper * w)))


# ---------------------------------------------------------------------------
# mesh-dependent norms


def mesh_norm(level, v, s):
    """Discrete norm sqrt(h * v' A^s v) for s in {0, 1, 2}, A = level.system."""
    v = np.asarray(v, dtype=float)
    h = level.mesh.h
    if s == 0:
        return float(np.sqrt(h * np.dot(v, v)))
    if s == 1:
        return float(np.sqrt(h * np.dot(v, level.system.matvec(v))))
    if s == 2:
        av = level.system.matvec(v)
        return float(np.sqrt(h * np.dot(av, av)))
    raise ValueError("s must be 0, 1 or 2")


# ---------------------------------------------------------------------------
# closed-form load integrals


def sin_load_ref(nodes, h):
    """integral of sin(pi x) against each interior hat on a uniform grid."""
    return (2.0 * (1.0 - np.cos(np.pi * h)) / (np.pi**2 * h)
            * np.sin(np.pi * np.asarray(nodes)))



# ---------------------------------------------------------------------------
# the allocate-per-operation V-cycle, and a product recorder


def reference_prolongate(coarse):
    vc = np.asarray(coarse, dtype=float)
    nc = vc.shape[0]
    vf = np.zeros((2 * nc + 1,) + vc.shape[1:])
    vf[1::2] = vc
    half = 0.5 * vc
    vf[0:-2:2] += half
    vf[2::2] += half
    return vf


def reference_restrict(fine):
    vf = np.asarray(fine, dtype=float)
    quarter = vf[::2] * 0.25
    out = quarter[:-1] + vf[1::2] * 0.5
    out += quarter[1:]
    return out


def reference_smooth(level, z, g, steps):
    scale = multigrid.ETA / level.diag
    for _ in range(steps):
        step = level.system.matvec(z)
        np.subtract(g, step, out=step)
        step *= scale
        step += z
        z = step
    return z


def reference_cycle(hier, k, g, ag):
    """Level k's zero-start cycle of g above the bottom level, ag = A g."""
    config = hier.config
    level = hier.levels[k]
    s = multigrid.ETA / level.diag
    z = s * g
    residual = np.multiply(ag, -s)
    residual += g
    for _ in range(config.m1 - 1):
        z += s * residual
        residual -= s * level.system.matvec(residual)
    residual = reference_restrict(residual)
    z += reference_prolongate(reference_v_cycle(hier, k - 1, residual))
    return reference_smooth(level, z, g, config.m2)


def reference_v_cycle(hier, k, g):
    """One zero-start V-cycle on level k >= b, ending in C_b on level b."""
    if k == hier._bottom[0]:
        return hier.coarse_solve(g)
    return reference_cycle(hier, k, g, hier.levels[k].system.matvec(g))


def reference_bottom(hier):
    """(b, C_b) built as set-up builds it, with the reference cycle."""
    levels = hier.levels
    chol_inv = np.linalg.inv(np.linalg.cholesky(levels[0].system.dense()))
    bottom = (0, chol_inv.T @ chol_inv)
    for k in range(1, len(levels)):
        dense = levels[k].system._dense
        if dense is None:
            break
        below = dataclasses.replace(hier, _bottom=bottom)
        bottom = (k, reference_cycle(below, k, np.eye(len(dense)), dense))
    return bottom


def record_products(monkeypatch, entry=lambda op, x: op):
    """Patch ``SymToeplitz`` so that every product, vector or block, appends
    ``entry(operator, operand)`` to the returned list once, unless that is
    None; the operand is read at the call.  A product is seen at
    ``_padded_matvec``, which every product goes through, ``matvec``'s
    included."""
    products = []
    padded_matvec = toeplitz.SymToeplitz._padded_matvec

    def counting(self, padded, out):
        item = entry(self, padded[: self.n])
        if item is not None:
            products.append(item)
        return padded_matvec(self, padded, out)

    monkeypatch.setattr(toeplitz.SymToeplitz, "_padded_matvec", counting)
    return products
