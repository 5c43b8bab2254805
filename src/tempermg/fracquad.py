"""Gauss-Jacobi quadrature, the manufactured forcing and pointwise derivatives.

Quadrature rules target the weight (1-x)^a_exp (1+x)^b_exp on [-1, 1]; the
Lobatto variant pins both endpoints.  The solver uses ``gauss_jacobi`` for
its Gauss-Legendre rules.  The manufactured forcing of the first benchmark
problem is the tempered power rule in closed form, one Kummer function per
monomial, three of which come from two evaluations and a contiguous
relation.

No solve path evaluates a pointwise fractional derivative.  The tempered
left/right derivatives of order alpha in (1, 2) (second-derivative,
Caputo-equivalent form by Lobatto-Jacobi quadrature; lam = 0 gives the plain
Riemann-Liouville ones, one routine for both sides), ``jacobi_gl`` and
``SmoothFn`` stay for two outside readers: ``perfbench/child.py`` wraps
``tempered_*_deriv``, ``jacobi_gl`` and ``gauss_jacobi`` by name, and the
test oracle ``riesz_apply``, the quadrature reference for the forcing,
calls ``tempered_*_deriv``.

All function arguments tagged SmoothFn must be numpy-vectorized callables;
the Caputo-equivalent forms are only valid for functions with u = u' = 0 at
the anchored endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn
from scipy.special import hyp1f1
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class QuadRule:
    """Nodes/weights for integrating against (1-x)^a_exp (1+x)^b_exp."""

    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SmoothFn:
    """Analytic function pack: value and first two derivatives."""

    value: Callable
    first_derivative: Callable
    second_derivative: Callable


def _freeze(x):
    x = np.ascontiguousarray(x, dtype=float)
    x.flags.writeable = False
    return x


def _check_exponents(a_exp, b_exp):
    if a_exp <= -1.0 or b_exp <= -1.0:
        raise ValueError("Jacobi weight exponents must exceed -1")


def gauss_jacobi(a_exp: float, b_exp: float, count: int) -> QuadRule:
    """Interior Gauss rule: ``count`` nodes, exact for degree <= 2*count - 1."""
    _check_exponents(a_exp, b_exp)
    if count < 1:
        raise ValueError("count must be >= 1")
    x, w = roots_jacobi(count, a_exp, b_exp)
    return QuadRule(_freeze(x), _freeze(w))


def jacobi_gl(a_exp: float, b_exp: float, order: int) -> QuadRule:
    """Gauss-Lobatto-Jacobi rule: order N gives N+1 nodes including +-1.

    Exact for polynomials of degree <= 2N-1 against the Jacobi weight.
    Interior nodes are the Gauss nodes of the (a_exp+1, b_exp+1) weight;
    endpoint weights are fixed by matching the zeroth and first moments.
    """
    _check_exponents(a_exp, b_exp)
    if order < 1:
        raise ValueError("order must be >= 1")
    # moments of the weight: m0 = int w, m1 = int x w
    m0 = 2.0 ** (a_exp + b_exp + 1) * beta_fn(a_exp + 1.0, b_exp + 1.0)
    m1 = 2.0 ** (a_exp + b_exp + 1) * (
        2.0 * beta_fn(b_exp + 2.0, a_exp + 1.0) - beta_fn(b_exp + 1.0, a_exp + 1.0)
    )
    if order == 1:
        nodes = np.array([-1.0, 1.0])
        weights = np.array([0.5 * (m0 - m1), 0.5 * (m0 + m1)])
    else:
        xi, lam = roots_jacobi(order - 1, a_exp + 1.0, b_exp + 1.0)
        wi = lam / (1.0 - xi**2)
        wl = 0.5 * (m0 - m1) - np.sum(lam / (2.0 * (1.0 + xi)))
        wr = 0.5 * (m0 + m1) - np.sum(lam / (2.0 * (1.0 - xi)))
        nodes = np.concatenate(([-1.0], xi, [1.0]))
        weights = np.concatenate(([wl], wi, [wr]))
    return QuadRule(_freeze(nodes), _freeze(weights))


def _check_alpha(alpha):
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")


def _as_points(x):
    """Normalize scalar-or-vector x; returns (array, was_scalar)."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return xs, scalar


def _tempered_deriv(u, alpha, lam, end, x, order, side):
    """One-sided tempered derivative anchored at end: left for side = 1,
    right for side = -1.

    e^{-side lam x} (1/Gamma(2-alpha)) int |x-xi|^(1-alpha) v''(xi) dxi over
    the interval between end and x, v = e^{side lam s} u, by the
    Lobatto-Jacobi rule mapped onto it.
    """
    _check_alpha(alpha)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    xs, scalar = _as_points(x)
    if np.any(side * (xs - end) <= 0):
        raise ValueError("evaluation points must satisfy x > a" if side > 0
                         else "evaluation points must satisfy x < b")
    rule = (jacobi_gl(1.0 - alpha, 0.0, order) if side > 0
            else jacobi_gl(0.0, 1.0 - alpha, order))
    half = 0.5 * side * (xs - end)
    xi = half[:, None] * rule.nodes[None, :] + (0.5 * (xs + end))[:, None]
    d2v = np.exp(side * lam * xi) * (u.second_derivative(xi)
                                     + 2.0 * side * lam * u.first_derivative(xi)
                                     + lam * lam * u.value(xi))
    core = half ** (2.0 - alpha) / gamma_fn(2.0 - alpha) * (d2v @ rule.weights)
    out = np.exp(-side * lam * xs) * core
    return float(out[0]) if scalar else out


def tempered_left_deriv(u: SmoothFn, alpha: float, lam: float, a: float, x,
                        order: int = 100):
    """Tempered left derivative: e^{-lam x} (left deriv of e^{lam s} u)."""
    return _tempered_deriv(u, alpha, lam, a, x, order, 1.0)


def tempered_right_deriv(u: SmoothFn, alpha: float, lam: float, b: float, x,
                         order: int = 100):
    """Tempered right derivative: e^{lam x} (right deriv of e^{-lam s} u)."""
    return _tempered_deriv(u, alpha, lam, b, x, order, -1.0)


def riesz_kappa(alpha: float) -> float:
    """Normalization -1/(2 cos(alpha pi / 2)); positive on (1, 2)."""
    _check_alpha(alpha)
    return -1.0 / (2.0 * np.cos(alpha * np.pi / 2.0))


@dataclass(frozen=True)
class SeparableForcing:
    """Forcing f(x, t) = time_factor(t) * space(x).

    The separable structure lets the time stepper integrate the space profile
    against the basis once and rescale per time level instead of re-evaluating
    an expensive source at every step.
    """

    space: Callable
    time_factor: Callable


def polynomial_bump(b_end: float) -> SmoothFn:
    """w(x) = x^2 (1 - x/b)^2 with derivatives; vanishes to first order at 0, b."""
    def w(x):
        return x**2 * (1.0 - x / b_end) ** 2

    def dw(x):
        return 2.0 * x * (1.0 - x / b_end) ** 2 - 2.0 * x**2 / b_end * (1.0 - x / b_end)

    def d2w(x):
        return (2.0 * (1.0 - x / b_end) ** 2
                - 8.0 * x / b_end * (1.0 - x / b_end)
                + 2.0 * x**2 / b_end**2)

    return SmoothFn(w, dw, d2w)


def example1_forcing(alpha: float, lam: float, b: float) -> SeparableForcing:
    """Manufactured source driving u(x,t) = e^{-t} w(x), w = x^2 (1 - x/b)^2.

    Assumes the domain (0, b) and the reaction coefficient
    sigma = 3 lam^alpha kappa; then f(x,t) = e^{-t} F(x) with
    F = -(w (1 - 3 lam^alpha kappa) + kappa (L(x) + L(b - x) - 2 lam^alpha w)),
    L the tempered left derivative of w anchored at 0 (the right one is
    L(b - x), w being symmetric about b/2).  With w = sum_k c_k x^k, k = 2..4,
    the tempered power rule (Sabzikar, Meerschaert & Chen, J. Comput. Phys.
    293, 2015) gives

        L(x) = sum_k c_k Gamma(k+1) / Gamma(k+1-alpha) x^(k-alpha)
               1F1(-alpha; k+1-alpha; -lam x),

    Kummer's transform of e^{-lam x} 1F1(k+1; k+1-alpha; lam x), whose
    factors overflow once lam x reaches a few hundred.

    Write M_q = 1F1(-alpha; q; z), z = -lam x.  At lam = 0 every M_q is 1.
    Otherwise only M_q at q = 2-alpha and 3-alpha are evaluated; the
    contiguous relation (DLMF 13.3.2)

        q (q-1) M_{q-1} + q (1-q-z) M_q + z (q+alpha) M_{q+1} = 0

    steps up to q = 4-alpha and 5-alpha, the two dearer evaluations.  Its
    division by z loses about eps/|z|^2 relative accuracy, so at |z| < 1
    (including x = 0, where z = 0) those two are evaluated directly.
    """
    _check_alpha(alpha)
    kap = riesz_kappa(alpha)
    temper = lam**alpha
    w = polynomial_bump(b)
    terms = [(c * gamma_fn(k + 1.0) / gamma_fn(k + 1.0 - alpha), k - alpha)
             for k, c in ((2, 1.0), (3, -2.0 / b), (4, 1.0 / b**2))]

    def kummer(z):
        """M_q(z) for q = 3-alpha, 4-alpha, 5-alpha."""
        if lam == 0.0:
            return [1.0, 1.0, 1.0]
        m = [hyp1f1(-alpha, 2.0 - alpha, z), hyp1f1(-alpha, 3.0 - alpha, z)]
        near = np.abs(z) < 1.0
        far = ~near
        zf = z[far]
        for q in (3.0 - alpha, 4.0 - alpha):
            up = np.empty_like(z)
            up[far] = -(q * (q - 1.0) * m[-2][far]
                        + q * (1.0 - q - zf) * m[-1][far]) / (zf * (q + alpha))
            up[near] = hyp1f1(-alpha, q + 1.0, z[near])
            m.append(up)
        return m[1:]

    def left(x):
        return sum(c * x**p * m for (c, p), m in zip(terms, kummer(-lam * x)))

    def space(x):
        xs, scalar = _as_points(x)
        wx = w.value(xs)
        out = -(wx * (1.0 - 3.0 * temper * kap)
                + kap * (left(xs) + left(b - xs) - 2.0 * temper * wx))
        return float(out[0]) if scalar else out

    return SeparableForcing(space, lambda t: np.exp(-t))
