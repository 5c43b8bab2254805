"""Gauss-Jacobi quadrature and pointwise tempered fractional calculus.

Quadrature rules target the weight (1-x)^a_exp (1+x)^b_exp on [-1, 1]; the
Lobatto variant pins both endpoints.  On top of them sit pointwise evaluators
for left/right Riemann-Liouville derivatives of order alpha in (1,2) in their
second-derivative (Caputo-equivalent) form, their exponentially tempered
versions and the low-order (0, 1] tempered derivatives.  The manufactured
forcing of the first benchmark problem needs none of them: it is the
tempered power rule in closed form, one Kummer function per monomial.

All function arguments tagged SmoothFn must be numpy-vectorized callables and
satisfy the vanishing boundary conditions stated per operation; the
Caputo-equivalent forms are only valid for functions with u = u' = 0 at the
anchored endpoint.
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
    a_exp: float
    b_exp: float


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


# Rules are immutable; load vectors (every step for a non-separable forcing),
# the error functional, the stiffness symbol and the pointwise derivatives
# request the same handful of (exponent, order) combinations over and over.
_RULE_CACHE: dict = {}


def gauss_jacobi(a_exp: float, b_exp: float, count: int) -> QuadRule:
    """Interior Gauss rule: ``count`` nodes, exact for degree <= 2*count - 1."""
    _check_exponents(a_exp, b_exp)
    if count < 1:
        raise ValueError("count must be >= 1")
    key = ("gauss", float(a_exp), float(b_exp), int(count))
    hit = _RULE_CACHE.get(key)
    if hit is not None:
        return hit
    x, w = roots_jacobi(count, a_exp, b_exp)
    rule = QuadRule(_freeze(x), _freeze(w), float(a_exp), float(b_exp))
    _RULE_CACHE[key] = rule
    return rule


def jacobi_gl(a_exp: float, b_exp: float, order: int) -> QuadRule:
    """Gauss-Lobatto-Jacobi rule: order N gives N+1 nodes including +-1.

    Exact for polynomials of degree <= 2N-1 against the Jacobi weight.
    Interior nodes are the Gauss nodes of the (a_exp+1, b_exp+1) weight;
    endpoint weights are fixed by matching the zeroth and first moments.
    """
    _check_exponents(a_exp, b_exp)
    if order < 1:
        raise ValueError("order must be >= 1")
    key = ("lobatto", float(a_exp), float(b_exp), int(order))
    hit = _RULE_CACHE.get(key)
    if hit is not None:
        return hit
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
    rule = QuadRule(_freeze(nodes), _freeze(weights), float(a_exp), float(b_exp))
    _RULE_CACHE[key] = rule
    return rule


def _check_alpha(alpha):
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")


def _as_points(x):
    """Normalize scalar-or-vector x; returns (array, was_scalar)."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return xs, scalar


def _left_caputo2(d2v, alpha, a, x, order):
    """(1/Gamma(2-alpha)) int_a^x (x-xi)^(1-alpha) v''(xi) dxi, mapped rule."""
    rule = jacobi_gl(1.0 - alpha, 0.0, order)
    xs, scalar = _as_points(x)
    if np.any(xs <= a):
        raise ValueError("evaluation points must satisfy x > a")
    half = 0.5 * (xs - a)
    xi = half[:, None] * rule.nodes[None, :] + (0.5 * (xs + a))[:, None]
    acc = d2v(xi) @ rule.weights
    out = half ** (2.0 - alpha) / gamma_fn(2.0 - alpha) * acc
    return float(out[0]) if scalar else out


def _right_caputo2(d2v, alpha, b, x, order):
    """(1/Gamma(2-alpha)) int_x^b (xi-x)^(1-alpha) v''(xi) dxi, mapped rule."""
    rule = jacobi_gl(0.0, 1.0 - alpha, order)
    xs, scalar = _as_points(x)
    if np.any(xs >= b):
        raise ValueError("evaluation points must satisfy x < b")
    half = 0.5 * (b - xs)
    xi = half[:, None] * rule.nodes[None, :] + (0.5 * (b + xs))[:, None]
    acc = d2v(xi) @ rule.weights
    out = half ** (2.0 - alpha) / gamma_fn(2.0 - alpha) * acc
    return float(out[0]) if scalar else out


def rl_left_deriv(u: SmoothFn, alpha: float, a: float, x, order: int = 100):
    """Left fractional derivative of order alpha in (1,2), anchored at a.

    Uses the second-derivative form, valid when u(a) = u'(a) = 0.
    """
    _check_alpha(alpha)
    return _left_caputo2(u.second_derivative, alpha, a, x, order)


def rl_right_deriv(u: SmoothFn, alpha: float, b: float, x, order: int = 100):
    """Right fractional derivative of order alpha in (1,2), anchored at b."""
    _check_alpha(alpha)
    return _right_caputo2(u.second_derivative, alpha, b, x, order)


def tempered_left_deriv(u: SmoothFn, alpha: float, lam: float, a: float, x,
                        order: int = 100):
    """Tempered left derivative: e^{-lam x} (left deriv of e^{lam s} u)."""
    _check_alpha(alpha)
    if lam < 0:
        raise ValueError("lam must be >= 0")

    def d2v(s):
        return np.exp(lam * s) * (
            u.second_derivative(s)
            + 2.0 * lam * u.first_derivative(s)
            + lam * lam * u.value(s)
        )

    core = _left_caputo2(d2v, alpha, a, x, order)
    return np.exp(-lam * np.asarray(x, dtype=float)) * core if np.ndim(x) \
        else float(np.exp(-lam * x) * core)


def tempered_right_deriv(u: SmoothFn, alpha: float, lam: float, b: float, x,
                         order: int = 100):
    """Tempered right derivative: e^{lam x} (right deriv of e^{-lam s} u)."""
    _check_alpha(alpha)
    if lam < 0:
        raise ValueError("lam must be >= 0")

    def d2v(s):
        return np.exp(-lam * s) * (
            u.second_derivative(s)
            - 2.0 * lam * u.first_derivative(s)
            + lam * lam * u.value(s)
        )

    core = _right_caputo2(d2v, alpha, b, x, order)
    return np.exp(lam * np.asarray(x, dtype=float)) * core if np.ndim(x) \
        else float(np.exp(lam * x) * core)


def tempered_left_deriv_low(u: SmoothFn, nu: float, lam: float, a: float, x,
                            order: int = 100):
    """Tempered left derivative of LOW order nu in (0, 1].

    First-derivative form over (u' + lam u), valid for u(a) = 0.  Points with
    x <= a return 0 (nothing accumulated yet), which makes the function
    directly samplable on grids that extend left of the support.
    """
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    xs, scalar = _as_points(x)
    if nu == 1.0:
        out = np.where(xs > a, u.first_derivative(xs) + lam * u.value(xs), 0.0)
        return float(out[0]) if scalar else out
    rule = gauss_jacobi(-nu, 0.0, order)  # weight (1-z)^(-nu): singular end z=1 <-> xi=x
    out = np.zeros_like(xs)
    act = xs > a
    if act.any():
        xa = xs[act]
        half = 0.5 * (xa - a)
        dist = half[:, None] * (1.0 - rule.nodes[None, :])  # x - xi >= 0
        xi = xa[:, None] - dist
        vals = (u.first_derivative(xi) + lam * u.value(xi)) * np.exp(-lam * dist)
        out[act] = half ** (1.0 - nu) / gamma_fn(1.0 - nu) * (vals @ rule.weights)
    return float(out[0]) if scalar else out


def tempered_right_deriv_low(u: SmoothFn, nu: float, lam: float, b: float, x,
                             order: int = 100):
    """Mirror of tempered_left_deriv_low: order nu in (0,1], anchored at b."""
    if not 0.0 < nu <= 1.0:
        raise ValueError("nu must lie in (0, 1]")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    xs, scalar = _as_points(x)
    if nu == 1.0:
        out = np.where(xs < b, -u.first_derivative(xs) + lam * u.value(xs), 0.0)
        return float(out[0]) if scalar else out
    rule = gauss_jacobi(0.0, -nu, order)  # weight (1+z)^(-nu): singular end z=-1 <-> xi=x
    out = np.zeros_like(xs)
    act = xs < b
    if act.any():
        xa = xs[act]
        half = 0.5 * (b - xa)
        dist = half[:, None] * (1.0 + rule.nodes[None, :])  # xi - x >= 0
        xi = xa[:, None] + dist
        vals = (lam * u.value(xi) - u.first_derivative(xi)) * np.exp(-lam * dist)
        out[act] = half ** (1.0 - nu) / gamma_fn(1.0 - nu) * (vals @ rule.weights)
    return float(out[0]) if scalar else out


def riesz_kappa(alpha: float) -> float:
    """Normalization -1/(2 cos(alpha pi / 2)); positive on (1, 2)."""
    _check_alpha(alpha)
    return -1.0 / (2.0 * np.cos(alpha * np.pi / 2.0))


class SeparableForcing:
    """Forcing f(x, t) = time_factor(t) * space(x).

    The separable structure lets the time stepper integrate the space profile
    against the basis once and rescale per time level instead of re-evaluating
    an expensive source at every step.
    """

    def __init__(self, space: Callable, time_factor: Callable):
        self.space = space
        self.time_factor = time_factor

    def __call__(self, x, t):
        return self.time_factor(t) * self.space(x)


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


def example1_forcing(alpha: float, lam: float, a: float,
                     b: float) -> SeparableForcing:
    """Manufactured source driving u(x,t) = e^{-t} w(x), w = x^2 (1 - x/b)^2.

    Assumes the domain starts at 0 and the reaction coefficient
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
    """
    _check_alpha(alpha)
    if a != 0.0:
        raise ValueError("closed-form source requires the domain to start at 0")
    kap = riesz_kappa(alpha)
    temper = lam**alpha
    w = polynomial_bump(b)
    terms = [(c * gamma_fn(k + 1.0) / gamma_fn(k + 1.0 - alpha), k - alpha,
              k + 1.0 - alpha)
             for k, c in ((2, 1.0), (3, -2.0 / b), (4, 1.0 / b**2))]

    def left(x):
        return sum(c * x**p * hyp1f1(-alpha, q, -lam * x) for c, p, q in terms)

    def space(x):
        x = np.asarray(x, dtype=float)
        wx = w.value(x)
        return -(wx * (1.0 - 3.0 * temper * kap)
                 + kap * (left(x) + left(b - x) - 2.0 * temper * wx))

    return SeparableForcing(space, lambda t: np.exp(-t))
