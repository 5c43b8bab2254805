"""Jacobi quadrature rules and pointwise tempered fractional calculus."""

import dataclasses
import importlib
import pkgutil

import mpmath
import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

import tempermg
from tempermg import assembly, fracquad

import oracles


def power_fn(p, a=0.0, sign=1.0):
    """(sign * (x - a))**p as a SmoothFn; sign=-1 gives (a - x)**p."""
    return fracquad.SmoothFn(
        value=lambda x: (sign * (np.asarray(x) - a)) ** p,
        first_derivative=lambda x: sign * p * (sign * (np.asarray(x) - a)) ** (p - 1),
        second_derivative=lambda x: p * (p - 1) * (sign * (np.asarray(x) - a)) ** (p - 2),
    )


# ---------------------------------------------------------------------------
# quadrature rules


def test_lobatto_legendre_three_point():
    rule = fracquad.jacobi_gl(0.0, 0.0, 2)
    np.testing.assert_allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-14)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_lobatto_weight_sum_matches_singular_moment(alpha):
    rule = fracquad.jacobi_gl(1.0 - alpha, 0.0, 100)
    moment = 2.0 ** (2.0 - alpha) / (2.0 - alpha)
    assert np.sum(rule.weights) == pytest.approx(moment, rel=1e-12)


def test_lobatto_high_degree_polynomial_exactness():
    # order-100 rule (101 nodes) integrates x^197 against (1 - x)^0.3 exactly
    rule = fracquad.jacobi_gl(0.3, 0.0, 100)
    got = np.sum(rule.weights * rule.nodes**197)
    with mpmath.workdps(60):
        ref = mpmath.quad(
            lambda t: (1 - 2 * t) ** 197 * (2 * t) ** mpmath.mpf(0.3) * 2,
            [0, 0.5, 1],
        )
    assert got == pytest.approx(float(ref), rel=1e-10)


def test_gauss_midpoint_rule():
    rule = fracquad.gauss_jacobi(0.0, 0.0, 1)
    np.testing.assert_allclose(rule.nodes, [0.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [2.0], rtol=1e-15)


def test_gauss_two_point_rule():
    rule = fracquad.gauss_jacobi(0.0, 0.0, 2)
    np.testing.assert_allclose(rule.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                               rtol=1e-14)
    np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)


@pytest.mark.parametrize("a_exp,b_exp", [
    (0.0, 0.0), (-0.5, 0.0), (0.0, -0.9), (0.3, -0.6), (1.0, 2.0),
])
def test_rule_invariants(a_exp, b_exp):
    moment = 2.0 ** (a_exp + b_exp + 1.0) * beta_fn(a_exp + 1.0, b_exp + 1.0)
    for rule in (fracquad.gauss_jacobi(a_exp, b_exp, 12),
                 fracquad.jacobi_gl(a_exp, b_exp, 12)):
        assert np.sum(rule.weights) == pytest.approx(moment, rel=1e-12)
        assert np.all(rule.weights > 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all((rule.nodes >= -1.0) & (rule.nodes <= 1.0))


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 9])
def test_exactness_against_binomial_beta_moments(k):
    # expand x^k in powers of (1+x); each term is a shifted Beta moment
    a_exp, b_exp = 0.3, -0.4
    ref = sum(
        mpmath.binomial(k, j) * (-1.0) ** (k - j)
        * 2.0 ** (a_exp + b_exp + j + 1.0) * beta_fn(a_exp + 1.0, b_exp + j + 1.0)
        for j in range(k + 1)
    )
    gauss = fracquad.gauss_jacobi(a_exp, b_exp, 5)      # exact to degree 9
    lob = fracquad.jacobi_gl(a_exp, b_exp, 5)           # exact to degree 9
    assert np.sum(gauss.weights * gauss.nodes**k) == pytest.approx(
        float(ref), rel=1e-12)
    assert np.sum(lob.weights * lob.nodes**k) == pytest.approx(
        float(ref), rel=1e-12)


def test_no_mutable_module_state():
    # shared rules and tables are read-only constants; nothing a module holds
    # can change between calls or threads
    for info in pkgutil.iter_modules(tempermg.__path__):
        module = importlib.import_module(f"tempermg.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            where = f"tempermg.{info.name}.{name}"
            assert not isinstance(value, (dict, list, set, bytearray)), where
            arrays = [value]
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                arrays = [getattr(value, f.name)
                          for f in dataclasses.fields(value)]
            for array in arrays:
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable, where


def test_rule_validation():
    with pytest.raises(ValueError):
        fracquad.gauss_jacobi(-1.0, 0.0, 4)
    with pytest.raises(ValueError):
        fracquad.jacobi_gl(0.0, -1.5, 4)
    with pytest.raises(ValueError):
        fracquad.gauss_jacobi(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        fracquad.jacobi_gl(0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# one-sided derivatives: power rules and reflections


@pytest.mark.parametrize("alpha", [1.25, 1.75])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_left_power_rule(alpha, p):
    a = 0.5
    x = np.array([0.75, 1.3, 2.9])
    got = fracquad.rl_left_deriv(power_fn(p, a), alpha, a, x)
    ref = gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - alpha) * (x - a) ** (p - alpha)
    np.testing.assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("alpha", [1.25, 1.75])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_right_power_rule(alpha, p):
    b = 2.0
    x = np.array([0.1, 0.9, 1.7])
    got = fracquad.rl_right_deriv(power_fn(p, b, sign=-1.0), alpha, b, x)
    ref = gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - alpha) * (b - x) ** (p - alpha)
    np.testing.assert_allclose(got, ref, rtol=1e-8)


def test_quadratic_half_order_closed_form():
    # u = (x - a)^2, alpha = 3/2: derivative is 2 sqrt(x - a) / Gamma(3/2)
    a = 1.0
    x = 1.81
    got = fracquad.rl_left_deriv(power_fn(2, a), 1.5, a, x)
    assert got == pytest.approx(2.0 * np.sqrt(x - a) / gamma_fn(1.5), rel=1e-10)


def test_left_derivative_vanishes_toward_anchor():
    got = fracquad.rl_left_deriv(power_fn(2, 0.0), 1.5, 0.0, 1e-12)
    assert abs(got) < 1e-5


def test_reflection_maps_left_to_right():
    # asymmetric profile so the reflection identity is non-trivial
    a, b = 0.0, 3.0
    v = fracquad.SmoothFn(
        value=lambda x: x**2 * (b - x) ** 3,
        first_derivative=lambda x: 2 * x * (b - x) ** 3 - 3 * x**2 * (b - x) ** 2,
        second_derivative=lambda x: (2 * (b - x) ** 3 - 12 * x * (b - x) ** 2
                                     + 6 * x**2 * (b - x)),
    )
    v_ref = fracquad.SmoothFn(
        value=lambda x: v.value(a + b - x),
        first_derivative=lambda x: -v.first_derivative(a + b - x),
        second_derivative=lambda x: v.second_derivative(a + b - x),
    )
    x = np.array([0.4, 1.1, 2.2])
    right = fracquad.rl_right_deriv(v, 1.6, b, x)
    left_of_reflection = fracquad.rl_left_deriv(v_ref, 1.6, a, a + b - x)
    np.testing.assert_allclose(right, left_of_reflection, rtol=1e-10)


def test_derivative_is_linear():
    a, alpha = 0.0, 1.4
    x = np.array([0.5, 1.5])
    u2, u3 = power_fn(2), power_fn(3)
    combo = fracquad.SmoothFn(
        value=lambda x: 2.0 * u2.value(x) - 0.5 * u3.value(x),
        first_derivative=lambda x: (2.0 * u2.first_derivative(x)
                                    - 0.5 * u3.first_derivative(x)),
        second_derivative=lambda x: (2.0 * u2.second_derivative(x)
                                     - 0.5 * u3.second_derivative(x)),
    )
    got = fracquad.rl_left_deriv(combo, alpha, a, x)
    ref = (2.0 * fracquad.rl_left_deriv(u2, alpha, a, x)
           - 0.5 * fracquad.rl_left_deriv(u3, alpha, a, x))
    np.testing.assert_allclose(got, ref, rtol=1e-12)


# ---------------------------------------------------------------------------
# tempered variants


@pytest.mark.parametrize("alpha", [1.1, 1.8])
def test_tempered_reduces_to_plain_at_zero_tempering(alpha):
    u = fracquad.polynomial_bump(2.0)
    x = np.array([0.3, 1.2, 1.9])
    np.testing.assert_allclose(
        fracquad.tempered_left_deriv(u, alpha, 0.0, 0.0, x),
        fracquad.rl_left_deriv(u, alpha, 0.0, x), rtol=1e-12)
    np.testing.assert_allclose(
        fracquad.tempered_right_deriv(u, alpha, 0.0, 2.0, x),
        fracquad.rl_right_deriv(u, alpha, 2.0, x), rtol=1e-12)


@pytest.mark.parametrize("alpha", [1.1, 1.8])
def test_tempered_left_matches_adaptive_reference(alpha):
    b, lam = 32.0, 0.5
    u = fracquad.polynomial_bump(b)
    for x in (1.7, 11.0, 29.3):
        got = fracquad.tempered_left_deriv(u, alpha, lam, 0.0, x)
        ref = oracles.tempered_left_deriv_ref(u, alpha, lam, 0.0, x)
        assert got == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("alpha", [1.1, 1.8])
def test_tempered_right_matches_adaptive_reference(alpha):
    b, lam = 32.0, 0.5
    u = fracquad.polynomial_bump(b)
    for x in (2.5, 16.0, 30.6):
        got = fracquad.tempered_right_deriv(u, alpha, lam, b, x)
        ref = oracles.tempered_right_deriv_ref(u, alpha, lam, b, x)
        assert got == pytest.approx(ref, rel=1e-8)


def test_high_order_consistent_with_low_order_of_drift():
    # D^alpha u == D^(alpha-1) (u' + lam u) for u vanishing at the anchor
    alpha, lam, b = 1.7, 0.8, 2.0
    u = fracquad.polynomial_bump(b)
    drift = fracquad.SmoothFn(
        value=lambda x: u.first_derivative(x) + lam * u.value(x),
        first_derivative=lambda x: u.second_derivative(x) + lam * u.first_derivative(x),
        second_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    x = np.array([0.4, 1.0, 1.8])
    high = fracquad.tempered_left_deriv(u, alpha, lam, 0.0, x)
    low = fracquad.tempered_left_deriv_low(drift, alpha - 1.0, lam, 0.0, x)
    np.testing.assert_allclose(high, low, rtol=1e-8)


@pytest.mark.parametrize("nu", [0.3, 0.75])
@pytest.mark.parametrize("p", [2, 3])
def test_low_order_power_rule(nu, p):
    x = np.array([0.6, 1.9])
    left = fracquad.tempered_left_deriv_low(power_fn(p), nu, 0.0, 0.0, x)
    ref = gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - nu) * x ** (p - nu)
    np.testing.assert_allclose(left, ref, rtol=1e-8)
    b = 2.5
    right = fracquad.tempered_right_deriv_low(power_fn(p, b, sign=-1.0),
                                              nu, 0.0, b, x)
    np.testing.assert_allclose(
        right, gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - nu) * (b - x) ** (p - nu),
        rtol=1e-8)


def test_low_order_unit_exponent_is_drift():
    lam, b = 0.9, 2.0
    u = fracquad.polynomial_bump(b)
    x = np.array([0.25, 1.5])
    np.testing.assert_allclose(
        fracquad.tempered_left_deriv_low(u, 1.0, lam, 0.0, x),
        u.first_derivative(x) + lam * u.value(x), rtol=1e-13)
    np.testing.assert_allclose(
        fracquad.tempered_right_deriv_low(u, 1.0, lam, b, x),
        -u.first_derivative(x) + lam * u.value(x), rtol=1e-13)


def test_low_order_is_zero_outside_accumulation_range():
    u = fracquad.polynomial_bump(1.0)
    assert fracquad.tempered_left_deriv_low(u, 0.5, 0.3, 0.0, -2.0) == 0.0
    assert fracquad.tempered_right_deriv_low(u, 0.5, 0.3, 1.0, 4.0) == 0.0


# ---------------------------------------------------------------------------
# tempered integral and the inversion identity


def test_integral_of_one_power_law():
    nu, a = 0.6, 0.5
    x = np.array([0.9, 2.0])
    got = oracles.tempered_left_integral(lambda s: np.ones_like(s), nu, 0.0, a, x)
    np.testing.assert_allclose(got, (x - a) ** nu / gamma_fn(nu + 1.0), rtol=1e-12)


def test_integral_unit_order_tempered():
    lam, a = 1.3, 0.0
    x = np.array([0.5, 2.5])
    got = oracles.tempered_left_integral(lambda s: np.ones_like(s), 1.0, lam, a, x)
    np.testing.assert_allclose(got, (1.0 - np.exp(-lam * x)) / lam, rtol=1e-10)


def test_integral_inverts_derivative():
    nu, lam, a = 0.6, 0.7, 0.0
    u = fracquad.polynomial_bump(1.0)

    def deriv(s):
        return fracquad.tempered_left_deriv_low(u, nu, lam, a, s)

    for x in (0.3, 0.8):
        got = oracles.tempered_left_integral(deriv, nu, lam, a, x)
        assert got == pytest.approx(u.value(x), rel=1e-6)


# ---------------------------------------------------------------------------
# symmetric two-sided operator


def test_kappa_values():
    assert fracquad.riesz_kappa(1.5) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
    for alpha in (1.05, 1.4, 1.95):
        assert fracquad.riesz_kappa(alpha) > 0.0


def test_riesz_reduces_to_plain_sum_at_zero_tempering():
    alpha, b = 1.3, 2.0
    u = fracquad.polynomial_bump(b)
    x = np.array([0.5, 1.0, 1.5])
    got = oracles.riesz_apply(u, alpha, 0.0, 0.0, b, x)
    kap = fracquad.riesz_kappa(alpha)
    ref = kap * (fracquad.rl_left_deriv(u, alpha, 0.0, x)
                 + fracquad.rl_right_deriv(u, alpha, b, x))
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_riesz_respects_even_symmetry():
    alpha, lam, b = 1.7, 0.4, 2.0
    u = fracquad.polynomial_bump(b)  # symmetric about b/2
    x = np.array([0.3, 0.8])
    fwd = oracles.riesz_apply(u, alpha, lam, 0.0, b, x)
    bwd = oracles.riesz_apply(u, alpha, lam, 0.0, b, b - x)
    np.testing.assert_allclose(fwd, bwd, rtol=1e-10)


# ---------------------------------------------------------------------------
# manufactured forcing


def test_forcing_time_factorization():
    f = fracquad.example1_forcing(1.5, 0.5, 32.0)
    x = np.array([3.0, 17.0])
    np.testing.assert_allclose(f(x, 0.7), np.exp(-0.7) * f.space(x), rtol=1e-14)
    np.testing.assert_allclose(f(x, 0.0), f.space(x), rtol=1e-14)


@pytest.mark.parametrize("alpha", [1.1, 1.8])
def test_forcing_satisfies_evolution_residual(alpha):
    # u(x,t) = e^-t w(x) must satisfy u_t = (two-sided op)u - sigma u + f
    # with sigma = 3 lam^alpha kappa; references computed adaptively.
    lam, b, t = 0.5, 32.0, 0.35
    kap = fracquad.riesz_kappa(alpha)
    sigma = 3.0 * lam**alpha * kap
    w = fracquad.polynomial_bump(b)
    f = fracquad.example1_forcing(alpha, lam, b)
    for x in (1.3, 16.0, 28.5):
        op_u = kap * (oracles.tempered_left_deriv_ref(w, alpha, lam, 0.0, x)
                      + oracles.tempered_right_deriv_ref(w, alpha, lam, b, x)
                      - 2.0 * lam**alpha * w.value(x))
        residual = np.exp(-t) * (-w.value(x) - op_u + sigma * w.value(x))
        assert f(x, t) == pytest.approx(residual, rel=1e-10)


def _forcing_points(b):
    # the ends, where F is a small difference of large terms, and the bulk
    ends = np.array([1e-8, 1e-4, 0.01, 0.3])
    return np.concatenate((ends, np.linspace(0.5, b - 0.5, 41), b - ends[::-1]))


@pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_closed_form_forcing_matches_pointwise_quadrature(alpha, lam):
    # the tempered power rule against 101-node Lobatto-Jacobi quadrature of
    # both one-sided derivatives; relative to the profile's largest value,
    # since F crosses zero near the ends
    b = 32.0
    x = _forcing_points(b)
    kap = fracquad.riesz_kappa(alpha)
    w = fracquad.polynomial_bump(b)
    ref = -(w.value(x) * (1.0 - 3.0 * lam**alpha * kap)
            + oracles.riesz_apply(w, alpha, lam, 0.0, b, x))
    got = fracquad.example1_forcing(alpha, lam, b).space(x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_closed_form_forcing_matches_mpmath_at_strong_tempering(alpha):
    # lam x reaches 512, where e^{-lam x} 1F1(k+1; .; lam x) overflows in
    # double precision and the Kummer-transformed form must carry it
    lam, b = 16.0, 32.0
    x = _forcing_points(b)[::3]
    ref = np.array([oracles.example1_space_mp(alpha, lam, b, xi) for xi in x])
    got = fracquad.example1_forcing(alpha, lam, b).space(x)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.05])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_closed_form_forcing_matches_mpmath_at_weak_tempering(alpha, lam):
    # lam x < 1 over much or all of the domain, where stepping the Kummer
    # function up in its second parameter would divide by a small lam x
    b = 32.0
    x = _forcing_points(b)[::3]
    ref = np.array([oracles.example1_space_mp(alpha, lam, b, xi) for xi in x])
    got = fracquad.example1_forcing(alpha, lam, b).space(x)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [0.0, 0.5, 16.0])
def test_forcing_is_finite_at_the_ends_and_keeps_scalars(lam):
    b = 32.0
    space = fracquad.example1_forcing(1.8, lam, b).space
    assert np.all(np.isfinite(space(np.array([0.0, b]))))
    value = space(0.3)
    assert isinstance(value, float)
    assert value == space(np.array([0.3]))[0]


def test_forcing_kummer_calls_on_load_points(monkeypatch):
    # two full-size 1F1 evaluations per side, plus the two dearer ones only
    # where |lam x| < 1; none at all without tempering
    sizes = []
    kummer = fracquad.hyp1f1

    def counting(a, q, z):
        sizes.append(np.size(z))
        return kummer(a, q, z)

    monkeypatch.setattr(fracquad, "hyp1f1", counting)
    b, lam = 32.0, 0.5
    mesh = assembly.Mesh(0.0, b, 1024)
    x = []
    assembly.profile_load(mesh, lambda xs: x.append(xs) or np.ones_like(xs))
    n = x[0].size
    near_left = int(np.count_nonzero(lam * x[0] < 1.0))
    near_right = int(np.count_nonzero(lam * (b - x[0]) < 1.0))
    assert 0 < near_left < n // 8 and 0 < near_right < n // 8
    assembly.profile_load(mesh, fracquad.example1_forcing(1.8, lam, b).space)
    assert sizes == [n, n, near_left, near_left, n, n, near_right, near_right]
    sizes.clear()
    assembly.profile_load(mesh, fracquad.example1_forcing(1.1, 0.0, b).space)
    assert sizes == []


def test_bump_derivatives_match_finite_differences():
    u = fracquad.polynomial_bump(2.0)
    xs = np.array([0.3, 0.9, 1.6])
    eps = 1e-5
    fd1 = (u.value(xs + eps) - u.value(xs - eps)) / (2 * eps)
    fd2 = (u.value(xs + eps) - 2 * u.value(xs) + u.value(xs - eps)) / eps**2
    np.testing.assert_allclose(u.first_derivative(xs), fd1, rtol=1e-6)
    np.testing.assert_allclose(u.second_derivative(xs), fd2, rtol=1e-4)


def test_argument_validation():
    u = fracquad.polynomial_bump(1.0)
    with pytest.raises(ValueError):
        fracquad.rl_left_deriv(u, 2.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        fracquad.rl_left_deriv(u, 1.5, 0.0, -0.1)
    with pytest.raises(ValueError):
        fracquad.rl_right_deriv(u, 1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        fracquad.tempered_left_deriv(u, 1.5, -0.2, 0.0, 0.5)
    with pytest.raises(ValueError):
        fracquad.tempered_left_deriv_low(u, 1.5, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        oracles.tempered_left_integral(u.value, -0.5, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        oracles.riesz_apply(u, 1.5, 0.0, 0.0, 1.0, 1.0)
