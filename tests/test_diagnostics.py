"""Norm family, coercivity margins, Fourier-symbol and structure sweeps."""

import numpy as np
import pytest

from tempermg import assembly, diagnostics, fracquad, multigrid
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.toeplitz import structure_report


@pytest.fixture(scope="module")
def level():
    prob = ProblemSpec(1.5, 0.5, 0.3, 0.0, 1.6, 1.0)
    return assembly.assemble_level(prob, Mesh(0.0, 1.6, 8), 0.5)


# ---------------------------------------------------------------------------
# discrete norms


def test_mesh_norm_zeroth_is_weighted_euclidean(level):
    assert diagnostics.mesh_norm(level, np.ones(4), 0) == pytest.approx(
        np.sqrt(0.8), rel=1e-14)


def test_mesh_norm_definitions(level):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(7)
    h = level.mesh.h
    av = level.apply(v)
    assert diagnostics.mesh_norm(level, v, 0) == pytest.approx(
        np.sqrt(h * v @ v), rel=1e-14)
    assert diagnostics.mesh_norm(level, v, 1) == pytest.approx(
        np.sqrt(h * v @ av), rel=1e-14)
    assert diagnostics.mesh_norm(level, v, 2) == pytest.approx(
        np.sqrt(h * av @ av), rel=1e-14)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_mesh_norm_is_a_norm(level, s):
    rng = np.random.default_rng(s)
    v, w = rng.standard_normal(7), rng.standard_normal(7)
    nv = diagnostics.mesh_norm(level, v, s)
    nw = diagnostics.mesh_norm(level, w, s)
    assert nv > 0.0
    assert diagnostics.mesh_norm(level, 2.5 * v, s) == pytest.approx(2.5 * nv,
                                                                     rel=1e-13)
    assert diagnostics.mesh_norm(level, v + w, s) <= nv + nw + 1e-13


def test_mesh_norm_interpolation_inequality(level):
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(7)
        mid = diagnostics.mesh_norm(level, v, 1) ** 2
        ends = (diagnostics.mesh_norm(level, v, 0)
                * diagnostics.mesh_norm(level, v, 2))
        assert mid <= ends * (1.0 + 1e-12)


@pytest.mark.parametrize("theta", [0, 1])
def test_operator_pairing_cauchy_schwarz(level, theta):
    rng = np.random.default_rng(10 + theta)
    h = level.mesh.h
    for _ in range(20):
        v, w = rng.standard_normal(7), rng.standard_normal(7)
        pairing = abs(h * (v @ level.apply(w)))
        bound = (diagnostics.mesh_norm(level, v, 1 + theta)
                 * diagnostics.mesh_norm(level, w, 1 - theta))
        assert pairing <= bound * (1.0 + 1e-12)


def test_mesh_norm_invalid_exponent(level):
    with pytest.raises(ValueError):
        diagnostics.mesh_norm(level, np.ones(7), 3)


# ---------------------------------------------------------------------------
# coercivity


def test_coercivity_constant_pinned_value():
    kap = fracquad.riesz_kappa(1.5)
    assert diagnostics.coercivity_constant(1.5, 1.0, 3.0 * kap) == pytest.approx(
        0.5, rel=1e-12)


def test_coercivity_constant_none_without_tempering_or_reaction():
    assert diagnostics.coercivity_constant(1.5, 0.0, 1.0) is None
    assert diagnostics.coercivity_constant(1.5, 1.0, 0.0) is None


def test_coercivity_constant_monotone_in_reaction():
    vals = [diagnostics.coercivity_constant(1.5, 1.0, s) for s in (0.1, 0.5, 5.0)]
    assert vals[0] < vals[1] <= vals[2]
    # large sigma saturates at the derivative-pair term
    assert diagnostics.coercivity_constant(1.5, 1.0, 100.0) == pytest.approx(
        diagnostics.coercivity_constant(1.5, 1.0, 1000.0))


def test_coercivity_constant_validation():
    with pytest.raises(ValueError):
        diagnostics.coercivity_constant(2.5, 1.0, 1.0)


def test_discrete_coercivity_margin_nonnegative():
    prob = assembly.make_example1(1.5, 1.0)  # sigma = 3 kappa: C0 = 1/2
    lvl = assembly.assemble_level(prob, Mesh(0.0, 32.0, 64), 1.0)
    margin = diagnostics.check_discrete_coercivity(lvl, prob)
    assert margin >= -1e-12
    assert margin > 0.0


def test_discrete_coercivity_psd_fallback():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    lvl = assembly.assemble_level(prob, Mesh(0.0, 1.0, 32), 1.0)
    assert diagnostics.check_discrete_coercivity(lvl, prob) > 0.0


def test_discrete_coercivity_validation(level):
    prob = ProblemSpec(1.5, 0.5, 0.3, 0.0, 1.6, 1.0)
    with pytest.raises(ValueError):
        diagnostics.check_discrete_coercivity(level, prob, trials=0)


# ---------------------------------------------------------------------------
# window profile for the symbol check


def test_windowed_bump_support_and_peak():
    u = diagnostics.windowed_bump(0.0, 1.0)
    assert u.value(0.5) == pytest.approx(1.0)
    for x in (-0.5, 0.0, 1.0, 2.0):
        assert u.value(x) == 0.0
        assert u.first_derivative(x) == 0.0
        assert u.second_derivative(x) == 0.0


def test_windowed_bump_derivatives_match_finite_differences():
    u = diagnostics.windowed_bump(0.2, 1.7)
    xs = np.array([0.4, 0.95, 1.5])
    eps = 1e-5
    fd1 = (u.value(xs + eps) - u.value(xs - eps)) / (2 * eps)
    fd2 = (u.value(xs + eps) - 2 * u.value(xs) + u.value(xs - eps)) / eps**2
    np.testing.assert_allclose(u.first_derivative(xs), fd1, rtol=1e-6)
    np.testing.assert_allclose(u.second_derivative(xs), fd2, rtol=1e-4)


def test_windowed_bump_validation():
    with pytest.raises(ValueError):
        diagnostics.windowed_bump(1.0, 1.0)


def test_farfield_tail_has_algebraic_decay():
    # untempered far field of a compact density decays like x^-(1+nu)
    u = diagnostics.windowed_bump()
    nu = 0.75
    vals = diagnostics._farfield_deriv(u, nu, 0.0, (0.0, 1.0),
                                       np.array([32.0, 64.0]), "left")
    assert vals[0] / vals[1] == pytest.approx(2.0 ** (1.0 + nu), rel=0.04)


def test_farfield_rejects_points_inside_support():
    u = diagnostics.windowed_bump()
    with pytest.raises(ValueError):
        diagnostics._farfield_deriv(u, 0.5, 0.0, (0.0, 1.0),
                                    np.array([0.5]), "left")


# ---------------------------------------------------------------------------
# Fourier-symbol verification


def test_fourier_symbol_local_limit():
    # nu = 1: the operator is u' + lam u, the symbol is exactly lam + i omega
    u = diagnostics.windowed_bump()
    err = diagnostics.verify_fourier_symbol(u, 1.0, 0.3)
    assert err <= 1e-6


def test_fourier_symbol_untempered_with_tail_folding():
    u = diagnostics.windowed_bump()
    err = diagnostics.verify_fourier_symbol(u, 0.75, 0.0)
    assert err <= 1e-3


def test_fourier_symbol_tempered():
    u = diagnostics.windowed_bump()
    err = diagnostics.verify_fourier_symbol(u, 0.7, 0.8)
    assert err <= 1e-4


def test_fourier_symbol_right_variant():
    u = diagnostics.windowed_bump()
    err = diagnostics.verify_fourier_symbol(u, 0.6, 0.4, direction="right")
    assert err <= 1e-3


def test_fourier_symbol_folding_is_load_bearing():
    # with the tail truncated (periods=1) the untempered check must be
    # visibly worse than with folding enabled
    u = diagnostics.windowed_bump()
    folded = diagnostics.verify_fourier_symbol(u, 0.75, 0.0, periods=64)
    truncated = diagnostics.verify_fourier_symbol(u, 0.75, 0.0, periods=1)
    assert truncated > 5e-3
    assert folded < truncated / 5.0


def test_fourier_symbol_validation():
    u = diagnostics.windowed_bump()
    with pytest.raises(ValueError):
        diagnostics.verify_fourier_symbol(u, 0.5, 0.0, support=(1.0, 0.0))
    with pytest.raises(ValueError):
        diagnostics.verify_fourier_symbol(u, 0.5, 0.0, direction="up")
    with pytest.raises(ValueError):
        diagnostics.verify_fourier_symbol(u, 0.5, 0.0, periods=0)


# ---------------------------------------------------------------------------
# spectral radius scaling


def test_spectral_radius_stiffness_dominated_scaling():
    prob = ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.spectral_radius_sweep(prob, [32, 64, 128, 256], tau=1e6)
    assert all(row["converged"] for row in rows)
    rhos = [row["rho"] for row in rows]
    for lo, hi in zip(rhos[:-1], rhos[1:]):
        assert hi / lo == pytest.approx(2.0**1.5, rel=0.05)
    ratios = [row["bound_ratio"] for row in rows]
    assert max(ratios) / min(ratios) < 2.0


def test_spectral_radius_mass_dominated_limit():
    prob = ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0)
    (row,) = diagnostics.spectral_radius_sweep(prob, [64], tau=1e-6)
    assert row["rho"] == pytest.approx(1e6, rel=0.01)


# ---------------------------------------------------------------------------
# structure sweeps


def test_structure_sweep_untempered_all_hard_and_clean():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(prob, [32, 64], tau=1.0)
    stiff_rows = [r for r in rows if r["matrix"] == "stiffness"]
    assert stiff_rows and all(r["severity"] == "hard" for r in stiff_rows)
    assert all(r["ok"] for r in stiff_rows)
    assert all(r["gershgorin_low"] >= -1e-12 for r in stiff_rows)
    assert diagnostics.structure_hard_failures(rows) == []


def test_structure_sweep_covers_all_levels():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(prob, [64], tau=1.0)
    assert [r["n"] for r in rows if r["matrix"] == "stiffness"] == [63, 31, 15, 7]


def test_structure_sweep_reports_solver_levels():
    # the sweep checks the Galerkin levels the solver runs on, not a
    # re-discretization of each mesh
    prob = assembly.make_example2(1.5)
    rows = diagnostics.structure_sweep(prob, [32], tau=0.5)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 0.5)
    stiff_rows = [r for r in rows if r["matrix"] == "stiffness"]
    assert len(stiff_rows) == len(hier.levels)
    for level, row in zip(reversed(hier.levels), stiff_rows):
        assert row["n"] == level.mesh.n_interior
        assert row["gershgorin_low"] == structure_report(level.stiff)["gershgorin_low"]


def test_structure_sweep_tempered_is_warn_severity():
    prob = assembly.make_example2(1.5)
    rows = diagnostics.structure_sweep(prob, [32], tau=0.5)
    stiff_rows = [r for r in rows if r["matrix"] == "stiffness"]
    assert all(r["severity"] == "warn" for r in stiff_rows)
    assert diagnostics.structure_hard_failures(rows) == []


def test_structure_sweep_system_rows_are_informational():
    # tiny tau: the mass term flips the system's off-diagonal sign, which is
    # recorded but never escalated
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(prob, [32], tau=1e-6)
    system_rows = [r for r in rows if r["matrix"] == "system"]
    assert all(r["severity"] == "info" for r in system_rows)
    assert any(not r["ok"] for r in system_rows)
    assert diagnostics.structure_hard_failures(rows) == []
