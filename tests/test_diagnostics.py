"""Norm family, coercivity margins, stiffness symbol and structure sweeps."""

import numpy as np
import pytest

from tempermg import assembly, diagnostics, fracquad, multigrid
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.toeplitz import structure_report

import oracles


@pytest.fixture(scope="module")
def level():
    prob = ProblemSpec(1.5, 0.5, 0.3, 0.0, 1.6, 1.0)
    return assembly.assemble_level(prob, Mesh(0.0, 1.6, 8), 0.5)


# ---------------------------------------------------------------------------
# discrete norms


def test_mesh_norm_zeroth_is_weighted_euclidean(level):
    assert oracles.mesh_norm(level, np.ones(4), 0) == pytest.approx(
        np.sqrt(0.8), rel=1e-14)


def test_mesh_norm_definitions(level):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(7)
    h = level.mesh.h
    av = level.apply(v)
    assert oracles.mesh_norm(level, v, 0) == pytest.approx(
        np.sqrt(h * v @ v), rel=1e-14)
    assert oracles.mesh_norm(level, v, 1) == pytest.approx(
        np.sqrt(h * v @ av), rel=1e-14)
    assert oracles.mesh_norm(level, v, 2) == pytest.approx(
        np.sqrt(h * av @ av), rel=1e-14)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_mesh_norm_is_a_norm(level, s):
    rng = np.random.default_rng(s)
    v, w = rng.standard_normal(7), rng.standard_normal(7)
    nv = oracles.mesh_norm(level, v, s)
    nw = oracles.mesh_norm(level, w, s)
    assert nv > 0.0
    assert oracles.mesh_norm(level, 2.5 * v, s) == pytest.approx(2.5 * nv,
                                                                 rel=1e-13)
    assert oracles.mesh_norm(level, v + w, s) <= nv + nw + 1e-13


def test_mesh_norm_interpolation_inequality(level):
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(7)
        mid = oracles.mesh_norm(level, v, 1) ** 2
        ends = (oracles.mesh_norm(level, v, 0)
                * oracles.mesh_norm(level, v, 2))
        assert mid <= ends * (1.0 + 1e-12)


@pytest.mark.parametrize("theta", [0, 1])
def test_operator_pairing_cauchy_schwarz(level, theta):
    rng = np.random.default_rng(10 + theta)
    h = level.mesh.h
    for _ in range(20):
        v, w = rng.standard_normal(7), rng.standard_normal(7)
        pairing = abs(h * (v @ level.apply(w)))
        bound = (oracles.mesh_norm(level, v, 1 + theta)
                 * oracles.mesh_norm(level, w, 1 - theta))
        assert pairing <= bound * (1.0 + 1e-12)


def test_mesh_norm_invalid_exponent(level):
    with pytest.raises(ValueError):
        oracles.mesh_norm(level, np.ones(7), 3)


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


# ---------------------------------------------------------------------------
# assembled pairing against its Fourier symbol


def _symbol_mesh(cells):
    return Mesh(0.0, cells / 64.0, cells)  # h = 1/64


@pytest.mark.parametrize("alpha, lam_h, cells", [
    (1.9, 1.0, 64), (1.5, 0.125, 512), (1.1, 0.5, 128), (1.5, 0.003, 16384),
])
def test_stiffness_matches_fourier_symbol_tempered(alpha, lam_h, cells):
    gap = diagnostics.stiffness_symbol_gap(_symbol_mesh(cells), alpha,
                                           64.0 * lam_h)
    assert gap <= 1e-10


def test_stiffness_matches_fourier_symbol_untempered():
    # lam = 0 takes the mu < 1e-16 branch of the near field; the lag tail
    # is algebraic, so the column needs 2^17 cells
    gap = diagnostics.stiffness_symbol_gap(_symbol_mesh(2**17), 1.5, 0.0)
    assert gap <= 1e-11


@pytest.mark.parametrize("lam", [0.0, 8.0])
def test_symbol_gap_sees_a_truncated_column(lam):
    # 63 lags drop e^{-lam h m} tails of ~e^{-8} (lam h = 1/8) and m^{-5/2}
    # ones at lam = 0: the gap must show them, not round them away
    gap = diagnostics.stiffness_symbol_gap(_symbol_mesh(64 if lam else 1024),
                                           1.5, lam)
    assert gap > 1e-8


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
    hiers = [multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, M), 1.0)
             for M in (32, 64)]
    rows = [row for hier in hiers for row in diagnostics.structure_sweep(hier)]
    stiff_rows = [r for r in rows if r["matrix"] == "stiffness"]
    assert stiff_rows and all(r["severity"] == "hard" for r in stiff_rows)
    assert all(r["ok"] for r in stiff_rows)
    # the Gershgorin lower bound t_0 - 2 sum |t_m| of every level's stiffness
    for level in (level for hier in hiers for level in hier.levels):
        col = level.stiff_col
        assert col[0] - 2.0 * np.sum(np.abs(col[1:])) >= -1e-12
    assert diagnostics.structure_hard_failures(rows) == []


def test_structure_sweep_covers_all_levels():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(
        multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 64), 1.0))
    assert [r["n"] for r in rows if r["matrix"] == "stiffness"] == [63, 31, 15, 7]


def test_structure_sweep_reports_solver_levels(monkeypatch):
    # the sweep checks the Galerkin levels the solver runs on, not a
    # re-discretization of each mesh: each stiffness row reports on the
    # level's own column
    prob = assembly.make_example2(1.5)
    hier = multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 0.5)
    checked = []

    def recording(col):
        checked.append(col)
        return structure_report(col)

    monkeypatch.setattr(diagnostics, "structure_report", recording)
    rows = diagnostics.structure_sweep(hier)
    stiff = [(r, col) for r, col in zip(rows, checked)
             if r["matrix"] == "stiffness"]
    assert len(stiff) == len(hier.levels)
    for level, (row, col) in zip(reversed(hier.levels), stiff):
        assert row["n"] == level.mesh.n_interior
        assert col is level.stiff_col
        rep = structure_report(level.stiff_col)
        assert {key: row[key] for key in rep} == rep


def test_structure_sweep_tempered_is_warn_severity():
    prob = assembly.make_example2(1.5)
    rows = diagnostics.structure_sweep(
        multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 0.5))
    stiff_rows = [r for r in rows if r["matrix"] == "stiffness"]
    assert all(r["severity"] == "warn" for r in stiff_rows)
    assert diagnostics.structure_hard_failures(rows) == []


def test_structure_sweep_system_rows_are_informational():
    # tiny tau: the mass term flips the system's off-diagonal sign, which is
    # recorded but never escalated
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rows = diagnostics.structure_sweep(
        multigrid.build_hierarchy(prob, Mesh(0.0, 1.0, 32), 1e-6))
    system_rows = [r for r in rows if r["matrix"] == "system"]
    assert all(r["severity"] == "info" for r in system_rows)
    assert any(not r["ok"] for r in system_rows)
    assert diagnostics.structure_hard_failures(rows) == []
