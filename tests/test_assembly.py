"""FEM assembly: Toeplitz symbols vs dense adaptive-quadrature references."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import gamma as gamma_fn

from tempermg import assembly, fracquad
from tempermg.assembly import Mesh, ProblemSpec
from tempermg.toeplitz import structure_report

import oracles


# ---------------------------------------------------------------------------
# mesh and problem containers


def test_mesh_geometry():
    mesh = Mesh(0.0, 32.0, 8)
    assert mesh.h == pytest.approx(4.0)
    assert mesh.n_interior == 7
    nodes = mesh.interior_nodes()
    assert nodes.shape == (7,)
    np.testing.assert_allclose(nodes, 4.0 * np.arange(1, 8))
    np.testing.assert_allclose(mesh.element_left_edges(), 4.0 * np.arange(8))
    coarse = mesh.coarsen()
    assert coarse.cells == 4 and coarse.h == pytest.approx(8.0)


@pytest.mark.parametrize("cells", [0, 2, 3, 12, 100])
def test_mesh_rejects_bad_cell_counts(cells):
    with pytest.raises(ValueError):
        Mesh(0.0, 1.0, cells)


def test_mesh_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        Mesh(1.0, 1.0, 8)
    with pytest.raises(ValueError):  # b - a overflows
        Mesh(-1e308, 1e308, 8)


def test_problem_validation():
    with pytest.raises(ValueError):
        ProblemSpec(2.3, 0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(1.5, -0.1, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(1.5, 0.0, -1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        ProblemSpec(1.5, 0.0, 0.0, -1e308, 1e308, 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0,
                    u0=lambda x: x, exact=lambda x, t: 2.0 * x)
    finite = dict(alpha=1.5, lam=0.5, sigma=0.5, a=0.0, b=1.0, T=1.0)
    for field in ("lam", "sigma", "a", "b", "T"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                ProblemSpec(**{**finite, field: value})


@pytest.mark.parametrize("alpha, lam, a, b", [
    (1.8, 1e200, 0.0, 32.0),      # lam^alpha overflows
    (1.5, 1e300, 0.0, 1.0),
    (1.5, 0.5, -1e307, 1e307),    # (lam (b - a))^alpha overflows
    (1.5, 1e200, 0.0, 1e300),
])
def test_problem_refuses_overflowing_tempering(alpha, lam, a, b):
    # refused as a ValueError naming the powers, not a float OverflowError,
    # and make_example1 computes nothing from lam^alpha before the check
    with pytest.raises(ValueError, match=r"lam\^alpha"):
        ProblemSpec(alpha, lam, 0.0, a, b, 1.0)
    if a == 0.0:
        with pytest.raises(ValueError, match=r"lam\^alpha"):
            assembly.make_example1(alpha, lam, b_end=b)
    # a lam whose powers are large but finite is accepted
    ProblemSpec(alpha, 1e100 / (b - a), 0.0, a, b, 1.0)


def test_problem_source_is_separable_or_none():
    # the time loop integrates f.space once and scales it per step, so a
    # plain f(x, t) is refused where the problem is built
    with pytest.raises(TypeError, match="SeparableForcing"):
        ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0, f=lambda x, t: x * t)
    forcing = fracquad.SeparableForcing(np.sin, np.exp)
    assert ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0, f=forcing).f is forcing


def test_stiffness_severity_is_hard_only_untempered_reaction_free():
    assert ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0).stiffness_severity == "hard"
    assert ProblemSpec(1.5, 0.5, 0.0, 0.0, 1.0, 1.0).stiffness_severity == "warn"
    assert ProblemSpec(1.5, 0.0, 0.1, 0.0, 1.0, 1.0).stiffness_severity == "warn"


def test_problem_kappa_is_derived():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    assert prob.kappa == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)


# ---------------------------------------------------------------------------
# mass symbol


def test_mass_symbol_entries():
    mesh = Mesh(0.0, 1.0, 16)
    sym = assembly.mass_symbol(mesh)
    h = mesh.h
    np.testing.assert_allclose(sym[:2], [2 * h / 3, h / 6], rtol=1e-15)
    assert np.all(sym[2:] == 0.0)


def test_mass_interior_row_sums_and_spd():
    mesh = Mesh(0.0, 1.0, 16)
    dense = sla.toeplitz(assembly.mass_symbol(mesh))
    assert dense[7].sum() == pytest.approx(mesh.h, rel=1e-14)
    assert np.all(np.linalg.eigvalsh(dense) > 0.0)


# ---------------------------------------------------------------------------
# derivative profile and pairing symbol vs independent references


def test_hat_profile_oracle_self_consistent():
    # closed incomplete-gamma form vs plain adaptive quadrature
    h, nu, lam = 0.25, 0.75, 0.5
    for s in (-0.2, 0.1, 0.3, 0.9, 3.0):
        assert oracles.hat_profile_ref(s, h, nu, lam) == pytest.approx(
            oracles.hat_profile_quad(s, h, nu, lam), rel=1e-9)


def test_pairing_oracle_translation_invariance():
    h, nu, lam = 1.0 / 16.0, 0.75, 0.5
    near = 0.5 * (oracles.pairing_entry_ref(0.0, h, nu, lam, 5, 2)
                  + oracles.pairing_entry_ref(0.0, h, nu, lam, 2, 5))
    far = 0.5 * (oracles.pairing_entry_ref(0.0, h, nu, lam, 10, 7)
                 + oracles.pairing_entry_ref(0.0, h, nu, lam, 7, 10))
    assert near == pytest.approx(far, rel=1e-8)


def test_pairing_symbol_matches_dense_adaptive_assembly():
    # every entry of the 15x15 Gram matrix as its own nested adaptive integral;
    # lags 3.. check the far-field kernel formula and the lag 2/3 seam, and
    # (1.1, 0) is the heavy-tailed untempered case
    mesh = Mesh(0.0, 1.0, 16)
    for alpha, lam in ((1.5, 0.5), (1.1, 0.0)):
        dense_ref = oracles.dense_pair_matrix_ref(0.0, mesh.h, 0.5 * alpha,
                                                  lam, mesh.n_interior)
        dense_got = sla.toeplitz(assembly.frac_pair_symbol(mesh, alpha, lam))
        np.testing.assert_allclose(dense_got, dense_ref, rtol=1e-8)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("cells", [64, 1024])
def test_far_pairing_matches_levy_kernel_integral(alpha, lam, cells):
    mesh = Mesh(0.0, 1.0, cells)
    n = mesh.n_interior
    sym = assembly.frac_pair_symbol(mesh, alpha, lam)
    lags = [3, 4, 10, n // 2, n - 1]
    ref = [oracles.far_pair_ref(mesh.h, alpha, lam, m) for m in lags]
    np.testing.assert_allclose(sym[lags], ref, rtol=1e-12)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("mu", [8.0, 64.0, 512.0])
def test_far_pairing_matches_levy_kernel_integral_under_strong_tempering(
        alpha, mu):
    # lam * h large enough that e^{-lam h t} falls by e^8 to e^512 across a
    # unit piece; lags either side of where the entries leave the normal
    # floats (lag 88 at mu = 8, 12 at mu = 64, 3 at mu = 512) are included
    mesh = Mesh(0.0, 1.0, 128)
    lam = mu / mesh.h
    sym = assembly.frac_pair_symbol(mesh, alpha, lam)
    assert np.all(np.isfinite(sym))
    lags = [3, 4, 5, 10, 12, 13, 40, 88, 89, mesh.n_interior - 1]
    ref = np.array([oracles.far_pair_ref(mesh.h, alpha, lam, m) for m in lags])
    normal = np.abs(ref) >= np.finfo(float).tiny
    assert normal[0]
    np.testing.assert_allclose(sym[lags][normal], ref[normal], rtol=1e-12)


def far_gauss_column(mesh, alpha, lam):
    """Entries 3.. of the pairing column, every lag by the far-field Gauss sum.

    The same weighted nodes and tempering split as ``frac_pair_symbol``, with
    no expansion in t/m: the reference its large lags must reproduce.
    """
    n, h = mesh.n_interior, mesh.h
    mu = lam * h
    t, w = assembly._pieces(assembly._far_edges(mu))
    w *= assembly._b3(t) * np.exp(-mu * (t + 2.0))
    scale = 0.5 * h ** (1.0 - alpha) / gamma_fn(-alpha)
    return np.array([scale * np.exp(-mu * (m - 2.0))
                     * ((m + t) ** (-1.0 - alpha) @ w)
                     for m in np.arange(3.0, n)])


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("mu", [0.0, 0.5 / 1024, 8.0, 64.0])
def test_far_pairing_expansion_matches_across_its_seam(alpha, mu):
    # lags from 64 on come from an expansion in t/m: the lags either side
    # of the switch and the last lag against the adaptive Levy-kernel
    # integral (and the closed form at lam = 0), and the whole far column
    # against the Gauss sum the expansion replaces
    mesh = Mesh(0.0, 1.0, 1024)
    lam = mu / mesh.h
    n = mesh.n_interior
    sym = assembly.frac_pair_symbol(mesh, alpha, lam)
    lags = list(range(61, 68)) + [n - 1]
    ref = np.array([oracles.far_pair_ref(mesh.h, alpha, lam, m) for m in lags])
    normal = np.abs(ref) >= np.finfo(float).tiny
    np.testing.assert_allclose(sym[lags][normal], ref[normal], rtol=1e-12)
    assert np.all(np.abs(sym[lags][~normal]) < np.finfo(float).tiny)
    if mu == 0.0:
        closed = [oracles.untempered_pair_closed_form(mesh.h, alpha, m)
                  for m in lags]
        np.testing.assert_allclose(sym[lags], closed, rtol=1e-12)
    gauss = far_gauss_column(mesh, alpha, lam)
    normal = np.abs(gauss) >= np.finfo(float).tiny
    np.testing.assert_allclose(sym[3:][normal], gauss[normal], rtol=2e-15,
                               atol=0.0)


def test_pairing_symbol_memory_is_linear():
    # a (lags x nodes) table would peak near 200 MB at 2^18 cells; a few
    # n-vectors stay far below the bound
    mesh = Mesh(0.0, 1.0, 2**18)
    tracemalloc.start()
    try:
        assembly.frac_pair_symbol(mesh, 1.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("cells", [16, 1024])
def test_untempered_pairing_matches_closed_form(alpha, cells):
    # at lam = 0 every lag, near and far, is a fourth difference of |m|^(3-alpha)
    mesh = Mesh(0.0, 1.0, cells)
    n = mesh.n_interior
    sym = assembly.frac_pair_symbol(mesh, alpha, 0.0)
    lags = list(range(11)) + [n - 1]
    ref = [oracles.untempered_pair_closed_form(mesh.h, alpha, m) for m in lags]
    np.testing.assert_allclose(sym[lags], ref, rtol=1e-11)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("mu", [0.03, 0.5, 2.0, 8.0, 64.0, 128.0, 512.0])
def test_near_pairing_matches_adaptive_kernel_integral(alpha, mu):
    # lags 0-2 against adaptive quadrature of the Levy-Khintchine form, over
    # tempering scales lam * h from mild to strong enough that e^{-lam h t}
    # dies inside the first cell
    mesh = Mesh(0.0, 1.0, 16)
    lam = mu / mesh.h
    sym = assembly.frac_pair_symbol(mesh, alpha, lam)
    ref = [oracles.near_pair_ref(mesh.h, alpha, lam, m) for m in range(3)]
    np.testing.assert_allclose(sym[:3], ref, rtol=1e-14)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_near_pair_oracle_matches_mpmath_at_strong_tempering(alpha):
    # the adaptive oracle above is only as good as scipy's algebraic-weight
    # rule against e^{-512 t}; check it against 30-digit mpmath there
    h = 1.0 / 16.0
    lam = 512.0 / h
    for m in range(3):
        assert oracles.near_pair_ref(h, alpha, lam, m) == pytest.approx(
            oracles.near_pair_mp(h, alpha, lam, m), rel=1e-14)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("mu", [1e-20, 1e-12])
def test_near_pairing_matches_mpmath_at_vanishing_tempering(alpha, mu):
    # either side of the switch to the mu = 0 limit of the [0, 1] piece;
    # mpmath, since the adaptive oracle drifts to ~3e-13 here at alpha = 1.1
    mesh = Mesh(0.0, 1.0, 16)
    lam = mu / mesh.h
    sym = assembly.frac_pair_symbol(mesh, alpha, lam)
    ref = [oracles.near_pair_mp(mesh.h, alpha, lam, m) for m in range(3)]
    np.testing.assert_allclose(sym[:3], ref, rtol=1e-14)


def test_pairing_symbol_dyadic_mesh_consistency():
    # same physical lag sampled from two meshes must agree after rescaling:
    # entries depend on (h, lag) only through the profile overlap
    alpha, lam = 1.3, 0.7
    fine = assembly.frac_pair_symbol(Mesh(0.0, 1.0, 32), alpha, lam)
    again = assembly.frac_pair_symbol(Mesh(0.0, 2.0, 64), alpha, lam)
    np.testing.assert_allclose(again[:31], fine, rtol=1e-10)


def test_stiffness_approaches_laplacian():
    # alpha -> 2, lam = 0: -2 kappa S tends to the classical [2/h, -1/h] stencil
    mesh = Mesh(0.0, 1.0, 16)
    prob = ProblemSpec(1.999, 0.0, 0.0, 0.0, 1.0, 1.0)
    bsym = assembly.stiffness_symbol(prob, mesh)
    h = mesh.h
    assert bsym[0] == pytest.approx(2.0 / h, rel=0.02)
    assert bsym[1] == pytest.approx(-1.0 / h, rel=0.02)
    assert np.sum(np.abs(bsym[2:])) <= 0.02 * bsym[0]


def test_stiffness_untempered_structure():
    mesh = Mesh(0.0, 1.0, 64)
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    rep = structure_report(
        assembly.assemble_level(prob, mesh, 1.0).stiff_col)
    assert rep["is_m_matrix_sign_pattern"]
    assert rep["is_weakly_diag_dominant"]
    assert rep["ok"]


@pytest.mark.parametrize("alpha,lam,sigma", [(1.5, 0.5, 0.3), (1.1, 0.0, 0.0)])
def test_stiffness_quadratic_form_positive(alpha, lam, sigma):
    mesh = Mesh(0.0, 1.0, 32)
    prob = ProblemSpec(alpha, lam, sigma, 0.0, 1.0, 1.0)
    level = assembly.assemble_level(prob, mesh, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.standard_normal(mesh.n_interior)
        assert v @ level.stiff.matvec(v) > 0.0


def test_stiffness_symbol_validation():
    mesh = Mesh(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        assembly.frac_pair_symbol(mesh, 2.0, 0.0)
    with pytest.raises(ValueError):
        assembly.frac_pair_symbol(mesh, 1.5, -1.0)


# ---------------------------------------------------------------------------
# per-level system operator


def test_level_operator_composition():
    mesh = Mesh(0.0, 32.0, 64)
    prob = assembly.make_example1(1.8, 0.5)
    tau = 0.125
    level = assembly.assemble_level(prob, mesh, tau)
    h = mesh.h
    msym = assembly.mass_symbol(mesh)
    bsym = assembly.stiffness_symbol(prob, mesh)
    assert level.diag == pytest.approx((msym[0] / tau + 0.5 * bsym[0]) / h,
                                       rel=1e-14)
    e1 = np.zeros(mesh.n_interior)
    e1[0] = 1.0
    assert level.apply(e1)[0] == pytest.approx(level.diag, rel=1e-12)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(mesh.n_interior)
    lhs = h * (v @ level.apply(v))
    rhs = (v @ level.mass.matvec(v)) / tau + 0.5 * (v @ level.stiff.matvec(v))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_level_requires_positive_tau():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        assembly.assemble_level(prob, Mesh(0.0, 1.0, 8), 0.0)


def test_tempered_coarse_level_warns_but_assembles():
    # at M=8 on (0,32) the tempering scale lam*h = 2 pushes the first
    # off-diagonal entry positive; that is a warning, not an error
    prob = assembly.make_example1(1.5, 0.5)
    with pytest.warns(RuntimeWarning):
        level = assembly.assemble_level(prob, Mesh(0.0, 32.0, 8), 1.0)
    assert level.stiff.first_col[1] > 0.0


def test_untempered_structure_violation_raises():
    prob = ProblemSpec(1.5, 0.0, 0.0, 0.0, 1.0, 1.0)
    mesh = Mesh(0.0, 1.0, 16)
    bsym = assembly.stiffness_symbol(prob, mesh)
    bsym[1] = -bsym[1]
    with pytest.raises(RuntimeError):
        assembly.level_from_symbols(prob, mesh, 0.5, bsym)


# ---------------------------------------------------------------------------
# load vectors and error functional


def test_load_constant_profile():
    mesh = Mesh(0.0, 1.0, 16)
    got = assembly.profile_load(mesh, lambda x: np.ones_like(x))
    np.testing.assert_allclose(got, np.full(15, mesh.h), rtol=1e-14)


def test_load_of_hat_reproduces_mass_column():
    mesh = Mesh(0.0, 1.0, 16)
    nodes = np.linspace(0.0, 1.0, 17)
    k = 6

    def hat(x):
        return np.interp(x, [nodes[k - 1], nodes[k], nodes[k + 1]],
                         [0.0, 1.0, 0.0], left=0.0, right=0.0)

    got = assembly.profile_load(mesh, hat)
    expected = np.zeros(15)
    expected[k - 1] = 2 * mesh.h / 3
    expected[k - 2] = expected[k] = mesh.h / 6
    np.testing.assert_allclose(got, expected, atol=1e-16)


def test_load_sine_closed_form():
    mesh = Mesh(0.0, 1.0, 64)
    got = assembly.profile_load(mesh, lambda x: np.sin(np.pi * x))
    np.testing.assert_allclose(
        got, oracles.sin_load_ref(mesh.interior_nodes(), mesh.h), rtol=1e-9)


def test_fe_l2_error_of_own_interpolant_vanishes():
    mesh = Mesh(0.0, 1.0, 16)
    rng = np.random.default_rng(3)
    nodal = rng.standard_normal(15)
    grid = np.linspace(0.0, 1.0, 17)
    padded = np.concatenate(([0.0], nodal, [0.0]))
    exact = lambda x, t: np.interp(x, grid, padded)
    assert assembly.fe_l2_error(mesh, nodal, exact, 0.0) < 1e-13


def test_fe_l2_error_of_zero_against_one():
    mesh = Mesh(0.0, 1.0, 16)
    err = assembly.fe_l2_error(mesh, np.zeros(15), lambda x, t: np.ones_like(x), 0.0)
    assert err == pytest.approx(1.0, rel=1e-12)


def test_fe_l2_error_second_order_in_h():
    exact = lambda x, t: np.sin(np.pi * x)
    errs = []
    for cells in (64, 128):
        mesh = Mesh(0.0, 1.0, cells)
        nodal = np.sin(np.pi * mesh.interior_nodes())
        errs.append(assembly.fe_l2_error(mesh, nodal, exact, 0.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


# ---------------------------------------------------------------------------
# benchmark problems


def test_example1_construction():
    alpha, lam = 1.1, 0.5
    prob = assembly.make_example1(alpha, lam)
    kap = fracquad.riesz_kappa(alpha)
    assert prob.sigma == pytest.approx(3.0 * lam**alpha * kap, rel=1e-14)
    assert (prob.a, prob.b, prob.T) == (0.0, 32.0, 1.0)
    x = np.array([2.0, 16.0, 30.0])
    np.testing.assert_allclose(prob.exact(x, 0.0), prob.u0(x), rtol=1e-14)
    np.testing.assert_allclose(prob.exact(x, 1.0), np.exp(-1.0) * prob.u0(x),
                               rtol=1e-14)


def test_example1_rejects_bad_domain():
    with pytest.raises(ValueError):
        assembly.make_example1(1.5, 0.5, b_end=-1.0)


def test_example2_construction():
    prob = assembly.make_example2(1.9)
    assert prob.sigma == 0.0 and prob.lam == 0.5
    assert (prob.a, prob.b, prob.T) == (0.0, 1.0, 1.0)
    assert prob.exact is None
    assert prob.u0(0.5) == pytest.approx(0.25)
    assert prob.u0(0.0) == 0.0 and prob.u0(1.0) == 0.0
    assert prob.f is None


def test_stiffness_power_law_tail():
    # Gram entries decay like lag^-(1+alpha) once tempering is off
    mesh = Mesh(0.0, 1.0, 256)
    alpha = 1.4
    sym = assembly.frac_pair_symbol(mesh, alpha, 0.0)
    lags = np.array([16, 32, 64])
    ratios = sym[lags] / sym[2 * lags]
    np.testing.assert_allclose(ratios, 2.0 ** (1.0 + alpha), rtol=0.06)

