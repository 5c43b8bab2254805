"""Linear-FEM discretization on uniform grids.

Mass and fractional-stiffness Toeplitz symbols, the per-level system operator
(tau^{-1} M + B/2)/h, load vectors, an L2 error functional, and the two
benchmark problems.

The stiffness symbol is a pairing of one-sided tempered fractional
derivatives of hat functions, and its entries fall into two regimes.

Near field (lags 0, 1, 2): the two derivative profiles overlap where they are
singular.  By translation invariance every basis function sees the same
profile, so it is sampled on the four reference cells -1..2 and paired by
per-offset discrete convolutions.  The profile has |s - node|^{1 - alpha/2}
kinks at the hat's nodes, so the outer quadrature grades dyadically toward
the cell ends; the inner kernel integrals reduce to incomplete-gamma-type
integrals evaluated by singular Jacobi rules, plain Gauss-Legendre, or a
difference of the two depending on how close the singularity sits.

Far field (lags m >= 3): the hat supports are separated, and the pairing is
a regular integral of the hat autocorrelation against the tempered Levy
kernel K(x) = e^{-lam x} x^{-1-alpha} / Gamma(-alpha),

    S_m = 1/2 int_{-2h}^{2h} A(r) K(m h + r) dr,

with A(r) = h B3(r/h) the piecewise-cubic B-spline.  Each entry is a fixed
Gauss-Legendre sum over A's four pieces, so it keeps its relative accuracy,
and the whole symbol costs O(q + p n) for q near-field samples and p far
nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn

from . import fracquad
from .toeplitz import SymToeplitz, structure_report


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on [a, b] with a power-of-two cell count."""

    a: float
    b: float
    cells: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("mesh requires b > a")
        m = self.cells
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError("cells must be a power of two >= 4")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def n_interior(self) -> int:
        return self.cells - 1

    def interior_nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.cells + 1)[1:-1]

    def element_left_edges(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.cells + 1)[:-1]

    def coarsen(self) -> "Mesh":
        return Mesh(self.a, self.b, self.cells // 2)


@dataclass
class ProblemSpec:
    """Physical problem: exponents, domain, horizon, data.

    ``f`` is a callable f(x, t) (or None for a homogeneous problem); ``u0``
    maps x to the initial state; ``exact``, when present, is the reference
    solution (x, t) used for error measurement.
    """

    alpha: float
    lam: float
    sigma: float
    a: float
    b: float
    T: float
    f: Optional[Callable] = None
    u0: Optional[Callable] = None
    exact: Optional[Callable] = None
    kappa: float = field(init=False)

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (1, 2)")
        if self.lam < 0 or self.sigma < 0:
            raise ValueError("lam and sigma must be >= 0")
        if not (self.b > self.a and self.T > 0):
            raise ValueError("need b > a and T > 0")
        self.kappa = fracquad.riesz_kappa(self.alpha)
        if self.exact is not None and self.u0 is not None:
            x = np.linspace(self.a, self.b, 11)[1:-1]
            e0, i0 = np.asarray(self.exact(x, 0.0)), np.asarray(self.u0(x))
            scale = max(float(np.max(np.abs(i0))), 1e-30)
            if np.max(np.abs(e0 - i0)) > 1e-10 * scale:
                raise ValueError("exact(x, 0) does not match u0 on sampled nodes")


def mass_symbol(mesh: Mesh) -> np.ndarray:
    """First column of the linear-element mass matrix: [2h/3, h/6, 0, ...]."""
    n = mesh.n_interior
    sym = np.zeros(n)
    sym[0] = 2.0 * mesh.h / 3.0
    if n > 1:
        sym[1] = mesh.h / 6.0
    return sym


def _hat_deriv_profile(h, nu, lam):
    """Pointwise order-nu tempered left derivative of the unit hat at 0.

    Returns profile(s) = value at signed distance s from the hat's center.
    The hat's weighted slope (phi' + lam phi) is linear per cell, so on each
    cell the kernel integral reduces to J_k = int_A^B v^(k-nu) e^(-lam v) dv
    for k in {0, 1}.  J_k is evaluated three ways: a singular Jacobi rule when
    A = 0, plain Gauss-Legendre when the interval sits far from 0 relative to
    its width, and a difference of two Jacobi evaluations otherwise (benign
    cancellation: the two values then differ by a factor >= 2).
    """
    jr = fracquad.gauss_jacobi(0.0, -nu, _SING_NODES)   # weight (1+z)^(-nu)
    gl = fracquad.gauss_jacobi(0.0, 0.0, _SMOOTH_NODES)
    zj, wj = jr.nodes, jr.weights
    zg, wg = gl.nodes, gl.weights
    cg = 1.0 / gamma_fn(1.0 - nu)

    def single_jacobi(B, k):
        # int_0^B v^(k-nu) e^(-lam v) dv with the v^(-nu) factor in the weight
        v = 0.5 * B[:, None] * (1.0 + zj[None, :])
        f = np.exp(-lam * v)
        if k == 1:
            f = f * (1.0 + zj[None, :])
        return (0.5 * B) ** (k + 1.0 - nu) * (f @ wj)

    def gl_pair(A, B):
        mid = 0.5 * (A + B)
        half = 0.5 * (B - A)
        v = mid[:, None] + half[:, None] * zg[None, :]
        base = v ** (-nu) * np.exp(-lam * v)
        return half * (base @ wg), half * ((base * v) @ wg)

    def profile(s):
        s = np.asarray(s, dtype=float).ravel()
        out = np.zeros_like(s)
        # cells of the hat: (start, end, p, q) with phi' + lam phi = p + q*v
        cells = [(-h, 0.0, (1.0 + lam * h) / h, lam / h),
                 (0.0, h, (lam * h - 1.0) / h, -lam / h)]
        for c0, c1, p, q in cells:
            act = s > c0
            if not act.any():
                continue
            sv = s[act]
            B = sv - c0
            A = np.maximum(sv - c1, 0.0)
            j0 = np.empty_like(sv)
            j1 = np.empty_like(sv)
            m_sing = A == 0.0
            m_gl = (~m_sing) & (A >= (B - A))
            m_diff = (~m_sing) & (~m_gl)
            if m_sing.any():
                j0[m_sing] = single_jacobi(B[m_sing], 0)
                j1[m_sing] = single_jacobi(B[m_sing], 1)
            if m_gl.any():
                j0[m_gl], j1[m_gl] = gl_pair(A[m_gl], B[m_gl])
            if m_diff.any():
                j0[m_diff] = single_jacobi(B[m_diff], 0) - single_jacobi(A[m_diff], 0)
                j1[m_diff] = single_jacobi(B[m_diff], 1) - single_jacobi(A[m_diff], 1)
            # the kernel carries (s - v'); with psi linear this is (p + q s) J0 - q J1
            out[act] += cg * ((p + q * sv) * j0 - q * j1)
        return out

    return profile


def _graded_unit_rule(points, depth):
    """Composite Gauss-Legendre on [0,1], dyadically graded toward both ends.

    Grading is what resolves the algebraic kinks the derivative profile has
    at cell ends.
    """
    gl = fracquad.gauss_jacobi(0.0, 0.0, points)
    zg, wg = gl.nodes, gl.weights
    edges = [0.0] + [2.0 ** (-k) for k in range(depth, 0, -1)]  # 0, 2^-d, ..., 1/2
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * zg)
        ws.append(half * wg)
    x_half = np.concatenate(xs)
    w_half = np.concatenate(ws)
    x = np.concatenate([x_half, 1.0 - x_half[::-1]])
    w = np.concatenate([w_half, w_half[::-1]])
    return x, w


# Quadrature sizes of the stiffness assembly: Gauss-Legendre points per
# graded outer panel, the Jacobi/Legendre node counts of the inner kernel
# integrals, and Gauss-Legendre points per cubic piece of the far field.
_OUTER_POINTS = 6
_SING_NODES = 20
_SMOOTH_NODES = 16
_FAR_POINTS = 12

# Test hook for the CLI's fault-injection path: flips the sign of one
# off-diagonal stiffness entry so structural checks must catch it.
_INJECT_SIGN_FLIP = False


def _far_unit_rule():
    """Nodes t in [-2, 2] and weights w with sum w f(t) ~ int B3(t) f(t) dt.

    Gauss-Legendre on each unit piece of the cubic B-spline
    B3(t) = 2/3 - t^2 + |t|^3/2 (|t| <= 1), (2 - |t|)^3/6 (1 <= |t| <= 2),
    which is the hat autocorrelation in units of h.
    """
    gl = fracquad.gauss_jacobi(0.0, 0.0, _FAR_POINTS)
    t = (np.arange(-2.0, 2.0)[:, None] + 0.5 * (1.0 + gl.nodes)[None, :]).ravel()
    a = np.abs(t)
    b3 = np.where(a <= 1.0, 2.0 / 3.0 - a**2 + 0.5 * a**3, (2.0 - a) ** 3 / 6.0)
    return t, np.tile(0.5 * gl.weights, 4) * b3


def frac_pair_symbol(mesh: Mesh, alpha: float, lam: float) -> np.ndarray:
    """First column of the symmetrized fractional-pairing Gram matrix.

    With G the left-derivative profile of one hat (the right profile is its
    reflection), the unsymmetrized pairing at lag m is

        T(m) = h * int G(y h) G((m - y) h) dy,

    and entry m is T(0), (T(-1) + T(1))/2 or T(m)/2 for m >= 2.  Lags 0-2
    come from the profile sampled on cells -1..2 and paired by a per-offset
    discrete convolution; the outer grading depth matches a ~1e-10
    kink-resolution target.  For m >= 3 the supports are separated and
    T(m)/2 = 1/2 int A(r) K(m h + r) dr against the tempered Levy kernel,
    a Gauss sum over the four pieces of the hat autocorrelation A.  Cost is
    O(q + p n): q near-field profile samples, p far nodes per entry.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    nu = 0.5 * alpha
    n, h = mesh.n_interior, mesh.h
    depth = int(np.ceil(10.0 / ((2.0 - nu) * np.log10(2.0))))
    offs, wq = _graded_unit_rule(_OUTER_POINTS, depth)
    q_count = offs.size
    profile = _hat_deriv_profile(h, nu, lam)
    cell_starts = np.arange(-1, 3)  # leftmost product support starts one cell left
    samples = h * (cell_starts[:, None] + offs[None, :])
    G = profile(samples.ravel()).reshape(cell_starts.size, q_count)
    if not np.all(np.isfinite(G)):
        raise FloatingPointError("non-finite profile sample in stiffness assembly")
    conv = np.zeros(2 * cell_starts.size - 1)
    for qi in range(q_count):
        conv += wq[qi] * np.convolve(G[:, qi], G[:, q_count - 1 - qi])
    tgen = h * conv  # tgen[m+1] = unsymmetrized pairing at lag m, complete for m <= 2
    sym = np.empty(n)
    sym[0] = tgen[1]
    sym[1] = 0.5 * (tgen[0] + tgen[2])
    sym[2] = 0.5 * tgen[3]
    # far field in units of h: kernel argument h (m + t), A(r) dr = h^2 B3(t) dt
    t, w = _far_unit_rule()
    lag = np.arange(3.0, n)[:, None] + t[None, :]
    kern = lag ** (-1.0 - alpha) * np.exp(-lam * h * lag)
    sym[3:] = 0.5 * h ** (1.0 - alpha) / gamma_fn(-alpha) * (kern @ w)
    return sym


def stiffness_symbol(problem: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """B-symbol: -2 kappa * pairing + (2 kappa lam^alpha + sigma) * mass."""
    pair = frac_pair_symbol(mesh, problem.alpha, problem.lam)
    sym = -2.0 * problem.kappa * pair
    sym += (2.0 * problem.kappa * problem.lam**problem.alpha + problem.sigma) \
        * mass_symbol(mesh)
    if _INJECT_SIGN_FLIP and sym.size > 1:
        sym[1] = -sym[1]
    return sym


@dataclass
class LevelOperator:
    """One multigrid level: mesh, time step, and the assembled operators.

    ``apply`` realizes (1/h)(tau^{-1} M + B/2) through a single cached
    Toeplitz symbol; ``diag`` is its (constant) diagonal.
    """

    mesh: Mesh
    tau: float
    mass: SymToeplitz
    stiff: SymToeplitz
    system: SymToeplitz
    diag: float

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.system.matvec(v)


def level_from_symbols(problem: ProblemSpec, mesh: Mesh, tau: float,
                       msym: np.ndarray, bsym: np.ndarray) -> LevelOperator:
    """Level operator from mass and stiffness symbols of one mesh.

    The system symbol is (tau^{-1} M + B/2)/h.  The stiffness structure check
    (nonpositive off-diagonals plus weak diagonal dominance) is a hard
    invariant in the untempered pure-diffusion case; with tempering or
    reaction it is expected empirically, so a violation only warns.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    asym = (msym / tau + 0.5 * bsym) / mesh.h
    stiff = SymToeplitz(bsym)
    rep = structure_report(stiff)
    ok = rep["is_m_matrix_sign_pattern"] and rep["is_weakly_diag_dominant"]
    if not ok:
        if problem.lam == 0.0 and problem.sigma == 0.0:
            raise RuntimeError(
                "stiffness symbol lost its sign/dominance structure in the "
                f"untempered case (M={mesh.cells}); assembly is inconsistent")
        warnings.warn(
            f"stiffness structure check failed at lam={problem.lam}, "
            f"sigma={problem.sigma}, M={mesh.cells} (expected empirically)",
            RuntimeWarning, stacklevel=3)
    return LevelOperator(mesh=mesh, tau=tau, mass=SymToeplitz(msym),
                         stiff=stiff, system=SymToeplitz(asym),
                         diag=float(asym[0]))


def assemble_level(problem: ProblemSpec, mesh: Mesh, tau: float) -> LevelOperator:
    """Discretize the problem on one mesh: closed-form mass, quadrature stiffness."""
    return level_from_symbols(problem, mesh, tau, mass_symbol(mesh),
                              stiffness_symbol(problem, mesh))


def profile_load(mesh: Mesh, profile: Callable, points: int = 3) -> np.ndarray:
    """Interior-node load vector (profile, phi_i) by per-element Gauss rules."""
    gl = fracquad.gauss_jacobi(0.0, 0.0, points)
    h = mesh.h
    edges = mesh.element_left_edges()
    xq = edges[:, None] + 0.5 * h * (1.0 + gl.nodes[None, :])
    vals = np.asarray(profile(xq.ravel()), dtype=float).reshape(mesh.cells, points)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite load sample")
    shape_r = 0.5 * (1.0 + gl.nodes)  # hat at the element's right node
    shape_l = 0.5 * (1.0 - gl.nodes)
    load_r = 0.5 * h * (vals * shape_r[None, :]) @ gl.weights
    load_l = 0.5 * h * (vals * shape_l[None, :]) @ gl.weights
    out = np.zeros(mesh.n_interior)
    out += load_r[:-1]   # element e contributes to node e+1
    out += load_l[1:]    # element e contributes to node e
    return out


def load_vector(mesh: Mesh, g: Callable, t: float, points: int = 3) -> np.ndarray:
    """Entries (g(., t), phi_i); the caller applies any mesh-product scaling."""
    return profile_load(mesh, lambda x: g(x, t), points)


def fe_l2_error(mesh: Mesh, nodal: np.ndarray, exact: Callable, t: float,
                points: int = 4) -> float:
    """L2 distance between the nodal interpolant (zero at endpoints) and exact."""
    gl = fracquad.gauss_jacobi(0.0, 0.0, points)
    h = mesh.h
    edges = mesh.element_left_edges()
    xq = edges[:, None] + 0.5 * h * (1.0 + gl.nodes[None, :])
    padded = np.concatenate(([0.0], np.asarray(nodal, dtype=float), [0.0]))
    uh = padded[:-1, None] * (0.5 * (1.0 - gl.nodes))[None, :] \
        + padded[1:, None] * (0.5 * (1.0 + gl.nodes))[None, :]
    diff = uh - np.asarray(exact(xq, t), dtype=float)
    return float(np.sqrt(np.sum(0.5 * h * gl.weights[None, :] * diff**2)))


def make_example1(alpha: float, lam: float, b_end: float = 32.0,
                  T: float = 1.0, quad_order: int = 100) -> ProblemSpec:
    """Manufactured benchmark: u(x,t) = e^{-t} x^2 (1 - x/b)^2 on (0, b).

    The reaction coefficient is tied to the tempering strength
    (sigma = 3 lam^alpha kappa) so the closed-form source stays compact.
    """
    if b_end <= 0:
        raise ValueError("b_end must be positive")
    kap = fracquad.riesz_kappa(alpha)
    sigma = 3.0 * lam**alpha * kap
    w = fracquad.polynomial_bump(b_end)
    return ProblemSpec(
        alpha=alpha, lam=lam, sigma=sigma, a=0.0, b=b_end, T=T,
        f=fracquad.example1_forcing(alpha, lam, 0.0, b_end, order=quad_order),
        u0=w.value,
        exact=lambda x, t: np.exp(-t) * w.value(x),
    )


def make_example2(alpha: float, lam: float = 0.5) -> ProblemSpec:
    """Homogeneous decay benchmark on (0,1): u0 = x(1-x), f = 0, no exact."""
    zero = fracquad.SeparableForcing(
        space=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        time_factor=lambda t: 1.0,
    )
    return ProblemSpec(alpha=alpha, lam=lam, sigma=0.0, a=0.0, b=1.0, T=1.0,
                       f=zero, u0=lambda x: x * (1.0 - x), exact=None)
