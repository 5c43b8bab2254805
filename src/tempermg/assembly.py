"""Linear-FEM discretization on uniform grids.

Mass and fractional-stiffness Toeplitz symbols, the per-level system operator
(tau^{-1} M + B/2)/h, load vectors, an L2 error functional, and the two
benchmark problems.

The stiffness symbol is the Gram matrix of the tempered Riesz form on the
linear hats.  In Fourier terms its first column is the integral of the hat
autocorrelation A(s) = h B3(s/h), B3 the cubic B-spline, against the
Levy-Khintchine symbol (Sabzikar, Meerschaert & Chen, "Tempered fractional
calculus", J. Comput. Phys. 293, 2015)

    Re (lam + i w)^alpha = lam^alpha + 1/2 int (e^{i w x} - 1) K(x) dx,
    K(x) = e^{-lam |x|} |x|^{-1-alpha} / Gamma(-alpha).

Entry m is then, with mu = lam h and D_m(t) = B3(m + t) + B3(m - t) - 2 B3(m),

    S_m = lam^alpha h B3(m) + h^{1-alpha} / (2 Gamma(-alpha)) I_m,
    I_m = int_0^inf e^{-mu t} t^{-1-alpha} D_m(t) dt,

one formula for every lag.  D_m is a cubic on each unit piece, vanishes to
second order at t = 0 and is constant beyond t = m + 2, so every I_m is a
fixed Gauss sum plus, for m <= 2, incomplete-gamma pieces on [0, 1] and
[4, inf); each entry keeps its relative accuracy for every lam h, and the
whole symbol costs O(p n) for p nodes per entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc, gammaincc

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


def _b3(t):
    """Cubic B-spline, the hat autocorrelation in units of h.

    B3(t) = 2/3 - t^2 + |t|^3/2 (|t| <= 1), (2 - |t|)^3/6 (1 <= |t| <= 2),
    and 0 beyond.
    """
    a = np.abs(t)
    return np.where(a <= 1.0, 2.0 / 3.0 - a**2 + 0.5 * a**3,
                    np.maximum(2.0 - a, 0.0) ** 3 / 6.0)


def _unit_pieces(start, count):
    """Gauss-Legendre nodes and weights on [start, start + count], per unit piece."""
    gl = fracquad.gauss_jacobi(0.0, 0.0, _PIECE_POINTS)
    t = (np.arange(start, start + count)[:, None]
         + 0.5 * (1.0 + gl.nodes)[None, :]).ravel()
    return t, np.tile(0.5 * gl.weights, count)


# Gauss-Legendre points per unit piece of B3 in the stiffness assembly.
_PIECE_POINTS = 12

# Test hook for the CLI's fault-injection path: flips the sign of one
# off-diagonal stiffness entry so structural checks must catch it.
_INJECT_SIGN_FLIP = False


def frac_pair_symbol(mesh: Mesh, alpha: float, lam: float) -> np.ndarray:
    """First column of the symmetrized fractional-pairing Gram matrix.

    Entry m is S_m = lam^alpha h B3(m) + h^{1-alpha} / (2 Gamma(-alpha)) I_m
    with I_m = int_0^inf e^{-mu t} t^{-1-alpha} D_m(t) dt, mu = lam h and
    D_m(t) = B3(m + t) + B3(m - t) - 2 B3(m) (see the module docstring).

    For m >= 3 the hat supports are separated, D_m(t) = B3(m - t), and I_m
    is a Gauss sum over B3's four pieces.  For m = 0, 1, 2, I_m splits into
    [0, 1], where D_m(t) / t^2 is the exact linear c2 + c3 t and the piece is
    two lower incomplete gamma functions (forming D_m from B3 values there
    would cancel catastrophically); [1, 4], a cubic per unit piece; and
    [4, inf), where D_m = -2 B3(m) and the integral is an upper incomplete
    gamma function.  Cost is O(p n) for p nodes per entry.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n, h = mesh.n_interior, mesh.h
    mu = lam * h
    scale = 0.5 * h ** (1.0 - alpha) / gamma_fn(-alpha)
    sym = np.empty(n)
    # far field: the kernel at lag m + t is weighted by B3(t) dt
    t, w = _unit_pieces(-2.0, 4)
    lag = np.arange(3.0, n)[:, None] + t[None, :]
    kern = lag ** (-1.0 - alpha) * np.exp(-mu * lag)
    sym[3:] = scale * (kern @ (w * _b3(t)))
    # near field, lags 0-2.  [0, 1]: D_m(t) = t^2 (c2 + c3 t) exactly, and
    # int_0^1 t^{s-1} e^{-mu t} dt = mu^{-s} gamma(s, mu), the lower incomplete
    # gamma function; below mu = 1e-16 its O(mu) departure from the mu = 0
    # limit 1/s is under a rounding error (and mu^{-s} overflows by 1e-154)
    m = np.arange(3.0)
    b3m = _b3(m)
    c2 = np.array([-2.0, 1.0, 0.0])
    c3 = np.array([1.0, -2.0 / 3.0, 1.0 / 6.0])
    if mu < 1e-16:
        near = c2 / (2.0 - alpha) + c3 / (3.0 - alpha)
    else:
        near = (c2 * mu ** (alpha - 2.0) * gamma_fn(2.0 - alpha)
                * gammainc(2.0 - alpha, mu)
                + c3 * mu ** (alpha - 3.0) * gamma_fn(3.0 - alpha)
                * gammainc(3.0 - alpha, mu))
    # [1, 4]: D_m is a cubic on each unit piece
    t, w = _unit_pieces(1.0, 3)
    d = _b3(m[:, None] + t) + _b3(m[:, None] - t) - 2.0 * b3m[:, None]
    near += d @ (w * t ** (-1.0 - alpha) * np.exp(-mu * t))
    # [4, inf): D_m = -2 B3(m), and int_4^inf e^{-mu t} t^{-1-alpha} dt is
    # mu^alpha Gamma(-alpha, 4 mu), reached from Gamma(2 - alpha, .) by
    # Gamma(s, x) = (Gamma(s + 1, x) - x^s e^{-x}) / s twice; every term
    # carries its mu^alpha, so lam = 0 needs no branch
    x = 4.0 * mu
    tail = mu**alpha * gamma_fn(2.0 - alpha) * gammaincc(2.0 - alpha, x)
    tail = (tail - mu * 4.0 ** (1.0 - alpha) * np.exp(-x)) / (1.0 - alpha)
    tail = (4.0 ** (-alpha) * np.exp(-x) - tail) / alpha
    near -= 2.0 * b3m * tail
    sym[:3] = lam**alpha * h * b3m + scale * near
    if not np.all(np.isfinite(sym)):
        raise FloatingPointError("non-finite entry in stiffness assembly")
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
                  T: float = 1.0) -> ProblemSpec:
    """Manufactured benchmark: u(x,t) = e^{-t} x^2 (1 - x/b)^2 on (0, b).

    The reaction coefficient is tied to the tempering strength
    (sigma = 3 lam^alpha kappa) so the source stays compact; it is evaluated
    in closed form by the tempered power rule (see
    ``fracquad.example1_forcing``), with no pointwise quadrature.
    """
    if b_end <= 0:
        raise ValueError("b_end must be positive")
    kap = fracquad.riesz_kappa(alpha)
    sigma = 3.0 * lam**alpha * kap
    w = fracquad.polynomial_bump(b_end)
    return ProblemSpec(
        alpha=alpha, lam=lam, sigma=sigma, a=0.0, b=b_end, T=T,
        f=fracquad.example1_forcing(alpha, lam, 0.0, b_end),
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
