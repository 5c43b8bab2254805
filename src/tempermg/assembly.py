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
Gauss sum plus, for m <= 2, incomplete-gamma pieces on [0, 1] and
[4, inf); each entry keeps its relative accuracy for every lam h.  Once
n >= 4 m0, lags m >= m0 = 64 expand the kernel in t/m to J = 12 terms
against moments of the Gauss weights taken once, so the whole symbol costs
O(n) time and a few n-vectors of memory; those entries agree with the Gauss
sums to 8.2e-16 relative (alpha in {1.1, 1.5, 1.9}, lam h from 0 to 8,
n = 4095).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import binom, gamma as gamma_fn, gammainc, gammaincc

from . import fracquad
from .toeplitz import SymToeplitz, structure_report


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on [a, b] with a power-of-two cell count."""

    a: float
    b: float
    cells: int

    def __post_init__(self):
        if not (self.b > self.a and np.isfinite(self.b - self.a)):
            raise ValueError("mesh requires b > a and a finite width b - a")
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

    ``f`` is the source as a ``SeparableForcing`` (space profile times time
    factor), or None for a homogeneous problem; ``u0`` maps x to the initial
    state; ``exact``, when present, is the reference solution (x, t) used
    for error measurement.  A lam whose lam^alpha or (lam (b - a))^alpha
    overflows is refused.
    """

    alpha: float
    lam: float
    sigma: float
    a: float
    b: float
    T: float
    f: Optional[fracquad.SeparableForcing] = None
    u0: Optional[Callable] = None
    exact: Optional[Callable] = None
    kappa: float = field(init=False)

    @property
    def stiffness_severity(self) -> str:
        """What a failed stiffness structure check means for this problem.

        "hard" in the untempered reaction-free case, where the sign and
        dominance structure is provable; "warn" otherwise, where it is only
        expected empirically.
        """
        return "hard" if self.lam == 0.0 and self.sigma == 0.0 else "warn"

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (1, 2)")
        if not np.all(np.isfinite((self.lam, self.sigma, self.a, self.b,
                                   self.T))):
            raise ValueError("lam, sigma, a, b and T must be finite")
        if self.lam < 0 or self.sigma < 0:
            raise ValueError("lam and sigma must be >= 0")
        if not (self.b > self.a and np.isfinite(self.b - self.a)
                and self.T > 0):
            raise ValueError("need b > a, a finite width b - a and T > 0")
        with np.errstate(over="ignore"):   # inf, where ** on floats raises
            powers = np.power([self.lam, self.lam * (self.b - self.a)],
                              self.alpha)
        if not np.all(np.isfinite(powers)):
            raise ValueError("lam^alpha and (lam (b - a))^alpha must be finite")
        if not isinstance(self.f, (fracquad.SeparableForcing, type(None))):
            raise TypeError("f must be a SeparableForcing or None")
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


# The solver's fixed Gauss-Legendre rules, read-only and built once: per unit
# piece of B3 in the stiffness assembly, per element for loads and for the
# L2 error.
_PIECE_RULE = fracquad.gauss_jacobi(0.0, 0.0, 12)
_LOAD_RULE = fracquad.gauss_jacobi(0.0, 0.0, 3)
_ERROR_RULE = fracquad.gauss_jacobi(0.0, 0.0, 4)


def _pieces(edges):
    """Gauss-Legendre nodes and weights on each interval between edges."""
    edges = np.asarray(edges, dtype=float)
    left, width = edges[:-1, None], np.diff(edges)[:, None]
    t = left + 0.5 * width * (1.0 + _PIECE_RULE.nodes)
    return t.ravel(), (0.5 * width * _PIECE_RULE.weights).ravel()


def _far_edges(mu):
    """Piece edges on [-2, 2] for the far-field weight B3(t) e^{-mu (t + 2)}.

    B3's unit pieces while mu <= 1.  Beyond, each is cut into pieces no wider
    than 1/mu, so e^{-mu (t + 2)} falls by at most e across a piece, and the
    edges stop at t + 2 = 50/mu, past which the weight is below 1e-17 of its
    peak; at mu = 8 unit pieces alone are off by 3e-11, at mu = 64 by 2%.
    """
    if mu <= 1.0:
        return np.arange(-2.0, 3.0)
    end = min(2.0, 50.0 / mu - 2.0)
    knots = np.append(np.arange(-2.0, end), end)
    return np.concatenate([knots[:1]] + [
        np.linspace(a, b, int(np.ceil((b - a) * mu)) + 1)[1:]
        for a, b in zip(knots[:-1], knots[1:])])


# Far-field lags from _FAR_M0 on come from a _FAR_J-term expansion in t/m,
# whose truncation is below 1e-17 relative there (|t/m| <= 1/32), on meshes
# with at least 4 _FAR_M0 interior nodes.
_FAR_M0, _FAR_J = 64, 12


def frac_pair_symbol(mesh: Mesh, alpha: float, lam: float) -> np.ndarray:
    """First column of the symmetrized fractional-pairing Gram matrix.

    Entry m is S_m = lam^alpha h B3(m) + h^{1-alpha} / (2 Gamma(-alpha)) I_m
    with I_m = int_0^inf e^{-mu t} t^{-1-alpha} D_m(t) dt, mu = lam h and
    D_m(t) = B3(m + t) + B3(m - t) - 2 B3(m) (see the module docstring).

    For m >= 3 the hat supports are separated, D_m(t) = B3(m - t), and I_m
    is a Gauss sum over B3's four pieces, cut finer once mu > 1.  Once
    n >= 4 m0, lags from m0 = 64 on use (m + t)^{-1-alpha} =
    m^{-1-alpha} sum_{j <= J} C(-1-alpha, j) (t/m)^j with J = 12: the
    moments W_j = sum_q w_q t_q^j of the weighted nodes are taken once, and
    each entry is m^{-1-alpha} times a Horner pass in 1/m, within 8.2e-16
    relative of the Gauss sum wherever the entry is a normal float.  For
    m = 0, 1, 2, I_m splits into [0, 1], where D_m(t) / t^2 is the exact
    linear c2 + c3 t and the piece is two lower incomplete gamma functions
    (forming D_m from B3 values there would cancel catastrophically);
    [1, 4], a cubic per unit piece; and [4, inf), where D_m = -2 B3(m) and
    the integral is an upper incomplete gamma function.  Cost is O(n) time
    and memory.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (1, 2)")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n, h = mesh.n_interior, mesh.h
    mu = lam * h
    scale = 0.5 * h ** (1.0 - alpha) / gamma_fn(-alpha)
    sym = np.zeros(n)
    # far field: the kernel at lag m + t is weighted by B3(t) dt.  Its
    # tempering factors as e^{-mu (m - 2)} e^{-mu (t + 2)}, both <= 1 (an
    # unshifted split meets inf * 0 once mu is in the hundreds), so it costs
    # n exponentials plus one per node; lags whose first factor underflows
    # are zero
    t, w = _pieces(_far_edges(mu))
    w *= _b3(t) * np.exp(-mu * (t + 2.0))
    lags = np.arange(3.0, n)
    tempering = np.exp(-mu * (lags - 2.0))
    live = np.count_nonzero(tempering)
    # the expansion's fixed cost, ~0.1 ms in a fresh process, is repaid
    # only from a few hundred lags on: smaller meshes keep the Gauss sum
    split = min(live, _FAR_M0 - 3) if n >= 4 * _FAR_M0 else live
    far = np.empty(live)
    far[:split] = (lags[:split, None] + t) ** (-1.0 - alpha) @ w
    if split < live:
        # C(-1-alpha, j) W_j with the moments W_j = sum w t^j, summed by
        # Horner in 1/m (see the docstring)
        coef = binom(-1.0 - alpha, np.arange(_FAR_J + 1.0))
        coef *= w @ np.vander(t, _FAR_J + 1, increasing=True)
        big = lags[split:live]
        inv = 1.0 / big
        poly = np.full(big.size, coef[-1])
        for c in coef[-2::-1]:
            poly *= inv
            poly += c
        far[split:] = big ** (-1.0 - alpha) * poly
    sym[3:3 + live] = scale * tempering[:live] * far
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
    t, w = _pieces(np.arange(1.0, 5.0))
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
    return sym


@dataclass
class LevelOperator:
    """One multigrid level: mesh, time step, symbols and the system operator.

    ``system`` is (1/h)(tau^{-1} M + B/2), the one operator whose product
    data (dense matrix or spectrum) is built at assembly; ``matvec``
    applies it into a fresh result, the solver's cycles with the copy-free
    ``_padded_matvec`` on operands its ``_operand`` lays out, and ``diag``
    is its (constant) diagonal.  The mass and stiffness are kept as first
    columns, and ``apply_mass`` applies the tridiagonal mass as its 3-point
    stencil.  ``mass`` and ``stiff`` build an operator from the columns on
    each access, for diagnostics.
    """

    mesh: Mesh
    tau: float
    mass_col: np.ndarray
    stiff_col: np.ndarray
    system: SymToeplitz
    diag: float

    @property
    def mass(self) -> SymToeplitz:
        return SymToeplitz(self.mass_col)

    @property
    def stiff(self) -> SymToeplitz:
        return SymToeplitz(self.stiff_col)

    def apply_mass(self, v: np.ndarray) -> np.ndarray:
        return np.convolve(v, self.mass_col[[1, 0, 1]], "same")


def level_from_symbols(problem: ProblemSpec, mesh: Mesh, tau: float,
                       bsym: np.ndarray) -> LevelOperator:
    """Level operator from the stiffness symbol and the mass of one mesh.

    The system symbol is (tau^{-1} M + B/2)/h.  A stiffness that fails the
    structure check (nonpositive off-diagonals plus weak diagonal
    dominance) raises where the problem's ``stiffness_severity`` is "hard"
    and only warns otherwise.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    msym = mass_symbol(mesh)
    asym = (msym / tau + 0.5 * bsym) / mesh.h
    if not structure_report(bsym)["ok"]:
        if problem.stiffness_severity == "hard":
            raise RuntimeError(
                "stiffness symbol lost its sign/dominance structure in the "
                f"untempered case (M={mesh.cells}); assembly is inconsistent")
        warnings.warn(
            f"stiffness structure check failed at lam={problem.lam}, "
            f"sigma={problem.sigma}, M={mesh.cells} (expected empirically)",
            RuntimeWarning, stacklevel=3)
    mass_col, stiff_col = (np.array(sym, dtype=float) for sym in (msym, bsym))
    mass_col.flags.writeable = stiff_col.flags.writeable = False
    return LevelOperator(mesh=mesh, tau=tau, mass_col=mass_col,
                         stiff_col=stiff_col, system=SymToeplitz(asym),
                         diag=float(asym[0]))


def assemble_level(problem: ProblemSpec, mesh: Mesh, tau: float) -> LevelOperator:
    """Discretize the problem on one mesh: closed-form mass, quadrature stiffness."""
    return level_from_symbols(problem, mesh, tau,
                              stiffness_symbol(problem, mesh))


def profile_load(mesh: Mesh, profile: Callable) -> np.ndarray:
    """Interior-node load vector (profile, phi_i) by per-element Gauss rules."""
    gl = _LOAD_RULE
    h = mesh.h
    edges = mesh.element_left_edges()
    xq = edges[:, None] + 0.5 * h * (1.0 + gl.nodes[None, :])
    vals = np.asarray(profile(xq.ravel()), dtype=float).reshape(xq.shape)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite load sample")
    shape_r = 0.5 * (1.0 + gl.nodes)  # hat at the element's right node
    shape_l = 0.5 * (1.0 - gl.nodes)
    load_r = 0.5 * h * (vals * shape_r[None, :]) @ gl.weights
    load_l = 0.5 * h * (vals * shape_l[None, :]) @ gl.weights
    # element e feeds node e + 1 through load_r and node e through load_l
    return load_r[:-1] + load_l[1:]


def fe_l2_error(mesh: Mesh, nodal: np.ndarray, exact: Callable,
                t: float) -> float:
    """L2 distance between the nodal interpolant (zero at endpoints) and exact."""
    gl = _ERROR_RULE
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
    w = fracquad.polynomial_bump(b_end)
    problem = ProblemSpec(alpha=alpha, lam=lam, sigma=0.0, a=0.0, b=b_end, T=T,
                          u0=w.value,
                          exact=lambda x, t: np.exp(-t) * w.value(x))
    # sigma and f take lam^alpha, which ProblemSpec has just checked
    return replace(problem, sigma=3.0 * lam**alpha * problem.kappa,
                   f=fracquad.example1_forcing(alpha, lam, b_end))


def make_example2(alpha: float, lam: float = 0.5) -> ProblemSpec:
    """Homogeneous decay benchmark on (0,1): u0 = x(1-x), f = 0, no exact."""
    return ProblemSpec(alpha=alpha, lam=lam, sigma=0.0, a=0.0, b=1.0, T=1.0,
                       f=None, u0=lambda x: x * (1.0 - x), exact=None)
