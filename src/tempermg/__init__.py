"""Tempered fractional diffusion: FEM + Crank-Nicolson + Toeplitz multigrid."""

from .assembly import (
    LevelOperator,
    Mesh,
    ProblemSpec,
    assemble_level,
    fe_l2_error,
    frac_pair_symbol,
    make_example1,
    make_example2,
    mass_symbol,
    stiffness_symbol,
)
from .fracquad import (
    QuadRule,
    SeparableForcing,
    SmoothFn,
    example1_forcing,
    gauss_jacobi,
    jacobi_gl,
    riesz_kappa,
    tempered_left_deriv,
    tempered_right_deriv,
)
from .multigrid import (
    Hierarchy,
    MgConfig,
    MgResult,
    build_hierarchy,
    contraction_factor,
    jacobi_smooth,
    mg_solve,
    prolongate,
    restrict,
    v_cycle,
)
from .timestep import (
    SolutionRecord,
    cn_step,
    rate_from_errors,
    run_simulation,
    shared_node_distance,
)
from .toeplitz import SymToeplitz, power_iteration, structure_report

__version__ = "0.1.0"
