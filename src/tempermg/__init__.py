"""Tempered fractional diffusion: FEM + Crank-Nicolson + Toeplitz multigrid."""

__version__ = "0.1.0"
