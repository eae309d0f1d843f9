"""1D compressible Navier-Stokes with degenerate viscosity mu(rho) = rho**alpha:
Eulerian and Lagrangian solvers plus a diagnostics engine for the effective
velocity/flux/pressure quantities and their a priori estimate monitors."""

__version__ = "0.1.0"
