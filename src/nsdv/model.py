"""Model parameters, grid/state containers and the closed-form constitutive laws.

The fluid is governed by a pressure law P(rho) = rho**gamma and a viscosity
law mu(rho) = rho**alpha with alpha > 1/2 and gamma >= max(1, alpha).  All the
auxiliary functions below are elementary consequences of those two powers:

    f1(rho)   = P'(rho)*rho/mu(rho)          = gamma * rho**(gamma-alpha)
    f2(rho)   solves rho*f2'(rho) = f1/rho   (two branches, log at gamma=alpha+1)
    phi(rho)  solves phi'(rho) = mu/rho**2   (two branches, log at alpha=1)

f2 shifts the scaled velocity gradient into the quantity obeying a maximum
principle; phi couples density gradients into the effective velocity.

CheckedDensity holds the density contract: `of` checks caller data for every
law and FluidState (DomainError), `stepped` the density a solver step made
(NumericalFailure, or VacuumBlowup at RHO_FLOOR).  Every law also takes a
CheckedDensity, which it does not check again and whose powers of rho it
shares.  Each FluidState owns one as its `density`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, NumericalFailure, VacuumBlowup

# Branch selection tolerance for gamma == alpha + 1 (and gamma == 1, alpha == 1).
BRANCH_TOL = 1e-12
# |gamma - alpha - 1| below this (but nonzero) makes f2's coefficient blow up.
CONDITIONING_TOL = 1e-6
# Density at or below this is reported as blow-up, never clamped.
RHO_FLOOR = 1e-10
# The far-field state (rho, u), pinned: the estimates the diagnostics check
# all assume rho - 1 and u are square integrable.
FARFIELD = (1.0, 0.0)


@dataclass(frozen=True)
class ModelParams:
    """Exponents and domain geometry; fixes every constitutive law."""

    alpha: float
    gamma: float
    half_length: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "half_length"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0.5:
            raise InputError(f"alpha must exceed 1/2, got {self.alpha}")
        if self.gamma < max(1.0, self.alpha):
            raise InputError(
                f"gamma must be >= max(1, alpha) = {max(1.0, self.alpha)}, got {self.gamma}"
            )
        if not self.half_length > 0:
            raise InputError(f"half_length must be positive, got {self.half_length}")
        gap = self.gamma - self.alpha - 1.0
        if BRANCH_TOL < abs(gap) < CONDITIONING_TOL:
            warnings.warn(
                f"gamma - alpha - 1 = {gap:.3e}: f2 coefficient is ill conditioned",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def log_branch(self) -> bool:
        """True when gamma = alpha + 1 within 1e-12: f2 takes its log form."""
        return abs(self.gamma - self.alpha - 1.0) <= BRANCH_TOL


@dataclass(frozen=True)
class Grid1D:
    """Uniform node grid on [-L, L]; x_i = -L + i*dx with dx = 2L/(n-1)."""

    n_cells: int
    half_length: float
    dx: float = field(init=False)
    coords: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_cells < 3:
            raise InputError(f"need at least 3 nodes, got {self.n_cells}")
        if not 0 < self.half_length < np.inf:
            raise InputError(f"half_length must be positive and finite, got {self.half_length}")
        dx = 2.0 * self.half_length / (self.n_cells - 1)
        coords = -self.half_length + dx * np.arange(self.n_cells)
        coords[-1] = self.half_length  # pin the last node exactly at +L
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "coords", coords)


class CheckedDensity:
    """A density array checked to be strictly positive, by `of` or `stepped`,
    with each power rho**e computed at its first use and kept.  The
    FluidState built from one keeps it as its `density`, so the powers live
    exactly as long as the state."""

    __slots__ = ("rho", "_powers")

    def __init__(self, rho: np.ndarray):
        self.rho = rho
        self._powers = {}

    @classmethod
    def of(cls, rho, time=None) -> CheckedDensity:
        """rho itself if it is a CheckedDensity, else caller data as a float array,
        checked: a value <= 0 is a DomainError naming the smallest, its node and `time`."""
        if isinstance(rho, cls):
            return rho
        rho = np.asarray(rho, dtype=float)
        if (rho <= 0.0).any():
            i = int(np.argmin(rho))
            at = "" if time is None else f" (t={time})"
            raise DomainError(f"non-positive density {rho.flat[i]} at node {i}{at}")
        return cls(rho)

    @classmethod
    def stepped(cls, rho_new: np.ndarray, t_new: float) -> CheckedDensity:
        """The density a solver step made for t_new, checked by one min and one
        max (a NaN propagates into both): NaN, inf or <= 0 is scheme breakdown
        (NumericalFailure), a finite density in (0, RHO_FLOOR] a physical
        vacuum approach (VacuumBlowup at its first node)."""
        lo, hi = rho_new.min(), rho_new.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NumericalFailure.non_finite(t_new)
        if lo <= 0.0:
            raise NumericalFailure(f"negative density at t={t_new:.6g} (unstable step)", time=t_new)
        if lo <= RHO_FLOOR:
            node = int(np.argmax(rho_new <= RHO_FLOOR))
            raise VacuumBlowup(f"density hit the vacuum floor at node {node}, t={t_new:.6g}",
                               time=t_new, node=node)
        return cls(rho_new)

    def power(self, e: float):
        """rho**e, evaluated at the first call with this exponent."""
        if e not in self._powers:
            self._powers[e] = self.rho**e
        return self._powers[e]


@dataclass(frozen=True)
class FluidState:
    """Sampled (rho, u) at one time instant.  rho must be strictly positive:
    vacuum aborts a run, it never silently propagates.  An array is checked
    by CheckedDensity.of after the shape check; a CheckedDensity, as a step
    passes it, is not.  Either way `density` is the CheckedDensity of rho,
    whose powers every law evaluated on this state shares.  rho is not
    written after building.  `v`, the effective velocity, is set by an
    effective step, whose next step reads it; None marks caller data."""

    time: float
    rho: np.ndarray
    u: np.ndarray
    v: np.ndarray | None = field(default=None, repr=False, compare=False)
    density: CheckedDensity = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checked = isinstance(self.rho, CheckedDensity)
        rho = self.rho.rho if checked else np.asarray(self.rho, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if rho.shape != u.shape or rho.ndim != 1:
            raise InputError(f"rho/u must be equal-length 1D arrays, got {rho.shape} vs {u.shape}")
        if self.v is not None:
            v = np.asarray(self.v, dtype=float)
            if v.shape != u.shape:
                raise InputError(f"v must match rho/u, got {v.shape} vs {u.shape}")
            object.__setattr__(self, "v", v)
        density = self.rho if checked else CheckedDensity.of(rho, self.time)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "density", density)

    @property
    def n(self) -> int:
        return self.rho.shape[0]


def pressure(rho, p: ModelParams):
    """P(rho) = rho**gamma."""
    return CheckedDensity.of(rho).rho ** p.gamma


def viscosity(rho, p: ModelParams):
    """mu(rho) = rho**alpha."""
    return CheckedDensity.of(rho).power(p.alpha)


def f1(rho, p: ModelParams):
    """Damping coefficient P'(rho)*rho/mu(rho) = gamma * rho**(gamma-alpha); >= 0."""
    return p.gamma * CheckedDensity.of(rho).rho ** (p.gamma - p.alpha)


def f2(rho, p: ModelParams):
    """Effective-pressure offset: the antiderivative fixed by rho*f2' = f1/rho.

    gamma/(gamma-alpha-1) * rho**(gamma-alpha-1) off the degenerate line,
    gamma*log(rho) on it.
    """
    density = CheckedDensity.of(rho)
    if p.log_branch:
        return p.gamma * np.log(density.rho)
    e = p.gamma - p.alpha - 1.0
    return (p.gamma / e) * density.power(e)


def f1f2(rho, p: ModelParams):
    """Product f1*f2 in closed form (source term of the effective-pressure equation)."""
    rho = CheckedDensity.of(rho).rho
    if p.log_branch:
        return p.gamma**2 * np.log(rho) * rho ** (p.gamma - p.alpha)
    e = p.gamma - p.alpha - 1.0
    return (p.gamma**2 / e) * rho ** (2.0 * p.gamma - 2.0 * p.alpha - 1.0)


def f1prime_rho_over_mu(rho, p: ModelParams):
    """f1'(rho)*rho/mu(rho) = gamma*(gamma-alpha)*rho**(gamma-2*alpha).

    Coefficient of the quadratic (v-u)**2 term; identically zero when gamma = alpha.
    """
    rho = CheckedDensity.of(rho).rho
    if p.gamma == p.alpha:
        return np.zeros_like(rho)
    return p.gamma * (p.gamma - p.alpha) * rho ** (p.gamma - 2.0 * p.alpha)


def phi(rho, p: ModelParams):
    """Density potential with phi'(rho) = mu(rho)/rho**2 = rho**(alpha-2).

    rho**(alpha-1)/(alpha-1) for alpha != 1, log(rho) for alpha = 1.  Its spatial
    gradient is exactly the gap between effective and actual velocity.
    """
    density = CheckedDensity.of(rho)
    if abs(p.alpha - 1.0) <= BRANCH_TOL:
        return np.log(density.rho)
    return density.power(p.alpha - 1.0) / (p.alpha - 1.0)


def internal_energy(rho, p: ModelParams):
    """Relative internal energy Pi(rho) - Pi(1) - Pi'(1)(rho - 1).

    Pi(s) = s**gamma/(gamma-1) for gamma > 1 and s*log(s) for gamma = 1; the
    relative form is the unique (up to affine terms) convex integrand with
    rho*Pi''(rho) = P'(rho), nonnegative and vanishing only at rho = 1, so the
    integral over the line converges with the (1, 0) far field.
    """
    rho = CheckedDensity.of(rho).rho
    if abs(p.gamma - 1.0) <= BRANCH_TOL:
        return rho * np.log(rho) - rho + 1.0
    g = p.gamma
    return (rho**g - g * rho + g - 1.0) / (g - 1.0)


def sound_speed(rho, p: ModelParams):
    """c(rho) = sqrt(P'(rho)) = sqrt(gamma * rho**(gamma-1))."""
    return np.sqrt(p.gamma * CheckedDensity.of(rho).power(p.gamma - 1.0))
