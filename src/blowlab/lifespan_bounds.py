"""Closed-form horizon bounds from the differential-inequality argument.

If a nonnegative space-time density w satisfies, for every R in [R1, T),

    delta + II(w psi_R) <= C0 * R^(-theta/p') * II(w psi*_R)^(1/p),

then T is bounded by a closed form in (delta, C0, R1, theta, p).  This module
provides that bound, an independently-routed ODE saturation oracle for it,
the cumulative log-integral of measured shell masses, and the checker that
tests the criterion inequality on simulated traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blowlab.cone_geometry import bound_theta, brent_root, fujita_threshold

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BoundInputs:
    """Parameters of the criterion inequality, all finite but ``c0``: its
    minimal value is inf when no finite constant passes."""

    delta: float
    c0: float
    r1: float
    theta: float
    p: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if math.isnan(value) or (math.isinf(value) and name != "c0"):
                raise ValueError(f"{name} must not be {value!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.c0 <= 0 or self.r1 <= 0:
            raise ValueError("c0 and r1 must be positive")
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")
        if self.p <= 1:
            raise ValueError("p must exceed 1")


def lifespan_upper_bound(b: BoundInputs) -> float:
    """Closed-form upper bound for the horizon T.

    theta > 0:  (R1^((p-1)theta) + log2 * C0^p * theta * delta^(1-p))^(1/((p-1)theta))
    theta = 0:  exp(log R1 + log2 * C0^p * delta^(1-p) / (p-1))

    A bound beyond the float range is returned as inf.
    """
    if b.delta == 0:
        raise ValueError("the closed-form bound needs a positive delta")
    try:
        load = LOG2 * b.c0**b.p * b.delta ** (-(b.p - 1.0))
        if b.theta > 0:
            e = (b.p - 1.0) * b.theta
            return (b.r1**e + b.theta * load) ** (1.0 / e)
        return math.exp(math.log(b.r1) + load / (b.p - 1.0))
    except OverflowError:
        return math.inf


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(120)


def _radius_map(log_r1: float, log_r: float, beta: float) -> float:
    """integral_{R1}^{R} r^(beta-1) dr, evaluated as a log-substituted
    Gauss-Legendre quadrature of exp(beta*u); handles beta=0 uniformly."""
    mid = 0.5 * (log_r1 + log_r)
    half = 0.5 * (log_r - log_r1)
    with np.errstate(over="ignore"):
        return half * float(np.dot(_GL_WEIGHTS, np.exp(beta * (mid + half * _GL_NODES))))


def ode_saturation_oracle(b: BoundInputs) -> float:
    """Independent check of the closed form by direct saturation.

    Marches the equality version of the governing differential inequality,
    d/drho [(log2*delta + Z)^(1-p)] = -(p-1) * (log2)^(-p) * C0^(-p)  from
    Z(0)=0, to the crossing rho* where the bracket reaches zero, then maps
    rho* back to a radius by numerically inverting
    rho(RR) = integral_{R1}^{RR} r^((p-1)theta - 1) dr (log-substituted
    quadrature plus root bracketing; no closed-form antiderivative is used).

    The march resolution is 1e-4 of the saturation scale; it and its half
    must agree to 1e-6 relative, otherwise the step is reported as too
    coarse.
    """
    if b.delta == 0:
        raise ValueError("saturation needs a positive delta")
    if math.isinf(b.c0):
        raise ValueError("saturation needs a finite c0")
    slope = (b.p - 1.0) * LOG2 ** (-b.p) * b.c0 ** (-b.p)
    v0 = (LOG2 * b.delta) ** (1.0 - b.p)

    def crossing(h: float) -> float:
        drop = slope * h
        v = v0
        rho = 0.0
        block = 1 << 14
        ks = np.arange(1, block + 1)
        while True:
            vals = v - drop * ks
            if vals[-1] <= 0.0:
                idx = int(np.argmax(vals <= 0.0))  # first step landing at or below 0
                v_before = v - drop * idx
                return rho + h * idx + h * v_before / drop
            v = float(vals[-1])
            rho += h * block

    rho_a = crossing(1e-4 * v0 / slope)
    rho_b = crossing(0.5 * 1e-4 * v0 / slope)
    if abs(rho_a - rho_b) > 1e-6 * max(rho_b, 1e-300):
        raise ValueError("step too coarse: refinements disagree beyond 1e-6")
    rho_star = rho_b

    beta = (b.p - 1.0) * b.theta
    lr1 = math.log(b.r1)
    offset = 1.0
    for _ in range(200):
        val = _radius_map(lr1, lr1 + offset, beta)
        if math.isfinite(val) and val >= rho_star:
            break
        if not math.isfinite(val):
            offset *= 0.75
            continue
        offset *= 2.0
    else:
        raise RuntimeError("failed to bracket the saturation radius")
    log_r = brent_root(
        lambda lr: _radius_map(lr1, lr, beta) - rho_star,
        lr1,
        lr1 + offset,
        xtol=1e-13,
        rtol=8.9e-16,
    )
    return math.exp(log_r)


@dataclass(frozen=True)
class FunctionalTrace:
    """Measured cutoff masses of a nonnegative density, per radius.

    ``shell_mass[i]`` is the integral of w against the starred cutoff at
    radius ``radii[i]`` (supported on the transition shell), ``mass[i]`` the
    integral against the plain cutoff; both are non-decreasing in i and the
    shell mass never exceeds the full mass.
    """

    radii: np.ndarray
    shell_mass: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        y = np.asarray(self.shell_mass, dtype=float)
        m = np.asarray(self.mass, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "shell_mass", y)
        object.__setattr__(self, "mass", m)
        if not (radii.shape == y.shape == m.shape) or radii.ndim != 1:
            raise ValueError("radii, shell_mass and mass must be 1-d and aligned")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if np.any(y < -1e-12) or np.any(m < -1e-12):
            raise ValueError("masses must be nonnegative")
        scale = max(float(np.max(m, initial=0.0)), 1e-300)
        if np.any(np.diff(m) < -1e-9 * scale):
            raise ValueError("plain cutoff masses must be non-decreasing in the radius")
        if np.any(y > m + 1e-9 * scale):
            raise ValueError("shell mass cannot exceed the plain cutoff mass")


def integrate_shell_masses(trace: FunctionalTrace) -> np.ndarray:
    """Cumulative integral of the shell masses against d(log r).

    Trapezoid in log r over the sampled radii; mass below the first radius is
    taken as zero, so traces should start where the shell mass is still
    negligible.  The result must stay below log(2) times the plain mass
    (up to a quadrature slack of 1e-9), otherwise the trace data are
    inconsistent.
    """
    r = trace.radii
    y = trace.shell_mass
    logr = np.log(r)
    increments = 0.5 * (y[1:] + y[:-1]) * np.diff(logr)
    out = np.concatenate([[0.0], np.cumsum(increments)])
    ceiling = LOG2 * trace.mass
    tol = 1e-9 * max(1.0, float(np.max(ceiling, initial=0.0)))
    if np.any(out > ceiling + tol):
        raise ValueError(
            "cumulative shell integral exceeds log(2) * mass: trace data inconsistent"
        )
    return out


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the criterion inequality on a trace."""

    radii: np.ndarray
    verdicts: np.ndarray  # bool per radius, with the supplied C0
    required_c0: np.ndarray  # per-radius smallest admissible C0 (inf where shell mass 0)
    minimal_c0: float  # smallest C0 making every radius pass


def criterion_check(trace: FunctionalTrace, b: BoundInputs) -> CriterionReport:
    """Test  delta + mass <= C0 * R^(-theta/p') * shell_mass^(1/p)  per radius.

    Only radii at or above R1 participate (the inequality is hypothesized on
    [R1, T)); a trace that ends before R1 violates the precondition.  A
    failing verdict is data, not an error; the report carries the smallest
    C0 that would make every participating radius pass.
    """
    keep = trace.radii >= b.r1 * (1.0 - 1e-12)
    if not np.any(keep):
        raise ValueError("trace ends before R1; no admissible radii")
    r = trace.radii[keep]
    y = trace.shell_mass[keep]
    m = trace.mass[keep]
    pc = b.p / (b.p - 1.0)
    lhs = b.delta + m
    with np.errstate(divide="ignore"):
        scale = r ** (-b.theta / pc) * y ** (1.0 / b.p)
        required = np.where(
            scale > 0.0,
            lhs / np.where(scale > 0.0, scale, 1.0),
            np.where(lhs <= 0.0, 0.0, np.inf),
        )
    verdicts = lhs <= b.c0 * scale
    return CriterionReport(
        radii=r,
        verdicts=verdicts,
        required_c0=required,
        minimal_c0=float(np.max(required)),
    )


@dataclass(frozen=True)
class RegimeBound:
    """The lifespan regime of (N, gamma, alpha, p): its tag and epsilon exponent."""

    tag: str
    exponent: float  # exponent of epsilon in the power regimes, 0.0 for exponential


def regime_bound(dim: int, gamma: float, alpha: float, p: float) -> RegimeBound:
    """The regime selected by (N, gamma, alpha, p) and its epsilon exponent.

    Regimes (threshold = 1 + 2/(N+gamma-alpha), pivot = 1 + alpha/(N+gamma-alpha)):

    * p = threshold: T ~ exp(C eps^-(p-1)), exponent 0
    * pivot < p < threshold: exponent -((2-alpha)/2) / (1/(p-1) - (N+gamma-alpha)/2)
    * p = pivot: exponent -(p-1) - 0.01  (logarithmic borderline)
    * p < pivot: exponent -(p-1)

    The theory fixes exponents, never constants, so no lifespan value is
    formed.  Exponents above the threshold are rejected: no finite-lifespan
    claim is made there.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    threshold = fujita_threshold(dim, gamma, alpha)
    base = dim + gamma - alpha
    pivot = 1.0 + alpha / base
    tol = 1e-12
    if p > threshold + tol:
        raise ValueError(f"p={p} exceeds the blowup threshold {threshold}")
    if abs(p - threshold) <= tol:
        return RegimeBound("exponential-critical", 0.0)
    if p > pivot + tol:
        expo = -((2.0 - alpha) / 2.0) / bound_theta(dim, gamma, alpha, p)
        return RegimeBound("power-subcritical", expo)
    if abs(p - pivot) <= tol:
        return RegimeBound("power-borderline-log", -(p - 1.0) - 0.01)
    return RegimeBound("power-low", -(p - 1.0))
