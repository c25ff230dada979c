"""The two halves checking each other, each check written once.

Four property suites check the analysis half; :func:`criterion_pipeline`
turns a run's trace into the criterion verdict and the lifespan bound it
implies.  Each returns what it measured: thresholds, seeds and the Hardy
sample size belong to the caller (the ``blowlab verify`` command, the
acceptance gate, the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blowlab import cone_geometry as cg
from blowlab import cutoffs as co
from blowlab import lifespan_bounds as lb
from blowlab import solvers as sv


@dataclass(frozen=True)
class CutoffMeasures:
    support: tuple  # psi, psi* at x = 0 and at x = 3 (t = 0, R = 8): exactly 1, 0, 0, 0
    log2_margins: np.ndarray  # log-2 tail inequality at 100 sigmas in [0, 1.2]
    spreads: dict  # (p, alpha, "c1"|"c2"|"c3") -> largest relative deviation over R
    power_one_diverges: bool  # negative control: power 1 breaks the derivative bounds


def cutoff() -> CutoffMeasures:
    fam = co.CutoffFamily(R=8.0, p=2.0)
    support = tuple(
        float(f(fam, x, 0.0)) for x in (np.zeros(1), np.array([3.0])) for f in (co.psi, co.psi_star)
    )
    margins = co.log2_inequality_margins(fam, np.linspace(0.0, 1.2, 100))
    powers, alphas, radii = (1.5, 2.0, 3.0), (0.0, 0.5, 1.0), (10.0, 100.0, 1000.0)
    # p innermost: the three powers share the shell mesh of each (R, alpha)
    consts = {
        (R, alpha, p): co.bound_constants(co.CutoffFamily(R=R, p=p, alpha=alpha), dim=2)
        for alpha in alphas
        for R in radii
        for p in powers
    }
    spreads = {}
    for p in powers:
        for alpha in alphas:
            vals = [consts[R, alpha, p] for R in radii]
            for name in ("c1", "c2", "c3"):
                v = np.array([getattr(b, name) for b in vals])
                mean = float(v.mean())
                spreads[p, alpha, name] = float(np.max(np.abs(v - mean))) / mean
    hat = co.CutoffFamily(R=10.0, p=2.0, profile=co.PolynomialProfile(), power=1.0)
    try:
        co.bound_constants(hat, dim=1)
        diverges = False
    except ValueError:
        diverges = True
    return CutoffMeasures(support, margins, spreads, diverges)


HARDY_DOMAINS = (
    ("full-sphere N=3", cg.CrossSectionSpec("full-sphere", 3)),
    ("quarter-plane", cg.CrossSectionSpec("half-space-product", 2, k=2)),
    ("half-line", cg.CrossSectionSpec("half-line", 1)),
)


def random_bump(spec: cg.CrossSectionSpec, rng: np.random.Generator) -> cg.BumpField:
    """A bump whose support stays inside the cone of ``spec``."""
    if spec.kind == "full-sphere":
        direction = rng.normal(size=spec.dim)
        direction /= np.linalg.norm(direction)
        dist = rng.uniform(0.5, 2.0)
        center = direction * dist
        radius = dist * rng.uniform(0.25, 0.6)
    elif spec.kind == "half-space-product":
        center = rng.uniform(0.8, 3.0, size=spec.dim)
        radius = float(np.min(center[: spec.k])) * rng.uniform(0.3, 0.7)
    elif spec.kind == "half-line":
        c = rng.uniform(1.0, 4.0)
        center = np.array([c])
        radius = c * rng.uniform(0.3, 0.7)
    else:
        raise ValueError(f"no random bump for {spec.kind}")
    return cg.BumpField(center=center, radius=radius, amplitude=rng.uniform(0.5, 2.0))


def hardy(seed: int, count: int, orders) -> list:
    """``(label, Hardy constant, quotients)`` of ``count`` bumps per domain,
    one generator in domain order; ``orders`` holds each domain's quadrature n."""
    rng = np.random.default_rng(seed)
    out = []
    for (label, spec), n in zip(HARDY_DOMAINS, orders, strict=True):
        dom = cg.make_domain(spec)
        ratios = [cg.hardy_ratio(dom, random_bump(spec, rng), n=n) for _ in range(count)]
        out.append((label, cg.hardy_constant(dom), np.array(ratios)))
    return out


def residual_ratios(spec: cg.CrossSectionSpec, x, h0: float) -> tuple[float, float]:
    """Laplacian and Euler residuals at step h0 over those at h0/2."""
    dom = cg.make_domain(spec)
    x = np.asarray(x, dtype=float)
    lap_c, euler_c = cg.harmonic_residual(dom, x, h0)
    lap_f, euler_f = cg.harmonic_residual(dom, x, h0 / 2)
    return lap_c / lap_f, euler_c / euler_f


@dataclass(frozen=True)
class HarmonicMeasures:
    product_laplacian: float  # quarter-plane weight x1*x2 at (1, 2), h = 0.01
    half_line_euler: float  # half-line Euler residual at 2, h = 0.25
    orders: list  # (kind, Laplacian ratio, Euler ratio) on a sector and a cap


def harmonic() -> HarmonicMeasures:
    quarter = cg.make_domain(cg.CrossSectionSpec("half-space-product", 2, k=2))
    lap, _ = cg.harmonic_residual(quarter, np.array([1.0, 2.0]), 0.01)
    half = cg.make_domain(cg.CrossSectionSpec("half-line", 1))
    _, euler = cg.harmonic_residual(half, np.array([2.0]), 0.25)
    orders = [
        (spec.kind, *residual_ratios(spec, point, h0))
        for spec, point, h0 in (
            (cg.CrossSectionSpec("planar-sector", 2, omega=3 * math.pi / 4), (0.96, 0.61), 1e-2),
            (cg.CrossSectionSpec("spherical-cap", 3, theta0=1.0), (0.25, 0.1, 0.9), 2e-2),
        )
    ]
    return HarmonicMeasures(lap, euler, orders)


ORACLE_POINTS = 100


def lemma_oracle(seed: int) -> tuple[tuple, float]:
    """The closed form at (1, 1, 1, theta, 2) for theta 0 and 1 (exactly 2 and 1 + log 2),
    and its largest relative gap to the saturation oracle over ORACLE_POINTS random inputs."""
    spots = tuple(
        lb.lifespan_upper_bound(lb.BoundInputs(1.0, 1.0, 1.0, theta, 2.0)) for theta in (0.0, 1.0)
    )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ORACLE_POINTS):
        b = lb.BoundInputs(
            delta=rng.uniform(0.1, 10.0),
            c0=rng.uniform(0.5, 2.0),
            r1=rng.uniform(0.5, 2.0),
            theta=rng.uniform(0.0, 2.0),
            p=rng.uniform(1.2, 4.0),
        )
        closed = lb.lifespan_upper_bound(b)
        worst = max(worst, abs(closed - lb.ode_saturation_oracle(b)) / closed)
    return spots, worst


@dataclass(frozen=True)
class CriterionOutcome:
    inputs: lb.BoundInputs  # delta, R1, theta and p, with C0 at its minimal value
    report: lb.CriterionReport
    bound: float  # lifespan_upper_bound(inputs)


def causal_trace(
    problem: sv.EvolutionProblem, controls: sv.RunControls, count: int, top: float
) -> tuple[sv.RunResult, lb.FunctionalTrace]:
    """The run and its trace at ``count`` radii geometric from R1 to ``top`` times
    its lifespan T.

    The radii need T, so the problem runs twice: once with no observer to
    learn T, and once more with the trace streamed on those radii.  An
    observer does not change the trajectory, so both runs are the same.
    """
    r1 = sv.first_admissible_radius(problem.init, problem.coeff.alpha)
    record = sv.run_until_blowup(problem, controls).record
    if record.status != "blowup":
        raise ValueError(f"the run ended {record.status} at t_final = {record.t_final!r}: no T")
    t_life = record.t_extrapolated
    if not top * t_life > r1:
        raise ValueError(
            f"top * T = {top!r} * {t_life!r} = {top * t_life!r} does not exceed "
            f"R1 = {r1!r}: no trace radius lies between them"
        )
    acc = sv.TraceAccumulator(problem, np.geomspace(r1, top * t_life, count))
    result = sv.run_until_blowup(problem, controls, (acc,))
    return result, acc.finish()


def criterion_pipeline(result: sv.RunResult, trace: lb.FunctionalTrace) -> CriterionOutcome:
    """Check the criterion on the run's ``trace`` and bound the lifespan.

    theta is ``1/(p-1) - (N + gamma - alpha)/2`` of the run's cone, delta the
    weighted initial mass, R1 the first admissible radius.  Raises ValueError
    when the trace breaks ``integral Y dr/r <= log 2 * M`` or the run has no
    bound (lambda = 0, or <= 0 for tau = 1; theta < 0; a trace that ends before R1).
    """
    problem, coeff = result.problem, result.problem.coeff
    if coeff.lam == 0 or (coeff.tau == 1 and not coeff.lam.real > 0):
        raise ValueError(f"lambda: the bound needs lambda != 0, and > 0 for tau = 1; lambda is {coeff.lam:g}")
    lb.integrate_shell_masses(trace)
    dom = sv.domain_for_grid(problem.grid)
    theta = cg.bound_theta(dom.dim, dom.gamma, coeff.alpha, coeff.p)
    if theta < 0:
        raise ValueError(f"theta = 1/(p-1) - (N+gamma-alpha)/2 = {theta!r} < 0")
    delta = sv.weighted_initial_mass(problem)
    r1 = sv.first_admissible_radius(problem.init, coeff.alpha)
    report = lb.criterion_check(trace, lb.BoundInputs(delta, 1.0, r1, theta, coeff.p))
    inputs = lb.BoundInputs(delta, report.minimal_c0, r1, theta, coeff.p)
    return CriterionOutcome(inputs, report, lb.lifespan_upper_bound(inputs))
