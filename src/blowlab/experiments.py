"""Epsilon sweeps, scaling-law fits and regime verdicts.

A sweep repeats one blowup problem over a list of epsilon values, fits the
measured lifespans against the two candidate laws

    power:        log T = intercept + slope * log(eps)
    exponential:  log T = intercept + slope * eps^-(p-1)

and compares the winning model with the predicted regime.  The theory fixes
only exponents, never constants, so verdicts test the slope (power regimes)
or the functional form via model selection (critical regime).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from blowlab.lifespan_bounds import RegimeBound
from blowlab.solvers import (
    BlowupRecord,
    EvolutionProblem,
    RunControls,
    fault_record,
    run_until_blowup,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class SweepResult:
    problem_id: str
    records: list  # BlowupRecord per epsilon, sorted by epsilon
    power_fit: FitResult | None
    exponential_fit: FitResult | None
    fit_status: str  # ok | skipped: <reason>
    span_ok: bool  # advisory: epsilon span wide enough for a meaningful fit
    verdict: str = "unjudged"  # set by regime_verdict

    @property
    def blowup_rows(self) -> list:
        """The rows of the fits and ``sweep.dat``: blowups after t = 0, which have a log T."""
        return [r for r in self.records if r.status == "blowup" and r.t_extrapolated > 0]

    @property
    def faults(self) -> list:
        return [r for r in self.records if r.status == "fault"]


def _least_squares(x: np.ndarray, y: np.ndarray) -> FitResult:
    if x.size < 2 or float(np.max(x) - np.min(x)) == 0.0:
        raise ValueError("degenerate abscissa span")
    design = np.stack([np.ones_like(x), x], axis=1)
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ sol
    total = y - y.mean()
    denom = float(np.sum(total * total))
    r2 = 1.0 - float(np.sum(resid * resid)) / denom if denom > 0 else 1.0
    return FitResult(slope=float(sol[1]), intercept=float(sol[0]), r_squared=r2)


def fit_power_law(epsilons, lifespans) -> FitResult:
    """Least squares of log T on log eps."""
    eps = np.asarray(epsilons, dtype=float)
    t = np.asarray(lifespans, dtype=float)
    if np.any(eps <= 0) or np.any(t <= 0):
        raise ValueError("power-law fit needs positive epsilons and lifespans")
    return _least_squares(np.log(eps), np.log(t))


def fit_exponential_law(epsilons, lifespans, p: float) -> FitResult:
    """Least squares of log T on eps^-(p-1)."""
    eps = np.asarray(epsilons, dtype=float)
    t = np.asarray(lifespans, dtype=float)
    if np.any(eps <= 0) or np.any(t <= 0):
        raise ValueError("exponential-law fit needs positive epsilons and lifespans")
    return _least_squares(eps ** (-(p - 1.0)), np.log(t))


def epsilon_violations(epsilons) -> list[str]:
    """Every rule a sweep's epsilon list breaks: at least two, all positive, distinct."""
    eps = [float(e) for e in epsilons]
    bad = []
    if len(eps) < 2:
        bad.append("a sweep needs at least two epsilon values")
    if not all(e > 0 for e in eps):
        bad.append("epsilon values must be positive")
    if len(set(eps)) != len(eps):
        bad.append("epsilon values must be distinct")
    return bad


def _run_one(args) -> BlowupRecord:
    problem, controls = args
    try:
        return run_until_blowup(problem, controls).record
    except RuntimeError as exc:  # e.g. the step budget: this epsilon alone fails
        return fault_record(problem, str(exc))


def sweep(
    problem: EvolutionProblem,
    epsilons,
    controls: RunControls,
    jobs: int = 1,
    problem_id: str = "run",
) -> SweepResult:
    """Run the problem at each epsilon and fit both scaling laws.

    Items run in up to ``jobs`` processes when ``jobs`` exceeds 1; results
    are reduced in epsilon order so the output is identical at any worker count.
    A ``RuntimeError`` in one run (such as an exhausted step budget) does
    not stop the sweep: that epsilon becomes a ``fault`` row, logged at
    WARNING with its reason, and stays out of the fits.  Fits require at
    least 5 ``blowup_rows``; otherwise they are skipped with an explicit status.
    """
    bad = epsilon_violations(epsilons)
    if jobs < 1:
        bad.append(f"jobs must be at least 1, not {jobs}")
    if bad:
        raise ValueError("; ".join(bad))
    eps_sorted = sorted(float(e) for e in epsilons)
    span = eps_sorted[-1] / eps_sorted[0]
    span_ok = len(eps_sorted) >= 5 and span >= 3.0

    tasks = [
        (replace(problem, init=replace(problem.init, epsilon=e)), controls)
        for e in eps_sorted
    ]
    if jobs > 1:
        # imported here: the process pool brings multiprocessing, socket and subprocess,
        # which no one-job command needs
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method launches every worker up front: no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            records = list(pool.map(_run_one, tasks))
    else:
        records = [_run_one(t) for t in tasks]
    for rec in records:
        if rec.status == "fault":
            logger.warning("eps %r: fault: %s", rec.epsilon, rec.reason)

    result = SweepResult(problem_id, records, None, None, "", span_ok)
    blowups = result.blowup_rows
    if len(blowups) >= 5:
        eps_b = [r.epsilon for r in blowups]
        t_b = [r.t_extrapolated for r in blowups]
        result.power_fit = fit_power_law(eps_b, t_b)
        result.exponential_fit = fit_exponential_law(eps_b, t_b, problem.coeff.p)
        result.fit_status = "ok"
    else:
        result.fit_status = f"skipped: only {len(blowups)} blowups after t = 0 (need 5)"
        at_t0 = [r.epsilon for r in records if r.status == "blowup" and r not in blowups]
        if at_t0:
            result.fit_status += "; blowups at t = 0: eps " + ", ".join(map(repr, at_t0))
    return result


def regime_verdict(
    result: SweepResult,
    predicted: RegimeBound,
    slope_tolerance: float = 0.15,
) -> str:
    """Compare the winning fit with the predicted regime.

    Power regimes: the power fit must win and its slope lie within the
    tolerance of the predicted epsilon exponent.  Exponential regime: the
    exponential fit must win with positive slope.  The winning fit's R^2
    must reach 0.95.
    Returns (and stores on the result) "consistent", "inconsistent: <why>",
    "unfitted: too few blowups after t = 0" (see ``fit_status``), or "no
    blowup observed" when no run blew up.
    """
    result.verdict = _judge(result, predicted, slope_tolerance)
    return result.verdict


def _judge(result, predicted, slope_tolerance) -> str:
    if result.power_fit is None or result.exponential_fit is None:
        if any(r.status == "blowup" for r in result.records):
            return "unfitted: too few blowups after t = 0"
        return "no blowup observed"
    power_wins = result.power_fit.r_squared >= result.exponential_fit.r_squared
    if predicted.tag == "exponential-critical":
        if power_wins:
            return "inconsistent: power law outfits the exponential model"
        if result.exponential_fit.slope <= 0:
            return "inconsistent: exponential slope not positive"
        if result.exponential_fit.r_squared < 0.95:
            return "inconsistent: exponential fit quality below floor"
        return "consistent"
    if not power_wins:
        return "inconsistent: exponential model outfits the power law"
    want = predicted.exponent
    got = result.power_fit.slope
    if abs(got - want) > slope_tolerance * abs(want):
        return f"inconsistent: slope {got:.3f} vs predicted {want:.3f}"
    if result.power_fit.r_squared < 0.95:
        return "inconsistent: power fit quality below floor"
    return "consistent"
