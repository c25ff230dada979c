import contextlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from blowlab.config import emit_sweep
from blowlab.experiments import (
    SweepResult,
    fit_exponential_law,
    fit_power_law,
    regime_verdict,
    sweep,
)
from blowlab.lifespan_bounds import RegimeBound, regime_bound
from blowlab.solvers import (
    BlowupRecord,
    CoefficientSpec,
    EvolutionProblem,
    GridSpec,
    InitialDataSpec,
    RunControls,
)


def test_fit_power_law_exact():
    eps = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    t = 3.0 * eps**-0.5
    fit = fit_power_law(eps, t)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponential_law_exact():
    eps = np.array([0.4, 0.6, 0.8, 1.0, 1.2])
    t = np.exp(2.0 * eps**-1.0)
    fit = fit_exponential_law(eps, t, p=2.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    power = fit_power_law(eps, t)
    assert power.r_squared < fit.r_squared


def test_fit_rejects_degenerate_abscissa():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        fit_power_law([0.5, -1.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_fit_recovers_slope_under_noise():
    rng = np.random.default_rng(123)
    eps = np.geomspace(0.1, 1.0, 10)
    fails = 0
    for _ in range(100):
        t = eps**-2.0 * np.exp(rng.normal(0.0, 0.1, size=eps.size))
        fit = fit_power_law(eps, t)
        if abs(fit.slope + 2.0) > 0.2:
            fails += 1
    assert fails == 0


def _record(eps, status, t):
    return BlowupRecord(
        epsilon=eps,
        p=2.0,
        tau=0,
        alpha=0.0,
        zeta=0.0,
        status=status,
        t_at_thresholds=(t, t, t, t),
        t_extrapolated=t,
        dt_final=1e-3,
        h=0.05,
        steps=100,
        t_final=t if not math.isnan(t) else 1.0,
        boundary_max=0.0,
    )


def _synthetic_sweep(eps, t_of_eps, p=2.0):
    records = [_record(e, "blowup", t_of_eps(e)) for e in eps]
    power = fit_power_law(eps, [t_of_eps(e) for e in eps])
    expo = fit_exponential_law(eps, [t_of_eps(e) for e in eps], p)
    return SweepResult(
        problem_id="synthetic",
        records=records,
        power_fit=power,
        exponential_fit=expo,
        fit_status="ok",
        span_ok=True,
    )


def test_regime_verdict_power_consistent():
    eps = np.geomspace(0.1, 1.0, 6)
    sr = _synthetic_sweep(eps, lambda e: e**-2.0)
    predicted = regime_bound(1, 0.0, 0.0, 2.0)
    assert regime_verdict(sr, predicted) == "consistent"


def test_regime_verdict_mislabeled_regime_inconsistent():
    eps = np.geomspace(0.1, 1.0, 6)
    sr = _synthetic_sweep(eps, lambda e: e**-2.0)
    # claim the critical exponential regime against clean power data
    wrong = RegimeBound("exponential-critical", 0.0)
    assert regime_verdict(sr, wrong).startswith("inconsistent")


def test_regime_verdict_wrong_slope_inconsistent():
    eps = np.geomspace(0.1, 1.0, 6)
    sr = _synthetic_sweep(eps, lambda e: e**-1.0)
    predicted = regime_bound(1, 0.0, 0.0, 2.0)  # predicts -2
    assert regime_verdict(sr, predicted).startswith("inconsistent")


def test_regime_verdict_exponential_consistent():
    eps = np.linspace(0.6, 1.2, 7)
    sr = _synthetic_sweep(eps, lambda e: math.exp(2.0 * e**-2.0), p=3.0)
    predicted = regime_bound(1, 0.0, 0.0, 3.0)
    assert regime_verdict(sr, predicted) == "consistent"


def test_regime_verdict_without_fits():
    sr = SweepResult(
        problem_id="none",
        records=[_record(0.1, "survived", math.nan)],
        power_fit=None,
        exponential_fit=None,
        fit_status="skipped: only 0 blowups after t = 0 (need 5)",
        span_ok=False,
    )
    assert regime_verdict(sr, regime_bound(1, 0.0, 0.0, 2.0)) == "no blowup observed"


@pytest.mark.parametrize("t", [0.0, 2.5], ids=["at-t0", "after-t0"])
def test_regime_verdict_of_blowups_too_few_to_fit(t):
    sr = SweepResult(
        problem_id="few",
        records=[_record(0.1, "survived", math.nan), _record(0.2, "blowup", t)],
        power_fit=None,
        exponential_fit=None,
        fit_status="skipped",
        span_ok=False,
    )
    assert regime_verdict(sr, regime_bound(1, 0.0, 0.0, 2.0)) == "unfitted: too few blowups after t = 0"


HEAT = CoefficientSpec(tau=0, p=2.0, lam=1.0, a_phase=0.0)


def _small_problem():
    grid = GridSpec("line", extent=60.0, num_points=1201)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=1.0)
    return EvolutionProblem(HEAT, grid, init)


def test_sweep_runs_and_fits():
    controls = RunControls(threshold=1e6, t_max=40.0, dt_init=2.5e-3)
    result = sweep(_small_problem(), (0.5, 0.65, 0.85, 1.1, 1.4), controls)
    assert result.fit_status == "ok"
    assert len(result.records) == 5
    assert [r.epsilon for r in result.records] == sorted(r.epsilon for r in result.records)
    assert result.power_fit.slope < 0
    # lifespans decrease with epsilon
    ts = [r.t_extrapolated for r in result.records]
    assert all(b <= a for a, b in zip(ts, ts[1:]))
    assert 0.0 <= result.power_fit.r_squared <= 1.0


def test_sweep_skips_fit_without_blowups():
    controls = RunControls(threshold=1e6, t_max=0.2, dt_init=2.5e-3)
    result = sweep(_small_problem(), (0.01, 0.012, 0.015, 0.02, 0.025), controls)
    assert result.fit_status.startswith("skipped")
    assert result.power_fit is None


def test_sweep_parallel_equals_serial():
    controls = RunControls(threshold=1e6, t_max=20.0, dt_init=2.5e-3)
    eps = (0.8, 1.0, 1.2, 1.5, 1.9)
    serial = sweep(_small_problem(), eps, controls, jobs=1)
    parallel = sweep(_small_problem(), eps, controls, jobs=3)
    for a, b in zip(serial.records, parallel.records):
        assert a == b
    assert serial.power_fit == parallel.power_fit


def test_sweep_validates_epsilons():
    controls = RunControls(threshold=1e6, t_max=1.0)
    with pytest.raises(ValueError):
        sweep(_small_problem(), (0.5,), controls)
    with pytest.raises(ValueError):
        sweep(_small_problem(), (0.5, 0.5), controls)


@pytest.mark.parametrize("jobs, eps, pools", [
    (64, (0.01, 0.02), [2]),
    (3, (0.01, 0.012, 0.015, 0.02, 0.025), [3]),
    (1, (0.01, 0.02), []),
])
def test_sweep_starts_no_more_workers_than_epsilons(monkeypatch, jobs, eps, pools):
    sizes = []

    def pool(max_workers):  # records the pool size and maps in-process: no process starts
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr("blowlab.experiments.ProcessPoolExecutor", pool)
    controls = RunControls(threshold=1e6, t_max=0.01, dt_init=2.5e-3)
    result = sweep(_small_problem(), eps, controls, jobs=jobs)
    assert sizes == pools
    assert [r.status for r in result.records] == ["survived"] * len(eps)


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_rejects_fewer_than_one_job(monkeypatch, jobs):
    monkeypatch.setattr("blowlab.experiments.run_until_blowup", None)  # nothing may run
    with pytest.raises(ValueError, match=f"jobs must be at least 1, not {jobs}"):
        sweep(_small_problem(), (0.5, 0.7), RunControls(threshold=1e6, t_max=1.0), jobs=jobs)


def test_sweep_keeps_blowups_at_t0_out_of_the_fits(tmp_path):
    # a start above the threshold is a blowup at t = 0, which has no log T
    controls = RunControls(threshold=1e3, t_max=20.0, dt_init=2.5e-3)
    result = sweep(_small_problem(), (1.5, 2e3, 3e3), controls)
    assert [(r.status, r.t_extrapolated > 0) for r in result.records] == [
        ("blowup", True), ("blowup", False), ("blowup", False)]
    assert result.blowup_rows == result.records[:1]
    assert result.fit_status == "skipped: only 1 blowups after t = 0 (need 5); blowups at t = 0: eps 2000.0, 3000.0"
    emit_sweep(result, str(tmp_path))
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 4
    assert len((tmp_path / "sweep.dat").read_text().splitlines()) == 1


def test_runtime_fault_becomes_a_fault_row(caplog, tmp_path):
    # 0.8 and 1.2 need 325 and 287 accepted steps, the others at most 272
    controls = RunControls(threshold=1e6, t_max=20.0, dt_init=2.5e-3, max_steps=280)
    eps = (0.8, 1.0, 1.2, 1.5, 1.9)
    with caplog.at_level("WARNING", logger="blowlab.experiments"):
        serial = sweep(_small_problem(), eps, controls, jobs=1)
    warned = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    parallel = sweep(_small_problem(), eps, controls, jobs=2)
    assert [r.status for r in serial.records] == ["fault", "blowup", "fault", "blowup", "blowup"]
    assert [repr(r) for r in serial.records] == [repr(r) for r in parallel.records]  # NaN != NaN
    fault = serial.records[0]
    assert fault.reason == "step budget exhausted before a verdict was reached"
    assert math.isnan(fault.t_extrapolated)
    assert len(fault.t_at_thresholds) == 4 and all(map(math.isnan, fault.t_at_thresholds))
    assert warned == [f"eps {e!r}: fault: {fault.reason}" for e in (0.8, 1.2)]
    assert serial.fit_status == "skipped: only 3 blowups after t = 0 (need 5)"

    summary = emit_sweep(serial, str(tmp_path))
    assert summary["faults"] == [{"epsilon": e, "reason": fault.reason} for e in (0.8, 1.2)]
    assert json.loads((tmp_path / "sweep_summary.json").read_text())["faults"] == summary["faults"]
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == "0.8,2.0,0,0.0,0.0,fault,nan,nan,nan,nan,nan,nan,0.05,nan"
    assert len((tmp_path / "sweep.dat").read_text().splitlines()) == 3

    whole = sweep(_small_problem(), eps, RunControls(threshold=1e6, t_max=20.0, dt_init=2.5e-3))
    assert "faults" not in emit_sweep(whole, str(tmp_path))
