"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line verdicts.
The heavier criteria (5-9) drive full blowup sweeps; the whole module is
sized to finish well inside the stated runtime targets.
"""

import json
import math
import time

import numpy as np
import pytest

from blowlab import verify
from blowlab.cli import main as cli_main
from blowlab.cone_geometry import cap_eigenvalue, sector_eigenvalue
from blowlab.experiments import sweep
from blowlab.solvers import (
    CoefficientSpec,
    EvolutionProblem,
    GridSpec,
    InitialDataSpec,
    RunControls,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: closed form vs saturation oracle ----------------------


def test_criterion_1_closed_form_vs_oracle():
    start = time.perf_counter()
    spots, worst = verify.lemma_oracle(seed=3)
    spots_ok = spots == (2.0, 1.0 + math.log(2.0))
    elapsed = time.perf_counter() - start
    ok = spots_ok and worst <= 1e-6 and elapsed < 1.0
    _verdict(1, ok, f"worst rel diff {worst:.2e} over {verify.ORACLE_POINTS} points, "
                    f"{elapsed:.2f}s")
    assert spots_ok
    assert worst <= 1e-6
    assert elapsed < 1.0


# -- criterion 2: spectral constants -------------------------------------


def test_criterion_2_spectral_constants():
    start = time.perf_counter()
    sector = sector_eigenvalue(math.pi / 2)
    cap = cap_eigenvalue(math.pi / 2)
    half_space_2 = 2 * (2 - 2 + 2)  # k=2, N=2
    half_space_3 = 1 * (3 - 2 + 1)  # k=1, N=3
    elapsed = time.perf_counter() - start
    ok = (
        sector == 4.0
        and abs(cap - 2.0) <= 1e-8
        and sector == half_space_2
        and abs(cap - half_space_3) <= 1e-8
        and elapsed < 1.0
    )
    _verdict(2, ok, f"sector {sector}, hemisphere {cap:.10f}, {elapsed:.2f}s")
    assert sector == 4.0
    assert cap == pytest.approx(2.0, abs=1e-8)
    assert elapsed < 1.0


# -- criterion 3: Hardy suite --------------------------------------------


def test_criterion_3_hardy_suite():
    start = time.perf_counter()
    suite = verify.hardy(seed=2024, count=1000, orders=(24, 32, 200))
    violations = sum(int(np.count_nonzero(ratios < bound - 1e-6)) for _, bound, ratios in suite)
    worst_margin = min(float(np.min(ratios - bound)) for _, bound, ratios in suite)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _verdict(3, ok, f"3000 fields, 0 violations target (got {violations}), "
                    f"worst margin {worst_margin:.3f}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 30.0


# -- criterion 4: cutoff suite --------------------------------------------


def test_criterion_4_cutoff_suite():
    start = time.perf_counter()
    m = verify.cutoff()
    support_ok = m.support == (1.0, 0.0, 0.0, 0.0)
    log2_ok = bool(np.all(m.log2_margins >= -1e-10))
    stable = max(m.spreads.values()) <= 0.10
    elapsed = time.perf_counter() - start
    ok = support_ok and log2_ok and stable and elapsed < 30.0
    _verdict(4, ok, f"support exact {support_ok}, log2 at 100 sigmas {log2_ok}, "
                    f"constants stable {stable}, {elapsed:.1f}s")
    assert support_ok and log2_ok and stable
    assert elapsed < 30.0


# -- criteria 5 and 9: subcritical heat scaling and the bound pipeline ----

HEAT = CoefficientSpec(tau=0, p=2.0, lam=1.0, a_phase=0.0)
HEAT_GRID = GridSpec("line", extent=180.0, num_points=9001)  # h = 0.02


def _power_law_shape(result):
    """Slope and R^2 of the power fit, monotone lifespans, Dirichlet-wall hygiene."""
    assert result.fit_status == "ok"
    lifespans = [r.t_extrapolated for r in result.records]
    monotone = all(b <= a for a, b in zip(lifespans, lifespans[1:]))
    hygiene = max(r.boundary_max for r in result.records) < 1e-8
    return result.power_fit.slope, result.power_fit.r_squared, monotone, hygiene


@pytest.fixture(scope="module")
def heat_sweep():
    controls = RunControls(threshold=1e6, t_max=400.0, dt_init=2e-3)
    problem = EvolutionProblem(HEAT, HEAT_GRID, InitialDataSpec(0.0, 1.0, 1.0))
    return sweep(problem, (0.25, 0.35, 0.5, 0.7, 1.0), controls, problem_id="heat-p2")


def test_criterion_5_subcritical_heat_scaling(heat_sweep):
    start = time.perf_counter()
    slope, r2, monotone, hygiene = _power_law_shape(heat_sweep)
    ok = abs(slope + 2.0) <= 0.15 * 2.0 and r2 >= 0.97 and monotone and hygiene
    _verdict(5, ok, f"slope {slope:.3f} (target -2 +/- 15%), R^2 {r2:.4f}, "
                    f"monotone {monotone}, hygiene {hygiene}")
    assert abs(slope + 2.0) <= 0.15 * 2.0
    assert r2 >= 0.97
    assert monotone and hygiene
    assert time.perf_counter() - start < 600.0


def test_criterion_9_criterion_to_bound_pipeline():
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    problem = EvolutionProblem(HEAT, HEAT_GRID, InitialDataSpec(0.0, 1.0, 0.5))
    result, trace = verify.causal_trace(problem, controls, 12, 0.95)
    t_sim = result.record.t_extrapolated
    assert result.record.status == "blowup"
    outcome = verify.criterion_pipeline(result, trace)
    delta, c0, bound = outcome.inputs.delta, outcome.report.minimal_c0, outcome.bound
    ok = math.isfinite(c0) and bound >= t_sim
    _verdict(9, ok, f"delta {delta:.4f}, minimal C0 {c0:.3f}, bound {bound:.1f} "
                    f">= simulated T {t_sim:.2f}")
    assert math.isfinite(c0)
    assert bound >= t_sim


# -- criterion 6: subcritical damped wave ---------------------------------


def test_criterion_6_damped_wave_scaling():
    start = time.perf_counter()
    coeff = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.0)
    grid = GridSpec("line", extent=260.0, num_points=13001)  # h = 0.02
    init = InitialDataSpec(0.0, 1.0, 1.0, amplitude=1.0, g_amplitude=1.0)
    controls = RunControls(threshold=1e6, t_max=800.0, dt_init=0.018)
    result = sweep(
        EvolutionProblem(coeff, grid, init),
        (0.05, 0.07, 0.1, 0.14, 0.2),
        controls,
        problem_id="damped-wave-p2",
    )
    slope, r2, monotone, hygiene = _power_law_shape(result)
    elapsed = time.perf_counter() - start
    ok = abs(slope + 2.0) <= 0.20 * 2.0 and r2 >= 0.95 and monotone and hygiene
    _verdict(6, ok, f"slope {slope:.3f} (target -2 +/- 20%), R^2 {r2:.4f}, "
                    f"hygiene {hygiene}, {elapsed:.0f}s")
    assert abs(slope + 2.0) <= 0.20 * 2.0
    assert r2 >= 0.95
    assert monotone and hygiene
    assert elapsed < 900.0


# -- criterion 7: critical regime model selection --------------------------


def test_criterion_7_critical_model_selection():
    start = time.perf_counter()
    coeff = CoefficientSpec(tau=0, p=3.0, lam=1.0, a_phase=0.0)
    grid = GridSpec("line", extent=300.0, num_points=7501)  # h = 0.04
    init = InitialDataSpec(0.0, 1.0, 1.0, amplitude=1.6)
    controls = RunControls(threshold=1e6, t_max=400.0, dt_init=4e-3)
    result = sweep(
        EvolutionProblem(coeff, grid, init),
        (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2),
        controls,
        problem_id="critical-heat-p3",
    )
    assert result.fit_status == "ok"
    r2_exp = result.exponential_fit.r_squared
    r2_pow = result.power_fit.r_squared
    slope_exp = result.exponential_fit.slope
    elapsed = time.perf_counter() - start
    ok = r2_exp > r2_pow and slope_exp > 0
    _verdict(7, ok, f"R^2 exp {r2_exp:.5f} > R^2 power {r2_pow:.5f}, "
                    f"exp slope {slope_exp:.3f} > 0, {elapsed:.0f}s")
    assert r2_exp > r2_pow
    assert slope_exp > 0
    assert elapsed < 1200.0


# -- criterion 8: Schrodinger blowup with the sign condition ---------------


def test_criterion_8_schrodinger_blowup():
    coeff = CoefficientSpec(tau=0, p=2.0, lam=-1.0, a_phase=-math.pi / 2)
    grid = GridSpec("line", extent=700.0, num_points=35001)  # h = 0.02
    init = InitialDataSpec(0.0, 1.0, 1.0, amplitude=complex(0.0, -0.47))
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=0.01, snapshot_dt=0.04)
    problem = EvolutionProblem(coeff, grid, init)
    result, trace = verify.causal_trace(problem, controls, 7, 0.92)
    rec = result.record
    blowup_ok = rec.status == "blowup"
    hygiene = rec.boundary_max < 1e-8
    report = verify.criterion_pipeline(result, trace).report
    req = report.required_c0
    finite = bool(np.all(np.isfinite(req)))
    dev = float(np.max(np.abs(req - req.mean())) / req.mean())
    ok = blowup_ok and hygiene and finite and dev <= 0.20
    _verdict(8, ok, f"blowup at T {rec.t_extrapolated:.2f} (max|u| >= 1e6), "
                    f"minimal C0 {report.minimal_c0:.3f}, spread {dev:.1%} (<= 20%), "
                    f"hygiene {hygiene}")
    assert blowup_ok
    assert finite
    assert dev <= 0.20
    assert hygiene


# -- criterion 10: determinism ---------------------------------------------


def test_criterion_10_sweep_determinism(tmp_path):
    raw = {
        "problem": {
            "tau": 0,
            "p": 2.0,
            "lambda": 1.0,
            "a_phase": 0.0,
            "grid": {"geometry": "line", "extent": 60.0, "num_points": 1201},
            "initial": {"center": 0.0, "width": 1.0, "epsilon": 1.0},
        },
        "controls": {"threshold": 1e6, "t_max": 20.0, "dt_init": 0.0025},
        "sweep": {"epsilons": [0.9, 1.1, 1.4, 1.8, 2.3]},
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    blobs = []
    for jobs, tag in ((1, "a"), (2, "b"), (1, "c")):
        out = tmp_path / tag
        code = cli_main(
            ["sweep", "--config", str(cfg_path), "--out-dir", str(out), "--jobs", str(jobs)]
        )
        assert code == 0
        blobs.append(
            (
                (out / "sweep.csv").read_bytes(),
                (out / "sweep.dat").read_bytes(),
                (out / "sweep_summary.json").read_bytes(),
            )
        )
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(10, ok, "sweep outputs byte-identical across reruns and worker counts")
    assert ok
