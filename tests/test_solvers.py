import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from blowlab import solvers, verify
from blowlab.cone_geometry import SpecError
from blowlab.config import parse_config
from blowlab.cutoffs import CutoffFamily, psi_of_s, psi_star_of_s
from blowlab.experiments import sweep
from blowlab.lifespan_bounds import FunctionalTrace, integrate_shell_masses
from blowlab.solvers import (
    RECORD_THRESHOLDS,
    CoefficientSpec,
    EvolutionProblem,
    FieldState,
    GridSpec,
    InitialDataSpec,
    RunControls,
    abs_power,
    bump_profile,
    domain_for_grid,
    extrapolate_lifespan,
    first_admissible_radius,
    grid_coordinates,
    initial_state,
    max_abs,
    run_until_blowup,
    step_hyperbolic,
    step_parabolic,
    weight_values,
    weighted_initial_mass,
)
from blowlab.solvers import _grid_data, _GridData


HEAT = CoefficientSpec(tau=0, p=2.0, lam=1.0, a_phase=0.0)
FREE_HEAT = CoefficientSpec(tau=0, p=2.0, lam=0.0, a_phase=0.0)
FREE_SCHROD = CoefficientSpec(tau=0, p=2.0, lam=0.0, a_phase=math.pi / 2)
NLS = CoefficientSpec(tau=0, p=2.0, lam=-1.0, a_phase=-math.pi / 2)
WAVE = CoefficientSpec(tau=1, p=2.0, lam=0.0, a0=0.0)
DAMPED = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.0)


def discrete_laplacian(state: FieldState) -> np.ndarray:
    return _grid_data(state.grid).laplacian(state.u)


def wave_energy(state: FieldState) -> float:
    """Standard discrete energy 1/2 ||v||^2 + 1/2 ||grad u||^2 (line grids)."""
    data = _grid_data(state.grid)
    du = np.diff(state.u) / data.h
    kin = 0.5 * float(np.sum(np.abs(state.v) ** 2)) * data.h
    pot = 0.5 * float(np.sum(np.abs(du) ** 2)) * data.h
    return kin + pot


def test_coefficient_spec_validation():
    with pytest.raises(ValueError):
        CoefficientSpec(tau=2, p=2.0)
    with pytest.raises(ValueError):
        CoefficientSpec(tau=0, p=1.0, a_phase=0.0)
    with pytest.raises(ValueError):
        CoefficientSpec(tau=0, p=2.0)  # missing phase
    with pytest.raises(ValueError):
        CoefficientSpec(tau=0, p=2.0, a_phase=2.0)  # phase out of range
    with pytest.raises(ValueError):
        CoefficientSpec(tau=0, p=2.0, a_phase=0.0, a0=1.0)
    with pytest.raises(ValueError):
        CoefficientSpec(tau=1, p=2.0)  # no damping form
    with pytest.raises(ValueError):
        CoefficientSpec(tau=1, p=2.0, a0=1.0, v0=1.0)  # two forms
    with pytest.raises(ValueError):
        CoefficientSpec(tau=1, p=2.0, a0=1.0, alpha=1.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec("circle", 10.0, 100)
    with pytest.raises(ValueError):
        GridSpec("line", -1.0, 100)
    with pytest.raises(ValueError):
        GridSpec("polar-sector", 10.0, 100)  # missing omega
    # a field only another geometry reads is rejected by name, not ignored
    for spec, field in [
        (dict(geometry="line", omega=1.0), "omega"),
        (dict(geometry="half-line", num_angles=40), "num_angles"),
        (dict(geometry="radial", dim=2, omega=2.0, num_angles=40), "omega"),
        (dict(geometry="line", include_origin=False), "include_origin"),
        (dict(geometry="polar-sector", omega=2.0, num_angles=40, include_origin=False), "include_origin"),
        (dict(geometry="polar-sector", dim=3, omega=2.0, num_angles=40), "dim"),
        # each cone has one spelling: N = 1 is the line or the half line; only radial takes dim
        (dict(geometry="polar-sector", dim=2, omega=2.0, num_angles=40), "dim"),
        (dict(geometry="half-line", dim=2), "dim"),
        (dict(geometry="radial", dim=1), "dim"),
        (dict(geometry="radial", dim=1, include_origin=False), "dim"),
        (dict(geometry="radial", dim=0), "dim"),
    ]:
        with pytest.raises(SpecError) as err:
            GridSpec(extent=10.0, num_points=100, **spec)
        assert [name for name, _ in err.value.violations][0] == field
    assert GridSpec("radial", 10.0, 100, dim=3, include_origin=False).include_origin is False
    with pytest.raises(ValueError):
        EvolutionProblem(
            HEAT,
            GridSpec("line", 10.0, 101),
            InitialDataSpec(center=0.0, width=6.0, epsilon=1.0),
        )  # support sticks out


def test_laplacian_line_eigenfunction():
    grid = GridSpec("line", extent=10.0, num_points=401)
    x = grid_coordinates(grid)
    u = np.sin(math.pi * (x + 5.0) / 10.0)
    state = FieldState(grid=grid, u=u, v=None, t=0.0, dt=0.01)
    lap = discrete_laplacian(state)
    expected = -((math.pi / 10.0) ** 2) * u
    err = np.max(np.abs(lap[1:-1] - expected[1:-1]))
    assert err < 1e-3
    zero = FieldState(grid=grid, u=np.zeros_like(u), v=None, t=0.0, dt=0.01)
    assert np.all(discrete_laplacian(zero) == 0.0)


def test_laplacian_radial_convergence_order():
    # u = sin(pi r / L)/r is a Laplacian eigenfunction in 3-d
    errs = []
    for n in (201, 401):
        grid = GridSpec("radial", extent=10.0, num_points=n, dim=3)
        r = grid_coordinates(grid)
        u = np.ones_like(r)
        u[1:] = np.sin(math.pi * r[1:] / 10.0) / r[1:] * (10.0 / math.pi)
        state = FieldState(grid=grid, u=u, v=None, t=0.0, dt=0.01)
        lap = discrete_laplacian(state)
        expected = -((math.pi / 10.0) ** 2) * u
        errs.append(np.max(np.abs(lap[1:-1] - expected[1:-1])))
    assert errs[0] / errs[1] >= 2.0**1.8


def test_laplacian_polar_sector_weight_harmonic():
    omega = 3 * math.pi / 4
    grid = GridSpec("polar-sector", extent=4.0, num_points=160, omega=omega, num_angles=96)
    w = weight_values(grid)
    state = FieldState(grid=grid, u=w, v=None, t=0.0, dt=0.01)
    lap = discrete_laplacian(state)
    # harmonic weight: interior residual small relative to the weight scale,
    # away from the corner where the grid resolution limits accuracy
    interior = np.abs(lap[40:-8, 8:-8])
    assert np.max(interior) < 2e-2


def test_heat_max_norm_non_increasing():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0)
    state = initial_state(EvolutionProblem(FREE_HEAT, grid, init), dt=0.05**2)
    prev = np.max(np.abs(state.u))
    for _ in range(150):
        state = step_parabolic(state, FREE_HEAT, state.dt)
        cur = np.max(np.abs(state.u))
        assert cur <= prev + 1e-14
        prev = cur


def test_heat_positivity():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0)
    state = initial_state(EvolutionProblem(HEAT, grid, init), dt=2e-3)
    for _ in range(300):
        state = step_parabolic(state, HEAT, state.dt)
        assert float(np.min(state.u.real)) >= -1e-12


def test_schrodinger_norm_conserved():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0)
    state = initial_state(EvolutionProblem(FREE_SCHROD, grid, init), dt=0.01)
    h = _grid_data(grid).h
    norm0 = float(np.sum(np.abs(state.u) ** 2)) * h
    prev = norm0
    for _ in range(200):
        state = step_parabolic(state, FREE_SCHROD, state.dt)
        cur = float(np.sum(np.abs(state.u) ** 2)) * h
        assert abs(cur - prev) <= 1e-12 * norm0
        prev = cur


def test_parabolic_heat_ode_regime_blowup_time():
    # wide bump, eps*amp = 2: comparison equation u' = u^2 gives T = 0.5
    grid = GridSpec("line", extent=60.0, num_points=1201)
    init = InitialDataSpec(center=0.0, width=8.0, epsilon=2.0)
    controls = RunControls(threshold=1e6, t_max=5.0, dt_init=1e-3)
    res = run_until_blowup(EvolutionProblem(HEAT, grid, init), controls)
    rec = res.record
    assert rec.status == "blowup"
    crossings = [t for t in rec.t_at_thresholds if math.isfinite(t)]
    assert all(b >= a for a, b in zip(crossings, crossings[1:]))
    assert crossings[-1] - crossings[0] < 0.01  # Cauchy tail near the blowup
    assert rec.t_extrapolated == pytest.approx(0.5, rel=0.10)


def test_max_steps_counts_accepted_steps_only():
    # the ODE-regime heat run halves dt near blowup; a budget of exactly its
    # accepted steps must still reach the verdict
    grid = GridSpec("line", extent=60.0, num_points=1201)
    problem = EvolutionProblem(HEAT, grid, InitialDataSpec(center=0.0, width=8.0, epsilon=2.0))
    free = run_until_blowup(problem, RunControls(threshold=1e6, t_max=5.0, dt_init=1e-3))
    assert free.record.status == "blowup"
    assert free.record.dt_final < 1e-3  # some attempts were rejected
    budget = free.record.steps
    capped = RunControls(threshold=1e6, t_max=5.0, dt_init=1e-3, max_steps=budget)
    assert run_until_blowup(problem, capped).record == free.record
    short = RunControls(threshold=1e6, t_max=5.0, dt_init=1e-3, max_steps=budget - 1)
    with pytest.raises(RuntimeError):
        run_until_blowup(problem, short)


def test_undamped_linear_wave_conserves_its_discrete_energy_at_dt_4h():
    # the trapezoidal step keeps |v|^2 - <u, Lap u> of the free wave exactly, at
    # four times the step the explicit scheme was limited to; measured drift 4.7e-14
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0, g_amplitude=0.5)
    data = _grid_data(grid)
    dt = 4.0 * data.h
    state = initial_state(EvolutionProblem(WAVE, grid, init), dt=dt)

    def energy(s):
        return 0.5 * np.sum(s.v * s.v) * data.h - 0.5 * np.sum(s.u * data.laplacian(s.u)) * data.h

    e0 = energy(state)
    worst = 0.0
    for _ in range(2000):
        state = step_hyperbolic(state, WAVE, dt)
        worst = max(worst, abs(energy(state) - e0))
    assert 0.0 < worst <= 1e-10 * e0


def test_damped_wave_energy_dissipates():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0, g_amplitude=0.5)
    damped_free = CoefficientSpec(tau=1, p=2.0, lam=0.0, a0=1.0, alpha=0.0)
    state = initial_state(EvolutionProblem(damped_free, grid, init), dt=0.4 * 0.05)
    prev = wave_energy(state)
    for _ in range(2000):
        state = step_hyperbolic(state, damped_free, state.dt)
        cur = wave_energy(state)
        assert cur <= prev * (1.0 + 1e-12)
        prev = cur


@pytest.mark.parametrize(
    "grid, center, coeff, dt",
    [
        (GridSpec("radial", 40.0, 801, dim=2), 0.0, WAVE, 0.05),
        (GridSpec("radial", 40.0, 801, dim=3), 0.0, WAVE, 0.05),
        (GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40), 2.0, WAVE, 0.02),
        (
            GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40), 2.0,
            CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5), 0.02,
        ),
    ],
    ids=["radial-2", "radial-3", "polar", "polar-damped"],
)
def test_wave_is_stable_past_the_explicit_step_limit(grid, center, coeff, dt):
    # dt = h is above the explicit limit next to the radial origin (0.82 h for
    # N = 2, 0.73 h for N = 3), and 0.02 is 4.3 times the sector's limit of
    # 0.0046; the running sup stays near that of half the step
    problem = EvolutionProblem(coeff, grid, InitialDataSpec(center, 1.0, 0.2, g_amplitude=0.5))
    sups = []
    for step_dt, steps in ((dt, 2000), (dt / 2, 4000)):
        state = initial_state(problem, step_dt)
        sup = 0.0
        for _ in range(steps):
            state = step_hyperbolic(state, coeff, step_dt)
            sup = max(sup, max_abs(state.u))
        assert np.all(np.isfinite(state.u))
        sups.append(sup)
    assert abs(sups[0] / sups[1] - 1.0) <= 0.2


def test_damped_wave_blowup_monotone_in_epsilon():
    grid = GridSpec("line", extent=60.0, num_points=1501)
    controls = RunControls(threshold=1e6, t_max=50.0, dt_init=0.9 * 0.04)
    times = []
    for eps in (3.0, 4.0, 5.0):
        init = InitialDataSpec(center=0.0, width=0.8, epsilon=eps, g_amplitude=1.0)
        res = run_until_blowup(EvolutionProblem(DAMPED, grid, init), controls)
        assert res.record.status == "blowup"
        times.append(res.record.t_extrapolated)
    assert times[0] > times[1] > times[2]


def test_damped_wave_lifespan_is_second_order_in_a_capped_step():
    # snapshot_dt caps the step at dt_init, so the quiet phase runs at the cap;
    # the lifespan differences shrink 4.3x and 4.6x per halving of the cap
    # (the damped velocity-Verlet step gave 2.0x: first order)
    grid = GridSpec("line", extent=60.0, num_points=601)
    problem = EvolutionProblem(DAMPED, grid, InitialDataSpec(0.0, 0.5, 0.25, g_amplitude=2.0))
    lifespans = []
    for cap in (0.064, 0.032, 0.016, 0.008):
        controls = RunControls(threshold=1e6, t_max=400.0, dt_init=cap, snapshot_dt=cap)
        record = run_until_blowup(problem, controls).record
        assert record.status == "blowup"
        lifespans.append(record.t_extrapolated)
    diffs = np.diff(lifespans)
    assert np.all(diffs[:-1] / diffs[1:] >= 3.5)


def test_singular_damping_radial_run():
    coeff = CoefficientSpec(tau=1, p=2.0, lam=1.0, v0=1.0)
    grid = GridSpec("radial", extent=30.0, num_points=1501, dim=3, include_origin=False)
    init = InitialDataSpec(center=3.0, width=1.0, epsilon=8.0, g_amplitude=1.0)
    controls = RunControls(threshold=1e6, t_max=30.0, dt_init=0.9 * 0.02)
    res = run_until_blowup(EvolutionProblem(coeff, grid, init), controls)
    assert res.record.status == "blowup"
    with pytest.raises(ValueError):
        EvolutionProblem(coeff, GridSpec("radial", 30.0, 1501, dim=3), init)
    with pytest.raises(ValueError):  # the origin is a wall node there
        EvolutionProblem(coeff, GridSpec("half-line", 30.0, 1501), init)
    # the polar sector excludes the origin too: one step stays finite
    polar = GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40)
    state = initial_state(EvolutionProblem(coeff, polar, InitialDataSpec(2.0, 1.0, 0.5)), dt=2e-3)
    assert np.all(np.isfinite(step_hyperbolic(state, coeff, state.dt).u))


def test_linear_heat_survives():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0)
    controls = RunControls(threshold=1e6, t_max=0.5, dt_init=1e-3)
    res = run_until_blowup(EvolutionProblem(FREE_HEAT, grid, init), controls)
    assert res.record.status == "survived"
    assert math.isnan(res.record.t_extrapolated)


def test_supercritical_small_data_survives():
    coeff = CoefficientSpec(tau=0, p=4.0, lam=1.0, a_phase=0.0)
    grid = GridSpec("line", extent=60.0, num_points=1201)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.05)
    controls = RunControls(threshold=1e6, t_max=15.0, dt_init=2.5e-3)
    res = run_until_blowup(EvolutionProblem(coeff, grid, init), controls)
    assert res.record.status == "survived"
    assert res.record.boundary_max < 1e-8


def test_symmetry_preserved_on_line():
    grid = GridSpec("line", extent=30.0, num_points=601)
    init = InitialDataSpec(center=0.0, width=1.5, epsilon=0.8)
    state = initial_state(EvolutionProblem(HEAT, grid, init), dt=1e-3)
    for _ in range(500):
        state = step_parabolic(state, HEAT, state.dt)
    asym = np.max(np.abs(state.u - state.u[::-1]))
    assert asym <= 1e-12 * np.max(np.abs(state.u))


def test_refinement_shifts_lifespan_under_3_percent():
    # the subcritical-heat acceptance configuration at its fastest epsilon,
    # h = 0.02 against h = 0.01
    controls = RunControls(threshold=1e6, t_max=30.0, dt_init=2e-3)
    estimates = []
    for n in (9001, 18001):
        grid = GridSpec("line", extent=180.0, num_points=n)
        init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.7)
        res = run_until_blowup(EvolutionProblem(HEAT, grid, init), controls)
        assert res.record.status == "blowup"
        estimates.append(res.record.t_extrapolated)
    assert abs(estimates[0] - estimates[1]) <= 0.03 * estimates[1]


def test_extrapolation_exact_for_comparison_ode():
    # T_M = T_inf - M^{-(p-1)}/(p-1) exactly for u' = u^p, and
    # T_M = T_inf - sqrt(6) M^{-1/2} for u'' = u^2
    p = 2.0
    t_inf = 2.0
    thresholds = (1e3, 1e4, 1e5, 1e6)
    crossings = tuple(t_inf - m ** (-(p - 1.0)) / (p - 1.0) for m in thresholds)
    fit = extrapolate_lifespan(thresholds, crossings, p - 1.0)
    assert fit == pytest.approx((t_inf, 1.0 / (p - 1.0)), abs=1e-12)
    crossings = tuple(t_inf - math.sqrt(6.0) * m**-0.5 for m in thresholds)
    assert extrapolate_lifespan(thresholds, crossings, 0.5) == pytest.approx((t_inf, math.sqrt(6.0)))
    assert extrapolate_lifespan(thresholds[:1], crossings[:1], 0.5) == (crossings[0], pytest.approx(math.nan, nan_ok=True))


def _shipped(name):
    return parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))


def test_shipped_lifespans_extrapolate_at_the_equations_blowup_rate():
    # every blowup record of the shipped heat and damped-wave sweeps and of
    # the NLS run: the lifespan lies past the last crossing the run reached,
    # and the fit's c is the constant of the ODE the run follows near blowup,
    # u' = |lambda| u^p (c = 1 at p = 2) or u'' = lambda u^p (c = sqrt(6));
    # measured c: heat 1.039-1.050, NLS 1.023, wave 2.479-2.480
    records = []
    for name in ("heat_subcritical.json", "damped_wave_subcritical.json"):
        cfg = _shipped(name)
        records += sweep(cfg.problem, cfg.sweep_epsilons, cfg.controls).records
    cfg = _shipped("schrodinger_blowup.json")
    records.append(run_until_blowup(cfg.problem, cfg.controls).record)
    assert len(records) == 11 and all(r.status == "blowup" for r in records)
    for r in records:
        p, tau = r.p, r.tau
        assert r.t_extrapolated >= r.t_at_thresholds[-1]
        t_inf, c = extrapolate_lifespan(RECORD_THRESHOLDS, r.t_at_thresholds, (p - 1.0) / (1 + tau))
        assert t_inf == r.t_extrapolated
        ode = 1.0 / (p - 1.0) if tau == 0 else math.sqrt((p + 1.0) / 2.0) * 2.0 / (p - 1.0)
        assert abs(c / ode - 1.0) <= 0.10, (tau, r.epsilon, c)


def test_weighted_initial_mass_line_and_halfline():
    grid = GridSpec("line", extent=40.0, num_points=2001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.5)
    mass = weighted_initial_mass(EvolutionProblem(HEAT, grid, init))
    data = _grid_data(grid)
    direct = 0.5 * float(np.sum(bump_profile(data.coords) * data.h))
    assert mass == pytest.approx(direct, rel=1e-12)
    # half line: weight is x
    gridh = GridSpec("half-line", extent=40.0, num_points=2001)
    inith = InitialDataSpec(center=5.0, width=1.0, epsilon=0.5)
    massh = weighted_initial_mass(EvolutionProblem(HEAT, gridh, inith))
    datah = _grid_data(gridh)
    directh = 0.5 * float(
        np.sum(bump_profile((datah.coords - 5.0)) * datah.coords * datah.h)
    )
    assert massh == pytest.approx(directh, rel=1e-12)


def test_weighted_initial_mass_polar_sector():
    omega = 2.0
    grid = GridSpec("polar-sector", extent=6.0, num_points=60, omega=omega, num_angles=40)
    init = InitialDataSpec(center=2.0, width=1.0, epsilon=0.5, g_amplitude=0.3)
    h, h_theta = 6.0 / 60, omega / 39
    r = (h * np.arange(1, 61))[:, None]
    ang = np.sin(math.pi * (h_theta * np.arange(40)) / omega)
    ang[[0, -1]] = 0.0
    f = bump_profile((r - 2.0) / 1.0) * ang**2
    phi = r ** (math.pi / omega) * ang  # gamma = pi/omega on a planar sector
    vol = r * h * h_theta
    mass = weighted_initial_mass(EvolutionProblem(HEAT, grid, replace(init, g_amplitude=0.0)))
    assert mass == pytest.approx(0.5 * float(np.sum(f * phi * vol)), rel=1e-12)
    damped = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5)
    a = (1.0 + r**2) ** -0.25
    direct = 0.5 * float(np.sum((0.3 * f + a * f) * phi * vol))
    assert weighted_initial_mass(EvolutionProblem(damped, grid, init)) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("tau", [0, 1], ids=["heat", "damped-wave"])
@pytest.mark.parametrize("amplitude", [-1.0, -0.3 - 0.5j], ids=["negative", "complex"])
def test_initial_state_holds_no_negative_zero(tau, amplitude):
    # eps * amplitude * B is -0.0 where B is 0.0: the initial state holds +0.0
    # there, as every field a step returns does
    coeff = HEAT if tau == 0 else DAMPED
    g_amplitude = 0.0 if tau == 0 else amplitude
    grids = [
        (GridSpec("line", 20.0, 201), 0.0),
        (GridSpec("polar-sector", 6.0, 40, omega=2.0, num_angles=12), 3.0),
    ]
    for grid, center in grids:
        init = InitialDataSpec(center, 1.0, 0.5, amplitude=amplitude, g_amplitude=g_amplitude)
        state = initial_state(EvolutionProblem(coeff, grid, init), 0.01)
        for arr in (state.u, state.v):
            if arr is not None:
                parts = arr.view(np.float64)
                assert np.any(parts != 0.0) and not np.any(np.signbit(parts[parts == 0.0]))


def test_polar_bump_is_symmetric_about_the_bisector():
    # the angular factor sin^2(pi*theta/omega) on a sector wider than pi
    for omega in (2.0, 1.5 * math.pi, 2.0 * math.pi):
        grid = GridSpec("polar-sector", extent=6.0, num_points=60, omega=omega, num_angles=41)
        u = initial_state(EvolutionProblem(HEAT, grid, InitialDataSpec(2.0, 1.0, 1.0)), dt=1e-3).u
        assert np.max(np.abs(u - u[:, ::-1])) <= 1e-13 * np.max(np.abs(u))


def test_first_admissible_radius():
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=1.0)
    assert first_admissible_radius(init, 0.0) == pytest.approx(4.0)
    assert first_admissible_radius(init, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))


HEAT_BLOWUP = (
    EvolutionProblem(
        HEAT, GridSpec("line", extent=80.0, num_points=2001), InitialDataSpec(0.0, 1.0, 0.5)
    ),
    RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05),
)


@pytest.fixture(scope="module")
def heat_blowup_run():
    return run_until_blowup(*HEAT_BLOWUP, (solvers.SnapshotStore(),))


def _replay(result, radii):
    """The trace of a run's stored fields, fed one at a time into a fresh
    accumulator: what the same accumulator streamed as an observer must give."""
    acc = solvers.TraceAccumulator(result.problem, radii)
    for t, u in zip(result.snapshot_times, result.snapshots):
        acc(t, u)
    return acc.finish()


def test_functional_trace_zero_field():
    grid = GridSpec("line", extent=20.0, num_points=401)
    init = InitialDataSpec(center=0.0, width=2.0, epsilon=1.0)
    acc = solvers.TraceAccumulator(EvolutionProblem(FREE_HEAT, grid, init), [4.0, 8.0, 16.0])
    for t in np.linspace(0.0, 1.0, 51):
        acc(t, np.zeros(401))
    tr = acc.finish()
    assert np.all(tr.shell_mass == 0.0) and np.all(tr.mass == 0.0)


def test_functional_trace_masses_and_transform(heat_blowup_run):
    res = heat_blowup_run
    radii = np.geomspace(4.0, 0.9 * res.record.t_extrapolated, 8)
    tr = _replay(res, radii)
    assert np.all(np.diff(tr.mass) >= -1e-12)
    assert np.all(np.diff(tr.shell_mass) >= -1e-12)
    transform = integrate_shell_masses(tr)
    assert np.all(transform <= math.log(2.0) * tr.mass + 1e-9)


def _full_cutoff_masses(result, fam, radii):
    """The trace's masses with psi and psi* evaluated on every node: the
    reference.  Each product vanishes off the largest support, so each sum runs
    over that support's nodes in grid order, as the trace's does."""
    data = _grid_data(result.problem.grid)
    times = np.asarray(result.snapshot_times)
    bp = ((1.0 + data.radius**2) ** ((2.0 - fam.alpha) / 2.0)).reshape(-1)
    wvol = (weight_values(result.problem.grid) * data.vol).reshape(-1)
    y_rows = np.empty((len(radii), len(times)))
    m_rows = np.empty_like(y_rows)
    for k, (t, u) in enumerate(zip(times, result.snapshots)):
        w = abs_power(u.reshape(-1), result.problem.coeff.p) * wvol
        support = bp + t < max(radii)
        for i, radius in enumerate(radii):
            s = (bp + t) / radius
            star, plain = w * psi_star_of_s(fam, s), w * psi_of_s(fam, s)
            assert not np.any(star[~support]) and not np.any(plain[~support])
            y_rows[i, k] = float(np.sum(star[support]))
            m_rows[i, k] = float(np.sum(plain[support]))
    return np.trapezoid(y_rows, times, axis=1), np.trapezoid(m_rows, times, axis=1)


def test_functional_trace_band_is_bitwise_the_full_cutoff(heat_blowup_run):
    res = heat_blowup_run
    # R = 2 puts s exactly 1/2 at x = 0 of the t = 0 snapshot; the other radii
    # have nodes below 1/2, inside the band and beyond 1 on some snapshot
    radii = np.array([2.0, 4.0, 9.0, 0.9 * res.record.t_extrapolated])
    bp = 1.0 + _grid_data(res.problem.grid).radius ** 2
    assert res.snapshot_times[0] == 0.0 and np.any(bp / radii[0] == 0.5)
    fam = CutoffFamily(R=2.0, p=2.0, alpha=0.0)
    tr = _replay(res, radii)
    shell_mass, mass = _full_cutoff_masses(res, fam, radii)
    assert np.array_equal(tr.shell_mass, shell_mass)
    assert np.array_equal(tr.mass, mass)


@pytest.mark.parametrize(
    "case, radii, edge",
    [
        pytest.param("line", [4.0, 9.0, 2000.0], True, id="line-to-the-edge"),
        pytest.param("polar-sector", [20.0, 40.0], False, id="polar"),
        pytest.param("polar-sector", [20.0, 40.0, 150.0], True, id="polar-to-the-edge"),
    ],
)
def test_trace_is_bitwise_the_full_cutoff_on_every_support(heat_blowup_run, case, radii, edge):
    if case == "line":
        res = heat_blowup_run
    else:
        res = run_until_blowup(*_polar_heat_run(), (solvers.SnapshotStore(),))
    radii = np.array(radii)
    bp = 1.0 + _grid_data(res.problem.grid).radius ** 2
    # the largest support holds the whole grid on every snapshot, or misses part of it on all
    holds_all = np.max(bp) + res.snapshot_times[-1] < radii[-1]
    misses_some = np.max(bp) >= radii[-1]
    assert (holds_all, misses_some) == (edge, not edge)
    tr = _replay(res, radii)
    fam = CutoffFamily(R=radii[0], p=2.0, alpha=0.0)
    shell_mass, mass = _full_cutoff_masses(res, fam, radii)
    assert np.array_equal(tr.shell_mass, shell_mass)
    assert np.array_equal(tr.mass, mass)
    assert np.all(tr.mass > 0.0)


def test_functional_trace_takes_the_cutoff_from_the_problem():
    # p = 3 and alpha = 1/2: power 2p' = 3 and s = (<x>^(3/2) + t) / R
    coeff = CoefficientSpec(tau=1, p=3.0, lam=1.0, a0=1.0, alpha=0.5)
    problem = EvolutionProblem(
        coeff, GridSpec("line", extent=40.0, num_points=801), InitialDataSpec(0.0, 2.0, 0.5)
    )
    radii = np.array([3.0, 5.0, 8.0])
    acc = solvers.TraceAccumulator(problem, radii)
    controls = RunControls(threshold=1e6, t_max=3.0, snapshot_dt=0.05)
    res = run_until_blowup(problem, controls, (solvers.SnapshotStore(), acc))
    tr = acc.finish()
    shell_mass, mass = _full_cutoff_masses(res, CutoffFamily(R=3.0, p=3.0, alpha=0.5), radii)
    assert np.array_equal(tr.shell_mass, shell_mass)
    assert np.array_equal(tr.mass, mass)
    assert np.all(tr.shell_mass > 0.0)


def test_functional_trace_flags_support_before_first_snapshot(heat_blowup_run):
    res = heat_blowup_run
    acc = solvers.TraceAccumulator(res.problem, [4.0])
    for t, u in zip(res.snapshot_times, res.snapshots):
        if t > 8.0:
            acc(t, u)
    with pytest.raises(ValueError):
        acc.finish()


def test_functional_trace_flags_sparse_snapshots(heat_blowup_run):
    res = heat_blowup_run
    acc = solvers.TraceAccumulator(res.problem, np.geomspace(4.0, 12.0, 5))
    for t, u in zip(res.snapshot_times[::40], res.snapshots[::40]):
        acc(t, u)
    with pytest.raises(ValueError):
        acc.finish()


def _polar_heat_run():
    grid = GridSpec("polar-sector", extent=10.0, num_points=60, omega=math.pi, num_angles=16)
    problem = EvolutionProblem(HEAT, grid, InitialDataSpec(center=4.0, width=2.0, epsilon=2.0))
    return problem, RunControls(threshold=1e6, t_max=2.0, dt_init=2e-3, snapshot_dt=0.05)


@pytest.mark.parametrize("case", ["line", "polar-sector"])
def test_streamed_trace_is_bitwise_the_stored_trace(heat_blowup_run, case):
    if case == "line":
        problem, controls = HEAT_BLOWUP
        full = heat_blowup_run
        radii = np.array([2.0, 4.0, 9.0, 0.9 * full.record.t_extrapolated])
    else:
        problem, controls = _polar_heat_run()
        full = run_until_blowup(problem, controls, (solvers.SnapshotStore(),))
        radii = np.array([20.0, 40.0, 80.0])
    store = solvers.SnapshotStore(stride=7)  # strides across the sector's rows
    acc = solvers.TraceAccumulator(problem, radii)
    streamed = run_until_blowup(problem, controls, observers=(store, acc))
    assert streamed.record == full.record
    assert streamed.snapshot_times == full.snapshot_times
    assert streamed.snapshots is store.fields
    assert all(np.array_equal(s, f.reshape(-1)[::7]) for s, f in zip(store.fields, full.snapshots))
    stored = _replay(full, radii)
    trace = acc.finish()
    assert np.array_equal(trace.shell_mass, stored.shell_mass)
    assert np.array_equal(trace.mass, stored.mass)
    assert np.all(trace.mass > 0.0)


@pytest.mark.parametrize(
    "case, message",
    [
        pytest.param("too-few", "at least 4 snapshots", id="too-few"),
        pytest.param("clipped", "before the first snapshot", id="clipped"),
        pytest.param("sparse", "density insufficient", id="sparse"),
    ],
)
def test_streamed_trace_raises_what_the_stored_trace_raises(heat_blowup_run, case, message):
    # the stored run cut three ways, fed into the accumulator: too few
    # snapshots, all of them after the cutoff's support, or every 40th only
    import copy

    res = copy.copy(heat_blowup_run)
    radii = [4.0]
    if case == "too-few":
        keep = slice(0, 3)
    elif case == "clipped":
        keep = slice(sum(t <= 8.0 for t in res.snapshot_times), None)
    else:
        keep, radii = slice(None, None, 40), np.geomspace(4.0, 12.0, 5)
    res.snapshot_times = res.snapshot_times[keep]
    res.snapshots = res.snapshots[keep]
    with pytest.raises(ValueError, match=message):
        _replay(res, radii)


@pytest.mark.parametrize("case", ["line", "polar-sector"])
def test_trace_accumulator_alone_finishes_the_trace(case):
    # without a SnapshotStore the result keeps only the end points; the trace keeps its own times
    if case == "line":
        problem, controls = HEAT_BLOWUP
        radii = [2.0, 4.0, 9.0, 30.0]
    else:
        problem, controls = _polar_heat_run()
        radii = [20.0, 40.0, 80.0]
    alone = solvers.TraceAccumulator(problem, radii)
    beside = solvers.TraceAccumulator(problem, radii)
    res = run_until_blowup(problem, controls, observers=(alone,))
    full = run_until_blowup(problem, controls, observers=(solvers.SnapshotStore(), beside))
    assert res.record == full.record and res.snapshot_times == [0.0, res.record.t_final]
    assert alone.times == full.snapshot_times and len(alone.times) > 4
    trace, stored = alone.finish(), beside.finish()
    assert np.array_equal(trace.shell_mass, stored.shell_mass)
    assert np.array_equal(trace.mass, stored.mass)
    assert np.all(trace.mass > 0.0)


HALF_LINE_HEAT = (
    EvolutionProblem(
        CoefficientSpec(tau=0, p=1.5, lam=1.0, a_phase=0.0),
        GridSpec("half-line", extent=100.0, num_points=501),
        InitialDataSpec(1.2, 1.0, 0.1),
    ),
    RunControls(threshold=1e6, t_max=400.0, snapshot_dt=0.5),
)


def test_criterion_pipeline_takes_theta_from_the_half_line_cone():
    # gamma = 1 on the half line: theta = 1/(p-1) - (1 + 1)/2 = 1, not the full-line 1.5
    result, trace = verify.causal_trace(*HALF_LINE_HEAT, 6, 0.95)
    assert result.record.status == "blowup"
    outcome = verify.criterion_pipeline(result, trace)
    assert outcome.inputs.theta == 1.0 / (1.5 - 1.0) - 1.0
    assert outcome.inputs.r1 == trace.radii[0] and np.array_equal(outcome.report.radii, trace.radii)
    assert outcome.inputs.c0 == outcome.report.minimal_c0
    assert math.isfinite(outcome.bound) and outcome.bound >= result.record.t_extrapolated


def test_causal_trace_is_bitwise_the_replay_of_the_stored_run():
    problem, controls = HALF_LINE_HEAT
    result, trace = verify.causal_trace(problem, controls, 6, 0.95)
    full = run_until_blowup(problem, controls, (solvers.SnapshotStore(),))
    r1 = first_admissible_radius(problem.init, problem.coeff.alpha)
    radii = np.geomspace(r1, 0.95 * full.record.t_extrapolated, 6)
    replayed = _replay(full, radii)
    assert result.record == full.record
    assert result.snapshot_times == [0.0, full.snapshot_times[-1]]  # no field kept
    assert np.array_equal(trace.radii, radii)
    assert np.array_equal(trace.shell_mass, replayed.shell_mass)
    assert np.array_equal(trace.mass, replayed.mass)


def test_causal_trace_names_a_lifespan_below_r1():
    # criterion 9's line at eps 1.0: T = 4.159, so 0.95 T falls below R1 = 4
    problem = EvolutionProblem(
        HEAT, GridSpec("line", extent=180.0, num_points=9001), InitialDataSpec(0.0, 1.0, 1.0)
    )
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    message = r"top \* T = 0\.95 \* 4\.1586\d* = 3\.9506\d* does not exceed R1 = 4\.0:"
    with pytest.raises(ValueError, match=message):
        verify.causal_trace(problem, controls, 12, 0.95)


def test_causal_trace_names_a_run_that_did_not_blow_up():
    # the heat line at eps 0.1 outlives t_max = 3, so it has no lifespan T
    problem = EvolutionProblem(
        HEAT, GridSpec("line", extent=60.0, num_points=1201), InitialDataSpec(0.0, 1.0, 0.1)
    )
    controls = RunControls(threshold=1e6, t_max=3.0, snapshot_dt=0.05)
    with pytest.raises(ValueError, match=r"the run ended survived at t_final = 3\.0\d*: no T$"):
        verify.causal_trace(problem, controls, 12, 0.95)


def test_criterion_pipeline_rejects_a_trace_above_the_log2_shell_bound(heat_blowup_run):
    # integral Y dr/r = log(10) * (1 + 1) / 2 * 2 > log(2) * M with Y = M = 1
    trace = FunctionalTrace(np.array([1.0, 10.0, 100.0]), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="exceeds log"):
        verify.criterion_pipeline(heat_blowup_run, trace)


def test_quarter_plane_step_count_survives_radial_refinement():
    # the probe back-off is one rule for every run: halving h must not multiply the steps
    coeff = CoefficientSpec(tau=0, p=1.4, lam=1.0, a_phase=0.0)
    steps = []
    for num_points in (200, 400):
        grid = GridSpec("polar-sector", 100.0, num_points, omega=math.pi / 2, num_angles=24)
        problem = EvolutionProblem(coeff, grid, InitialDataSpec(3.0, 2.0, 0.04))
        res = run_until_blowup(problem, RunControls())
        assert res.record.status == "blowup"
        steps.append(res.record.steps)
    assert max(steps) <= 1.25 * min(steps), steps


def test_boundary_max_reads_only_the_truncation_wall():
    # the node next to the half line's origin wall holds heat on a correct run
    grid = GridSpec("half-line", extent=200.0, num_points=5001)
    init = InitialDataSpec(center=3.0, width=1.0, epsilon=0.3)
    controls = RunControls(t_max=400.0, dt_init=2e-3)
    res = run_until_blowup(EvolutionProblem(HEAT, grid, init), controls)
    u = res.snapshots[-1]
    assert res.record.status == "blowup"
    assert abs(u[1]) > 1e-4
    assert res.record.boundary_max == abs(u[-2])
    assert res.record.boundary_max < 1e-8


def test_boundary_hygiene_on_blowup_run(heat_blowup_run):
    assert heat_blowup_run.record.status == "blowup"
    assert heat_blowup_run.record.boundary_max < 1e-8


def test_abs_power_matches_generic():
    rng = np.random.default_rng(0)
    z = rng.normal(size=50) + 1j * rng.normal(size=50)
    for p in (2.0, 3.0, 4.0, 2.7):
        assert np.allclose(abs_power(z, p), np.abs(z) ** p, rtol=1e-13)
    # at p = 4 the float power squares |u|^2: the bits of a2 * a2, from 1e-160 to 1e150
    for u in (z, z.real, z * 1e-80, z.real * 1e75):
        a2 = u.real * u.real + u.imag * u.imag if np.iscomplexobj(u) else u * u
        assert np.array_equal(abs_power(u, 4.0), a2 * a2)


def test_bump_profile_keeps_the_bits_of_the_abs_mask():
    # s * s < 1 picks the nodes |s| < 1 picks, the largest double below 1 included
    edge = np.nextafter(1.0, 0.0)
    s = np.concatenate(
        [np.linspace(-1.5, 1.5, 100_001), [edge, -edge, 1.0, -1.0, np.nextafter(1.0, 2.0), 0.0]]
    )
    want = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    want[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    got = bump_profile(s)
    assert np.array_equal(got, want) and not np.signbit(got).any()


def test_max_abs_reads_non_finite_fields_as_non_finite():
    rng = np.random.default_rng(1)
    real = rng.normal(size=64)
    cplx = real + 1j * rng.normal(size=64)
    assert max_abs(real) == float(np.max(np.abs(real)))
    assert max_abs(-np.abs(real)) == float(np.max(np.abs(real)))  # the peak may be negative
    assert max_abs(cplx) == pytest.approx(float(np.max(np.abs(cplx))), rel=1e-15)
    for bad in (math.nan, math.inf, -math.inf):
        for field in (real, cplx):
            for where in (0, 17, 63):
                u = field.copy()
                u[where] = bad
                assert not math.isfinite(max_abs(u))
        u = cplx.copy()
        u[17] = complex(0.5, bad)  # a non-finite imaginary part alone
        assert not math.isfinite(max_abs(u))


def test_domain_for_grid():
    assert domain_for_grid(GridSpec("line", 10.0, 101)).spec.kind == "full-line"
    assert domain_for_grid(GridSpec("half-line", 10.0, 101)).spec.kind == "half-line"
    assert domain_for_grid(GridSpec("radial", 10.0, 101, dim=3)).spec.kind == "full-sphere"
    dom = domain_for_grid(GridSpec("polar-sector", 10.0, 101, omega=1.0, num_angles=21))
    assert dom.spec.kind == "planar-sector"


def test_polar_sector_smoke_steps():
    grid = GridSpec("polar-sector", extent=6.0, num_points=60, omega=2.0, num_angles=40)
    coeff = CoefficientSpec(tau=0, p=2.0, lam=1.0, a_phase=0.0)
    init = InitialDataSpec(center=2.0, width=1.0, epsilon=0.5)
    state = initial_state(EvolutionProblem(coeff, grid, init), dt=2e-3)
    for _ in range(20):
        state = step_parabolic(state, coeff, state.dt)
    assert np.all(np.isfinite(state.u))
    assert np.all(state.u[-1, :] == 0.0)
    assert np.all(state.u[:, 0] == 0.0)
    assert np.all(state.u[:, -1] == 0.0)
    # hyperbolic smoke, at 4.3 times the explicit step limit of the sector
    coeffw = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5)
    statew = initial_state(EvolutionProblem(coeffw, grid, init), dt=0.02)
    for _ in range(20):
        statew = step_hyperbolic(statew, coeffw, statew.dt)
    assert np.all(np.isfinite(statew.u))


def test_polar_heat_stays_real():
    # a real run solves in real arithmetic; the complex solve of the same
    # state (imaginary part zero) is the reference
    grid = GridSpec("polar-sector", extent=6.0, num_points=60, omega=2.0, num_angles=40)
    state = initial_state(EvolutionProblem(HEAT, grid, InitialDataSpec(2.0, 1.0, 0.5)), dt=2e-3)
    ref = FieldState(grid=grid, u=state.u.astype(complex), v=None, t=0.0, dt=state.dt)
    for _ in range(50):
        state = step_parabolic(state, HEAT, state.dt)
        ref = step_parabolic(ref, HEAT, ref.dt)
    assert state.u.dtype == np.float64
    assert np.all(ref.u.imag == 0.0)
    assert np.max(np.abs(state.u - ref.u.real)) <= 1e-13 * np.max(np.abs(ref.u.real))


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec("line", 20.0, 201),
        GridSpec("half-line", 20.0, 201),
        GridSpec("radial", 20.0, 201, dim=2),
        GridSpec("radial", 20.0, 201, dim=3),
        GridSpec("radial", 20.0, 201, dim=2, include_origin=False),
        GridSpec("radial", 20.0, 201, dim=3, include_origin=False),
        GridSpec("polar-sector", 6.0, 40, omega=2.0, num_angles=30),
        solvers._FoldedLine(GridSpec("line", 20.0, 201)),
    ],
    ids=[
        "line", "half-line", "radial-2", "radial-3", "radial-2-no-origin", "radial-3-no-origin",
        "polar", "folded-line",
    ],
)
def test_implicit_operator_matches_the_explicit_laplacian(grid):
    data = _GridData(grid)
    u = np.random.default_rng(7).normal(size=data.shape)
    _zero_walls(data, u)
    want = data.laplacian(u)[data.evolved]
    ue = x = u[data.evolved]
    if ue.ndim == 2:
        got = (_polar_csr_laplacian(data) @ ue.reshape(-1)).reshape(ue.shape)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        x = (data.sine @ ue.T).reshape(-1)  # the sine coefficients, mode-major as the bands
    lower, diag, upper = data._banded_diagonals
    got = diag * x
    got[1:] += lower[1:] * x[:-1]
    got[:-1] += upper[:-1] * x[1:]
    if data.folded:  # the bands hold the x = 0 row halved
        assert np.array_equal(lower[1:], upper[:-1])
        got[-1] *= 2.0
    if ue.ndim == 2:
        got = (data.sine @ got.reshape(-1, ue.shape[0])).T
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _walls(data):
    """The indices of the grid's Dirichlet walls: both ends of the line and half
    line, the folded line's left end, the outer radius, and the sector's arc
    and two rays."""
    if data.sine is not None:
        return (-1, np.s_[:, 0], np.s_[:, -1])
    ev = data.evolved
    return (0,) * (ev.start == 1) + (-1,) * (ev.stop == -1)


def _zero_walls(data, arr):
    for wall in _walls(data):
        arr[wall] = 0.0


def _polar_csr_laplacian(data):
    """The sector's Laplacian over its evolved nodes in row-major order, assembled
    as kron(D_r, I) + kron(diag(1/r^2), D_theta) from the mesh alone: the
    reference of the stacked sine-mode solve."""
    r, h = data.axis_radius, data.h
    na = data.spec.num_angles - 2
    h2, ht2 = h * h, data.h_theta * data.h_theta
    # u_rr + u_r / r: 1/h^2 -+ 1/(2 h r) off the diagonal, -2/h^2 on it
    off = 1.0 / (2.0 * h * r)
    d_r = diags([1.0 / h2 - off[1:], np.full(r.size, -2.0 / h2), 1.0 / h2 + off[:-1]], [-1, 0, 1])
    d_theta = diags([1.0 / ht2, -2.0 / ht2, 1.0 / ht2], [-1, 0, 1], shape=(na, na))
    return (kron(d_r, identity(na)) + kron(diags(1.0 / r**2), d_theta)).tocsr()


@pytest.mark.parametrize("factor", [1.0, complex(np.exp(0.5j * math.pi))], ids=["real", "complex"])
@pytest.mark.parametrize(
    "grid",
    [
        GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40),
        GridSpec("polar-sector", 100.0, 400, omega=math.pi, num_angles=24),
    ],
    ids=["60x40", "400x24"],
)
def test_sine_mode_solve_matches_the_csr_reference(grid, factor):
    data = _GridData(grid)
    rhs = np.random.default_rng(3).normal(size=data.shape).astype(type(factor))
    _zero_walls(data, rhs)
    for dt in (1e-3, 0.05, 2.0):
        want = _reference_solve(data, factor, dt, rhs)[data.evolved]
        got, lo, hi = data.solve_implicit(factor, dt, rhs.copy())
        assert (lo, hi) == (0, grid.num_points)  # the sine-mode solve has no window
        assert got.dtype == rhs.dtype
        assert np.max(np.abs(got[data.evolved] - want)) <= 1e-13 * np.max(np.abs(want))
        got[data.evolved] = 0.0
        assert _all_positive_zero(got)  # the solve writes no wall


def _banded_reference(data, factor, dt, rhs, ident=1.0):
    """The implicit solve of (ident - (dt/2) factor Lap) x = rhs through
    ``solve_banded`` over every evolved node.  ``ident`` is 1.0, or the damped
    wave's D = 1 + (dt/2) a(x) with one value per evolved node.  The folded
    line's bands hold its x = 0 row halved, so that row's ident and right-hand
    side are halved with it."""
    lower, diag, upper = data._banded_diagonals
    coef = 0.5 * dt * factor
    ident = np.array(np.broadcast_to(ident, diag.shape))
    ab = np.zeros((3, diag.size), dtype=complex if isinstance(factor, complex) else rhs.dtype)
    b = rhs[data.evolved].astype(ab.dtype)
    if data.folded:
        ident[-1] *= 0.5
        b[-1] *= 0.5
    ab[0, 1:] = -coef * upper[:-1]
    ab[1, :] = ident - coef * diag
    ab[2, :-1] = -coef * lower[1:]
    out = np.zeros(rhs.shape, dtype=ab.dtype)
    out[data.evolved] = solve_banded((1, 1), ab, b)
    return out


def _reference_solve(data, factor, dt, rhs):
    """The implicit solve by ``solve_banded`` on the 1-d grids and by the CSR
    matrix on the sector, in complex arithmetic there."""
    if data.sine is None:
        return _banded_reference(data, factor, dt, rhs)
    lap = _polar_csr_laplacian(data)
    mat = identity(lap.shape[0], dtype=complex, format="csc") - (0.5 * dt * factor) * lap
    out = np.zeros(rhs.shape, dtype=complex)
    b = rhs[data.evolved]
    out[data.evolved] = splu(mat).solve(b.reshape(-1).astype(complex)).reshape(b.shape)
    return out


def _bits(a):
    """The float64 words of ``a`` as integers: equal bits, signs of zero included."""
    return np.ascontiguousarray(a).view(np.uint64)


def _all_positive_zero(a):
    return not np.any(_bits(a))


def _solved_last(data):
    """The factors of the implicit matrix ``data`` solved last: its newest slot."""
    return next(reversed(data._factors.values()))


def _subnormal_parts(u):
    parts = np.abs(np.asarray(u).view(np.float64))
    return int(np.count_nonzero((parts > 0.0) & (parts < np.finfo(np.float64).tiny)))


_BITWISE_ABOVE = 1e50 * solvers._NEGLIGIBLE  # the windowed solve keeps the bits above this


_DAMPED_VARYING = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5)  # D varies by row


@pytest.mark.parametrize("coeff", [HEAT, NLS, _DAMPED_VARYING], ids=["real", "complex", "damped-wave"])
@pytest.mark.parametrize(
    "grid",
    [
        GridSpec("line", extent=200.0, num_points=4001),
        GridSpec("half-line", extent=200.0, num_points=4001),
        GridSpec("radial", extent=200.0, num_points=4001, dim=3),
        GridSpec("radial", extent=200.0, num_points=4001, dim=3, include_origin=False),
        solvers._FoldedLine(GridSpec("line", extent=200.0, num_points=4001)),
    ],
    ids=["line", "half-line", "radial", "radial-no-origin", "folded-line"],
)
def test_windowed_solve_matches_banded_reference(grid, coeff):
    data = _GridData(grid)
    amp = 0.3 - 0.47j if coeff is NLS else 0.8
    center = 0.0 if data.folded else 50.0  # the folded line's last row is x = 0
    u = amp * bump_profile((data.coords - center) / 1.0)
    damped = coeff if coeff.tau == 1 else None
    state = FieldState(grid=grid, u=u, v=None if damped is None else np.zeros_like(u), t=0.0, dt=0.01)
    for step in range(6):
        dt, ident = state.dt, 1.0
        if damped is not None:  # as step_hyperbolic
            factor = 0.5 * dt
            ident = 1.0 + 0.5 * dt * coeff.damping(data.radius[data.evolved])
        else:  # as step_parabolic
            factor = complex(np.exp(-1j * coeff.zeta)) if coeff is NLS else 1.0
        rhs = state.u
        got, lo, hi = data.solve_implicit(factor, dt, rhs.copy(), None, damped)
        ref = _banded_reference(data, factor, dt, rhs, ident)
        lu = _solved_last(data)
        b = rhs[data.evolved].astype(lu.dtype)
        if data.folded:  # the solve halves the x = 0 row
            b[-1] *= 0.5
        full = np.zeros_like(got)  # the same factors over the full range
        full[data.evolved], _ = (lu._pttrs if _is_ldlt(lu) else lu._gttrs)(*lu.factors, b)
        big = np.abs(full) > _BITWISE_ABOVE
        assert np.array_equal(got[big], full[big])
        assert np.max(np.abs(got - full)) < 10.0 * _BITWISE_ABOVE
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        if damped is None:  # with D = 1 the reference rounds as the solve does
            big = np.abs(ref) > _BITWISE_ABOVE
            assert np.array_equal(got[big], ref[big])
            assert np.max(np.abs(got - ref)) < 10.0 * _BITWISE_ABOVE
        assert _subnormal_parts(got) == 0
        start, stop = lu.window(b)
        assert (lo, hi) == (data.evolved.start + start, data.evolved.start + stop)
        assert _all_positive_zero(got[:lo]) and _all_positive_zero(got[hi:])
        outside = np.abs(ref[data.evolved])
        outside[start:stop] = 0.0
        assert np.all(outside < solvers._NEGLIGIBLE)
        if step == 0 and data.spec.geometry != "radial":
            # the window leaves out most of the grid; on radial grids the rows
            # next to the origin decay slowly and the bound spans the grid
            assert stop - start < 0.8 * rhs.size
        if damped is None:
            state = step_parabolic(state, coeff, dt)
        else:
            state = step_hyperbolic(state, coeff, dt)


_SCHRODINGER_FACTOR = complex(np.exp(0.5j * math.pi))


@pytest.mark.parametrize(
    "factor, amp",
    [(1.0, 0.8), (_SCHRODINGER_FACTOR, 0.3 + 0.47j), (_SCHRODINGER_FACTOR, 0.8)],
    ids=["real", "complex", "real-rhs-complex-factor"],
)
@pytest.mark.parametrize(
    "grid, center",
    [
        (GridSpec("line", extent=60.0, num_points=1201), 0.0),
        (GridSpec("half-line", extent=60.0, num_points=1201), 10.0),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3), 10.0),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=2, include_origin=False), 10.0),
        (GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40), 3.0),
    ],
    ids=["line", "half-line", "radial", "radial-no-origin", "polar"],
)
def test_implicit_solve_overwrites_its_right_hand_side(grid, center, factor, amp):
    data = _GridData(grid)
    rhs = amp * bump_profile((data.signed_radius - center) / 1.5) * data.angular**2
    # a complex solve takes a complex right-hand side: the caller promotes a
    # real one, as step_parabolic promotes a real field
    rhs = rhs.astype(type(factor))
    given = rhs.copy()
    dt = 0.005
    got, lo, hi = data.solve_implicit(factor, dt, rhs)
    assert got is rhs  # the right-hand side's own array, overwritten
    assert _all_positive_zero(got[:lo]) and _all_positive_zero(got[hi:])
    for wall in _walls(data):
        assert _all_positive_zero(got[wall])  # +0.0 there in the right-hand side, and kept
    if grid.geometry == "line":
        assert 0 < lo and hi < grid.num_points  # the window leaves rows on both sides
    ref = _reference_solve(data, factor, dt, given)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_complex_solve_rejects_a_real_right_hand_side():
    # the solve takes the right-hand side's own array and dtype: it neither
    # copies nor promotes, so a complex factor cannot enter a real array
    data = _GridData(GridSpec("line", extent=60.0, num_points=1201))
    rhs = 0.8 * bump_profile(data.coords)
    given = rhs.copy()
    with pytest.raises(TypeError, match="cast"):
        data.solve_implicit(_SCHRODINGER_FACTOR, 0.005, rhs)
    assert np.array_equal(_bits(rhs), _bits(given))


def test_ldlt_factors_hold_no_superdiagonal():
    # ?pttrs reads (d, e) only: the shipped heat and wave grids keep no third
    # band in either slot, while the LU factors of a radial grid keep theirs
    heat, wave = (
        parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json"))
        for name in ("heat_subcritical", "damped_wave_subcritical")
    )
    cases = [
        (heat.problem.grid, heat.controls.dt_init, None, True),
        (wave.problem.grid, wave.controls.dt_init, wave.problem.coeff, True),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3), 0.01, None, False),
    ]
    for grid, dt, damped, ldlt in cases:
        data = _GridData(grid)
        for rung in (dt, 2.0 * dt):  # a step's rung and its probe's, as in a run
            factor = 1.0 if damped is None else 0.5 * rung  # as step_hyperbolic
            data.solve_implicit(factor, rung, np.zeros(data.shape), None, damped)
        assert len(data._factors) == 2
        for lu in data._factors.values():
            assert _is_ldlt(lu) == ldlt and len(lu.factors) == (2 if ldlt else 5)


def test_pivoting_factor_solves_the_full_range():
    # backward diffusion with dt/(2h^2) = 0.6: |diagonal| < |subdiagonal|, so gttrf pivots
    grid = GridSpec("line", extent=10.0, num_points=201)
    data = _GridData(grid)
    dt = 1.2 * data.h**2
    rhs = bump_profile((data.coords - 1.0) / 0.5)
    got, _, _ = data.solve_implicit(-1.0, dt, rhs.copy())
    lu = _solved_last(data)
    assert lu.pivoted
    assert not _is_ldlt(lu)  # not positive definite: pttrf fails and gttrf pivots
    assert lu.window(rhs[data.evolved]) == (0, rhs.size - 2)
    ref = _banded_reference(data, -1.0, dt, rhs)
    big = np.abs(ref) > _BITWISE_ABOVE
    assert np.array_equal(got[big], ref[big])


def _is_ldlt(lu):
    """Whether ``lu`` holds the ``pttrf`` factors (d, e) rather than the five of ``gttrf``."""
    return len(lu.factors) == 2


@pytest.mark.parametrize(
    "grid, factor, ldlt",
    [
        (GridSpec("line", extent=60.0, num_points=1201), 1.0, True),
        (GridSpec("half-line", extent=60.0, num_points=1201), 1.0, True),
        (GridSpec("line", extent=60.0, num_points=1201), complex(np.exp(-0.5j * math.pi)), False),
        (GridSpec("line", extent=60.0, num_points=1201), 1.0 + 0.0j, False),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3), 1.0, False),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=2), 1.0, False),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3, include_origin=False), 1.0, False),
        (GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40), 1.0, False),
    ],
    ids=["line", "half-line", "complex", "complex-real-part", "radial", "radial-2", "radial-no-origin", "polar"],
)
def test_implicit_solve_picks_its_lapack_pair_from_the_bands(grid, factor, ldlt):
    data = _GridData(grid)
    data.solve_implicit(factor, 0.01, np.zeros(data.shape, type(factor)))
    assert _is_ldlt(_solved_last(data)) == ldlt


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
def test_tridiagonal_routines_give_the_bits_of_scipys_lapack_funcs(dtype):
    # blowlab loads scipy's LAPACK extension from its file; in a full run blowlab is
    # imported first, so scipy.linalg then finds the extension blowlab registered
    from blowlab.tridiagonal import _lapack

    rng = np.random.default_rng(3)
    m, dtype = 50, np.dtype(dtype)

    def draw(n):
        x = rng.standard_normal(n)
        return x + 1j * rng.standard_normal(n) if dtype.kind == "c" else x

    d, e, b = 4.0 + rng.random(m), draw(m - 1), draw(m).astype(dtype)
    names = ("pttrf", "pttrs", "gttrf", "gttrs")
    results = []
    for pttrf, pttrs, gttrf, gttrs in (_lapack(dtype, *names), get_lapack_funcs(names, dtype=dtype)):
        d_f, e_f, info = pttrf(d, e)
        assert info == 0
        x_ldlt, info = pttrs(d_f, e_f, b)
        assert info == 0
        *lu, info = gttrf(e.astype(dtype), d.astype(dtype), e.conj().astype(dtype))
        assert info == 0
        x_lu, info = gttrs(*lu, b)
        assert info == 0
        results.append([a.tobytes() for a in (d_f, e_f, x_ldlt, *lu, x_lu)])
    assert results[0] == results[1]


def test_symmetric_solve_on_the_shipped_heat_grid():
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", "heat_subcritical.json"))
    dt = cfg.controls.dt_init
    state = initial_state(cfg.problem, dt)
    data = _grid_data(state.grid)
    assert data.spec.num_points == 9001 and dt == 0.002
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=np.dtype(float))
    differs = False
    for step in range(8):
        rhs = state.u
        got, lo, hi = data.solve_implicit(1.0, dt, rhs.copy())
        lu = _solved_last(data)
        assert _is_ldlt(lu) and lu.decay is not None
        b = rhs[data.evolved]
        full = np.zeros_like(got)
        full[data.evolved], _ = lu._pttrs(*lu.factors, b)  # the full range
        big = np.abs(full) > _BITWISE_ABOVE
        assert np.array_equal(got[big], full[big])
        ref = _banded_reference(data, 1.0, dt, rhs)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        start, stop = lu.window(b)
        assert (lo, hi) == (data.evolved.start + start, data.evolved.start + stop)
        assert stop - start < b.size  # the window is narrower than the grid
        outside = np.abs(ref[data.evolved])
        outside[start:stop] = 0.0
        assert np.all(outside < solvers._NEGLIGIBLE)
        assert _all_positive_zero(got[:lo]) and _all_positive_zero(got[hi:])
        lower, diag, upper = data._banded_diagonals
        coef = 0.5 * dt
        x_lu, _ = gttrs(*gttrf(-coef * lower[1:], 1.0 - coef * diag, -coef * upper[:-1])[:5], b)
        differs |= bool(np.any(full[data.evolved][big[data.evolved]] != x_lu[big[data.evolved]]))
        state = step_parabolic(state, cfg.problem.coeff, dt)
    assert differs  # pttrs and gttrs round differently here, so the LDL^T path is what ran


def _count_factorizations(monkeypatch):
    """A list that gains the coefficient of every implicit matrix factored from now on."""
    built = []
    init = solvers._TridiagonalLU.__init__

    def counting(self, lower, diag, upper, coef, *rest):
        built.append(coef)
        init(self, lower, diag, upper, coef, *rest)

    monkeypatch.setattr(solvers._TridiagonalLU, "__init__", counting)
    return built


_LINE_1201 = GridSpec("line", extent=60.0, num_points=1201)
_SECTOR_60 = GridSpec("polar-sector", 6.0, 60, omega=2.0, num_angles=40)


@pytest.mark.parametrize(
    "grid, center, factor",
    [
        (_LINE_1201, 0.0, 1.0),
        (_LINE_1201, 0.0, _SCHRODINGER_FACTOR),
        (_SECTOR_60, 3.0, 1.0),
        (_SECTOR_60, 3.0, _SCHRODINGER_FACTOR),
    ],
    ids=["real", "complex", "polar-real", "polar-complex"],
)
def test_alternating_rungs_factor_twice_with_the_bits_of_fresh_solves(monkeypatch, grid, center, factor):
    # a run's step and its step-doubling probe: dt and 2*dt, over and over
    built = _count_factorizations(monkeypatch)
    data = _GridData(grid)
    rhs = (0.8 * bump_profile(data.signed_radius - center) * data.angular**2).astype(type(factor))
    got = [data.solve_implicit(factor, dt, rhs.copy()) for dt in (0.01, 0.02) * 4]
    # each rung is factored once, into its own slot: on the sector too, whose
    # sine modes are one stacked system
    assert len(built) == 2
    fresh = [_GridData(grid).solve_implicit(factor, dt, rhs.copy()) for dt in (0.01, 0.02)]
    for k, (x, lo, hi) in enumerate(got):
        want, want_lo, want_hi = fresh[k % 2]
        assert np.array_equal(_bits(x), _bits(want)) and (lo, hi) == (want_lo, want_hi)


def test_a_third_rung_drops_the_slot_used_longer_ago(monkeypatch):
    built = _count_factorizations(monkeypatch)
    data = _GridData(GridSpec("line", extent=60.0, num_points=1201))
    rhs = bump_profile(data.coords)
    data.solve_implicit(1.0, 0.01, rhs.copy())
    old = _solved_last(data)
    data.solve_implicit(1.0, 0.02, rhs.copy())
    data.solve_implicit(1.0, 0.01, rhs.copy())  # 0.02 is now the slot used longer ago
    assert len(built) == 2 and _solved_last(data) is old
    x, lo, hi = data.solve_implicit(1.0, 0.04, rhs.copy())
    assert len(built) == 3
    real = np.dtype(float)
    assert list(data._factors) == [(0.01, 1.0, real, None), (0.04, 1.0, real, None)]
    assert data._factors[0.01, 1.0, real, None] is old
    want, want_lo, want_hi = _GridData(data.spec).solve_implicit(1.0, 0.04, rhs.copy())
    assert np.array_equal(_bits(x), _bits(want)) and (lo, hi) == (want_lo, want_hi)


def test_shipped_nls_run_builds_at_most_18_factorizations(monkeypatch):
    # one factor per rung the run visits, where a single factor slot built 77:
    # each failed probe factored 2*dt, and the step after it dt again
    built = _count_factorizations(monkeypatch)
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", "schrodinger_blowup.json"))
    res = run_until_blowup(cfg.problem, cfg.controls)
    assert res.record.status == "blowup"
    assert 0 < len(built) <= 18
    assert len(set(built)) == len(built)  # no rung was factored twice
    assert not _grid_data(cfg.problem.grid)._factors  # released when the run ends


def _assert_fields_above_the_floor(config, controls):
    """Every field u of a run on a shipped config, which both steps write through
    the 1-d implicit solve and its flush, has each real and imaginary part either
    zero or at least 2^-511, so |u|^2 holds no subnormal and no zero where u is
    nonzero."""
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", config))
    res = run_until_blowup(cfg.problem, controls, (solvers.SnapshotStore(),))
    assert res.record.status == "survived"
    assert len(res.snapshots) > 5
    for u in res.snapshots[1:]:  # the initial bump is not a solve's output
        parts = np.abs(u.view(np.float64))
        assert not np.any((parts > 0.0) & (parts < 2.0**-511))
        assert np.any((parts > 0.0) & (parts < 1e-150))  # the tail reaches down to the floor
        square = abs_power(u, 2.0)
        assert _subnormal_parts(square) == 0
        assert np.all(square[u != 0.0] > 0.0)


def test_nls_run_leaves_no_subnormal_field():
    controls = RunControls(threshold=1e6, t_max=0.5, dt_init=0.01, snapshot_dt=0.04)
    _assert_fields_above_the_floor("schrodinger_blowup.json", controls)


def test_heat_run_leaves_no_subnormal_field():
    controls = RunControls(threshold=1e6, t_max=0.5, dt_init=0.002, snapshot_dt=0.05)
    _assert_fields_above_the_floor("heat_subcritical.json", controls)


def test_damped_wave_run_leaves_no_subnormal_field():
    # the trapezoidal step solves for u' and flushes it as Crank-Nicolson does
    controls = RunControls(threshold=1e6, t_max=2.0, dt_init=0.018, snapshot_dt=0.2)
    _assert_fields_above_the_floor("damped_wave_subcritical.json", controls)


# -- step control: the dyadic ladder and its step-doubling probe --------------


def _recording(monkeypatch, name):
    """Replace the stepper ``name`` with one that logs (state, dt) per call."""
    calls = []
    original = getattr(solvers, name)

    def step(state, coeff, dt, *spare):
        calls.append((state, dt))
        return original(state, coeff, dt, *spare)

    monkeypatch.setattr(solvers, name, step)
    return calls


def _on_ladder(dt, dt0):
    return math.frexp(dt / dt0)[0] == 0.5  # dt / dt0 is an exact power of two


def test_halving_rtol_moves_lifespan_under_1_percent(monkeypatch):
    # the critical-heat acceptance configuration at its slowest epsilon
    coeff = CoefficientSpec(tau=0, p=3.0, lam=1.0, a_phase=0.0)
    grid = GridSpec("line", extent=300.0, num_points=7501)
    problem = EvolutionProblem(coeff, grid, InitialDataSpec(0.0, 1.0, 0.6, amplitude=1.6))
    controls = RunControls(threshold=1e6, t_max=400.0, dt_init=4e-3)
    records = []
    for rtol in (solvers._RTOL, solvers._RTOL / 2):
        monkeypatch.setattr(solvers, "_RTOL", rtol)
        records.append(run_until_blowup(problem, controls).record)
    assert all(r.status == "blowup" for r in records)
    assert records[1].steps > records[0].steps  # the tolerance is what limits the step
    t_coarse, t_fine = (r.t_extrapolated for r in records)
    assert abs(t_coarse - t_fine) <= 0.01 * t_fine


def test_step_stays_on_the_ladder_under_its_caps(monkeypatch):
    calls = _recording(monkeypatch, "step_parabolic")
    grid = GridSpec("line", extent=80.0, num_points=2001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.5)
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    res = run_until_blowup(EvolutionProblem(HEAT, grid, init), controls, (solvers.SnapshotStore(),))
    assert res.record.status == "blowup"
    dts = [dt for _, dt in calls]
    assert all(_on_ladder(dt, 2e-3) and dt <= 0.05 for dt in dts)
    assert max(dts) == 0.032  # the quiet phase climbs to the last rung under snapshot_dt
    # no snapshot interval is skipped
    assert np.all(np.diff(res.snapshot_times) <= 0.05 + 0.032)

    calls = _recording(monkeypatch, "step_hyperbolic")
    grid = GridSpec("line", extent=60.0, num_points=1501)
    init = InitialDataSpec(center=0.0, width=0.8, epsilon=3.0, g_amplitude=1.0)
    dt0 = 0.036 / 8
    res = run_until_blowup(
        EvolutionProblem(DAMPED, grid, init), RunControls(threshold=1e6, t_max=50.0, dt_init=dt0)
    )
    assert res.record.status == "blowup"
    dts = [dt for _, dt in calls]
    assert all(_on_ladder(dt, dt0) and dt <= 0.9 * 0.04 for dt in dts)
    # u alone passes one probe here; the velocity's local error does not
    assert max(dts) == 2 * dt0  # probes at 2*dt0 fail, so none at 4*dt0 is made


def test_window_of_a_zero_or_non_finite_right_hand_side():
    data = _GridData(GridSpec("line", extent=60.0, num_points=1201))
    data.solve_implicit(1.0, 0.01, bump_profile(data.coords))
    lu = _solved_last(data)
    assert lu.decay is not None  # the window bound holds for this factor
    m = lu.size
    zero = np.zeros(m)
    assert lu.window(zero) == (0, 0)
    negative = np.full(m, -0.0)
    assert lu.window(negative) == (0, 0)
    assert lu.solve(negative, 0, None) == (0, m)  # an empty window solves the full range
    assert _all_positive_zero(negative)  # and the flush leaves +0.0
    for peak in (np.inf, -np.inf, np.nan):
        b = np.zeros(m)
        b[m // 2] = peak
        assert lu.window(b) == (0, m)
        # the flush of negligible parts keeps NaN and inf: no entry is zeroed
        assert lu.solve(b, 0, None) == (0, m)
        assert not np.any(np.isfinite(b))


def _window_by_full_magnitude(lu, b):
    """The solve window by its rule in the log domain over every entry, the
    reference of ``_TridiagonalLU.window``: entry j reaches
    (log|b_j| + log_scale) / decay nodes to each side, and where one would
    reach past an end by more than log(largest float) / decay nodes (so its
    product with the reach table overflows) the window spans that side.
    Returns the window and, for each end, whether the reach past it lies
    within 1e-9 of a whole node, where the table's rounding may move that end
    by one.  The seeded window cases hold no such reach."""
    m = b.size
    if lu.decay is None or (b[0] != 0.0 and b[-1] != 0.0):
        return (0, m), (False, False)
    rows = np.flatnonzero(b)
    if rows.size == 0:
        return (0, 0), (False, False)
    if not np.all(np.isfinite(b)):
        return (0, m), (False, False)
    lo, hi = int(rows[0]), int(rows[-1])
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(b)) + lu.log_scale  # -inf at zero entries
    past = [float(np.max(log_mag - lu.decay * np.abs(np.arange(m) - end))) for end in (lo, hi)]
    finite = [e <= math.log(np.finfo(float).max) for e in past]
    lead, trail = (e / lu.decay if ok else m for e, ok in zip(past, finite))
    margin = solvers._WINDOW_MARGIN
    window = (
        max(math.floor(min(lo - lead, lo)) - margin, 0),
        min(math.ceil(max(hi + trail, hi)) + 1 + margin, m),
    )
    ties = (ok and r > -1e-9 and abs(r - round(r)) < 1e-9 for r, ok in zip((lead, trail), finite))
    return window, tuple(ties)


def _is_the_window_rule(got, lu, b):
    """Whether the window ``got`` is the log-domain rule's: bitwise, but for an
    end within rounding of a whole node, which may lie one node off."""
    want, ties = _window_by_full_magnitude(lu, b)
    return all(g == w or (tie and abs(g - w) == 1) for g, w, tie in zip(got, want, ties))


def _window_cases(m, dtype, rng):
    """Right-hand sides for the window: random blocks with magnitudes over the
    whole float range, zero ends, single entries, all zeros and non-finite peaks."""
    def entries(size, lo_exp=-300.0, hi_exp=300.0):
        mag = 10.0 ** rng.uniform(lo_exp, hi_exp, size)
        if dtype is float:
            return mag * rng.choice([-1.0, 1.0], size)
        return mag * np.exp(2j * math.pi * rng.random(size))

    cases = []
    for _ in range(150):
        b = np.zeros(m, dtype=dtype)
        lo = int(rng.integers(0, m))
        hi = int(rng.integers(lo, m))
        b[lo : hi + 1] = entries(hi + 1 - lo, *sorted(rng.uniform(-320.0, 308.0, 2)))
        b[rng.random(m) < rng.random()] = 0.0  # interior zeros, and sometimes zero ends
        cases.append(b)
    for k in (0, 1, m // 3, m - 2, m - 1):  # one nonzero entry, ends included
        for value in entries(3, -310.0, 308.0):
            b = np.zeros(m, dtype=dtype)
            b[k] = value
            cases.append(b)
    cases.append(np.zeros(m, dtype=dtype))
    big = np.zeros(m, dtype=dtype)
    big[100:140] = np.finfo(float).max * (1.0 if dtype is float else (1.0 + 1.0j) / 1.5)
    cases.append(big)  # |b| close to the largest float; complex |b| past sqrt(2) of a part
    bad = [np.nan, np.inf, -np.inf]
    if dtype is complex:
        bad += [complex(0.0, np.inf), complex(np.nan, 0.0), complex(1.0, -np.inf)]
    for value in bad:
        b = np.zeros(m, dtype=dtype)
        b[m // 2 - 5 : m // 2 + 5] = 1.0
        b[m // 2] = value
        cases.append(b)
    return cases


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # huge |b| times the table
@pytest.mark.parametrize("dt", [0.01, 0.1])
@pytest.mark.parametrize(
    "grid, factor",
    [
        (GridSpec("line", extent=60.0, num_points=1201), 1.0),
        (GridSpec("line", extent=60.0, num_points=1201), complex(np.exp(0.5j * math.pi))),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3, include_origin=False), 1.0),
    ],
    ids=["real", "complex", "real-radial"],
)
def test_window_is_bitwise_the_full_magnitude_rule(grid, factor, dt):
    data = _GridData(grid)
    dtype = complex if isinstance(factor, complex) else float
    data.solve_implicit(factor, dt, np.zeros(data.shape, dtype=dtype))
    lu = _solved_last(data)
    assert lu.decay is not None
    # the real line factor is the symmetric one (pttrs); the others are LU (gttrs)
    assert _is_ldlt(lu) == (grid.geometry == "line" and dtype is float)
    m = lu.size
    seen = set()
    cases = _window_cases(m, dtype, np.random.default_rng(11))
    for b in cases:
        got = lu.window(b)
        assert _is_the_window_rule(got, lu, b)
        seen.add(got == (0, m))
    assert seen == {True, False}  # both full and narrow windows occur
    if dtype is complex and dt == 0.1:
        # |b| = sqrt(2) |part| at a distance that only the reach of |b| (not of
        # its larger part) spans: it moves the window's start
        ln2 = math.log(2.0)
        for exp2 in range(-1020, 0):
            reach_part = (exp2 * ln2 + lu.log_scale) / lu.decay
            d = math.floor(reach_part) + 1
            if reach_part > 0.0 and min(d - reach_part, reach_part + 0.5 * ln2 / lu.decay - d) > 0.01:
                break
        else:
            raise AssertionError("no distance that only |b| spans")
        b = np.zeros(m, dtype=complex)
        b[100] = 5e-324
        b[100 + d] = 2.0**exp2 * (1.0 + 1.0j)
        assert lu.window(b) == _window_by_full_magnitude(lu, b)[0]
        assert lu.window(b)[0] < 100 - solvers._WINDOW_MARGIN


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # huge |b| times the table
@pytest.mark.parametrize("factor", [1.0, complex(np.exp(0.5j * math.pi))], ids=["real", "complex"])
def test_window_scanned_in_the_given_rows_is_the_window_of_every_row(factor):
    # the rows [lo, hi) promise zeros outside them: any such rows give the window
    # the whole right-hand side gives
    data = _GridData(GridSpec("line", extent=60.0, num_points=1201))
    dtype = complex if isinstance(factor, complex) else float
    data.solve_implicit(factor, 0.1, np.zeros(data.shape, dtype=dtype))
    lu = _solved_last(data)
    m = lu.size
    rng = np.random.default_rng(12)
    narrow = 0
    for b in _window_cases(m, dtype, rng):
        rows = np.flatnonzero(b)
        first, last = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (m // 2, m // 2)
        lo, hi = int(rng.integers(0, first + 1)), int(rng.integers(last, m + 1))
        assert lu.window(b, lo, hi) == lu.window(b)
        assert _is_the_window_rule(lu.window(b), lu, b)
        narrow += hi - lo < m
    assert narrow > 100
    # the solve takes the rows in grid coordinates, its evolved nodes starting at row 1
    rhs = np.zeros(data.shape, dtype=dtype)
    rhs[500:540] = 0.8
    want, want_lo, want_hi = data.solve_implicit(factor, 1e-3, rhs.copy())
    assert 0 < want_lo and want_hi < data.shape[0]  # not clamped: a row less would move it
    got, lo, hi = data.solve_implicit(factor, 1e-3, rhs.copy(), (500, 540))
    assert np.array_equal(_bits(got), _bits(want)) and (lo, hi) == (want_lo, want_hi)


def _window_by_scan(lu, b, lo, hi):
    """The window by the plain scan: the whole rows [lo, hi) for the first and
    last nonzero part, max|part| over them for the reach, and |b| times the
    reach table within that reach of each end, whether or not an end lies
    within the margin of the matrix's end."""
    m = b.size
    if lu.decay is None or (b[0] != 0.0 and b[-1] != 0.0):
        return 0, m
    per = 2 if b.dtype.kind == "c" else 1
    parts = b.view(np.float64)
    nonzero = np.flatnonzero(parts[lo * per : hi * per])
    if nonzero.size == 0:
        return 0, 0
    first, last = lo * per + int(nonzero[0]), lo * per + int(nonzero[-1])
    live = parts[first : last + 1]
    top = float(max(live.max(), -live.min()))
    if not math.isfinite(top):
        return 0, m
    lo, hi = first // per, last // per
    span = max(math.ceil((math.log(top) + math.log(per) / 2 + lu.log_scale) / lu.decay), 0)
    table = np.multiply(np.arange(min(span + 1, m)), -lu.decay)
    table += lu.log_scale
    np.exp(table, out=table)
    head = np.abs(b[lo : min(lo + span, hi) + 1]) * table[: min(span, hi - lo) + 1]
    tail = np.abs(b[max(hi - span, lo) : hi + 1]) * table[min(span, hi - lo) :: -1]
    lead, trail = (
        math.log(peak) / lu.decay if 0.0 < peak < math.inf else m
        for peak in (float(head.max()), float(tail.max()))
    )
    margin = solvers._WINDOW_MARGIN
    return (
        max(math.floor(min(lo - lead, lo)) - margin, 0),
        min(math.ceil(max(hi + trail, hi)) + 1 + margin, m),
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # huge |b| times the table
@pytest.mark.parametrize(
    "grid, factor",
    [
        (GridSpec("line", extent=60.0, num_points=1201), 1.0),
        (GridSpec("line", extent=60.0, num_points=1201), complex(np.exp(0.5j * math.pi))),
        (GridSpec("radial", extent=60.0, num_points=1201, dim=3, include_origin=False), 1.0),
    ],
    ids=["real", "complex", "real-radial"],
)
def test_window_is_bitwise_the_window_of_the_plain_scan(grid, factor):
    # the window scans a short run from each end, reads |b| once, and skips an
    # end within the margin: every window is the plain scan's, bit for bit
    data = _GridData(grid)
    dtype = complex if isinstance(factor, complex) else float
    data.solve_implicit(factor, 0.1, np.zeros(data.shape, dtype=dtype))
    lu = _solved_last(data)
    m = lu.size
    rng = np.random.default_rng(13)
    cases = _window_cases(m, dtype, rng)
    for lo, hi in ((0, m), (30, m - 30), (m - 600, m)):  # zeros past a short run from each end
        b = np.zeros(m, dtype=dtype)
        b[lo + 300 : hi - 300] = 1e-3
        cases.append(b)
    for b in cases:
        rows = np.flatnonzero(b)
        first, last = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (m // 2, m // 2)
        lo, hi = int(rng.integers(0, first + 1)), int(rng.integers(last, m + 1))
        assert lu.window(b, lo, hi) == _window_by_scan(lu, b, lo, hi)
        assert lu.window(b) == _window_by_scan(lu, b, 0, m)


def test_laplacian_rows_are_bitwise_the_full_laplacian_rows():
    grids = [
        GridSpec("line", 20.0, 101),
        GridSpec("half-line", 20.0, 101),
        GridSpec("radial", 20.0, 101, dim=2),
        GridSpec("radial", 20.0, 101, dim=3, include_origin=False),
        GridSpec("polar-sector", 6.0, 30, omega=2.0, num_angles=12),
        solvers._FoldedLine(GridSpec("line", 20.0, 101)),
    ]
    rng = np.random.default_rng(5)
    for grid in grids:
        data = _GridData(grid)
        u = rng.normal(size=data.shape) + 1j * rng.normal(size=data.shape)
        for field in (u.real.copy(), u):
            full = data.laplacian(field)
            n = data.shape[0]
            for lo, hi in [(0, n), (0, 1), (0, 4), (1, n - 1), (3, 9), (n - 4, n), (n - 1, n)]:
                got = data.laplacian(field, lo, hi)
                assert got.shape == full[lo:hi].shape
                assert np.array_equal(_bits(got), _bits(full[lo:hi]))


def _full_grid_step(state, coeff, dt):
    """The Crank-Nicolson step with every row of the right-hand side computed: the
    reference of the windowed ``step_parabolic`` (same operations, same order)."""
    data = _grid_data(state.grid)
    ainv, lam = complex(np.exp(-1j * coeff.zeta)), complex(coeff.lam)
    if coeff.zeta == 0.0 and lam.imag == 0.0 and not np.iscomplexobj(state.u):
        ainv, lam = ainv.real, lam.real
    u = state.u
    lap_u = data.laplacian(u)
    half = lap_u + lam * abs_power(u, coeff.p)
    half *= 0.5 * dt * ainv
    half += u
    rhs = 0.5 * dt * ainv * lap_u
    rhs += u
    rhs += dt * ainv * lam * abs_power(half, coeff.p)
    return data.solve_implicit(ainv, dt, rhs)


@pytest.mark.parametrize("coeff", [HEAT, NLS], ids=["real", "complex"])
@pytest.mark.parametrize(
    "grid, center",
    [
        (GridSpec("line", 40.0, 801), 3.0),
        (GridSpec("half-line", 40.0, 801), 6.0),
        (GridSpec("radial", 40.0, 801, dim=2), 0.0),
        (GridSpec("radial", 40.0, 801, dim=2, include_origin=False), 6.0),
        (GridSpec("radial", 40.0, 801, dim=3), 0.0),
        (GridSpec("radial", 40.0, 801, dim=3, include_origin=False), 6.0),
        (GridSpec("polar-sector", 10.0, 80, omega=2.0, num_angles=12), 5.0),
        (solvers._FoldedLine(GridSpec("line", 40.0, 801)), 0.0),
    ],
    ids=[
        "line", "half-line", "radial-2", "radial-2-no-origin", "radial-3", "radial-3-no-origin",
        "polar", "folded-line",
    ],
)
def test_windowed_step_is_bitwise_the_full_grid_step(grid, center, coeff):
    amp = 0.6 if coeff is HEAT else 0.6 - 0.5j
    init = InitialDataSpec(center, 1.5, 0.8, amp)
    state, line = _start(coeff, grid, init, 0.01)
    # the initial state has the tightest range: rows lo and hi - 1 hold nonzero values
    rows = np.flatnonzero(np.any(state.u.reshape(len(state.u), -1) != 0.0, axis=1))
    assert (state.lo, state.hi) == (int(rows[0]), int(rows[-1]) + 1)
    assert state.lo > 0 or line.geometry == "radial"
    for _ in range(5):
        got = step_parabolic(state, coeff, state.dt)
        want, lo, hi = _full_grid_step(state, coeff, state.dt)
        assert got.u.dtype == want.dtype
        assert np.array_equal(_bits(got.u), _bits(want))
        assert (got.lo, got.hi) == (lo, hi)
        assert _all_positive_zero(got.u[: got.lo]) and _all_positive_zero(got.u[got.hi :])
        if line.geometry == "polar-sector":
            assert (got.lo, got.hi) == (0, grid.num_points)
        state = got


def _start(coeff, grid, init, dt):
    """The initial state on ``grid``, a GridSpec or a folded line, and the GridSpec."""
    line = grid.line if isinstance(grid, solvers._FoldedLine) else grid
    return solvers._initial_state(EvolutionProblem(coeff, line, init), grid, dt), line


def test_complex_step_bits_do_not_depend_on_the_grid_size(monkeypatch):
    # 16,001 complex nodes hold 250 KiB and 17,001 hold 266 KiB: numpy rewrites
    # c * temporary as temporary *= c only from 256 KiB, and c*z and z*c round
    # differently.  A large source term carries the predictor's last bits into
    # the right-hand side (written c * (Lap u + source), 7 entries differed).
    seen = []
    original = _GridData.solve_implicit

    def capture(self, factor, dt, rhs, *args):
        seen.append(rhs.copy())
        return original(self, factor, dt, rhs, *args)

    monkeypatch.setattr(_GridData, "solve_implicit", capture)
    for n in (16001, 17001):
        grid = GridSpec("half-line", extent=0.02 * (n - 1), num_points=n)
        problem = EvolutionProblem(NLS, grid, InitialDataSpec(6.0, 2.0, 20.0, amplitude=0.3 - 0.47j))
        step_parabolic(initial_state(problem, 0.2), NLS, 0.2)
    small, large = seen
    assert small.nbytes < 256 * 1024 <= large.nbytes
    assert np.any(small != 0.0)
    assert np.array_equal(_bits(small), _bits(large[: small.size]))


def test_a_start_above_the_threshold_is_a_blowup_at_t_0():
    # u(0) = 1e200 * B: every trial step would overflow |u|^2, but no step is taken
    problem = EvolutionProblem(
        HEAT, GridSpec("line", extent=20.0, num_points=201), InitialDataSpec(0.0, 1.0, 1e200)
    )
    res = run_until_blowup(problem, RunControls(threshold=1e6, t_max=1.0))
    rec = res.record
    assert (rec.status, rec.steps, rec.t_final, rec.t_extrapolated) == ("blowup", 0, 0.0, 0.0)
    assert rec.t_at_thresholds == (0.0,) * len(solvers.RECORD_THRESHOLDS)
    assert res.snapshot_times == [0.0]
    # a start between two thresholds crosses the lower ones at t = 0 and keeps running
    low = EvolutionProblem(
        HEAT, GridSpec("line", extent=20.0, num_points=201), InitialDataSpec(0.0, 1.0, 2e4)
    )
    rec = run_until_blowup(low, RunControls(threshold=1e6, t_max=1.0)).record
    assert rec.status == "blowup" and rec.steps > 0
    assert rec.t_at_thresholds[:2] == (0.0, 0.0) and 0.0 < rec.t_at_thresholds[2] < rec.t_final


_P60_RUN = """
from blowlab.solvers import *
coeff = CoefficientSpec(tau=0, p=60.0, lam=1.0, a_phase=0.0)
grid = GridSpec("line", extent=20.0, num_points=201)
problem = EvolutionProblem(coeff, grid, InitialDataSpec(0.0, 1.0, 1e5))
rec = run_until_blowup(problem, RunControls(threshold=1e6, t_max=1.0, max_steps=2000)).record
print(rec.status, rec.steps, repr(rec.dt_final))
"""


def _p60_run(*flags):
    """A heat run at p = 60 whose step floor 1e-3 * 1e6**(1-p) underflows to 0, in a
    fresh process: a timeout turns a run that never ends into a failure."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", _P60_RUN],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def test_a_run_whose_halved_step_underflows_stalls():
    proc = _p60_run()
    assert proc.returncode == 0, proc.stderr
    status, steps, dt_final = proc.stdout.split()
    assert status == "stalled" and int(steps) < 2000
    assert float(dt_final) > 0.0 and float(dt_final) / 2.0 == 0.0  # halved to the last subnormal


def test_an_overflowing_trial_step_warns_nothing():
    proc = _p60_run("-W", "error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    status, _, dt_final = proc.stdout.split()
    assert status == "stalled" and float(dt_final) < 0.01  # the trial steps overflowed and halved


def test_sweep_path_holds_no_snapshots_and_keeps_the_record():
    grid = GridSpec("line", extent=80.0, num_points=2001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.5)
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    problem = EvolutionProblem(HEAT, grid, init)
    store = solvers.SnapshotStore()
    full = run_until_blowup(problem, controls, (store,))
    lean = run_until_blowup(problem, controls)
    assert full.snapshot_times == store.times and full.snapshots is store.fields
    assert lean.record == full.record
    assert lean.snapshot_times == [0.0, full.snapshot_times[-1]]
    assert np.array_equal(lean.snapshots[-1], full.snapshots[-1])
    assert len(full.snapshots) > 100


def _unfolded(u):
    """The full-line field of a folded line's rows 0..(n-1)/2."""
    return np.concatenate((u, u[-2::-1]))


def test_run_with_a_store_drops_its_initial_field(monkeypatch):
    # a SnapshotStore keeps its own copy of the first field, and the run lends
    # the initial state's u to a later step as it lends any retired state's;
    # the centred line steps its folded half, and the store sees it unfolded
    problem, controls = HEAT_BLOWUP
    calls = _recording(monkeypatch, "step_parabolic")
    store = solvers.SnapshotStore()
    res = run_until_blowup(problem, controls, (store,))
    first = calls[0][0].u  # the initial state's array
    seen = [state.t for state, _ in calls if state.u is first and state.t > 0.0]
    assert res.record.status == "blowup" and len(seen) > 0  # a later state in that array
    grid = solvers._stepped_grid(problem)
    assert grid == solvers._FoldedLine(problem.grid) and calls[0][0].grid == grid
    want = _unfolded(solvers._initial_state(problem, grid, 1.0).u)
    assert np.array_equal(_bits(store.fields[0]), _bits(want))


def test_run_without_observers_holds_its_end_points_only():
    # about 300 snapshot crossings, yet the run allocates only a few fields at its peak
    import tracemalloc

    problem, controls = HEAT_BLOWUP
    run_until_blowup(problem, replace(controls, t_max=0.01))  # the grid's cached data
    field = 8 * problem.grid.num_points  # bytes of one real field
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run_until_blowup(problem, controls)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.record.t_final / controls.snapshot_dt > 250
    assert res.snapshot_times == [0.0, res.record.t_final] and len(res.snapshots) == 2
    assert peak < 32 * field


def test_run_logs_its_step_control(caplog):
    grid = GridSpec("line", extent=80.0, num_points=2001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.5)
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    with caplog.at_level("DEBUG", logger="blowlab.solvers"):
        res = run_until_blowup(EvolutionProblem(HEAT, grid, init), controls)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "blowlab.solvers"]
    assert f"{res.record.steps} steps accepted" in line
    assert "halvings" in line and "passed" in line and "failed" in line
    assert "dt 1.220703125e-07..0.032" in line


def test_run_logs_its_stepper_calls_and_wall_time_per_call(monkeypatch, caplog):
    # trials and probes are counted; the time per call goes to the log only
    calls = _recording(monkeypatch, "step_hyperbolic")
    grid = GridSpec("line", extent=60.0, num_points=1501)
    init = InitialDataSpec(center=0.0, width=0.8, epsilon=3.0, g_amplitude=1.0)
    controls = RunControls(threshold=1e6, t_max=50.0, dt_init=0.036 / 8)
    with caplog.at_level("DEBUG", logger="blowlab.solvers"):
        res = run_until_blowup(EvolutionProblem(DAMPED, grid, init), controls)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "blowlab.solvers"]
    assert len(calls) > res.record.steps
    match = re.search(r"; (\d+) stepper calls, (\d+\.\d) us of run per call$", line)
    assert match and int(match[1]) == len(calls) and float(match[2]) > 0.0


# -- the damped-wave step in a run -------------------------------------------


def test_damped_wave_run_evaluates_one_laplacian_per_step(monkeypatch):
    counts = {"laplacian": 0, "abs_power": 0}
    laplacian, power = _GridData.laplacian, solvers.abs_power

    def counting_laplacian(self, u, lo=0, hi=None, out=None):
        counts["laplacian"] += 1
        return laplacian(self, u, lo, hi, out)

    def counting_power(u, p, out=None, work=None):
        counts["abs_power"] += 1
        return power(u, p, out, work)

    monkeypatch.setattr(_GridData, "laplacian", counting_laplacian)
    monkeypatch.setattr(solvers, "abs_power", counting_power)
    calls = _recording(monkeypatch, "step_hyperbolic")
    grid = GridSpec("line", extent=60.0, num_points=1501)
    init = InitialDataSpec(center=0.0, width=0.8, epsilon=3.0, g_amplitude=1.0)
    controls = RunControls(threshold=1e6, t_max=50.0, dt_init=0.036 / 8)
    res = run_until_blowup(EvolutionProblem(DAMPED, grid, init), controls)
    assert res.record.status == "blowup"
    assert len(calls) > res.record.steps  # halvings and probes ran
    # per stepper call, one Laplacian of u and, at p = 2, |u + (dt/2) v|^2: a
    # real step reads its peak off the solve's flush, with no |u_new|^2
    assert counts == {"laplacian": len(calls), "abs_power": len(calls)}


def test_shipped_damped_wave_run_evaluates_the_damping_once(monkeypatch):
    # a(x) once per coefficients and grid; D = 1 + (dt/2) a(x) from it on each
    # rung, where every probe's rung and the step after it evaluated a(x) anew
    evaluated = []
    damping = CoefficientSpec.damping

    def counting(self, radius):
        evaluated.append(radius.size)
        return damping(self, radius)

    monkeypatch.setattr(CoefficientSpec, "damping", counting)
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", "damped_wave_subcritical.json"))
    data = _grid_data(solvers._stepped_grid(cfg.problem))  # the centred line's folded half
    assert data.folded
    monkeypatch.setattr(data, "_damping", None)  # as on a grid no run has used
    res = run_until_blowup(cfg.problem, cfg.controls)
    assert res.record.status == "blowup" and res.record.steps == 2343
    assert evaluated == [cfg.problem.grid.num_points // 2 + 1]
    # D keeps its bits: a float when a(x) is uniform, an array otherwise
    decaying = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5)
    for coeff in (cfg.problem.coeff, decaying, cfg.problem.coeff):
        for dt in (0.018, 0.036, 0.018, 1e-3):
            want = 1.0 + 0.5 * dt * damping(coeff, data.radius)
            got = data.damping_diagonal(coeff, dt)
            assert (type(got) is float) == (coeff.alpha == 0.0)
            assert np.array_equal(_bits(np.broadcast_to(got, want.shape)), _bits(want))
    assert len(evaluated) == 3  # each change of coefficients evaluates a(x) once


_WALL_GRIDS = {
    "line": (GridSpec("line", 40.0, 401), 0.0),
    "half-line": (GridSpec("half-line", 40.0, 401), 4.0),
    "radial-3": (GridSpec("radial", 40.0, 401, dim=3), 0.0),
    "radial-3-no-origin": (GridSpec("radial", 40.0, 401, dim=3, include_origin=False), 4.0),
    "polar": (GridSpec("polar-sector", 8.0, 40, omega=2.0, num_angles=12), 4.0),
}


@pytest.mark.parametrize("coeff", [HEAT, DAMPED], ids=["heat", "damped-wave"])
@pytest.mark.parametrize("case", list(_WALL_GRIDS))
def test_run_hands_its_observers_fields_that_are_positive_zero_on_the_walls(case, coeff):
    # no code zeroes the walls: the initial data, the Laplacian and the solve
    # each leave +0.0 there, also under a negative amplitude
    grid, center = _WALL_GRIDS[case]
    data = _grid_data(grid)
    init = InitialDataSpec(center, 1.5, 2.0, amplitude=-1.0)
    seen = []

    def watch(t, u):
        seen.append(t)
        for wall in _walls(data):
            assert _all_positive_zero(u[wall]), (t, wall)

    controls = RunControls(threshold=1e3, t_max=4.0, snapshot_dt=0.25)
    run_until_blowup(EvolutionProblem(coeff, grid, init), controls, (watch,))
    assert len(seen) > 4


def _assert_run_steps_into_retired_states(monkeypatch, name, problem, controls):
    """Run ``problem`` once as shipped and once with a stepper ``name`` that
    ignores its spare and allocates every result, and check that the run lends
    its retired states, the initial one included, and keeps the bits."""
    original = getattr(solvers, name)
    calls = []

    def recording(state, coeff, dt, spare=None):
        result = original(state, coeff, dt, spare)
        calls.append((state, spare, result))
        return result

    def ignoring(state, coeff, dt, spare=None):
        return original(state, coeff, dt)

    runs = []
    for step in (recording, ignoring):
        monkeypatch.setattr(solvers, name, step)
        # no SnapshotStore: the result holds the run's own first and final arrays
        runs.append(run_until_blowup(problem, controls))
    res, fresh = runs
    assert res.record.status == "blowup"
    assert repr(res.record) == repr(fresh.record)
    for got, want in zip(res.snapshots, fresh.snapshots):
        assert np.array_equal(_bits(got), _bits(want))
    # the run's first field is a copy: the initial state is lent like any other;
    # a centred line steps its folded half, and its snapshots are unfolded
    grid = solvers._stepped_grid(problem)
    start, want = calls[0][0], solvers._initial_state(problem, grid, controls.dt_init)
    assert grid == solvers._FoldedLine(problem.grid) and start.grid == grid
    assert res.snapshots[0] is not start.u
    assert np.array_equal(_bits(res.snapshots[0]), _bits(_unfolded(want.u)))
    assert any(spare is start for _, spare, _ in calls)
    # every call's state and result is still held, so ids are unique here; a
    # result was accepted if a later call starts from it, or if it is the last
    starts = {id(state) for state, _, _ in calls} | {id(calls[-1][2])}
    accepted = [i for i, (_, _, result) in enumerate(calls) if id(result) in starts]
    assert len(accepted) == res.record.steps
    # a trial starts from the last accepted state; a probe from the one before it
    trials, current = [], start
    for i, (state, _, result) in enumerate(calls):
        if state is current:
            trials.append(i)
        if i in accepted:
            current = result
    retries = [(i, j) for i, j in zip(trials, trials[1:]) if calls[i][0] is calls[j][0]]
    assert retries and len(trials) < len(calls)  # the run halved and probed
    # a retry after a halving writes into the trial it replaces
    assert all(calls[j][1] is calls[i][2] for i, j in retries)
    # once three steps are accepted, every trial writes into a spare: the
    # arrays the run allocates do not grow with its length
    assert all(calls[i][1] is not None for i in trials if i > accepted[2])
    # a probe steps from the state two steps back; the run keeps two retired
    # states, and while a probe may follow a trial leaves one of them, so
    # every probe after the first writes into one
    probes = sorted(set(range(len(calls))) - set(trials))
    assert len(probes) > 2 and all(calls[i][0].t < calls[i - 1][0].t for i in probes)
    assert all(calls[i][1] is not None for i in probes[1:])
    return calls


def test_damped_wave_run_steps_into_retired_states(monkeypatch):
    # the run of the test above
    grid = GridSpec("line", extent=60.0, num_points=1501)
    init = InitialDataSpec(center=0.0, width=0.8, epsilon=3.0, g_amplitude=1.0)
    problem = EvolutionProblem(DAMPED, grid, init)
    controls = RunControls(threshold=1e6, t_max=50.0, dt_init=0.036 / 8)
    _assert_run_steps_into_retired_states(monkeypatch, "step_hyperbolic", problem, controls)


@pytest.mark.parametrize("case", ["real", "complex"])
def test_crank_nicolson_run_steps_into_retired_states(monkeypatch, case):
    # the heat line, and the focusing Schrodinger line of the shipped NLS
    # config on a shorter grid; both halve and probe on their way to blowup
    grid = GridSpec("line", extent=80.0, num_points=2001)
    if case == "real":
        problem = EvolutionProblem(HEAT, grid, InitialDataSpec(0.0, 1.0, 0.5))
        dt0 = 2e-3
    else:
        problem = EvolutionProblem(NLS, grid, InitialDataSpec(0.0, 1.0, 1.0, amplitude=-0.47j))
        dt0 = 0.01
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=dt0)
    calls = _assert_run_steps_into_retired_states(monkeypatch, "step_parabolic", problem, controls)
    assert calls[0][0].u.dtype == (float if case == "real" else complex)
    # a lent spare's u becomes the result's u: the step built its right-hand side there
    assert all(result.u is spare.u for _, spare, result in calls if spare is not None)


# -- the damped-wave step is confined to the rows that can be nonzero ---------


def _division_laplacian(data, u):
    """The Laplacian over every row with the second differences divided by h^2:
    the division-form reference, which differs from ``_GridData.laplacian``
    (a multiply by 1/h^2) only in rounding."""
    h2 = data.h * data.h
    out = np.zeros_like(u)
    out[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h2
    if data.folded:  # x = 0, whose neighbours are both row n-2
        out[-1] = 2.0 * (u[-2] - u[-1]) / h2
    r = data.axis_radius
    if r is None:
        return out
    r = r[:, None] if u.ndim == 2 else r
    dim = data.cross_section.dim
    out[1:-1] += ((dim - 1) / r[1:]) * (u[2:] - u[:-2]) / (2.0 * data.h)
    if data.origin_wall:
        out[0] = (-2.0 * u[0] + u[1]) / h2 + ((dim - 1) / r[0]) * u[1] / (2.0 * data.h)
    else:
        out[0] = 2.0 * dim * (u[1] - u[0]) / h2
    if u.ndim == 2:
        out[:-1, 1:-1] += (u[:-1, :-2] - 2.0 * u[:-1, 1:-1] + u[:-1, 2:]) / (data.h_theta * r) ** 2
        out[:, 0] = out[:, -1] = 0.0
    return out


def _full_grid_wave_step(u, v, coeff, grid, dt):
    """The trapezoidal step over every row, operation for operation as
    ``step_hyperbolic``: its reference.  Returns u' and v'."""
    data = _grid_data(grid)
    lam = coeff.lam if np.iscomplexobj(u) else coeff.lam.real
    half = 0.5 * dt * v
    half += u
    source = np.multiply(0.5 * dt * dt * lam, abs_power(half, coeff.p).astype(u.dtype))
    rhs = data.laplacian(u)
    rhs *= 0.25 * dt * dt
    rhs += data.damping_diagonal(coeff, dt) * u
    rhs += dt * v
    rhs += source
    u_new, _, _ = data.solve_implicit(0.5 * dt, dt, rhs, None, coeff)
    v_new = u_new - u
    v_new *= 2.0 / dt
    v_new -= v
    return u_new, v_new


_WAVE_CASES = {
    "line": (GridSpec("line", 40.0, 801), 0.0, CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0)),
    "line-alpha-p3": (
        GridSpec("line", 40.0, 801), 3.0, CoefficientSpec(tau=1, p=3.0, a0=1.0, alpha=0.5)
    ),
    "half-line": (
        GridSpec("half-line", 40.0, 801), 6.0,
        CoefficientSpec(tau=1, p=2.0, lam=-1.0, a0=0.5, alpha=0.5),
    ),
    "radial-2": (
        GridSpec("radial", 40.0, 801, dim=2), 0.0, CoefficientSpec(tau=1, p=3.0, lam=1.0, a0=1.0)
    ),
    "radial-3": (
        GridSpec("radial", 40.0, 801, dim=3), 0.0, CoefficientSpec(tau=1, p=2.0, a0=1.0, alpha=0.5)
    ),
    "radial-3-no-origin-v0": (
        GridSpec("radial", 40.0, 801, dim=3, include_origin=False), 6.0,
        CoefficientSpec(tau=1, p=2.0, lam=1.0, v0=1.0),
    ),
    "radial-3-no-origin-p3": (
        GridSpec("radial", 40.0, 801, dim=3, include_origin=False), 6.0,
        CoefficientSpec(tau=1, p=3.0, a0=1.0, alpha=0.5),
    ),
    "polar": (
        GridSpec("polar-sector", 10.0, 80, omega=2.0, num_angles=12), 5.0,
        CoefficientSpec(tau=1, p=3.0, lam=1.0, a0=1.0, alpha=0.5),
    ),
    "polar-v0": (
        GridSpec("polar-sector", 10.0, 80, omega=2.0, num_angles=12), 5.0,
        CoefficientSpec(tau=1, p=2.0, v0=1.0),
    ),
    "folded-line-alpha": (
        solvers._FoldedLine(GridSpec("line", 40.0, 801)), 0.0,
        CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5),
    ),
}


@pytest.mark.parametrize("amp, g_amp", [(-0.8, 0.5), (0.6 - 0.5j, -0.3 + 0.4j)], ids=["real", "complex"])
@pytest.mark.parametrize("case", list(_WAVE_CASES))
def test_windowed_wave_step_is_bitwise_the_full_grid_step(case, amp, g_amp):
    grid, center, coeff = _WAVE_CASES[case]
    init = InitialDataSpec(center, 1.5, 0.8, amp, g_amp)
    dt = 0.01
    state, line = _start(coeff, grid, init, dt)
    assert state.u.dtype == (float if isinstance(amp, float) else complex)

    def assert_matches(state, want):
        for got, ref in zip((state.u, state.v), want):
            assert np.array_equal(_bits(got), _bits(ref))
            assert _all_positive_zero(got[: state.lo]) and _all_positive_zero(got[state.hi :])

    want = state.u, state.v
    spare = kept = None
    for k in range(40):
        step_dt = dt if k % 3 else dt / 2
        # from the second step on, each step writes into the arrays of the state
        # two steps back, the initial one included
        new = step_hyperbolic(state, coeff, step_dt, spare)
        if spare is not None:
            assert new.u is spare.u and new.v is spare.v
        spare = state
        state = new
        want = _full_grid_wave_step(*want, coeff, grid, step_dt)
        assert_matches(state, want)
        if k == 2:  # a narrow state, copied so that it is never lent
            kept = FieldState(grid, state.u.copy(), state.v.copy(), state.t, dt, state.lo, state.hi)
            kept_want = want
    assert max_abs(state.u) > 0.0
    # the sector's range is every row, and the folded line's reaches its last
    if line.geometry != "polar-sector" and grid is line:
        # a spare whose range is wider than the rows the step computes: the
        # rows of its range past them get nonzero values that the step must clear
        b = kept.hi + 1
        assert b < state.hi
        state.u[b : state.hi] = state.v[b : state.hi] = 1.0
    narrow = step_hyperbolic(kept, coeff, dt, state)
    assert narrow.u is state.u
    assert_matches(narrow, _full_grid_wave_step(*kept_want, coeff, grid, dt))


def test_reciprocal_forms_round_within_1e_12_of_the_division_forms():
    # The Laplacian multiplies by 1/h^2 in place of dividing: only the rounding
    # differs, by at most 2.0e-16 relative to max|ref| (measured).  A wrong
    # factor, such as 1/h, is off by far more.
    bound = 1e-12
    grids = [
        GridSpec("line", 20.0, 101),
        GridSpec("half-line", 20.0, 101),
        GridSpec("radial", 20.0, 101, dim=2),
        GridSpec("radial", 20.0, 101, dim=3, include_origin=False),
        GridSpec("polar-sector", 6.0, 30, omega=2.0, num_angles=12),
        solvers._FoldedLine(GridSpec("line", 20.0, 101)),
    ]
    rng = np.random.default_rng(5)
    for grid in grids:
        data = _GridData(grid)
        u = rng.normal(size=data.shape) + 1j * rng.normal(size=data.shape)
        for field in (u.real.copy(), u):
            ref = _division_laplacian(data, field)
            assert np.max(np.abs(data.laplacian(field) - ref)) <= bound * np.max(np.abs(ref))


def test_steady_wave_step_with_a_spare_allocates_less_than_one_field():
    import tracemalloc

    coeff = CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0)
    grid = GridSpec("line", extent=40.0, num_points=2001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.02, g_amplitude=1.0)
    dt = 0.018
    back, state = None, initial_state(EvolutionProblem(coeff, grid, init), dt)
    for _ in range(3000):  # until the range spans the grid
        back, state = state, step_hyperbolic(state, coeff, dt, back)
        if (state.lo, state.hi) == (0, grid.num_points):
            break
    assert (state.lo, state.hi) == (0, grid.num_points)
    field = state.u.nbytes
    tracemalloc.start()
    try:
        for _ in range(20):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spare = back
            back, state = state, step_hyperbolic(state, coeff, dt, spare)
            assert state.u is spare.u and tracemalloc.get_traced_memory()[1] - base < field
    finally:
        tracemalloc.stop()
    # without a spare the step allocates its two arrays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step_hyperbolic(state, coeff, dt)
        assert tracemalloc.get_traced_memory()[1] - base >= 2 * field
    finally:
        tracemalloc.stop()


def test_steady_crank_nicolson_step_with_a_spare_allocates_less_than_one_field():
    import tracemalloc

    # the shipped NLS grid: after 40 steps the range is about a seventh of the rows
    grid = GridSpec("line", extent=700.0, num_points=35_001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=1.0, amplitude=-0.47j)
    dt = 0.01
    back, state = None, initial_state(EvolutionProblem(NLS, grid, init), dt)
    for _ in range(40):
        back, state = state, step_parabolic(state, NLS, dt, back)
    assert state.hi - state.lo < grid.num_points // 4
    field = state.u.nbytes
    tracemalloc.start()
    try:
        for _ in range(5):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spare = back
            back, state = state, step_parabolic(state, NLS, dt, spare)
            assert state.u is spare.u and tracemalloc.get_traced_memory()[1] - base < field
    finally:
        tracemalloc.stop()
    # without a spare the step allocates its right-hand side, a whole field
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step_parabolic(state, NLS, dt)
        assert tracemalloc.get_traced_memory()[1] - base >= field
    finally:
        tracemalloc.stop()


def test_steady_crank_nicolson_step_at_a_held_rung_allocates_less_than_an_eighth_of_a_field():
    import tracemalloc

    # the NLS grid of the test above: the factors of the rung are held, and the
    # step's rows, its predictor, |half|^2 and its source go into the grid's scratch
    grid = GridSpec("line", extent=700.0, num_points=35_001)
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=1.0, amplitude=-0.47j)
    dt = 0.01
    back, state = None, initial_state(EvolutionProblem(NLS, grid, init), dt)
    for _ in range(40):
        back, state = state, step_parabolic(state, NLS, dt, back)
    field = state.u.nbytes
    tracemalloc.start()
    try:
        for _ in range(5):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spare = back
            back, state = state, step_parabolic(state, NLS, dt, spare)
            assert state.u is spare.u and tracemalloc.get_traced_memory()[1] - base < field / 8
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("coeff", [HEAT, NLS], ids=["real", "complex"])
def test_crank_nicolson_step_takes_u_squared_from_the_step_before(monkeypatch, coeff):
    # at p = 2 a step leaves |u_new|^2 in ``real_work`` and the next step from
    # its result reads it there; a step from any other state, or after a solve
    # wrote ``real_work``, computes |u|^2 again, with the same bits
    grid = GridSpec("line", extent=80.0, num_points=2001)
    amp = 1.0 if coeff is HEAT else -0.47j
    problem = EvolutionProblem(coeff, grid, InitialDataSpec(0.0, 1.0, 0.5, amplitude=amp))
    dt = 0.01
    start = initial_state(problem, dt)
    first = step_parabolic(start, coeff, dt)
    second = step_parabolic(first, coeff, dt)
    copy = FieldState(grid, first.u.copy(), None, first.t, dt, lo=first.lo, hi=first.hi)
    want = step_parabolic(copy, coeff, dt)  # from a state whose |u|^2 no step wrote
    assert np.array_equal(_bits(second.u), _bits(want.u)) and second.peak == want.peak
    powers = []
    original = solvers.abs_power

    def counting(u, p, out=None, work=None):
        powers.append(u.shape[0])
        return original(u, p, out, work)

    monkeypatch.setattr(solvers, "abs_power", counting)
    again = step_parabolic(want, coeff, dt)
    assert len(powers) == 2  # |half|^2 and |u_new|^2: |u|^2 came from the step before
    del powers[:]
    step_parabolic(first, coeff, dt)  # ``real_work`` holds |u|^2 of ``again``, not of ``first``
    assert len(powers) == 3
    last = step_parabolic(again, coeff, dt)
    data = _grid_data(grid)
    data.solve_implicit(1.0, dt, bump_profile(data.coords))  # its flush writes ``real_work``
    del powers[:]
    got = step_parabolic(last, coeff, dt)
    assert len(powers) == 3
    ref = FieldState(grid, last.u.copy(), None, last.t, dt, lo=last.lo, hi=last.hi)
    assert np.array_equal(_bits(got.u), _bits(step_parabolic(ref, coeff, dt).u))


@pytest.mark.parametrize("case", ["real", "complex"])
def test_crank_nicolson_peak_at_p2_is_max_abs_at_every_accepted_step(monkeypatch, case):
    # the runs of test_crank_nicolson_run_steps_into_retired_states, which halve
    # and probe: the run tests growth with ``peak`` and calls max_abs only to
    # compare a probe, over the union of the two fields' ranges
    grid = GridSpec("line", extent=80.0, num_points=2001)
    if case == "real":
        coeff, init, dt0 = HEAT, InitialDataSpec(0.0, 1.0, 0.5), 2e-3
    else:
        coeff, init, dt0 = NLS, InitialDataSpec(0.0, 1.0, 1.0, amplitude=-0.47j), 0.01
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=dt0)
    original = solvers.step_parabolic
    calls, compared = [], []

    def recording(state, coeff, dt, spare=None):
        result = original(state, coeff, dt, spare)
        calls.append((state, result, result.peak, max_abs(result.u)))
        return result

    def recording_max_abs(u):
        compared.append(u.shape[0])
        return max_abs(u)

    monkeypatch.setattr(solvers, "step_parabolic", recording)
    monkeypatch.setattr(solvers, "max_abs", recording_max_abs)
    res = run_until_blowup(EvolutionProblem(coeff, grid, init), controls)
    assert res.record.status == "blowup"
    starts = {id(state) for state, *_ in calls} | {id(calls[-1][1])}
    accepted = [i for i, (_, result, *_) in enumerate(calls) if id(result) in starts]
    assert len(accepted) == res.record.steps
    assert all(calls[i][2] is not None and calls[i][2] == calls[i][3] for i in accepted)
    trials, current = [], calls[0][0]
    for i, (state, result, *_) in enumerate(calls):
        if state is current:
            trials.append(i)
        if i in accepted:
            current = result
    probes = [i for i in range(len(calls)) if i not in trials]
    assert len(probes) > 2 and len(trials) > len(accepted)  # the run probed and halved
    # one max_abs per probe, the initial state's aside, each over the union of the ranges
    assert len(compared) == 1 + len(probes)
    for i, rows in zip(probes, compared[1:]):
        state, big = calls[i - 1][1], calls[i][1]
        assert rows == max(big.hi, state.hi) - min(big.lo, state.lo)
    # a p other than 2 reports its peak too
    cubic = replace(coeff, p=3.0)
    state = initial_state(EvolutionProblem(cubic, grid, init), 0.01)
    result = original(state, cubic, 0.01)
    assert result.peak is not None and result.peak == max_abs(result.u)


@pytest.mark.parametrize("coeff", [HEAT, NLS], ids=["real", "complex"])
def test_crank_nicolson_step_into_a_wider_spare_is_bitwise_a_fresh_step(coeff):
    # a spare whose range reaches past the rows the step computes on both
    # sides: those rows hold nonzero values that the step must clear
    grid = GridSpec("line", extent=80.0, num_points=2001)
    amp = 1.0 if coeff is HEAT else -0.47j
    init = InitialDataSpec(center=0.0, width=1.0, epsilon=0.5, amplitude=amp)
    dt = 0.01
    state = initial_state(EvolutionProblem(coeff, grid, init), dt)
    for k in range(40):
        state = step_parabolic(state, coeff, dt)
        if k == 2:
            narrow = FieldState(grid, state.u.copy(), None, state.t, dt, lo=state.lo, hi=state.hi)
    wide = state
    a, b = narrow.lo - 1, narrow.hi + 1
    assert wide.lo < a and b < wide.hi
    assert max_abs(wide.u[wide.lo : a]) > 0.0 and max_abs(wide.u[b : wide.hi]) > 0.0
    want = step_parabolic(narrow, coeff, dt)
    got = step_parabolic(narrow, coeff, dt, wide)
    assert got.u is wide.u and (got.lo, got.hi) == (want.lo, want.hi)
    assert np.array_equal(_bits(got.u), _bits(want.u))


@pytest.mark.parametrize("amp", [1.0, 1.0 - 0.5j], ids=["real", "complex"])
def test_peak_at_p2_is_max_abs_at_every_accepted_step(monkeypatch, amp):
    # the damped-wave run that halves and probes; at p = 2 the step reads
    # max|u| off |u|^2, and the run tests growth with it in place of max_abs
    grid = GridSpec("line", extent=60.0, num_points=1501)
    init = InitialDataSpec(center=0.0, width=0.8, epsilon=3.0, amplitude=amp, g_amplitude=1.0)
    controls = RunControls(threshold=1e6, t_max=50.0, dt_init=0.036 / 8)
    original = solvers.step_hyperbolic
    calls = []

    def recording(state, coeff, dt, spare=None):
        result = original(state, coeff, dt, spare)
        calls.append((state, result, result.peak, max_abs(result.u[result.lo : result.hi])))
        return result

    monkeypatch.setattr(solvers, "step_hyperbolic", recording)
    res = run_until_blowup(EvolutionProblem(DAMPED, grid, init), controls)
    assert res.record.status == "blowup"
    starts = {id(state) for state, *_ in calls} | {id(calls[-1][1])}
    accepted = [(peak, want) for _, result, peak, want in calls if id(result) in starts]
    assert len(accepted) == res.record.steps
    assert all(peak is not None and peak == want for peak, want in accepted)
    # a p other than 2 reports its peak too
    cubic = CoefficientSpec(tau=1, p=3.0, a0=1.0)
    result = step_hyperbolic(initial_state(EvolutionProblem(cubic, grid, init), 0.01), cubic, 0.01)
    assert result.peak is not None and result.peak == max_abs(result.u[result.lo : result.hi])


_PEAK_GRIDS = {
    "folded-line": (GridSpec("line", 40.0, 401), 0.0),
    "half-line": (GridSpec("half-line", 40.0, 401), 4.0),
    "radial-3": (GridSpec("radial", 40.0, 401, dim=3), 0.0),
    "polar": (GridSpec("polar-sector", 8.0, 40, omega=2.0, num_angles=12), 4.0),
}


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("tau", [0, 1], ids=["heat", "damped-wave"])
@pytest.mark.parametrize("case", list(_PEAK_GRIDS))
def test_real_peak_is_max_abs_at_every_accepted_step(monkeypatch, case, tau, p):
    # a real field's peak comes off the 1-d solve's flush (off |u|^2 on the
    # sector), and every accepted step's is max_abs of its rows, bitwise
    grid, center = _PEAK_GRIDS[case]
    if tau == 0:
        coeff, name = replace(HEAT, p=p), "step_parabolic"
    else:
        coeff, name = replace(DAMPED, p=p), "step_hyperbolic"
    init = InitialDataSpec(center, 1.5, 6.0)
    problem = EvolutionProblem(coeff, grid, init)
    assert (solvers._stepped_grid(problem) != grid) == (case == "folded-line")
    original = getattr(solvers, name)
    calls = []

    def recording(state, coeff, dt, spare=None):
        result = original(state, coeff, dt, spare)
        calls.append((state, result, result.peak, max_abs(result.u[result.lo : result.hi])))
        return result

    monkeypatch.setattr(solvers, name, recording)
    res = run_until_blowup(problem, RunControls(threshold=1e3, t_max=20.0))
    assert res.record.status == "blowup" and res.record.steps > 10
    starts = {id(state) for state, *_ in calls} | {id(calls[-1][1])}
    accepted = [(peak, want) for _, result, peak, want in calls if id(result) in starts]
    assert len(accepted) == res.record.steps
    peaks, wants = zip(*accepted)
    assert None not in peaks and np.array_equal(_bits(np.array(peaks)), _bits(np.array(wants)))


@pytest.mark.parametrize(
    "which, eps, steps, t_ext",
    [
        ("damped_wave_subcritical", 0.2, 1495, 31.14114463409272),
        ("heat_subcritical", 1.0, 288, 4.15862944818901),
    ],
    ids=["wave", "heat"],
)
def test_shipped_trajectories_keep_their_steps_and_lifespan(which, eps, steps, t_ext):
    # the shipped wave and heat configs at their largest sweep epsilon: a change
    # that moves a trajectory moves these bits
    cfg = parse_config(os.path.join(os.path.dirname(__file__), "..", "configs", f"{which}.json"))
    problem = replace(cfg.problem, init=replace(cfg.problem.init, epsilon=eps))
    record = run_until_blowup(problem, cfg.controls).record
    assert record.status == "blowup"
    assert record.steps == steps and record.t_extrapolated == t_ext


# -- a centred line steps its folded half ------------------------------------

_FOLD_CASES = {
    "heat": (
        HEAT, GridSpec("line", 80.0, 1601), InitialDataSpec(0.0, 1.0, 0.5),
        RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05),
        (0.5, 0.6, 0.7, 0.85, 1.0),
    ),
    "damped-wave": (
        CoefficientSpec(tau=1, p=2.0, lam=1.0, a0=1.0, alpha=0.5), GridSpec("line", 60.0, 1201),
        InitialDataSpec(0.0, 1.0, 0.5, g_amplitude=1.0),
        RunControls(threshold=1e6, t_max=100.0, dt_init=0.0125, snapshot_dt=0.05),
        (0.4, 0.5, 0.6, 0.8, 1.0),
    ),
    "nls": (
        NLS, GridSpec("line", 80.0, 2001), InitialDataSpec(0.0, 1.0, 1.0, amplitude=-0.47j),
        RunControls(threshold=1e6, t_max=60.0, dt_init=0.01, snapshot_dt=0.04),
        (0.8, 0.9, 1.0, 1.1, 1.25),
    ),
}


@pytest.mark.parametrize("case", list(_FOLD_CASES))
def test_folded_run_is_the_full_line_run_to_rounding(monkeypatch, case):
    # the folded half solves the full line's equations with its x = 0 row
    # halved: only rounding moves, so every step count stays and every
    # lifespan, the sweep's slope, C0 and the bound agree to 1e-12 relative
    coeff, grid, init, controls, epsilons = _FOLD_CASES[case]
    problem = EvolutionProblem(coeff, grid, init)

    def outcome():
        found = sweep(problem, epsilons, controls)
        result, trace = verify.causal_trace(problem, controls, 12, 0.95)
        return found, result.record, verify.criterion_pipeline(result, trace)

    assert solvers._stepped_grid(problem) == solvers._FoldedLine(grid)
    folded = outcome()
    monkeypatch.setattr(solvers, "_stepped_grid", lambda problem: problem.grid)
    full = outcome()

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    (found, run, crit), (found_full, run_full, crit_full) = folded, full
    assert found.fit_status == found_full.fit_status == "ok"
    for got, want in zip(found.records + [run], found_full.records + [run_full]):
        assert got.status == want.status == "blowup" and got.steps == want.steps
        for t_got, t_want in zip(got.t_at_thresholds, want.t_at_thresholds):
            close(t_got, t_want)
        close(got.t_extrapolated, want.t_extrapolated)
        close(got.boundary_max, want.boundary_max)
    close(found.power_fit.slope, found_full.power_fit.slope)
    close(crit.inputs.c0, crit_full.inputs.c0)
    close(crit.bound, crit_full.bound)


@pytest.mark.parametrize(
    "grid, center",
    [(GridSpec("line", 80.0, 2001), 0.5), (GridSpec("line", 80.0, 2000), 0.0)],
    ids=["off-centre", "even-count"],
)
def test_off_centre_and_even_count_lines_step_the_full_line(monkeypatch, grid, center):
    problem = EvolutionProblem(HEAT, grid, InitialDataSpec(center, 1.0, 0.5))
    controls = RunControls(threshold=1e6, t_max=60.0, dt_init=2e-3, snapshot_dt=0.05)
    assert solvers._stepped_grid(problem) is grid
    calls = _recording(monkeypatch, "step_parabolic")
    seen = []
    res = run_until_blowup(problem, controls, (lambda t, u: seen.append(u),))
    assert res.record.status == "blowup"
    assert all(state.grid is grid and state.u.shape == (grid.num_points,) for state, _ in calls)
    assert seen[0] is calls[0][0].u  # observers get the run's own arrays


def test_folded_run_shows_its_observers_one_line_array():
    # every snapshot is unfolded into one array of the line, which the result
    # keeps as its final field; the first field is a copy
    problem, controls = HEAT_BLOWUP
    seen = []

    def watch(t, u):
        seen.append(u)
        assert u.shape == (problem.grid.num_points,)
        assert np.array_equal(_bits(u), _bits(u[::-1]))  # even: the mirror image is exact

    res = run_until_blowup(problem, controls, (watch,))
    assert res.record.status == "blowup" and len(seen) > 100
    assert all(u is seen[0] for u in seen) and res.snapshots[-1] is seen[0]
    assert res.snapshots[0] is not seen[0] and res.snapshots[0].shape == seen[0].shape
