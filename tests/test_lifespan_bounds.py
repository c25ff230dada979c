import math

import numpy as np
import pytest

from blowlab.cli import main
from blowlab.cutoffs import CutoffFamily, psi_of_s, psi_star_of_s, star_tail_integral
from blowlab.lifespan_bounds import (
    BoundInputs,
    FunctionalTrace,
    criterion_check,
    integrate_shell_masses,
    lifespan_upper_bound,
    ode_saturation_oracle,
    regime_bound,
)


def test_closed_form_spot_values():
    assert lifespan_upper_bound(BoundInputs(1.0, 1.0, 1.0, 0.0, 2.0)) == pytest.approx(2.0)
    assert lifespan_upper_bound(BoundInputs(1.0, 1.0, 1.0, 1.0, 2.0)) == pytest.approx(
        1.0 + math.log(2.0)
    )
    # large delta with theta > 0 collapses to R1
    assert lifespan_upper_bound(BoundInputs(1e12, 1.0, 1.0, 1.0, 2.0)) == pytest.approx(
        1.0, rel=1e-9
    )


def test_oracle_matches_spot_values():
    assert ode_saturation_oracle(BoundInputs(1.0, 1.0, 1.0, 0.0, 2.0)) == pytest.approx(
        2.0, abs=1e-6
    )
    assert ode_saturation_oracle(BoundInputs(1.0, 1.0, 1.0, 1.0, 2.0)) == pytest.approx(
        1.0 + math.log(2.0), abs=1e-6
    )
    assert ode_saturation_oracle(BoundInputs(4.0, 1.0, 1.0, 0.0, 2.0)) == pytest.approx(
        math.exp(math.log(2.0) / 4.0), abs=1e-6
    )


def test_bound_monotone_sensitivity():
    base = BoundInputs(1.0, 1.0, 1.0, 0.7, 2.0)
    t0 = lifespan_upper_bound(base)
    assert lifespan_upper_bound(BoundInputs(2.0, 1.0, 1.0, 0.7, 2.0)) < t0
    assert lifespan_upper_bound(BoundInputs(1.0, 1.5, 1.0, 0.7, 2.0)) > t0
    assert lifespan_upper_bound(BoundInputs(1.0, 1.0, 1.5, 0.7, 2.0)) > t0


def test_theta_to_zero_continuity():
    for delta, c0 in ((1.0, 1.0), (0.4, 1.3), (2.5, 0.8)):
        small = BoundInputs(delta, c0, 1.0, 1e-4, 2.0)
        zero = BoundInputs(delta, c0, 1.0, 0.0, 2.0)
        a = math.log(lifespan_upper_bound(small))
        b = math.log(lifespan_upper_bound(zero))
        assert abs(a - b) <= 1e-3 * abs(b)


def test_bound_beyond_float_range_is_inf():
    # log2 * C0^p * delta^(1-p) / (p-1) is about 7e7 here: exp overflows at theta = 0,
    # and (1 + theta * load)^(1/((p-1) theta)) at a small theta > 0
    for theta in (0.0, 1e-3):
        assert lifespan_upper_bound(BoundInputs(1e-6, 10.0, 1.0, theta, 2.0)) == math.inf


def test_bound_input_validation():
    with pytest.raises(ValueError):
        BoundInputs(-1.0, 1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        BoundInputs(1.0, 0.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        BoundInputs(1.0, 1.0, 1.0, -0.1, 2.0)
    with pytest.raises(ValueError):
        BoundInputs(1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        lifespan_upper_bound(BoundInputs(0.0, 1.0, 1.0, 0.0, 2.0))


def test_bound_inputs_reject_non_finite_values():
    good = dict(delta=1.0, c0=1.0, r1=1.0, theta=0.5, p=2.0)
    for name in good:
        bad = [math.nan] if name == "c0" else [math.nan, math.inf]
        for value in bad:
            with pytest.raises(ValueError, match=f"^{name} must not be {value!r}$"):
                BoundInputs(**{**good, name: value})
    # no finite C0 passes: the closed form is inf, the oracle refuses
    b = BoundInputs(**{**good, "c0": math.inf})
    assert lifespan_upper_bound(b) == math.inf
    with pytest.raises(ValueError, match="finite c0"):
        ode_saturation_oracle(b)


_PAST_THE_SCALE = [  # (delta, c0, theta, closed form) at p = 3
    (1e-300, 1.0, 0.5, math.inf),  # v0 = (log2*delta)^(1-p) overflows
    (1e-200, 1.0, 0.5, math.inf),
    (1e-300, 1.0, 0.0, math.inf),
    (1.0, 1e200, 0.5, math.inf),  # slope ~ C0^-p underflows to 0
    (1e160, 1.0, 0.5, 1.0),  # v0 is subnormal: the march's step rounds to 0
]


@pytest.mark.parametrize("delta, c0, theta, closed", _PAST_THE_SCALE)
def test_oracle_refuses_a_saturation_scale_past_the_float_range(delta, c0, theta, closed):
    # the oracle's march cannot run, and says why
    b = BoundInputs(delta=delta, c0=c0, r1=1.0, theta=theta, p=3.0)
    assert lifespan_upper_bound(b) == closed
    with pytest.raises(ValueError, match="saturation scale v0/slope"):
        ode_saturation_oracle(b)


def test_cli_bound_oracle_past_the_float_range_is_an_input_error(capsys):
    args = "bound --delta 1e-300 --c0 1 --r1 1 --theta 0.5 --p 3 --oracle".split()
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "bound (theta>0 branch): inf\nbound (theta=0 branch): inf\n"
    assert err.startswith("error: the saturation scale v0/slope")


def test_cli_bound_oracle_at_a_tiny_delta_meets_the_closed_form(capsys):
    # v0 = (log2 * delta)^(1-p) is about 2e199 here: the oracle's crossing divides
    # before it multiplies by the step, so h * v_before does not overflow
    args = "bound --delta 1e-100 --c0 1 --r1 1 --theta 0.5 --p 3 --oracle".split()
    assert main(args) == 0
    lines = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    closed, oracle = float(lines["bound (theta>0 branch)"]), float(lines["saturation oracle"])
    assert math.isfinite(closed) and abs(oracle - closed) <= 1e-9 * closed


def _box_trace(fam: CutoffFamily, radii: np.ndarray) -> FunctionalTrace:
    """Trace of w=1 on the box x in [0.5, 1.5], t in [0, 2] (1-d space)."""
    nx, nt = 240, 240
    xs = 0.5 + (np.arange(nx) + 0.5) / nx
    ts = 2.0 * (np.arange(nt) + 0.5) / nt
    xx, tt = np.meshgrid(xs, ts, indexing="ij")
    q = 1.0 + xx * xx + tt  # <x>^2 + t
    cell = (1.0 / nx) * (2.0 / nt)
    y = np.array([float(np.sum(psi_star_of_s(fam, q / r))) * cell for r in radii])
    m = np.array([float(np.sum(psi_of_s(fam, q / r))) * cell for r in radii])
    return FunctionalTrace(radii=radii, shell_mass=y, mass=m)


def test_integrate_shell_masses_zero_density():
    radii = np.array([1.0, 2.0, 4.0, 8.0])
    tr = FunctionalTrace(radii=radii, shell_mass=np.zeros(4), mass=np.zeros(4))
    assert np.all(integrate_shell_masses(tr) == 0.0)


def test_integrate_shell_masses_box_against_double_integral():
    # the exact transform of the box density is the double integral of the
    # tail kernel: integral over the box of tail(s_R(x,t))
    fam = CutoffFamily(R=1.0, p=2.0)
    radii = np.geomspace(1.0, 24.0, 220)
    tr = _box_trace(fam, radii)
    transform = integrate_shell_masses(tr)

    nx, nt = 160, 160
    xs = 0.5 + (np.arange(nx) + 0.5) / nx
    ts = 2.0 * (np.arange(nt) + 0.5) / nt
    xx, tt = np.meshgrid(xs, ts, indexing="ij")
    q = 1.0 + xx * xx + tt
    cell = (1.0 / nx) * (2.0 / nt)
    # tabulate the tail kernel once; it is smooth on [0,1] and zero beyond
    sig = np.linspace(0.0, 1.0, 2001)
    tail = np.array([star_tail_integral(fam, float(s)) for s in sig])
    for idx in (120, 160, len(radii) - 1):
        r = radii[idx]
        kernel = np.interp(np.minimum(q / r, 1.0), sig, tail)
        exact = float(np.sum(kernel)) * cell
        assert transform[idx] == pytest.approx(exact, rel=0.01)


def test_integrate_shell_masses_indicator_density():
    # w = indicator of P(R0/2) (R0 = 4, alpha = 0, 1-d): the shell mass dies
    # once the transition shell passes the support, so the transform is
    # monotone everywhere and constant beyond 2*R0
    fam = CutoffFamily(R=1.0, p=2.0)
    r0 = 4.0
    nx, nt = 300, 300
    xs = np.linspace(-1.1, 1.1, nx)  # <x>^2 <= 2 possible only for |x| <= 1
    ts = np.linspace(0.0, 1.0, nt)
    xx, tt = np.meshgrid(xs, ts, indexing="ij")
    q = 1.0 + xx * xx + tt
    inside = q <= r0 / 2.0
    cell = (xs[1] - xs[0]) * (ts[1] - ts[0])
    radii = np.geomspace(1.0, 4.0 * r0, 120)
    y = np.array([float(np.sum(inside * psi_star_of_s(fam, q / r))) * cell for r in radii])
    m = np.array([float(np.sum(inside * psi_of_s(fam, q / r))) * cell for r in radii])
    tr = FunctionalTrace(radii=radii, shell_mass=y, mass=m)
    out = integrate_shell_masses(tr)
    assert np.all(np.diff(out) >= -1e-14)
    tail = out[radii >= 2.0 * r0]
    assert np.max(tail) - np.min(tail) <= 1e-12 * max(out.max(), 1e-30)


def test_integrate_shell_masses_monotone_and_capped():
    fam = CutoffFamily(R=1.0, p=2.0)
    radii = np.geomspace(1.0, 24.0, 160)
    tr = _box_trace(fam, radii)
    out = integrate_shell_masses(tr)
    assert np.all(np.diff(out) >= -1e-14)
    assert np.all(out <= math.log(2.0) * tr.mass + 1e-6)


def test_integrate_shell_masses_flags_inconsistent_trace():
    radii = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    m = np.array([0.0, 1.0, 2.0, 3.0, 4.0])  # equal masses: transform must exceed log2*m
    tr = FunctionalTrace(radii=radii, shell_mass=y, mass=m)
    with pytest.raises(ValueError):
        integrate_shell_masses(tr)


def test_criterion_check_zero_density_passes():
    radii = np.array([1.0, 2.0, 4.0])
    tr = FunctionalTrace(radii=radii, shell_mass=np.zeros(3), mass=np.zeros(3))
    report = criterion_check(tr, BoundInputs(0.0, 0.5, 1.0, 0.5, 2.0))
    assert bool(np.all(report.verdicts))
    assert report.minimal_c0 == 0.0


def test_criterion_check_truncated_trace_rejected():
    radii = np.array([1.0, 2.0, 4.0])
    tr = FunctionalTrace(radii=radii, shell_mass=np.ones(3), mass=np.ones(3))
    with pytest.raises(ValueError):
        criterion_check(tr, BoundInputs(1.0, 1.0, 10.0, 0.5, 2.0))


def test_criterion_check_minimal_c0():
    radii = np.array([1.0, 2.0, 4.0])
    y = np.array([1.0, 2.0, 4.0])
    m = np.array([1.5, 3.0, 5.0])
    tr = FunctionalTrace(radii=radii, shell_mass=y, mass=m)
    b = BoundInputs(0.5, 1.0, 1.0, 0.5, 2.0)
    report = criterion_check(tr, b)
    pc = 2.0
    required = (b.delta + m) / (radii ** (-b.theta / pc) * np.sqrt(y))
    assert report.minimal_c0 == pytest.approx(float(np.max(required)))
    # with c0 = minimal, everything passes
    b2 = BoundInputs(0.5, report.minimal_c0 * (1 + 1e-12), 1.0, 0.5, 2.0)
    assert bool(np.all(criterion_check(tr, b2).verdicts))


def test_regime_bound_examples():
    rb = regime_bound(1, 0.0, 0.0, 2.0)
    assert rb.tag == "power-subcritical"
    assert rb.exponent == pytest.approx(-2.0)

    rb = regime_bound(1, 0.0, 0.0, 3.0)
    assert rb.tag == "exponential-critical"

    rb = regime_bound(3, 0.0, 1.0, 1.8)
    assert rb.tag == "power-subcritical"
    assert rb.exponent == pytest.approx(-2.0)

    rb = regime_bound(3, 0.0, 1.0, 1.5)  # pivot: 1 + 1/2 = 1.5
    assert rb.tag == "power-borderline-log"
    assert rb.exponent == pytest.approx(-0.5 - 0.01)

    rb = regime_bound(3, 0.0, 1.0, 1.2)
    assert rb.tag == "power-low"
    assert rb.exponent == pytest.approx(-0.2)

    with pytest.raises(ValueError):
        regime_bound(1, 0.0, 0.0, 3.5)
