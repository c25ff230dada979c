import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jn_zeros

from blowlab import cone_geometry, lifespan_bounds
from blowlab.cone_geometry import (
    BRENT_RTOL_MIN,
    BumpField,
    CrossSectionSpec,
    brent_root,
    cap_eigenvalue,
    fujita_threshold,
    gamma_root,
    hardy_constant,
    hardy_ratio,
    harmonic_residual,
    make_domain,
    phi_eval,
    sector_eigenvalue,
)
from blowlab.lifespan_bounds import BoundInputs, ode_saturation_oracle
from blowlab.verify import HARDY_DOMAINS, random_bump, residual_ratios


def test_gamma_root_values():
    assert gamma_root(1, 0.0) == pytest.approx(1.0, abs=1e-15)  # half-line
    assert gamma_root(3, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert gamma_root(5, 0.0) == 0.0


@pytest.mark.parametrize("dim,lam", [(1, 0.0), (2, 4.0), (3, 2.0), (4, 7.3), (7, 0.2)])
def test_gamma_root_solves_quadratic(dim, lam):
    g = gamma_root(dim, lam)
    residual = g * g + (dim - 2) * g - lam
    assert abs(residual) <= 1e-12 * max(1.0, lam)


def test_make_domain_closed_forms():
    d = make_domain(CrossSectionSpec("full-sphere", 3))
    assert d.lambda_sigma == 0.0 and d.gamma == 0.0

    d = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    assert d.lambda_sigma == pytest.approx(4.0) and d.gamma == pytest.approx(2.0)

    d = make_domain(CrossSectionSpec("planar-sector", 2, omega=math.pi / 2))
    assert d.lambda_sigma == pytest.approx(4.0) and d.gamma == pytest.approx(2.0)


def test_eigenvalue_positive_iff_proper_cross_section():
    zero_kinds = [
        CrossSectionSpec("full-sphere", 2),
        CrossSectionSpec("full-sphere", 4),
        CrossSectionSpec("full-line", 1),
        CrossSectionSpec("half-space-product", 3, k=0),
    ]
    for spec in zero_kinds:
        assert make_domain(spec).lambda_sigma == 0.0
    positive_kinds = [
        CrossSectionSpec("planar-sector", 2, omega=2.0),
        CrossSectionSpec("spherical-cap", 3, theta0=2.5),
        CrossSectionSpec("half-space-product", 3, k=1),
    ]
    for spec in positive_kinds:
        assert make_domain(spec).lambda_sigma > 0.0


def test_make_domain_rejects_bad_specs():
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("half-line", 2))
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("planar-sector", 3, omega=1.0))
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("planar-sector", 2, omega=-1.0))
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("spherical-cap", 3, theta0=0.0))
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("half-space-product", 2, k=5))
    for k in (0, 1):  # N = 1 is spelled full-line or half-line, as for the full sphere
        with pytest.raises(ValueError, match="dim: half-space-product requires N>=2"):
            make_domain(CrossSectionSpec("half-space-product", 1, k=k))
    with pytest.raises(ValueError):
        make_domain(CrossSectionSpec("no-such-kind", 2))


def test_cross_section_rejects_the_fields_its_kind_does_not_read():
    # the rule GridSpec applies: a field only another kind reads is named, not dropped
    for spec, named in [
        (dict(kind="full-sphere", dim=3, omega=1.0, theta0=0.5, k=2), ["omega", "theta0", "k"]),
        (dict(kind="planar-sector", dim=2, omega=1.0, k=1), ["k"]),
        (dict(kind="spherical-cap", dim=3, theta0=1.0, omega=2.0), ["omega"]),
        (dict(kind="half-space-product", dim=2, k=2, theta0=1.0), ["theta0"]),
        (dict(kind="half-line", dim=1, k=0), ["k"]),
    ]:
        with pytest.raises(cone_geometry.SpecError) as err:
            CrossSectionSpec(**spec)
        assert [name for name, _ in err.value.violations] == named
        assert f"{spec['kind']} takes no {named[0]}" in str(err.value)


def test_sector_eigenvalue_values_and_scaling():
    assert sector_eigenvalue(math.pi) == pytest.approx(1.0)
    assert sector_eigenvalue(math.pi / 2) == pytest.approx(4.0)
    for omega in (0.3, 1.0, 2.2, 2 * math.pi):
        assert sector_eigenvalue(omega) * omega**2 == pytest.approx(math.pi**2)
    with pytest.raises(ValueError):
        sector_eigenvalue(0.0)
    with pytest.raises(ValueError):
        sector_eigenvalue(7.0)


def _cap_eigenvalue_fd(theta0: float, n: int = 6000) -> float:
    """Finite-volume discretization of (sin(t) u')' + lam sin(t) u = 0 with
    u'(0)=0, u(theta0)=0; independent oracle for the Legendre root."""
    h = theta0 / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    sf = np.sin(faces)
    main = (sf[:-1] + sf[1:]) / h**2
    main[-1] = (sf[-2] + 2.0 * sf[-1]) / h**2  # Dirichlet face is h/2 from the last center
    off = -sf[1:-1] / h**2
    m = np.sin(centers)
    # symmetrize: B = M^(-1/2) A M^(-1/2), tridiagonal
    d = main / m
    e = off / np.sqrt(m[:-1] * m[1:])
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def test_cap_eigenvalue_hemisphere():
    assert cap_eigenvalue(math.pi / 2) == pytest.approx(2.0, abs=1e-8)


def test_cap_eigenvalue_small_angle():
    lam = cap_eigenvalue(0.1)
    bessel = (jn_zeros(0, 1)[0] / 0.1) ** 2
    assert lam == pytest.approx(bessel, rel=0.05)
    assert lam == pytest.approx(_cap_eigenvalue_fd(0.1), rel=1e-5)


@pytest.mark.parametrize("theta0", [0.7, 1.9, 2.8, 3.1])
def test_cap_eigenvalue_against_fd_oracle(theta0):
    assert cap_eigenvalue(theta0) == pytest.approx(_cap_eigenvalue_fd(theta0), rel=1e-5)


def test_cap_eigenvalue_vanishes_monotonically_toward_full_sphere():
    lams = [cap_eigenvalue(t) for t in (2.5, 2.9, 3.1)]
    assert lams[0] > lams[1] > lams[2] > 0.0
    assert lams[2] < 0.2


@pytest.mark.parametrize("theta0", [3.14, 3.1415, 3.14159])
def test_cap_eigenvalue_near_the_full_sphere_against_mpmath(theta0):
    import mpmath as mp

    lam = cap_eigenvalue(theta0)
    with mp.workdps(40):
        z = mp.cos(mp.mpf(theta0))
        # the degrees whose nu(nu+1) is lam -+ 1e-12 relative bracket mpmath's first root:
        # P_nu(cos theta0) falls from 1 at nu = 0 through it
        lo, hi = ((mp.sqrt(1 + 4 * mp.mpf(lam) * (1 + d)) - 1) / 2 for d in (-1e-12, 1e-12))
        assert mp.legenp(lo, 0, z, type=2) > 0 > mp.legenp(hi, 0, z, type=2)


def test_legendre_series_matches_mpmath_up_to_the_hemisphere_and_continues_past_it():
    import mpmath as mp

    def ferrers(nu, theta):
        with mp.workdps(30):
            return [float(mp.legenp(nu, 0, mp.cos(mp.mpf(float(t))), type=2)) for t in theta]

    assert cap_eigenvalue(math.pi / 2) == 2.0
    # up to pi/2 the series in sin^2(theta/2): within 1e-15 of the Ferrers function, for
    # fixed degrees and for the cap's own degree on the cap, where the root search and
    # the profile evaluate it
    grid = np.linspace(0.0, math.pi / 2, 7)
    cases = [(nu, grid) for nu in (0.4, 1.0, 2.7)]
    for theta0 in np.linspace(0.05, 3.1, 40):
        lam = cap_eigenvalue(theta0)
        nu = (math.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0
        cases.append((nu, np.append(grid[grid < theta0], min(theta0, math.pi / 2))))
    for nu, theta in cases:
        assert np.allclose(cone_geometry._legendre_p(nu, theta), ferrers(nu, theta), rtol=0.0, atol=1e-15)
    # past pi/2 the 1 - z series: within 1e-15 of the Ferrers function, up to theta = pi
    theta = np.array([1.58, 2.0, 2.6, 3.0, 3.14159])
    for nu in (0.05, 0.5, 0.95):
        assert np.allclose(cone_geometry._legendre_p(nu, theta), ferrers(nu, theta), rtol=0.0, atol=1e-15)


def test_make_domain_solves_the_cap_once(monkeypatch):
    spec = CrossSectionSpec("spherical-cap", 3, theta0=1.0)
    lam = cap_eigenvalue(1.0)
    calls = []

    def counted(theta0, *args, **kwargs):
        calls.append(theta0)
        return cap_eigenvalue(theta0, *args, **kwargs)

    monkeypatch.setattr(cone_geometry, "cap_eigenvalue", counted)
    dom = make_domain(spec)
    assert calls == [1.0]
    assert dom.lambda_sigma == lam and dom.gamma == gamma_root(3, lam)
    theta = np.array([0.0, 0.5, 1.0, 1.1, math.pi])
    w = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
    vals = dom.eigenfunction(w)
    assert vals[0] == 1.0 and 0.0 < vals[1] < 1.0 and np.all(vals[2:] == 0.0)
    nu = dom.eigenfunction.nu
    assert abs(cone_geometry._legendre_p(nu, 1.0)) <= 1e-12


SMOOTH_ROOTS = {  # each increasing, with its one root in (0.5, 1)
    "cubic": lambda x: x**3 + x - 1.2,
    "exp": lambda x: math.exp(x) - 2.0,
    "atan": lambda x: math.atan(5.0 * (x - 0.8)),
    "tanh": lambda x: math.tanh(x - 0.6) + 0.05 * (x - 0.6),
    "flat": lambda x: (x - 0.7) ** 5 + 1e-4 * (x - 0.7),
}

# scipy's defaults, the cap's, and two coarse pairs (the last reaches the step guard)
BRENT_TOLERANCES = [
    (2e-12, 8.881784197001252e-16), (1e-15, BRENT_RTOL_MIN), (1e-6, 1e-10), (0.1, 1e-3)
]


@pytest.mark.parametrize("name", sorted(SMOOTH_ROOTS))
def test_brent_root_is_bitwise_brentq(name):
    f = SMOOTH_ROOTS[name]
    for a in np.linspace(-3.0, 0.5, 8):
        for b in np.linspace(1.0, 4.0, 8):
            for xtol, rtol in BRENT_TOLERANCES:
                root = brent_root(f, a, b, xtol, rtol)
                assert root == brentq(f, a, b, xtol=xtol, rtol=rtol), (a, b, xtol, rtol)
                assert brent_root(f, b, a, xtol, rtol) == brentq(f, b, a, xtol=xtol, rtol=rtol)


def test_brent_root_call_sites_are_bitwise_brentq(monkeypatch):
    calls = []

    def recording(f, a, b, xtol, rtol):
        root = brent_root(f, a, b, xtol, rtol)
        calls.append((f, a, b, xtol, rtol, root))
        return root

    monkeypatch.setattr(cone_geometry, "brent_root", recording)
    monkeypatch.setattr(lifespan_bounds, "brent_root", recording)
    for theta0 in (0.5, math.pi / 2, 3.1415):  # the cap's endpoint P_nu(cos theta0)
        cap_eigenvalue(theta0)
    for args in [(1.0, 1.0, 1.0, 0.0, 2.0), (1.0, 1.0, 1.0, 1.0, 2.0), (4.0, 1.0, 1.0, 0.0, 2.0),
                 (1.0, 1.0, 1.0, 0.7, 2.0), (1.0, 1.5, 1.0, 0.7, 2.0)]:  # the oracle's radius map
        ode_saturation_oracle(BoundInputs(*args))
    assert len(calls) == 8
    for f, a, b, xtol, rtol, root in calls:
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_brent_root_rejects_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15)
    with pytest.raises(ValueError):
        brent_root(lambda x: x, -1.0, 1.0, 1e-12, 0.5 * BRENT_RTOL_MIN)  # rtol below the floor
    with pytest.raises(ValueError, match="NaN"):
        brent_root(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-12, 1e-15)


def test_brent_root_returns_an_exact_zero_at_either_end():
    assert brent_root(lambda x: x - 2.0, 2.0, 5.0, 1e-12, 1e-15) == 2.0
    assert brent_root(lambda x: x - 2.0, -1.0, 2.0, 1e-12, 1e-15) == 2.0
    assert brent_root(lambda x: x * (x - 2.0), 2.0, 5.0, 1e-12, 1e-15) == 2.0  # no sign change


def test_brent_root_raises_when_it_runs_out_of_iterations():
    def jump(x):  # equal |f| everywhere: each step at best halves the bracket, ~1,000 to 1e-300
        return 1.0 if x > 0.0 else -1.0

    with pytest.raises(RuntimeError, match="did not converge in 100 iterations"):
        brent_root(jump, -1.0, 3.0, 1e-300, BRENT_RTOL_MIN)
    with pytest.raises(RuntimeError):
        brentq(jump, -1.0, 3.0, xtol=1e-300, rtol=BRENT_RTOL_MIN)
    assert brent_root(jump, -1.0, 3.0, 1e-12, BRENT_RTOL_MIN) == brentq(
        jump, -1.0, 3.0, xtol=1e-12, rtol=BRENT_RTOL_MIN
    )


def test_cli_import_loads_no_ode_solver_or_interpolant():
    # the one scipy module a command loads is the LAPACK extension: scipy.optimize would
    # also bring scipy.sparse, scipy.fft and scipy.spatial, and the scipy and scipy.linalg
    # packages numpy's f2py, testing, ma, random and polynomial; the process pool, which
    # brings multiprocessing, loads only for a sweep with more than one job
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loaded = (
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing')"
        " or m == 'concurrent.futures.process'))"
    )
    probe = f"import sys, blowlab.cli; {loaded}; import blowlab.verify; {loaded}"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    # after blowlab.cli, then blowlab.verify
    assert proc.stdout.splitlines() == ["['scipy.linalg._flapack']"] * 2


def test_phi_eval_quarter_plane_product():
    dom = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    assert phi_eval(dom, [1.0, 1.0]) == pytest.approx(1.0)
    assert phi_eval(dom, [2.0, 3.0]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        phi_eval(dom, [-1.0, 1.0])


def test_phi_eval_line_cases():
    half = make_domain(CrossSectionSpec("half-line", 1))
    assert phi_eval(half, [3.0]) == pytest.approx(3.0)
    assert phi_eval(half, [0.0]) == 0.0
    with pytest.raises(ValueError):
        phi_eval(half, [-0.5])

    full = make_domain(CrossSectionSpec("full-line", 1))
    assert phi_eval(full, [-2.0]) == 1.0
    assert phi_eval(full, [0.0]) == 1.0


def test_phi_eval_full_sphere_constant():
    dom = make_domain(CrossSectionSpec("full-sphere", 2))
    for x in ([0.3, -0.4], [5.0, 1.0], [0.0, 0.0]):
        assert phi_eval(dom, x) == pytest.approx(1.0)


def test_phi_boundary_zero():
    sector = make_domain(CrossSectionSpec("planar-sector", 2, omega=2.0))
    assert phi_eval(sector, [1.5, 0.0]) == pytest.approx(0.0, abs=1e-14)
    cap = make_domain(CrossSectionSpec("spherical-cap", 3, theta0=1.0))
    edge = [math.sin(1.0), 0.0, math.cos(1.0)]
    assert phi_eval(cap, edge) == pytest.approx(0.0, abs=1e-9)


def test_harmonic_residual_exact_for_bilinear():
    dom = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    for h in (0.1, 0.01):
        lap, euler = harmonic_residual(dom, [1.0, 2.0], h)
        assert lap < 1e-10
        assert euler < 1e-10


def test_harmonic_residual_half_line_euler_exact():
    dom = make_domain(CrossSectionSpec("half-line", 1))
    lap, euler = harmonic_residual(dom, [2.0], 0.25)
    assert lap == pytest.approx(0.0, abs=1e-13)
    assert euler == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize(
    "spec,point,h0",
    [
        (CrossSectionSpec("planar-sector", 2, omega=3 * math.pi / 4), (1.0, 0.3), 1e-2),
        (CrossSectionSpec("planar-sector", 2, omega=2.0), (1.3, 0.55), 1e-2),
        (CrossSectionSpec("spherical-cap", 3, theta0=1.0), (0.25, 0.1, 0.9), 2e-2),
    ],
)
def test_harmonic_residual_second_order(spec, point, h0):
    # generic interior points: symmetry axes can null the leading error term
    x = point
    if spec.kind == "planar-sector":
        r, theta = point
        x = (r * math.cos(theta * spec.omega), r * math.sin(theta * spec.omega))
    assert all(ratio >= 2.0**1.8 for ratio in residual_ratios(spec, x, h0))


def test_harmonic_residual_rejects_stencil_outside():
    dom = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    with pytest.raises(ValueError):
        harmonic_residual(dom, [0.05, 1.0], 0.1)


def test_hardy_ratio_radial_bump_full_sphere():
    dom = make_domain(CrossSectionSpec("full-sphere", 3))
    bump = BumpField(center=np.array([1.0, 0.0, 0.0]), radius=0.55)
    assert hardy_ratio(dom, bump, n=40) >= 0.25 - 1e-6


def test_hardy_ratio_randomized_quarter_plane():
    dom = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    rng = np.random.default_rng(42)
    bound = hardy_constant(dom)
    for _ in range(120):
        assert hardy_ratio(dom, random_bump(dom.spec, rng), n=32) >= bound - 1e-6


def test_hardy_ratio_rejects_zero_field():
    dom = make_domain(CrossSectionSpec("full-sphere", 3))
    zero = BumpField(center=np.zeros(3), radius=0.5, amplitude=0.0)
    with pytest.raises(ValueError):
        hardy_ratio(dom, zero)


class _NearOptimizer:
    """phi(angle) * cos^2 log-radial bump on the quarter-plane; its quotient
    approaches the sharp constant as the log-width grows."""

    def __init__(self, log_width: float):
        self.log_width = log_width

    def support_box(self):
        hi = math.exp(self.log_width)
        return np.zeros(2), np.array([hi, hi])

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        inside = (r > math.exp(-self.log_width)) & (r < math.exp(self.log_width))
        safe_r2 = np.where(r > 0, r * r, 1.0)
        angular = np.where(r > 0, pts[..., 0] * pts[..., 1] / safe_r2, 0.0)
        chi = np.cos(np.pi * np.log(np.where(inside, r, 1.0)) / (2 * self.log_width)) ** 2
        return np.where(inside, angular * chi, 0.0)


def _hardy_ratio_meshgrid(u, n):
    """Reference: ``hardy_ratio`` on a ``meshgrid`` + ``stack`` mesh, |x|^2 by ``np.sum``."""
    lo, hi = u.support_box()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dims = lo.size
    axes = [lo[i] + (hi[i] - lo[i]) * (np.arange(n) + 0.5) / n for i in range(dims)]
    steps = [(hi[i] - lo[i]) / n for i in range(dims)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = u(pts)
    grads = np.gradient(vals, *steps) if dims > 1 else [np.gradient(vals, steps[0])]
    grad_sq = sum(g * g for g in grads)
    r2 = np.sum(pts * pts, axis=-1)
    vol = float(np.prod(steps))
    num = float(np.sum(grad_sq)) * vol
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = np.where(vals != 0.0, vals * vals / r2, 0.0)
    return num / (float(np.sum(weighted)) * vol)


class _SummedBump:
    """A ``BumpField`` evaluated with ``np.sum`` over the last axis: the reference."""

    def __init__(self, bump):
        self.bump = bump
        self.support_box = bump.support_box

    def __call__(self, pts):
        b = self.bump
        s2 = np.sum((pts - np.atleast_1d(b.center)) ** 2, axis=-1) / b.radius**2
        out = np.zeros(s2.shape)
        inside = s2 < 1.0
        out[inside] = b.amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out


@pytest.mark.parametrize("parity", [0, 1], ids=["even-n", "odd-n"])
def test_hardy_ratio_is_bitwise_the_meshgrid_quadrature(parity):
    rng = np.random.default_rng(7)
    for (_, spec), n in zip(HARDY_DOMAINS, (16, 32, 48)):
        dom = make_domain(spec)
        for _ in range(10):
            bump = random_bump(spec, rng)
            got = hardy_ratio(dom, bump, n=n + parity)
            assert got.hex() == _hardy_ratio_meshgrid(_SummedBump(bump), n + parity).hex()
    quarter = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    field = _NearOptimizer(2.0)
    got = hardy_ratio(quarter, field, n=120 + parity)
    assert got.hex() == _hardy_ratio_meshgrid(field, 120 + parity).hex()


def test_hardy_ratio_near_optimizer():
    dom = make_domain(CrossSectionSpec("half-space-product", 2, k=2))
    ratio = hardy_ratio(dom, _NearOptimizer(2.0), n=600)
    const = hardy_constant(dom)
    assert const - 1e-6 <= ratio <= 1.25 * const


def test_fujita_threshold_values():
    assert fujita_threshold(1, 0.0, 0.0) == pytest.approx(3.0)
    assert fujita_threshold(3, 0.0, 1.0) == pytest.approx(2.0)  # = (N+1)/(N-1)
    assert fujita_threshold(2, 2.0, 0.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        fujita_threshold(1, 0.0, 1.5)


def test_fujita_threshold_monotonicity():
    base = fujita_threshold(2, 1.0, 0.5)
    assert fujita_threshold(3, 1.0, 0.5) < base
    assert fujita_threshold(2, 2.0, 0.5) < base
    assert fujita_threshold(2, 1.0, 1.0) > base
