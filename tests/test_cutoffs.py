import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from blowlab import cutoffs
from blowlab.cutoffs import (
    BoundConstants,
    CutoffFamily,
    DEFAULT_PROFILE,
    PolynomialProfile,
    TransitionProfile,
    bound_constants,
    log2_inequality_margins,
    psi,
    psi_star,
    psi_star_of_s,
    s_value,
    star_tail_integral,
)


def test_profile_plateau_and_support():
    prof = DEFAULT_PROFILE
    assert prof(0.0) == 1.0
    assert prof(0.5) == 1.0
    assert prof(1.0) == 0.0
    assert prof(3.0) == 0.0
    s = np.linspace(0.5, 1.0, 101)[1:-1]
    vals = prof(s)
    assert np.all(np.diff(vals) <= 0)
    # strict decrease wherever the drop is representable in float64
    mid = np.linspace(0.55, 0.95, 41)
    assert np.all(np.diff(prof(mid)) < 0)
    assert np.all(prof.deriv(mid) < 0)


def test_profiles_and_cutoff_equal_their_formulas_on_every_s():
    s = np.concatenate([
        np.linspace(-1.0, 2.0, 3001),
        [0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0, np.inf, -np.inf],
    ])
    band = (s > 0.5) & (s < 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.exp(-1.0 / (2.0 - 2.0 * s))
        eta = np.where(band, a / (a + np.exp(-1.0 / (2.0 * s - 1.0))), np.where(s <= 0.5, 1.0, 0.0))
    assert np.array_equal(DEFAULT_PROFILE(s), eta)
    assert np.array_equal(DEFAULT_PROFILE(s.reshape(-1, 1)), eta.reshape(-1, 1))
    assert np.all(DEFAULT_PROFILE.deriv(s)[~band] == 0.0)
    assert np.all(DEFAULT_PROFILE.deriv2(s)[~band] == 0.0)
    for p in (1.5, 2.0, 3.0):
        fam = CutoffFamily(R=1.0, p=p)
        assert np.array_equal(cutoffs.psi_of_s(fam, s), eta**fam.exponent)
    hat = PolynomialProfile()
    assert np.array_equal(hat(s), np.clip(2.0 - 2.0 * s, 0.0, 1.0))
    assert np.array_equal(hat.deriv(s), np.where(band, -2.0, 0.0))
    assert np.array_equal(hat.deriv2(s), np.zeros_like(s))


def test_profile_symmetric_midpoint():
    # g(2-2s) and g(2s-1) swap roles under s -> 3/2 - s, so eta(3/4) = 1/2
    assert float(DEFAULT_PROFILE(0.75)) == pytest.approx(0.5, abs=1e-15)


def test_s_value_examples():
    fam = CutoffFamily(R=2.0, p=2.0)
    assert float(s_value(fam, np.zeros(1), 0.0)) == pytest.approx(0.5)
    fam = CutoffFamily(R=4.0, p=2.0)
    assert float(s_value(fam, np.array([math.sqrt(3.0)]), 0.0)) == pytest.approx(1.0)
    fam = CutoffFamily(R=4.0, p=2.0, alpha=1.0)
    assert float(s_value(fam, np.zeros(1), 3.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        s_value(fam, np.zeros(1), -0.1)


def test_family_validation():
    with pytest.raises(ValueError):
        CutoffFamily(R=0.0, p=2.0)
    with pytest.raises(ValueError):
        CutoffFamily(R=1.0, p=1.0)
    with pytest.raises(ValueError):
        CutoffFamily(R=1.0, p=2.0, alpha=1.5)


def test_support_identities_exact():
    # exact 1 on P(R/2) and exact 0 off P(R), at rational sample points
    fam = CutoffFamily(R=8.0, p=2.0)
    # strictly inside P(R/2): 1+|x|^2+t < 4, so psi=1 exactly and psi*=0 exactly
    inside = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(3, 2))]
    for fx, ft in inside:
        x = np.array([float(fx)])
        t = float(ft)
        assert 1 + fx * fx + ft < 4
        assert float(psi(fam, x, t)) == 1.0
        assert float(psi_star(fam, x, t)) == 0.0
    # on the closed boundary of P(R/2) the starred cutoff switches on
    assert float(psi(fam, np.array([1.0]), 2.0)) == 1.0
    assert float(psi_star(fam, np.array([1.0]), 2.0)) == 1.0
    # off P(R): 1+|x|^2+t >= 8, both vanish exactly
    outside = [(Fraction(3), Fraction(0)), (Fraction(0), Fraction(9)), (Fraction(2), Fraction(4))]
    for fx, ft in outside:
        x = np.array([float(fx)])
        t = float(ft)
        assert 1 + fx * fx + ft >= 8
        assert float(psi(fam, x, t)) == 0.0
        assert float(psi_star(fam, x, t)) == 0.0


def test_psi_value_on_shell():
    # s=0.75, p=2 (power 4): eta(3/4)=1/2 exactly, so psi = 1/16
    fam = CutoffFamily(R=4.0, p=2.0)
    x = np.zeros(1)
    t = 2.0  # s = (1+2)/4 = 0.75
    assert float(psi(fam, x, t)) == pytest.approx(0.0625, abs=1e-15)
    assert float(psi_star(fam, x, t)) == float(psi(fam, x, t))


def test_psi_star_below_psi_and_radius_monotonicity():
    fam = CutoffFamily(R=10.0, p=1.7, alpha=0.5)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-4, 4, size=(200, 2))
    ts = rng.uniform(0, 12, size=200)
    for x, t in zip(xs, ts):
        a, b = float(psi_star(fam, x, t)), float(psi(fam, x, t))
        assert a <= b + 1e-15 <= 1.0 + 1e-15
        s = float(s_value(fam, x, t))
        if s >= 0.5:
            assert a == b
    # for fixed (x,t), psi is non-decreasing in R
    x = np.array([1.3, 0.4])
    t = 3.0
    vals = [float(psi(replace(fam, R=R), x, t)) for R in (2.0, 5.0, 10.0, 50.0)]
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))


# -- exact pointwise derivatives of psi: the references for bound_constants --


def _power_chain(fam: CutoffFamily, s):
    """d psi/ds and d^2 psi/ds^2 as functions of s."""
    q = fam.exponent
    eta = fam.profile(s)
    d1 = fam.profile.deriv(s)
    d2 = fam.profile.deriv2(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f1 = np.where(d1 != 0.0, q * eta ** (q - 1.0) * d1, 0.0)
        f2 = np.where(
            (d1 != 0.0) | (d2 != 0.0),
            q * (q - 1.0) * eta ** (q - 2.0) * d1 * d1 + q * eta ** (q - 1.0) * d2,
            0.0,
        )
    return f1, f2


def psi_time_derivs(fam: CutoffFamily, x, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact first and second time derivatives of psi."""
    s = s_value(fam, x, t)
    f1, f2 = _power_chain(fam, s)
    return f1 / fam.R, f2 / fam.R**2


def psi_laplacian(fam: CutoffFamily, x, t) -> np.ndarray:
    """Exact spatial Laplacian of psi at points of R^N.

    Uses the chain rule through rho(x) = <x>^(2-alpha):
    grad rho = (2-alpha) <x>^(-alpha) x, so
    Lap psi = f''(s) |grad rho|^2 / R^2 + f'(s) Lap rho / R.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        dim = 1
        r2 = x * x
    else:
        dim = x.shape[-1]
        r2 = np.sum(x * x, axis=-1)
    br2 = 1.0 + r2
    br = np.sqrt(br2)
    a = fam.alpha
    s = (br ** (2.0 - a) + np.asarray(t, dtype=float)) / fam.R
    f1, f2 = _power_chain(fam, s)
    grad_rho_sq = (2.0 - a) ** 2 * br ** (-2.0 * a) * r2
    lap_rho = (2.0 - a) * br ** (-a) * (dim - a * r2 / br2)
    return f2 * grad_rho_sq / fam.R**2 + f1 * lap_rho / fam.R


def test_derivatives_vanish_on_plateau():
    fam = CutoffFamily(R=10.0, p=2.0)
    x = np.array([0.5])
    t = 1.0  # safely inside P(R/2)
    d1, d2 = psi_time_derivs(fam, x, t)
    assert float(d1) == 0.0 and float(d2) == 0.0
    assert float(psi_laplacian(fam, x, t)) == 0.0


def test_time_derivative_chain_rule_identity():
    fam = CutoffFamily(R=5.0, p=2.0)
    t = 0.7 * fam.R - 1.0  # s = 0.7 at x = 0
    d1, _ = psi_time_derivs(fam, np.zeros(1), t)
    prof = fam.profile
    s = 0.7
    expected = fam.exponent * float(prof(s)) ** (fam.exponent - 1) * float(prof.deriv(s)) / fam.R
    assert float(d1) == pytest.approx(expected, rel=1e-14)


def _shell_points(fam, rng, count, s_lo=0.55, s_hi=0.95):
    pts = []
    while len(pts) < count:
        s = rng.uniform(s_lo, s_hi)
        t = rng.uniform(0.0, 0.8 * (s * fam.R - 1.0))
        rho = s * fam.R - t  # <x>^(2-alpha)
        r = math.sqrt(max(rho ** (2.0 / (2.0 - fam.alpha)) - 1.0, 0.0))
        ang = rng.uniform(0, 2 * math.pi)
        pts.append((np.array([r * math.cos(ang), r * math.sin(ang)]), t))
    return pts


def test_time_derivatives_match_finite_differences():
    fam = CutoffFamily(R=10.0, p=2.0, alpha=0.5)
    rng = np.random.default_rng(11)
    # first derivative: central differences at step 1e-5
    worst = 0.0
    for x, t in _shell_points(fam, rng, 1000, s_lo=0.55, s_hi=0.9):
        a1, _ = psi_time_derivs(fam, x, t)
        d = 1e-5
        fd = (float(psi(fam, x, t + d)) - float(psi(fam, x, t - d))) / (2 * d)
        worst = max(worst, abs(float(a1) - fd) / abs(float(a1)))
    assert worst <= 1e-6


def test_second_derivatives_match_richardson():
    # second differences are rounding-limited at tiny steps; Richardson at
    # h=2e-3 reaches the analytic values to 1e-6 of the shell scale
    fam = CutoffFamily(R=10.0, p=2.0, alpha=0.5)
    rng = np.random.default_rng(12)
    ss = np.linspace(0.501, 0.999, 2001)
    _, f2s = psi_time_derivs(fam, np.zeros(2), ss * fam.R - 1.0)
    scale = float(np.max(np.abs(f2s)))

    def second_diff(x, t, h):
        return (
            float(psi(fam, x, t + h)) - 2 * float(psi(fam, x, t)) + float(psi(fam, x, t - h))
        ) / h**2

    worst = 0.0
    for x, t in _shell_points(fam, rng, 200, s_lo=0.55, s_hi=0.9):
        if t < 2e-3:
            continue
        _, a2 = psi_time_derivs(fam, x, t)
        h = 2e-3
        rich = (4.0 * second_diff(x, t, h / 2) - second_diff(x, t, h)) / 3.0
        worst = max(worst, abs(float(a2) - rich) / max(abs(float(a2)), 0.01 * scale))
    assert worst <= 1e-6


def test_laplacian_matches_finite_differences():
    fam = CutoffFamily(R=10.0, p=2.0, alpha=0.5)
    rng = np.random.default_rng(13)
    ss = np.linspace(0.501, 0.999, 2001)
    laps = psi_laplacian(fam, np.stack([ss * 0.0, ss * 0.0], axis=-1), ss * fam.R - 1.0)
    scale = max(float(np.max(np.abs(laps))), 1e-3)

    def lap_diff(x, t, h):
        tot = 0.0
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            tot += (
                float(psi(fam, xp, t)) - 2 * float(psi(fam, x, t)) + float(psi(fam, xm, t))
            ) / h**2
        return tot

    worst = 0.0
    for x, t in _shell_points(fam, rng, 200, s_lo=0.55, s_hi=0.9):
        a = float(psi_laplacian(fam, x, t))
        h = 2e-3
        rich = (4.0 * lap_diff(x, t, h / 2) - lap_diff(x, t, h)) / 3.0
        worst = max(worst, abs(a - rich) / max(abs(a), 0.01 * scale))
    assert worst <= 1e-6


def test_estimated_constants_dominate_fresh_shell_points():
    # the derivative bounds must hold with the estimated constants at shell
    # points the estimator never sampled
    rng = np.random.default_rng(99)
    for p, alpha, R in ((1.5, 0.0, 10.0), (2.0, 0.5, 100.0), (3.0, 1.0, 1000.0)):
        fam = CutoffFamily(R=R, p=p, alpha=alpha)
        bc = bound_constants(fam, dim=2)
        for _ in range(500):
            s = rng.uniform(0.501, 0.999)
            t = rng.uniform(0.0, 0.8 * (s * R - 1.0))
            rho = s * R - t
            r = math.sqrt(max(rho ** (2.0 / (2.0 - alpha)) - 1.0, 0.0))
            ang = rng.uniform(0, 2 * math.pi)
            x = np.array([r * math.cos(ang), r * math.sin(ang)])
            star = float(psi_star(fam, x, t)) ** (1.0 / p)
            d1, d2 = psi_time_derivs(fam, x, t)
            lap = float(psi_laplacian(fam, x, t))
            bracket_pow = (1.0 + r * r) ** (alpha / 2.0)
            assert abs(float(d1)) * R <= 1.02 * bc.c1 * star + 1e-12
            assert abs(float(d2)) * R * R <= 1.02 * bc.c2 * star + 1e-12
            assert abs(lap) * R * bracket_pow <= 1.02 * bc.c3 * star + 1e-12


def test_bound_constants_negative_control_diverges():
    fam = CutoffFamily(R=10.0, p=2.0, profile=PolynomialProfile(), power=1.0)
    with pytest.raises(ValueError):
        bound_constants(fam, dim=1)
    # the canonical 2p' power restores boundedness for the same profile
    bc = bound_constants(CutoffFamily(R=10.0, p=2.0, profile=PolynomialProfile()), dim=1)
    assert math.isfinite(bc.c1) and math.isfinite(bc.c2) and math.isfinite(bc.c3)


def _ratio_sups_on_mesh(fam, dim, n_s, n_pos, sample_range, tail_decades):
    """Reference: every factor evaluated on the full (s, position) meshgrid."""
    lo = max(0.5, sample_range[0], 1.0 / fam.R if fam.R > 1 else 0.5)
    hi = min(1.0, sample_range[1])
    span = hi - lo
    base = lo + span * (np.arange(1, n_s) / n_s)
    tail = hi - span * np.logspace(-tail_decades, -1, 8 * tail_decades)
    s_vals = np.unique(np.concatenate([base, tail]))
    s_vals = s_vals[(s_vals > lo) & (s_vals < hi)]
    ss, ff = np.meshgrid(s_vals, np.linspace(0.0, 1.0, n_pos), indexing="ij")
    rho = 1.0 + ff * (ss * fam.R - 1.0)
    br = rho ** (1.0 / (2.0 - fam.alpha))
    r2 = br * br - 1.0
    q = fam.exponent
    e1 = q * (1.0 - 1.0 / fam.p) - 1.0
    eta, d1, d2 = fam.profile(ss), fam.profile.deriv(ss), fam.profile.deriv2(ss)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pow1 = eta**e1
        pow0 = eta ** (e1 - 1.0)
        g1 = q * pow1 * d1
        g2 = q * (q - 1.0) * pow0 * d1 * d1 + q * pow1 * d2
        a = fam.alpha
        grad_rho_sq = (2.0 - a) ** 2 * br ** (-2.0 * a) * r2
        lap_rho = (2.0 - a) * br ** (-a) * (dim - a * r2 / (br * br))
        ratios = (np.abs(g1), np.abs(g2), br**a * np.abs(g2 * grad_rho_sq / fam.R + g1 * lap_rho))
    return BoundConstants(*(float(np.max(np.nan_to_num(r, nan=0.0, posinf=np.inf))) for r in ratios))


@pytest.mark.parametrize("profile", [TransitionProfile(), PolynomialProfile()], ids=["eta", "hat"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim", [1, 2])
# _ratio_sups always samples the whole shell (1/2, 1); the reference is told so explicitly
@pytest.mark.parametrize("sample_range", [(0.5, 1.0)])
def test_ratio_sups_bitwise_equal_to_full_mesh(profile, alpha, dim, sample_range):
    fam = CutoffFamily(R=10.0, p=2.0, alpha=alpha, profile=profile)
    for n_s, n_pos, decades in ((600, 64, 6), (1200, 128, 12)):
        got = cutoffs._ratio_sups(fam, cutoffs._shell(fam.R, alpha, dim, n_s, n_pos, decades))
        want = _ratio_sups_on_mesh(fam, dim, n_s, n_pos, sample_range, decades)
        assert got == want  # dataclass equality of floats: bitwise up to the sign of zero


def _constants_or_divergence(fam, dim):
    try:
        b = bound_constants(fam, dim=dim)
    except ValueError:
        return "diverges"
    return b.c1.hex(), b.c2.hex(), b.c3.hex()


def test_bound_constants_do_not_depend_on_the_shell_asked_for_before(monkeypatch):
    # keys that share R, alpha or dim with their neighbours, so a memo keyed on
    # too little hands back the wrong shell
    keys = [(10.0, 0.0, 1), (10.0, 0.0, 2), (100.0, 0.0, 2), (100.0, 0.5, 2), (10.0, 1.0, 1)]
    families = [
        lambda R, a: CutoffFamily(R=R, p=1.5, alpha=a),
        lambda R, a: CutoffFamily(R=R, p=3.0, alpha=a, profile=PolynomialProfile()),
        lambda R, a: CutoffFamily(R=R, p=2.0, alpha=a, profile=PolynomialProfile(), power=1.0),
    ]
    fresh = {}
    for R, alpha, dim in keys:
        for k, make in enumerate(families):
            monkeypatch.setattr(cutoffs, "_shells", None)  # the memo of a fresh process
            fresh[R, alpha, dim, k] = _constants_or_divergence(make(R, alpha), dim)
    assert fresh[10.0, 0.0, 1, 2] == "diverges"  # the negative control
    assert fresh[10.0, 0.0, 1, 1] != "diverges"
    for order in (keys, keys[::-1]):
        for R, alpha, dim in order:
            for k, make in enumerate(families):
                assert _constants_or_divergence(make(R, alpha), dim) == fresh[R, alpha, dim, k]


def test_cutoff_suite_keeps_one_shell_pair(monkeypatch):
    from blowlab import verify

    monkeypatch.setattr(cutoffs, "_shells", None)
    tracemalloc.start()
    try:
        verify.cutoff()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    pair = cutoffs._shells[1]
    pair_bytes = sum(a.nbytes for sh in pair for a in (sh.s, sh.weight, sh.grad_rho_sq, sh.lap_rho))
    assert pair_bytes < 6 * 2**20  # the coarse and the fine shell of R = 10
    assert kept <= pair_bytes + 2**18  # one pair and small change


def _tail_reference(fam, sigma, panels=16, nodes=32):
    """Composite Gauss-Legendre: ``panels`` panels of ``nodes`` nodes each."""
    lo = max(sigma, 0.5)
    if lo >= 1.0:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, 1.0, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        h = 0.5 * (b - a)
        s = (a + h) + h * x
        total += h * float(np.sum(w * psi_star_of_s(fam, s) / s))
    return total


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_star_tail_integral_against_composite_rule(p):
    fam = CutoffFamily(R=1.0, p=p)
    sigmas = np.linspace(0.0, 1.3, 60)
    got = star_tail_integral(fam, sigmas)
    want = np.array([_tail_reference(fam, float(sg)) for sg in sigmas])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_star_tail_integral_scalar_and_array_contract():
    fam = CutoffFamily(R=1.0, p=2.0)
    one = star_tail_integral(fam, 0.3)
    assert type(one) is float and one > 0.0
    # below 1/2 the lower limit is 1/2: every sigma there gives the same value
    assert star_tail_integral(fam, 0.0) == one
    grid = np.array([[0.3, 0.7], [1.0, 2.5]])
    vals = star_tail_integral(fam, grid)
    assert isinstance(vals, np.ndarray) and vals.shape == (2, 2)
    assert vals[0, 0] == one
    assert vals[0, 1] == star_tail_integral(fam, 0.7)
    assert np.all(vals[1] == 0.0) and not np.any(np.signbit(vals[1]))
    assert star_tail_integral(fam, np.float64(1.0)) == 0.0
    with pytest.raises(ValueError):
        star_tail_integral(fam, np.array([0.2, -1e-12, 0.8]))
    with pytest.raises(ValueError):
        star_tail_integral(fam, -0.1)
    margins = log2_inequality_margins(fam, grid)
    assert margins.shape == (2, 2)
    assert np.array_equal(margins.reshape(-1), log2_inequality_margins(fam, grid.reshape(-1)))


def test_log2_tail_inequality():
    fam = CutoffFamily(R=1.0, p=2.0)
    sigmas = np.linspace(0.0, 1.3, 100)
    margins = log2_inequality_margins(fam, sigmas)
    assert np.all(margins >= -1e-10)
    assert star_tail_integral(fam, 1.0) == 0.0
    assert star_tail_integral(fam, 2.5) == 0.0
    # strictly positive margin inside the shell where eta is not constant
    assert float(log2_inequality_margins(fam, np.array([0.6]))[0]) > 1e-4


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_log2_tail_inequality_other_powers(p):
    fam = CutoffFamily(R=1.0, p=p)
    margins = log2_inequality_margins(fam, np.linspace(0.0, 1.1, 40))
    assert np.all(margins >= -1e-10)
