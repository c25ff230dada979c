"""Cone-like domains: cross-section eigenvalues, homogeneity exponent, harmonic weight.

A cone-like domain is the set of rays through a cross-section of the unit
sphere.  Its first Dirichlet eigenvalue ``lambda_sigma`` on the cross-section
fixes the homogeneity exponent ``gamma`` (positive root of
``g^2 + (N-2)g - lambda_sigma = 0``) and the harmonic weight
``Phi(x) = |x|^gamma * phi(x/|x|)``, which vanishes on the cone boundary and
satisfies the Euler identity ``x . grad(Phi) = gamma * Phi``.

Supported cross-sections: full sphere (N>=2), half/full line (N=1), planar
sector (N=2), spherical cap (N=3), and products of half-spaces with a full
factor (N>=2), so N=1 is the half or the full line only.  All but the cap
have closed forms.  The cap's first mode is the Legendre function
``P_nu(cos theta)``, and its eigenvalue ``nu(nu+1)`` is the first root of
``P_nu(cos theta0)`` in the degree nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

VALID_KINDS = (
    "full-sphere",
    "half-line",
    "full-line",
    "planar-sector",
    "spherical-cap",
    "half-space-product",
)
FIXED_DIM = {"half-line": 1, "full-line": 1, "planar-sector": 2, "spherical-cap": 3}


class SpecError(ValueError):
    """Every rule a spec breaks, as ``(field, message)`` pairs."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{name}: {msg}" for name, msg in self.violations))


def foreign_fields(spec, kind: str, homes: dict) -> list:
    """``(field, message)`` for each field of ``spec`` that ``homes`` gives to
    another kind than ``kind`` and that is not at its default: a value the
    spec's kind does not read is an error, not silently dropped."""
    return [
        (f.name, f"{kind} takes no {f.name} (only {homes[f.name]} does)")
        for f in fields(spec)
        if homes.get(f.name) not in (None, kind) and getattr(spec, f.name) != f.default
    ]


@dataclass(frozen=True)
class CrossSectionSpec:
    """Which cross-section of the unit sphere the cone is built on.

    ``dim`` is the ambient spatial dimension N.  ``omega`` is the opening
    angle of a planar sector (radians, 0 < omega <= 2*pi), ``theta0`` the
    polar angle of a spherical cap (0 < theta0 < pi), ``k`` the number of
    half-space factors (0 <= k <= N, with N >= 2).
    """

    kind: str
    dim: int
    omega: float | None = None
    theta0: float | None = None
    k: int | None = None

    def __post_init__(self):
        bad = []
        if self.kind not in VALID_KINDS:
            bad.append(("kind", f"unknown cross-section kind {self.kind!r}"))
        if self.dim < 1:
            bad.append(("dim", "dimension must be >= 1"))
        elif self.kind in FIXED_DIM and self.dim != FIXED_DIM[self.kind]:
            bad.append(("dim", f"{self.kind} requires N={FIXED_DIM[self.kind]}"))
        elif self.kind in ("full-sphere", "half-space-product") and self.dim < 2:
            bad.append(("dim", f"{self.kind} requires N>=2 (use full-line or half-line for N=1)"))
        if self.kind == "planar-sector" and (
            self.omega is None or not 0.0 < self.omega <= 2.0 * math.pi
        ):
            bad.append(("omega", "planar-sector needs opening angle in (0, 2*pi]"))
        if self.kind == "spherical-cap" and (
            self.theta0 is None or not 0.0 < self.theta0 < math.pi
        ):
            bad.append(
                ("theta0", "spherical-cap needs polar angle in (0, pi); use full-sphere for pi")
            )
        if self.kind == "half-space-product" and (self.k is None or not 0 <= self.k <= self.dim):
            bad.append(("k", "half-space-product needs integer k with 0 <= k <= N"))
        homes = {"omega": "planar-sector", "theta0": "spherical-cap", "k": "half-space-product"}
        bad.extend(foreign_fields(self, self.kind, homes))
        if bad:
            raise SpecError(bad)


# Angular eigenfunction profiles.  Plain classes (not closures) so that
# domains survive pickling into worker processes.


@dataclass(frozen=True)
class SectorProfile:
    """sin(pi*theta/omega) on the arc 0 <= theta <= omega, sup-normalized."""

    omega: float

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        theta = np.arctan2(w[..., 1], w[..., 0]) % (2.0 * math.pi)
        return np.sin(math.pi * theta / self.omega)


_LEGENDRE_TERMS = 200  # at z or w = 1/2 the terms fall below 1e-17 after about 60
_EULER_GAMMA = 0.57721566490153286  # -psi(1)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: psi(x) = psi(x + 1) - 1/x up to x >= 20, then the
    asymptotic series (DLMF 5.11.2) through x^-12.  ``fsum`` adds the parts,
    which nearly cancel, without rounding each partial sum."""
    parts = []
    while x < 20.0:
        parts.append(-1.0 / x)
        x += 1.0
    s = 1.0 / (x * x)
    tail = s * (1 / 12 - s * (1 / 120 - s * (1 / 252 - s * (1 / 240 - s * (1 / 132 - s * 691 / 32760)))))
    return math.fsum([*parts, math.log(x), -0.5 / x, -tail])


def _legendre_p(nu, theta):
    """P_nu(cos theta) for theta in [0, pi], a float or elementwise over an array.

    Up to theta = pi/2, and for an integer degree (a terminating polynomial)
    everywhere, it sums 2F1(-nu, nu+1; 1; z) = sum_k c_k z^k in
    z = sin^2(theta/2) (DLMF 14.3.1, 15.2.1), with
    c_k = (-nu)_k (nu+1)_k / k!^2.  Past pi/2 a non-integer degree takes the
    series in w = 1 - z = cos^2(theta/2), computed directly: near the log
    singularity at theta = pi, z would round away the digits of w.  This is
    DLMF 15.8.10 with c - a - b = 0:
    -(sin(pi nu)/pi) * sum_k c_k w^k (2 psi(k+1) - psi(k-nu) - psi(k+1+nu) - log w),
    each psi stepped by psi(x+1) = psi(x) + 1/x from psi(1) = -gamma,
    psi(1+nu) and psi(-nu) = psi(1+nu) + pi cot(pi nu) (DLMF 5.5.4).  z or w
    is at most 1/2 where a series does not terminate, so its terms fall at
    least geometrically, though at a large degree far past the cap angle
    they first grow and cancel (as in hyp2f1); the cap evaluates P_nu only up
    to its angle.  A float runs in Python floats, 20 times faster than
    numpy's 0-d arithmetic in ``cap_eigenvalue``'s root search.
    """
    if np.ndim(theta):
        theta = np.asarray(theta, dtype=float)
        return np.array([_legendre_p(nu, t) for t in theta.flat]).reshape(theta.shape)
    nu, theta = float(nu), float(theta)
    total, coef, x_k = 0.0, 1.0, 1.0  # c_k and z^k (or w^k)
    if theta <= 0.5 * math.pi or nu.is_integer():
        z = math.sin(0.5 * theta) ** 2
        for k in range(_LEGENDRE_TERMS):
            term = coef * x_k
            total += term
            if abs(term) < 1e-17:
                break
            coef *= (k - nu) * (k + 1.0 + nu) / (k + 1.0) ** 2
            x_k *= z
        return total
    w = math.cos(0.5 * theta) ** 2
    log_w = math.log(w)
    psi_1, psi_b = -_EULER_GAMMA, _digamma(1.0 + nu)  # psi(k+1), psi(k+1+nu)
    psi_a = psi_b + math.pi / math.tan(math.pi * nu)  # psi(k-nu)
    for k in range(_LEGENDRE_TERMS):
        term = coef * x_k * (2.0 * psi_1 - psi_a - psi_b - log_w)
        total += term
        if abs(term) < 1e-17:
            break
        coef *= (k - nu) * (k + 1.0 + nu) / (k + 1.0) ** 2
        x_k *= w
        psi_1 += 1.0 / (k + 1.0)
        psi_a += 1.0 / (k - nu)
        psi_b += 1.0 / (k + 1.0 + nu)
    return -math.sin(math.pi * nu) / math.pi * total


@dataclass(frozen=True)
class CapProfile:
    """First Dirichlet mode P_nu(cos theta) of the cap, in the polar angle theta.

    ``nu(nu+1)`` is the cap eigenvalue.  The mode is 1 at the pole and 0 at
    and beyond the cap angle ``theta0``.
    """

    theta0: float
    nu: float

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        ct = np.clip(w[..., 2], -1.0, 1.0)
        # P_nu(cos theta) has a log singularity at theta = pi: never evaluate beyond theta0
        vals = _legendre_p(self.nu, np.minimum(np.arccos(ct), self.theta0))
        return np.where(ct <= math.cos(self.theta0), 0.0, vals)


@dataclass(frozen=True)
class ProductProfile:
    """w_1 * ... * w_k on the slice with those components positive; 1 for k = 0 (full sphere)."""

    k: int

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if self.k == 0:
            return np.ones(w.shape[:-1] if w.ndim > 1 else ())
        return np.prod(w[..., : self.k], axis=-1)


@dataclass(frozen=True)
class LineProfile:
    """N=1 profile: value at the two directions +-1 of the 0-sphere."""

    half: bool  # True for the half-line (only +1 admissible)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        s = w[..., 0] if w.ndim > 0 and w.shape[-1:] == (1,) else w
        if self.half:
            return np.where(np.asarray(s) > 0, 1.0, 0.0)
        return np.ones(np.shape(s))


@dataclass(frozen=True)
class ConeDomain:
    """A cone-like domain together with its spectral data.

    ``eigenfunction`` maps a unit vector (shape (..., N)) to the angular
    profile value; it is positive inside the cross-section and vanishes on
    its boundary.
    """

    spec: CrossSectionSpec
    lambda_sigma: float
    gamma: float
    eigenfunction: Callable

    @property
    def dim(self) -> int:
        return self.spec.dim

    def contains(self, x: np.ndarray) -> bool:
        """Whether ``x`` lies in the closed cone."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        kind = self.spec.kind
        if kind in ("full-sphere", "full-line"):
            return True
        if kind == "half-line":
            return bool(x[0] >= 0.0)
        if kind == "planar-sector":
            r = float(np.hypot(x[0], x[1]))
            if r == 0.0:
                return True
            theta = math.atan2(x[1], x[0]) % (2.0 * math.pi)
            return theta <= self.spec.omega + 1e-15
        if kind == "spherical-cap":
            r = float(np.linalg.norm(x))
            if r == 0.0:
                return True
            return math.acos(min(1.0, max(-1.0, x[2] / r))) <= self.spec.theta0 + 1e-15
        if kind == "half-space-product":
            return bool(np.all(x[: self.spec.k] >= 0.0))
        raise ValueError(kind)


def gamma_root(dim: int, lambda_sigma: float) -> float:
    """Positive root of ``g^2 + (N-2)g - lambda_sigma = 0``.

    Gives 0 when ``lambda_sigma`` is 0 and N >= 2, and 1 for the half-line
    (N=1, lambda_sigma=0), where 0 and 1 are both roots and the positive one
    is taken.
    """
    if lambda_sigma < 0:
        raise ValueError("lambda_sigma must be nonnegative")
    b = dim - 2.0
    return 0.5 * (-b + math.sqrt(b * b + 4.0 * lambda_sigma))


def sector_eigenvalue(omega: float) -> float:
    """First Dirichlet eigenvalue of -d^2/dtheta^2 on the arc (0, omega)."""
    if not 0.0 < omega <= 2.0 * math.pi:
        raise ValueError("opening angle must lie in (0, 2*pi]")
    return (math.pi / omega) ** 2


BRENT_RTOL_MIN = 4.0 * np.finfo(float).eps  # so the least step, rtol*|x|/2, spans two ulps of x
BRENT_MAXITER = 100  # scipy's default


def brent_root(f: Callable, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of ``scipy/optimize/Zeros/brentq.c``: same bits as
    ``scipy.optimize.brentq`` at the same tolerances.  An exact zero at an end
    is returned as it is.  ValueError for a bracket without a sign change, a
    bad tolerance or a NaN value of f; RuntimeError after ``BRENT_MAXITER`` iterations.
    """
    if not (xtol > 0.0 and rtol >= BRENT_RTOL_MIN):
        raise ValueError(f"need xtol > 0 and rtol >= {BRENT_RTOL_MIN:g}")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {BRENT_MAXITER} iterations")


def cap_eigenvalue(theta0: float) -> float:
    """First Dirichlet eigenvalue nu(nu+1) on the spherical cap of angle theta0.

    nu is the first root of the Legendre function P_nu(cos theta0) in the
    degree: doubling brackets its first sign change, Brent's method then
    finds the root.  A failed bracket would be an internal fault, not a data
    error.
    """
    if not 0.0 < theta0 < math.pi:
        raise ValueError("cap angle must lie in (0, pi); theta0 = pi is the full sphere")

    def endpoint(nu: float) -> float:
        return _legendre_p(nu, theta0)

    lo, f_lo = 1e-9, endpoint(1e-9)
    hi = 1.0
    f_hi = endpoint(hi)
    doublings = 0
    while f_lo * f_hi > 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        f_hi = endpoint(hi)
        doublings += 1
        if doublings > 60:
            raise RuntimeError("cap eigenvalue bracketing did not converge")
    # the series give P_nu to near machine precision, so the root takes brent_root's finest rtol,
    # 4 eps: below it the least step rtol*nu/2 could round away and leave nu where it is
    nu = brent_root(endpoint, lo, hi, xtol=1e-15, rtol=BRENT_RTOL_MIN)
    return nu * (nu + 1.0)


def make_domain(spec: CrossSectionSpec) -> ConeDomain:
    """Build the domain with its eigenvalue, exponent and angular profile.

    Closed forms are used where they exist (sphere, sector, half-space
    product).  The spherical cap solves its eigenvalue once; its profile is
    the Legendre function at the degree that eigenvalue gives.
    """
    kind, dim = spec.kind, spec.dim
    if kind == "full-line":
        return ConeDomain(spec, 0.0, 0.0, LineProfile(half=False))
    if kind == "half-line":
        return ConeDomain(spec, 0.0, 1.0, LineProfile(half=True))
    if kind == "full-sphere":
        return ConeDomain(spec, 0.0, 0.0, ProductProfile(0))
    if kind == "planar-sector":
        lam = sector_eigenvalue(spec.omega)
        return ConeDomain(spec, lam, gamma_root(dim, lam), SectorProfile(spec.omega))
    if kind == "spherical-cap":
        lam = cap_eigenvalue(spec.theta0)
        nu = gamma_root(dim, lam)  # for N = 3 gamma is the degree: nu(nu+1) = lam
        return ConeDomain(spec, lam, nu, CapProfile(spec.theta0, nu))
    if kind == "half-space-product":
        k = spec.k
        return ConeDomain(spec, float(k * (dim - 2 + k)), float(k), ProductProfile(k))
    raise ValueError(kind)


def phi_eval(dom: ConeDomain, x) -> float:
    """The harmonic weight |x|^gamma * phi(x/|x|) of ``dom`` at x in the closed cone.

    The half-space product uses the exact polynomial x_1*...*x_k (its angular
    part w_1*...*w_k is kept unnormalized so that the weight is the familiar
    coordinate product); the other kinds carry sup-normalized profiles.  On
    the half-line Phi(x)=x; on the full line Phi=1, the positive constant.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (dom.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({dom.dim},)")
    if not dom.contains(x):
        raise ValueError("point lies outside the cone")
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 0.0 if dom.gamma > 0 else 1.0
    ang = float(dom.eigenfunction(x / r))
    return r**dom.gamma * ang


def harmonic_residual(dom: ConeDomain, x, h: float) -> tuple[float, float]:
    """Centered-difference residuals of harmonicity and the Euler identity.

    Returns ``(|Lap_h Phi(x)|, |x . grad_h Phi(x) - gamma*Phi(x)|)``; both
    are O(h^2) for smooth profiles.  The full stencil must stay inside the
    cone.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if h <= 0:
        raise ValueError("stencil size must be positive")
    n = dom.dim
    for i in range(n):
        for s in (-1.0, 1.0):
            xs = x.copy()
            xs[i] += s * h
            if not dom.contains(xs):
                raise ValueError("stencil leaves the cone; move the point inward")
    center = phi_eval(dom, x)
    lap = 0.0
    euler = 0.0
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = phi_eval(dom, xp), phi_eval(dom, xm)
        lap += (fp - 2.0 * center + fm) / (h * h)
        euler += x[i] * (fp - fm) / (2.0 * h)
    return abs(lap), abs(euler - dom.gamma * center)


def bump_kernel(s2: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
    """amplitude * exp(1 - 1/(1 - s2)) where s2 < 1, and +0.0 elsewhere."""
    out = np.zeros(s2.shape)
    inside = s2 < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


@dataclass(frozen=True)
class BumpField:
    """Smooth compactly supported test field: amp * exp(1 - 1/(1-s^2)).

    ``s`` is the distance from ``center`` scaled by ``radius``; the support
    is the closed ball of that radius.
    """

    center: np.ndarray
    radius: float
    amplitude: float = 1.0

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        return c - self.radius, c + self.radius

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        # one axis at a time, with no (..., N) temporary; summed in axis order,
        # so the bits are those of np.sum((pts - c) ** 2, axis=-1)
        s2 = (pts[..., 0] - c[0]) ** 2
        for i in range(1, pts.shape[-1]):
            s2 += (pts[..., i] - c[i]) ** 2
        s2 /= self.radius**2
        return bump_kernel(s2, self.amplitude)


def hardy_ratio(dom: ConeDomain, u, n: int = 48) -> float:
    """Quadrature estimate of  integral(|grad u|^2) / integral(|u|^2/|x|^2).

    ``u`` must provide ``support_box()`` and vectorized evaluation on
    (..., N) points, vanish on and outside the cone boundary, and not be
    identically zero.  Midpoint rule on the support box with an ``n``-point
    grid per axis; gradients by central differences.  The points are filled
    axis by axis and |x|^2 is summed over the axes in order, which gives the
    bits of a ``meshgrid`` + ``stack`` mesh and ``np.sum(pts * pts, axis=-1)``.
    """
    lo, hi = u.support_box()
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    dims = lo.size
    steps = [(hi[i] - lo[i]) / n for i in range(dims)]
    pts = np.empty((n,) * dims + (dims,))
    r2 = 0.0
    for i in range(dims):
        ax = lo[i] + (hi[i] - lo[i]) * (np.arange(n) + 0.5) / n
        ax = ax.reshape((n,) + (1,) * (dims - 1 - i))  # along axis i of the mesh
        pts[..., i] = ax
        r2 = r2 + ax * ax
    vals = u(pts)
    grads = np.gradient(vals, *steps) if dims > 1 else [np.gradient(vals, steps[0])]
    grad_sq = sum(g * g for g in grads)
    vol = float(np.prod(steps))
    num = float(np.sum(grad_sq)) * vol
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = np.where(vals != 0.0, vals * vals / r2, 0.0)
    den = float(np.sum(weighted)) * vol
    if den <= 0.0:
        raise ValueError("test field is degenerate (identically zero)")
    return num / den


def hardy_constant(dom: ConeDomain) -> float:
    """((N-2)/2 + gamma)^2, the sharp constant for the cone."""
    return ((dom.dim - 2) / 2.0 + dom.gamma) ** 2


def fujita_threshold(dim: int, gamma: float, alpha: float) -> float:
    """Critical exponent 1 + 2/(N + gamma - alpha) separating the regimes."""
    if dim < 1 or gamma < 0 or not 0.0 <= alpha <= 1.0:
        raise ValueError("need N>=1, gamma>=0, alpha in [0,1]")
    denom = dim + gamma - alpha
    if denom <= 0:
        raise ValueError("N + gamma - alpha must be positive")
    return 1.0 + 2.0 / denom


def bound_theta(dim: int, gamma: float, alpha: float, p: float) -> float:
    """theta = 1/(p-1) - (N + gamma - alpha)/2, the lifespan bound's exponent.

    Nonnegative exactly up to the Fujita threshold.
    """
    return 1.0 / (p - 1.0) - (dim + gamma - alpha) / 2.0
