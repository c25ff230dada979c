"""Smooth space-time cutoff family for the weighted-functional estimates.

The scalar transition profile eta is 1 on [0, 1/2], 0 on [1, inf) and strictly
decreasing in between:

    eta(s) = g(2-2s) / (g(2-2s) + g(2s-1)),   g(t) = exp(-1/t) for t>0 else 0.

The starred variant eta*(s) vanishes below 1/2 and equals eta above.  The
cutoff pair is

    psi(x,t)  = eta(s)^(2p'),   psi*(x,t) = eta*(s)^(2p'),
    s = (<x>^(2-alpha) + t) / R,   <x> = sqrt(1+|x|^2),

with p' = p/(p-1).  The 2p' power is what keeps the ratios
|d psi| / psi*^(1/p) bounded on the transition shell; ``bound_constants``
measures those suprema and the negative control (power 1 instead of 2p')
makes them diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)  # on [-1, 1]


def _on_band(s, formula, one_below: bool = True) -> np.ndarray:
    """``formula`` on the open band 1/2 < s < 1, 0 on s >= 1, and 1 (``one_below``)
    or 0 on s <= 1/2.  ``formula`` sees only the band values, flattened."""
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)
    out = (flat <= 0.5).astype(float) if one_below else np.zeros(flat.size)
    band = np.flatnonzero((flat > 0.5) & (flat < 1.0))
    out[band] = formula(flat[band])
    return out.reshape(s.shape)


def _g(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0."""
    return np.exp(-1.0 / t)


def _eta_raw(s: np.ndarray) -> np.ndarray:
    """eta strictly inside (1/2, 1), where g(2-2s) + g(2s-1) > 0."""
    a = _g(2.0 - 2.0 * s)
    return a / (a + _g(2.0 * s - 1.0))


def _eta_derivs(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivative of eta strictly inside (1/2, 1)."""
    ta = 2.0 - 2.0 * s
    tb = 2.0 * s - 1.0
    a = _g(ta)
    b = _g(tb)
    da = -2.0 * a / ta**2
    db = 2.0 * b / tb**2
    d2a = 4.0 * a / ta**4 - 8.0 * a / ta**3
    d2b = 4.0 * b / tb**4 - 8.0 * b / tb**3
    tot = a + b
    w = a * db - da * b  # -(numerator of eta')
    d1 = (da * b - a * db) / tot**2
    d2 = ((d2a * b - a * d2b) * tot + 2.0 * w * (da + db)) / tot**3
    return d1, d2


class _BandProfile:
    """A profile given on the band 1/2 < s < 1 by ``band(s)`` and ``band_derivs(s)``
    (its first two derivatives); it is 1 below the band and 0 above."""

    def __call__(self, s) -> np.ndarray:
        return _on_band(s, self.band)

    def deriv(self, s) -> np.ndarray:
        return _on_band(s, lambda b: self.band_derivs(b)[0], one_below=False)

    def deriv2(self, s) -> np.ndarray:
        return _on_band(s, lambda b: self.band_derivs(b)[1], one_below=False)


@dataclass(frozen=True)
class TransitionProfile(_BandProfile):
    """The transition profile eta and its first two closed-form derivatives."""

    band = staticmethod(_eta_raw)
    band_derivs = staticmethod(_eta_derivs)


DEFAULT_PROFILE = TransitionProfile()


@dataclass(frozen=True)
class PolynomialProfile(_BandProfile):
    """The hat 2-2s on (1/2, 1), whose derivative does not vanish at the outer edge:
    the 2p' power keeps the derivative-bound ratios finite, and power 1 is the
    verification suite's divergent negative control."""

    @staticmethod
    def band(s):
        return 2.0 - 2.0 * s

    @staticmethod
    def band_derivs(s):
        return np.full(s.shape, -2.0), np.zeros(s.shape)


@dataclass(frozen=True)
class CutoffFamily:
    """Space-time cutoff psi_R with scaled coordinate s = (<x>^(2-alpha)+t)/R.

    ``power`` defaults to 2p'; overriding it (the verification suites use
    power=1 as a negative control) breaks the derivative-bound contract on
    purpose.
    """

    R: float
    p: float
    alpha: float = 0.0
    profile: TransitionProfile = DEFAULT_PROFILE
    power: float | None = None

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("radius must be positive")
        if self.p <= 1:
            raise ValueError("exponent p must exceed 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0,1]")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def exponent(self) -> float:
        return 2.0 * self.p_conj if self.power is None else self.power


def bracket_power(x, alpha: float) -> np.ndarray:
    """<x>^(2-alpha), computed as (1+|x|^2)^((2-alpha)/2) so that the
    alpha=0 case is exact in floating point."""
    x = np.asarray(x, dtype=float)
    r2 = x * x if x.ndim == 0 else np.sum(x * x, axis=-1)
    if alpha == 0.0:
        return 1.0 + r2
    return (1.0 + r2) ** (0.5 * (2.0 - alpha))


def s_value(fam: CutoffFamily, x, t) -> np.ndarray:
    """Scaled space-time coordinate (<x>^(2-alpha) + t) / R."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return (bracket_power(x, fam.alpha) + t) / fam.R


def psi_of_s(fam: CutoffFamily, s) -> np.ndarray:
    """The cutoff eta(s)^power as a function of the scaled coordinate s."""
    q = fam.exponent
    return _on_band(s, lambda b: fam.profile.band(b) ** q)


def psi_star_of_s(fam: CutoffFamily, s) -> np.ndarray:
    # same code path as psi_of_s so the two coincide exactly on s >= 1/2
    s = np.asarray(s, dtype=float)
    return np.where(s < 0.5, 0.0, psi_of_s(fam, s))


def psi(fam: CutoffFamily, x, t) -> np.ndarray:
    """The cutoff value; exactly 1 on P(R/2) and exactly 0 outside P(R)."""
    return psi_of_s(fam, s_value(fam, x, t))


def psi_star(fam: CutoffFamily, x, t) -> np.ndarray:
    """Starred cutoff: vanishes on P(R/2), coincides with psi on s >= 1/2."""
    return psi_star_of_s(fam, s_value(fam, x, t))


@dataclass(frozen=True)
class BoundConstants:
    """Empirical suprema of the three derivative-bound ratios."""

    c1: float
    c2: float
    c3: float


@dataclass(frozen=True)
class _Shell:
    """One sample of the transition shell: the s column and, on the (s, position)
    mesh, the factors of the Laplacian ratio that depend on neither p nor the profile."""

    s: np.ndarray  # (rows, 1)
    weight: np.ndarray  # <x>^alpha
    grad_rho_sq: np.ndarray  # |grad rho|^2 with rho = <x>^(2-alpha)
    lap_rho: np.ndarray  # Lap rho in dimension dim


def _shell(R: float, alpha: float, dim: int, n_s: int, n_pos: int, tail_decades: int) -> _Shell:
    """Sample the scaled coordinate s directly: a uniform grid on the shell plus
    a geometric tail approaching the outer edge (``tail_decades`` deep), so edge
    divergence cannot hide between grid points.  For each s the spatial position
    sweeps rho = <x>^(2-alpha) over [1, s*R] in ``n_pos`` points.  The mesh is
    built in place, with the arithmetic of the plain expressions
    ``(2-a)**2 * <x>**(-2a) * r2`` and ``(2-a) * <x>**(-a) * (dim - a * r2 / <x>**2)``.
    """
    lo = max(0.5, 1.0 / R if R > 1 else 0.5)
    span = 1.0 - lo
    base = lo + span * (np.arange(1, n_s) / n_s)
    tail = 1.0 - span * np.logspace(-tail_decades, -1, 8 * tail_decades)
    s_vals = np.unique(np.concatenate([base, tail]))
    ss = s_vals[(s_vals > lo) & (s_vals < 1.0)][:, None]
    a = alpha
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        br = np.linspace(0.0, 1.0, n_pos) * (ss * R - 1.0)
        br += 1.0  # rho, between 1 and s*R
        br **= 1.0 / (2.0 - a)  # <x>
        bb = br * br
        grad_rho_sq = br ** (-2.0 * a)
        grad_rho_sq *= (2.0 - a) ** 2
        lap_rho = br ** (-a)
        lap_rho *= 2.0 - a
        br **= a  # the weight <x>^alpha
        r2 = bb - 1.0  # |x|^2
        grad_rho_sq *= r2
        r2 *= a
        r2 /= bb
        np.subtract(dim, r2, out=r2)
        lap_rho *= r2
    return _Shell(ss, br, grad_rho_sq, lap_rho)


# (n_s, n_pos, tail_decades) of the coarse and the fine shell sample
_SHELL_SAMPLES = ((600, 64, 6), (1200, 128, 12))
_shells = None  # ((R, alpha, dim), (coarse, fine)): the last shell pair built


def _shell_pair(R: float, alpha: float, dim: int) -> tuple[_Shell, _Shell]:
    """The coarse and the fine shell of ``(R, alpha, dim)``.  Only the last pair
    is kept: ``verify.cutoff`` asks for each pair once per power in a row."""
    global _shells
    key = (R, alpha, dim)
    if _shells is None or _shells[0] != key:
        _shells = None  # released before the next pair is built
        _shells = (key, tuple(_shell(R, alpha, dim, *sample) for sample in _SHELL_SAMPLES))
    return _shells[1]


def _ratio_sups(fam: CutoffFamily, shell: _Shell) -> BoundConstants:
    """Suprema of the normalized derivative ratios on a shell sample.

    The ratios |d psi| / psi*^(1/p) are formed with the eta exponents combined
    algebraically (q - 1 - q/p = q/p' - 1 etc.) so that near-edge underflow
    of eta^q cannot manufacture spurious infinities; for the canonical power
    q = 2p' the combined exponents are 1 and 0.  The profile factors depend
    on s alone, so they are evaluated on the s column and broadcast against
    the shell's position factors; each element gets the arithmetic of the full
    (s, position) mesh.  Every ratio is >= 0, and NaN entries (0 * inf) count
    as 0.
    """
    q = fam.exponent
    e1 = q * (1.0 - 1.0 / fam.p) - 1.0  # q/p' - 1; equals 1 for the canonical q = 2p'
    eta = fam.profile(shell.s)
    d1 = fam.profile.deriv(shell.s)
    d2 = fam.profile.deriv2(shell.s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pow1 = eta**e1
        pow0 = eta ** (e1 - 1.0)
        g1 = q * pow1 * d1  # (d psi/ds) / psi*^(1/p)
        g2 = q * (q - 1.0) * pow0 * d1 * d1 + q * pow1 * d2
        ratio3 = g2 * shell.grad_rho_sq
        ratio3 /= fam.R
        ratio3 += g1 * shell.lap_rho
        np.abs(ratio3, out=ratio3)
        ratio3 *= shell.weight
    return BoundConstants(
        *(float(np.fmax.reduce(r, axis=None, initial=0.0)) for r in (np.abs(g1), np.abs(g2), ratio3))
    )


def bound_constants(fam: CutoffFamily, dim: int = 1) -> BoundConstants:
    """Suprema of R|dt psi|/psi*^(1/p), R^2|dt2 psi|/psi*^(1/p) and
    R <x>^alpha |Lap psi| / psi*^(1/p) over a grid on the transition shell.

    The grid (600 s values by 64 positions) is refined once to 1200 by 128,
    with the edge tail deepened; if any supremum grows by more than a factor
    1.2 under refinement (or is non-finite) the profile/power combination
    does not satisfy the bounded-ratio property and a ``ValueError`` is
    raised.  Both grids depend only on ``(R, alpha, dim)``; the pair of the
    last such key is kept, so families that differ only in p, profile or
    power reuse it when asked for in a row.
    """
    coarse, fine = (_ratio_sups(fam, shell) for shell in _shell_pair(fam.R, fam.alpha, dim))
    for name, a, b in (
        ("time-derivative", coarse.c1, fine.c1),
        ("second-time-derivative", coarse.c2, fine.c2),
        ("laplacian", coarse.c3, fine.c3),
    ):
        if not math.isfinite(b) or (a > 0 and b > 1.2 * a):
            raise ValueError(
                f"{name} ratio diverges under grid refinement; "
                "the cutoff power does not control the transition shell"
            )
    return fine


def star_tail_integral(fam: CutoffFamily, sigma: float | np.ndarray) -> float | np.ndarray:
    """integral_sigma^inf eta*(s)^power / s ds  (64-node Gauss-Legendre).

    The integrand is supported on [max(sigma, 1/2), 1] and C-infinity there,
    so one fixed Gauss-Legendre rule on that interval is exact to rounding.
    A scalar sigma gives a float and an array gives an array of its shape;
    the value is exactly 0.0 where max(sigma, 1/2) >= 1, and any negative
    sigma raises ``ValueError``.  The decreasing profile makes the value at
    most log(2) * eta(sigma)^power.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    lo = np.clip(sigma, 0.5, 1.0)
    half = 0.5 * (1.0 - lo)  # exactly 0.0 where the interval is empty
    s = (lo + half)[..., None] + half[..., None] * _GL_NODES
    # a row sum, not a matmul, so that a sigma gives the same bits in any shape
    out = half * np.sum(psi_star_of_s(fam, s) / s * _GL_WEIGHTS, axis=-1)
    return float(out) if out.ndim == 0 else out


def log2_inequality_margins(fam: CutoffFamily, sigmas) -> np.ndarray:
    """Margins log(2)*eta(sigma)^power - tail integral, one per sigma."""
    sigmas = np.asarray(sigmas, dtype=float)
    return math.log(2.0) * psi_of_s(fam, sigmas) - star_tail_integral(fam, sigmas)
