"""Finite-difference integrators for the unified evolution equation.

The equation is  tau * u_tt - Lap(u) + a(x) * u_t = lambda * |u|^p  with
homogeneous Dirichlet walls on a truncated domain.  tau=0 runs a
Crank-Nicolson step for  u_t = a^{-1} (Lap u + lambda |u|^p)  (heat for a=1,
free or forced Schrodinger for a=+-i, Ginzburg-Landau phases in between).
tau=1 runs the trapezoidal rule on (u, u_t), Newmark's average-acceleration
scheme, with the damping time centered: one implicit solve per step, stable
at any dt.  Both take the source explicitly at a predicted half step.

Geometries: the full line and the half line (N = 1), radially symmetric
space of N >= 2 dimensions (optionally with the origin excluded for Dirichlet
cones or the singular damping a = V0/|x|), and a planar sector in polars.
Each grid is one geometry record (``_GridData``), the only code that reads
``GridSpec.geometry``; the operators, the initial data, the weight Phi and
``boundary_max`` read its fields.  The coefficients depend on |x| only, so a
line run whose bump is centred at 0 keeps an even field: on a line with an
odd node count the run steps the folded record, the line's nodes from the
left wall to x = 0 with a reflecting row at x = 0, and unfolds each field it
shows into the full line.  Only rounding differs from stepping the line.  The
radial (or line) bands of the Laplacian give the implicit solve; on the polar
sector, where the damped wave's 1 + (dt/2) a(x) depends on the radius only,
the angular sine modes' bands, laid end to end with zero couplings, make it
one system.  The explicit stencil, written out, scales by their 1/h^2.  The
implicit solve factors a real symmetric positive definite matrix (real heat
and every real damped wave on the line and half line) as L D L^T with
LAPACK ``?pttrf``/``?pttrs``, and every other one with ``?gttrf``/``?gttrs``.

The implicit solve overwrites the right-hand side the step built.  The 1-d
solve sets every real and imaginary part below 2^-511 to zero, so the square
of a part never underflows into a subnormal number.  A field is exactly zero
outside its 1-d solve window, so the next step, the run's growth test and
the trace columns skip the nodes that hold only zeros, with the bits of the
full-grid arithmetic.  Both steps take a state the run has retired and write
into its arrays (the right-hand side goes into the retired ``u``) and into
scratch arrays of the grid, one per dtype, so a steady step allocates no
array.  Every step reports max|u| as its result's ``peak``, which the run's
growth test reads: a real step on a 1-d grid takes it off the |u_new| of
the solve's flush, any other step off the |u_new|^2 it writes (``_peak``).
At p = 2 the next Crank-Nicolson step takes its |u|^2 from that pass.  What
is constant on a rung (the scalars at dt, the damped wave's
D = 1 + (dt/2) a(x), the factors with their LAPACK routine and flush
scratch) is bound once per rung (``_Rung``), not on every call.

Blowup runs step on the dyadic ladder dt_init * 2^k: a step that grows
max|u| by more than the growth limit is halved, and a step-doubling probe
(one step of 2*dt against two of dt) lets the quiet phase climb the ladder
under the snapshot and horizon caps.  The implicit solve keeps the factors
of two rungs per grid, a new rung's in place of the one used longer ago, so
a probe and the step after it factor nothing new; a run's factors go when it
ends.  Runs record threshold crossing times T_M for M = 1e3..1e6 and
extrapolate the lifespan through T_M = T_inf - c * M^{-rate}, the blowup
rate of the comparison equation: rate p - 1 for u' = u^p (tau=0) and
(p - 1)/2 for u'' = u^p (tau=1, where the damping is of lower order).
"""

from __future__ import annotations

import logging
import math
import time
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from blowlab.cone_geometry import (
    ConeDomain,
    CrossSectionSpec,
    SectorProfile,
    SpecError,
    bump_kernel,
    foreign_fields,
    make_domain,
)
from blowlab.cutoffs import CutoffFamily, bracket_power, psi_of_s
from blowlab.lifespan_bounds import FunctionalTrace
from blowlab.tridiagonal import _NEGLIGIBLE, _WINDOW_MARGIN, _TridiagonalLU  # noqa: F401

GEOMETRIES = ("line", "half-line", "radial", "polar-sector")
RECORD_THRESHOLDS = (1e3, 1e4, 1e5, 1e6)  # the crossings every run records: the T_at_* columns
THRESHOLD_NAMES = tuple(f"1e{math.log10(m):.0f}" for m in RECORD_THRESHOLDS)  # "1e3", ...
_RTOL = 1e-5  # step-doubling tolerance, relative to max|u| (and max|v| for tau=1)
_GROWTH_LIMIT = 0.2  # a step that grows max|u| by more than this fraction is halved

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CoefficientSpec:
    """Coefficients of the evolution equation.

    Exactly one damping form is active and must match tau: the complex phase
    a = exp(i*zeta) for tau=0; the profile a0 * <x>^(-alpha) or the singular
    v0 / |x| for tau=1.
    """

    tau: int
    p: float
    lam: complex = 1.0 + 0.0j
    a_phase: float | None = None
    a0: float | None = None
    alpha: float = 0.0
    v0: float | None = None

    def __post_init__(self):
        bad = []
        if self.tau not in (0, 1):
            bad.append(("tau", "must be 0 or 1"))
        if not self.p > 1.0:
            bad.append(("p", "must exceed 1"))
        if not 0.0 <= self.alpha <= 1.0:
            bad.append(("alpha", "alpha must lie in [0,1]"))
        if self.tau == 0:
            if self.a_phase is None:
                bad.append(("a_phase", "required for tau=0 (a = exp(i*zeta))"))
            elif not -math.pi / 2 <= self.a_phase <= math.pi / 2:
                bad.append(("a_phase", "must lie in [-pi/2, pi/2]"))
            if self.a0 is not None or self.v0 is not None:
                bad.append(("a0", "tau=0 takes only the phase form of the damping"))
        elif self.tau == 1:
            if (self.a0 is None) == (self.v0 is None):
                bad.append(("a0", "tau=1 needs exactly one of a0 or v0"))
            if self.a_phase is not None:
                bad.append(("a_phase", "not allowed for tau=1"))
            if self.a0 is not None and self.a0 < 0:
                bad.append(("a0", "must be nonnegative"))
            if self.v0 is not None and self.v0 < 0:
                bad.append(("v0", "must be nonnegative"))
        if bad:
            raise SpecError(bad)

    @property
    def zeta(self) -> float:
        return self.a_phase if self.a_phase is not None else 0.0

    def is_real(self) -> bool:
        if complex(self.lam).imag != 0.0:
            return False
        return self.tau == 1 or self.a_phase == 0.0

    def damping(self, radius: np.ndarray) -> np.ndarray:
        """Damping coefficient per node (tau=1 forms)."""
        if self.a0 is not None:
            return self.a0 * (1.0 + radius**2) ** (-self.alpha / 2.0)
        return self.v0 / radius


@dataclass(frozen=True)
class GridSpec:
    """Truncated computational domain.

    ``extent`` is the full length for the line and the outer radius
    otherwise; ``num_points`` counts nodes along the line/radius including
    Dirichlet boundaries.  ``dim`` is the radial grid's N, at least 2; the
    other geometries take no ``dim``.  Radial grids drop the origin node when
    ``include_origin`` is false (Dirichlet cones, singular damping).
    """

    geometry: str
    extent: float
    num_points: int
    dim: int = 1
    omega: float | None = None
    num_angles: int = 0
    include_origin: bool = True

    def __post_init__(self):
        bad = []
        if self.geometry not in GEOMETRIES:
            bad.append(("geometry", f"unknown geometry {self.geometry!r}"))
        if not self.extent > 0:
            bad.append(("extent", "must be positive"))
        if self.num_points < 8:
            bad.append(("num_points", "need at least 8 nodes"))
        if self.geometry == "radial" and self.dim < 2:
            bad.append(("dim", "radial requires N>=2 (N=1 is the line or the half-line)"))
        if self.geometry == "polar-sector":
            if self.omega is None or not 0.0 < self.omega <= 2.0 * math.pi:
                bad.append(("omega", "polar sector needs an opening angle in (0, 2*pi]"))
            if self.num_angles < 6:
                bad.append(("num_angles", "polar sector needs at least 6 angular nodes"))
        homes = {"dim": "radial", "include_origin": "radial"}
        homes.update(omega="polar-sector", num_angles="polar-sector")
        bad.extend(foreign_fields(self, self.geometry, homes))
        if bad:
            raise SpecError(bad)


@dataclass(frozen=True)
class _FoldedLine:
    """The key of a centred line's folded record (see ``_GridData``)."""

    line: GridSpec


class _GridData:
    """The geometry record of one grid spec: mesh arrays and operators.

    The constructor is the one place that reads ``spec.geometry``; the
    operators, the initial data, the weight and the run read these fields:

    - ``h``, ``coords``, ``radius``, ``vol`` and ``shape`` (plus ``h_theta``
      on the polar sector);
    - ``evolved``, the index of the unknowns (radius by angle on the sector);
    - ``truncation_adjacent``, the nodes next to the wall that truncates the
      domain (both ends of the line, the outer radius, the outer arc);
    - ``origin_wall``, whether the origin is a Dirichlet wall (a wall node on
      the half line, a ghost node off the radial and polar grids), and
      ``support_limit``, the distance from the centre within which the
      initial data must lie;
    - ``axis_radius``, the radii of the evolved nodes along the radial axis
      (None on the line and half line, which have no first-order term);
    - ``signed_radius`` and ``angular``: the initial bump is
      B((signed_radius - center) / width) * angular**2 and the harmonic
      weight is radius**gamma * angular, where ``angular`` is the
      cross-section profile (1.0 on the line, half line and radial grids);
    - ``cross_section``, the :class:`CrossSectionSpec` of the cone (on a
      radial grid the full sphere of its N >= 2);
    - ``folded``, whether the record is a line's folded half.

    The key ``_FoldedLine(spec)`` of a line with an odd ``num_points`` gives
    its folded record: the line's own first (n+1)/2 nodes, from the left
    wall to the node at x = 0, which is the last row.  An even field, which
    a run of a bump centred at 0 keeps, needs only these: the x = 0 row
    reflects, 2 (u[-2] - u[-1]) / h^2, and the field on the full line is
    ``concatenate((u, u[-2::-1]))``.  Every other field is the line's own,
    cut to the half; ``spec`` is the line's.
    """

    def __init__(self, spec: GridSpec | _FoldedLine):
        self.folded = isinstance(spec, _FoldedLine)
        spec = spec.line if self.folded else spec
        self.spec = spec
        self._factors = {}  # the factors of two implicit matrices by key, see ``_factors_for``
        self._rung = None  # the rung the last step bound, see ``rung``
        self._power_of = None  # a weak reference to the state whose |u|^2 ``real_work`` holds
        self._damping = None  # (coeff, a(x)) of the last damped-wave coefficients, see below
        g, n = spec.geometry, spec.num_points
        if g == "polar-sector":
            na = spec.num_angles
            self.h = spec.extent / n
            self.h_theta = spec.omega / (na - 1)
            r_nodes = self.h * np.arange(1, n + 1)
            rr, th = np.meshgrid(r_nodes, self.h_theta * np.arange(na), indexing="ij")
            self.coords = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=-1)
            self.radius = self.signed_radius = rr
            self.vol = rr * self.h * self.h_theta
            self.shape = (n, na)
            self.evolved = np.s_[:-1, 1:-1]  # the arc and the two rays are walls
            self.truncation_adjacent = -2  # the row next to the arc
            self.origin_wall = True
            self.support_limit = spec.extent
            self.axis_radius = r_nodes[:-1]
            self.angular = SectorProfile(spec.omega)(self.coords)
            self.angular[:, 0] = self.angular[:, -1] = 0.0
            self.cross_section = CrossSectionSpec("planar-sector", 2, omega=spec.omega)
            k = np.arange(1, na - 1)  # the interior angles' sine modes; ``sine`` is its own inverse
            self.sine = math.sqrt(2.0 / (na - 1)) * np.sin(math.pi * np.outer(k, k) / (na - 1))
            self.mu = -((2.0 / self.h_theta) * np.sin(0.5 * math.pi * k / (na - 1))) ** 2
            return
        # one-dimensional grids: the branches below override these defaults
        self.sine = None
        self.shape = (n,)
        self.angular = 1.0
        self.support_limit = spec.extent
        self.axis_radius = None
        if g == "radial":
            self.origin_wall = not spec.include_origin
            if spec.include_origin:
                self.h = spec.extent / (n - 1)
                self.coords = np.linspace(0.0, spec.extent, n)
            else:
                self.h = spec.extent / n
                self.coords = self.h * np.arange(1, n + 1)
            self.radius = self.coords.copy()
            self.axis_radius = self.radius[:-1]
            self.evolved = slice(0, -1)
            self.truncation_adjacent = -2
            area = 2.0 * math.pi ** (spec.dim / 2.0) / math.gamma(spec.dim / 2.0)
            self.vol = area * self.radius ** (spec.dim - 1) * self.h
            self.cross_section = CrossSectionSpec("full-sphere", spec.dim)
        else:  # the line and the half line: walls at both ends
            self.h = spec.extent / (n - 1)
            self.evolved = slice(1, -1)
            self.vol = np.full(n, self.h)
            if g == "line":
                self.origin_wall = False
                self.support_limit = spec.extent / 2
                self.coords = np.linspace(-spec.extent / 2, spec.extent / 2, n)
                self.radius = np.abs(self.coords)
                self.truncation_adjacent = np.array([1, n - 2])
                self.cross_section = CrossSectionSpec("full-line", 1)
            else:
                self.origin_wall = True
                self.coords = np.linspace(0.0, spec.extent, n)
                self.radius = self.coords.copy()
                self.truncation_adjacent = -2
                self.cross_section = CrossSectionSpec("half-line", 1)
        self.signed_radius = self.coords
        if self.folded:  # rows 0..(n-1)/2 of the line: its left wall, then x = 0 last
            k = n // 2 + 1
            self.shape = (k,)
            self.coords = self.signed_radius = self.coords[:k]
            self.radius, self.vol = self.radius[:k], self.vol[:k]
            self.evolved = slice(1, None)
            self.truncation_adjacent = 1

    # -- Laplacian -----------------------------------------------------

    def laplacian(
        self, u: np.ndarray, lo: int = 0, hi: int | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Second-order Laplacian on rows [lo, hi) of ``u`` (every row by default),
        walls zeroed; on the sector the radial stencil runs each ray.  Row i reads
        rows i-1, i and i+1, and its value does not depend on the range asked for.
        ``out``, an array of those rows in u's dtype, receives it in place of a new one."""
        n = u.shape[0]
        hi = n if hi is None else hi
        h2 = self.h * self.h
        if out is None:
            out = np.empty((hi - lo,) + u.shape[1:], dtype=u.dtype)
        # (u[i-1] - 2.0 * u[i] + u[i+1]) * (1.0 / h2) in place, operation for operation
        i0, i1 = max(lo, 1), min(hi, n - 1)  # the rows with two neighbours
        if lo < i0:
            out[: i0 - lo] = 0.0  # row 0: a wall, or the origin row set below
        if i1 < hi:  # row n-1: a wall, or the folded line's x = 0, reflecting
            out[i1 - lo :] = (u[-2] - u[-1]) * (2.0 / h2) if self.folded else 0.0
        inner = out[i0 - lo : i1 - lo]
        np.multiply(u[i0:i1], 2.0, out=inner)
        np.subtract(u[i0 - 1 : i1 - 1], inner, out=inner)
        inner += u[i0 + 1 : i1 + 1]
        inner *= 1.0 / h2
        r = self.axis_radius
        if r is None:
            return out
        r = r[:, None] if u.ndim == 2 else r
        dim = self.cross_section.dim
        inner += ((dim - 1) / r[i0:i1]) * (u[i0 + 1 : i1 + 1] - u[i0 - 1 : i1 - 1]) / (2.0 * self.h)
        if lo == 0:
            if self.origin_wall:
                out[0] = (-2.0 * u[0] + u[1]) / h2 + ((dim - 1) / r[0]) * u[1] / (2.0 * self.h)
            else:  # the origin node, where symmetry gives u_r = 0
                out[0] = 2.0 * dim * (u[1] - u[0]) / h2
        if u.ndim == 2:  # the polar sector's u_tt / r^2 below the arc, then the rays are zeroed
            ang = u[lo:i1, :-2] - 2.0 * u[lo:i1, 1:-1] + u[lo:i1, 2:]
            out[: i1 - lo, 1:-1] += ang / (self.h_theta * r[lo:i1]) ** 2
            out[:, 0] = out[:, -1] = 0.0
        return out

    def damping_diagonal(self, coeff: CoefficientSpec, dt: float):
        """D = 1 + (dt/2) a(x) of a damped-wave step on the grid's nodes: a
        float when a(x) is the same at every node.  a(x) is evaluated once per
        ``coeff``; a run's steps read D off their rung (``_Rung``), which
        computes it once per rung."""
        if self._damping is None or self._damping[0] != coeff:
            a = coeff.damping(self.radius)
            self._damping = coeff, float(a.flat[0]) if np.all(a == a.flat[0]) else a
        return 1.0 + 0.5 * dt * self._damping[1]

    @cached_property
    def real_work(self) -> np.ndarray:
        """A real array of the grid's shape that a step writes |u|^p and
        |u_new|^2 into, and the real solve its flush; its values mean
        nothing between steps, except |u|^2 for the state ``_power_of`` names."""
        return np.empty(self.shape)

    @cached_property
    def complex_work(self) -> np.ndarray:
        """A complex array of the grid's shape for a complex step's predictor
        and source, and the complex solve's flush."""
        return np.empty(self.shape, complex)

    @cached_property
    def flags(self) -> np.ndarray:
        """A flat bool array, one flag per node, that the real solve's flush
        marks the negligible parts in."""
        return np.empty(self.real_work.size, bool)

    # -- implicit machinery ----------------------------------------------

    @cached_property
    def _banded_diagonals(self):
        """(lower, diag, upper) of the Laplacian along the radial (or line)
        axis, per evolved node: u'' + ((N-1)/r) u', with the symmetric row
        2N (u_1 - u_0) / h^2 at an origin node.  ``lower[0]`` and
        ``upper[-1]`` couple to a wall or the origin and enter no matrix.
        The folded line's x = 0 row is halved, (u_{-2} - u_{-1}) / h^2, which
        makes the bands symmetric; the solve halves that row's identity and
        right-hand side with it.  On the polar sector each sine mode k adds
        mu_k / r^2 to the diagonal, and the modes lie end to end, mode-major,
        with zero couplings: one system.  Built once per grid: callers must
        not write into them."""
        h2 = self.h * self.h
        r = self.axis_radius
        if r is None:
            m = self.coords[self.evolved].size
            lower, diag, upper = np.full(m, 1.0 / h2), np.full(m, -2.0 / h2), np.full(m, 1.0 / h2)
            if self.folded:
                diag[-1] = -1.0 / h2
            return lower, diag, upper
        dim = self.cross_section.dim
        fac = (dim - 1) / (2.0 * self.h)
        diag = np.full(r.size, -2.0 / h2)
        lower = np.zeros(r.size)
        upper = np.zeros(r.size)
        lower[1:] = 1.0 / h2 - fac / r[1:]
        upper[1:] = 1.0 / h2 + fac / r[1:]
        if self.origin_wall:
            upper[0] = 1.0 / h2 + fac / r[0]
        else:
            diag[0] = -2.0 * dim / h2
            upper[0] = 2.0 * dim / h2
        if self.sine is not None:  # the sine modes end to end, uncoupled
            lower, upper = np.tile(lower, self.mu.size), np.tile(upper, self.mu.size)
            lower[:: r.size] = upper[r.size - 1 :: r.size] = 0.0
            diag = (diag + self.mu[:, None] / r**2).reshape(-1)
        return lower, diag, upper

    @cached_property
    def _unpivoted(self) -> tuple:
        """1, 2, ..., m for the m rows of the implicit matrix, and m - 2 complex
        zeros: the ``ipiv`` and the ``du2`` that every factor without pivots
        shares."""
        m = self._banded_diagonals[1].size
        return np.arange(1, m + 1, dtype=np.int32), np.zeros(m - 2, complex)

    def _factors_for(self, key: tuple) -> _TridiagonalLU:
        """The factors of D - (dt/2) * factor * Lap for ``key`` = (dt, factor,
        dtype, damped), with D = 1 when ``damped`` is None and the
        ``damping_diagonal`` of the tau=1 coefficients ``damped`` otherwise:
        one ``_TridiagonalLU`` of the bands, the polar sector's stacked sine
        modes included.  Two slots are kept: a key that one holds reuses it,
        and any other key drops the slot used longer ago and is factored
        afresh.  A run's step moves on a dyadic ladder and stays on each rung
        for many steps, so a step-doubling probe (one step of 2*dt) and the
        steps after it, whether the probe failed or passed, factor nothing
        new."""
        slots = self._factors  # key -> factors, the slot used longer ago first
        if key in slots:
            slots[key] = slots.pop(key)
            return slots[key]
        if len(slots) == 2:
            del slots[next(iter(slots))]
        dt, factor, dtype, damped = key
        ident = 1.0 if damped is None else self.damping_diagonal(damped, dt)
        if isinstance(ident, np.ndarray):  # one value per row, in the bands' order
            ident = ident[self.evolved].T.reshape(-1)
        lower, diag, upper = self._banded_diagonals
        if self.folded:  # the halved x = 0 row
            ident = np.full(diag.size, ident)
            ident[-1] *= 0.5
        coef, scratch = 0.5 * dt * factor, self._scratch(dtype)
        lu = _TridiagonalLU(lower, diag, upper, coef, ident, dtype, self._unpivoted, scratch)
        slots[key] = lu
        return lu

    def _scratch(self, dtype) -> tuple:
        """The flat arrays a solve's flush of ``dtype`` writes |part| and flags
        into: ``real_work`` and ``flags`` for a real solve, and for a complex one
        the parts of ``complex_work`` and the bytes of ``real_work``."""
        if dtype.kind == "f":
            return self.real_work.reshape(-1), self.flags
        return self.complex_work.view(np.float64).reshape(-1), self.real_work.view(bool).reshape(-1)

    def rung(self, coeff: CoefficientSpec, dt: float, kind: str) -> _Rung:
        """The rung of a step of ``coeff`` and ``dt`` from a field of dtype kind
        ``kind``: the one bound last when it is that rung, else a new one,
        bound now, in its place.  A run stays on one rung for many steps and
        leaves it only to halve, to probe, after a probe and for a last step
        shortened to land on t_max."""
        rung = self._rung
        if rung is None or rung.coeff is not coeff or rung.dt != dt or rung.kind != kind:
            rung = self._rung = _Rung(self, coeff, dt, kind)
        return rung

    def solve_implicit(
        self,
        factor: complex,
        dt: float,
        rhs: np.ndarray,
        rows: tuple | None = None,
        damped: CoefficientSpec | None = None,
    ) -> tuple[np.ndarray, int, int]:
        """Solve (D - (dt/2) * factor * Lap) x = rhs on evolved nodes, in place:
        D = 1 for Crank-Nicolson, and the damped wave's D = 1 + (dt/2) a(x)
        for the tau=1 coefficients ``damped``.

        ``rhs`` is a C-contiguous array of the grid's shape, complex when
        ``factor`` is, and +0.0 on the walls.  The solve runs in its dtype and
        overwrites its evolved nodes with x; it copies and promotes nothing,
        and writes no wall.  Returns x (``rhs`` itself) and the rows [lo, hi)
        outside which x is +0.0: the solve window on the 1-d grids, every row
        on the polar sector.  On the 1-d grids the solve writes only its
        window, outside which ``rhs`` holds +0.0.  ``rows`` = (a, b), when
        given, promises that ``rhs`` is zero outside rows [a, b), so the
        window is looked for there only; it is the same window.  The factors
        are the bound rung's (``rung``) when the key (dt, factor, dtype,
        damped) is its, and otherwise come from one of the grid's two slots
        (``_factors_for``).  The solve flushes through the grid's
        ``real_work`` and ``flags`` (real) or ``complex_work`` and
        ``real_work`` (complex): a real 1-d solve leaves |x| over its window
        in ``real_work[:hi - lo]``, where ``_flushed_peak`` reads max|x|.
        """
        self._power_of = None  # the real flush writes into ``real_work``
        key = (dt, factor, rhs.dtype, damped)
        rung = self._rung
        lu = rung.lu if rung is not None and rung.key == key else self._factors_for(key)
        if self.sine is not None:  # row k: sine mode k (Buzbee, Golub & Nielson, SINUM 7, 1970)
            coeffs = self.sine @ rhs[self.evolved].T
            lu.solve(coeffs.reshape(-1), 0, None)
            rhs[self.evolved] = (self.sine @ coeffs).T
            return rhs, 0, rhs.shape[0]
        first = self.evolved.start  # the row of the first evolved node
        b = rhs[self.evolved]
        if self.folded:  # the halved x = 0 row
            b[-1] *= 0.5
        lo, hi = rows or (first, None)
        start, stop = lu.solve(b, max(lo - first, 0), hi and hi - first)
        return rhs, first + start, first + stop


class _Rung:
    """The values each step of ``coeff`` at ``dt`` from fields of one dtype
    kind reads on one grid, bound once when a run moves onto the rung
    (``_GridData.rung``): the scalars at dt, the damped wave's D
    (``damping_diagonal``), and the solve's key and factors, which carry their
    LAPACK routine and flush scratch.  ``type`` is the step's dtype (a real
    field under complex Crank-Nicolson coefficients is promoted); ``flushed``
    marks a real step on a 1-d grid, whose peak comes off the solve's flush."""

    def __init__(self, data: _GridData, coeff: CoefficientSpec, dt: float, kind: str):
        self.coeff, self.dt, self.kind = coeff, dt, kind
        if coeff.tau == 0:  # u_t = ainv (Lap u + lam |u|^p)
            ainv, lam = complex(np.exp(-1j * coeff.zeta)), complex(coeff.lam)
            if coeff.zeta == 0.0 and lam.imag == 0.0 and kind == "f":
                ainv, lam = ainv.real, lam.real  # a real step
            self.factor, self.lam, self.type = ainv, lam, type(ainv)
            self.c_half = 0.5 * dt * ainv  # the predictor's and the diffusion's weight
            self.c_source = dt * ainv * lam
            damped = None
        else:  # the trapezoidal step's weights, see ``step_hyperbolic``
            self.type = float if kind == "f" else complex
            lam = coeff.lam if kind == "c" else coeff.lam.real
            self.factor = 0.5 * dt  # the solve's factor and the predictor's weight
            self.c_source = 0.5 * dt * dt * lam
            self.c_lap = 0.25 * dt * dt
            self.rate = 2.0 / dt
            self.den = data.damping_diagonal(coeff, dt)
            damped = coeff
        self.key = (dt, self.factor, np.dtype(self.type), damped)
        self.lu = data._factors_for(self.key)
        self.flushed = self.type is float and data.sine is None


@lru_cache(maxsize=64)
def _grid_data(spec: GridSpec | _FoldedLine) -> _GridData:
    return _GridData(spec)


def grid_coordinates(spec: GridSpec) -> np.ndarray:
    return _grid_data(spec).coords


def domain_for_grid(spec: GridSpec) -> ConeDomain:
    """The cone-like domain a grid geometry discretizes."""
    return make_domain(_grid_data(spec).cross_section)


def weight_values(spec: GridSpec) -> np.ndarray:
    """Harmonic weight Phi = radius**gamma * cross-section profile on the grid nodes."""
    data = _grid_data(spec)
    return data.radius ** domain_for_grid(spec).gamma * data.angular


@dataclass(frozen=True)
class InitialDataSpec:
    """Smooth compactly supported bump data u(0) = eps * f, u_t(0) = eps * g.

    ``amplitude`` (and ``g_amplitude`` for tau=1) set the complex direction
    of the bump; f(x) = amplitude * B((x-center)/width) with
    B(s) = exp(1 - 1/(1-s^2)).
    """

    center: float
    width: float
    epsilon: float
    amplitude: complex = 1.0 + 0.0j
    g_amplitude: complex = 0.0 + 0.0j

    def __post_init__(self):
        bad = []
        if not self.width > 0:
            bad.append(("width", "must be positive"))
        if not self.epsilon > 0:
            bad.append(("epsilon", "must be positive"))
        if bad:
            raise SpecError(bad)

    def support_radius(self) -> float:
        return abs(self.center) + self.width


def bump_profile(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    return bump_kernel(s * s)


def abs_power(
    u: np.ndarray, p: float, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """|u|^p without a float power at p=2 and 3; numpy squares at p=4.  ``out``,
    a real array of u's shape, receives it in place of a new one, to the same
    bits.  ``work``, another real array of that shape, receives the squares of
    a complex u's imaginary parts in place of a temporary; it may be
    ``u.imag`` itself when u is not read again."""
    if u.dtype.kind == "c":
        a2 = np.multiply(u.real, u.real, out=out)
        a2 += np.multiply(u.imag, u.imag, out=work)
    else:
        a2 = np.multiply(u, u, out=out)
    if p == 2.0:
        return a2
    if p == 3.0:
        return np.multiply(a2, np.sqrt(a2), out=a2)
    return np.power(a2, 0.5 * p, out=a2)


def max_abs(u: np.ndarray) -> float:
    """max|u|; non-finite when u holds a NaN or an infinity."""
    if u.dtype.kind == "c":
        return math.sqrt(float(np.max(u.real * u.real + u.imag * u.imag)))
    return float(max(u.max(), -u.min()))  # no |u| temporary; NaN propagates through both


@dataclass(frozen=True)
class EvolutionProblem:
    coeff: CoefficientSpec
    grid: GridSpec
    init: InitialDataSpec

    def __post_init__(self):
        bad = []
        data = _grid_data(self.grid)
        if self.init.support_radius() >= data.support_limit:
            bad.append(("init", "initial data support must lie strictly inside the domain"))
        if data.origin_wall and self.init.center - self.init.width <= 0.0:
            bad.append(("init", "initial data support must stay off the origin wall"))
        if not np.any(_bump(data, self.init)):
            bad.append(("init", "initial data support must hold a grid node"))
        # v0/|x| needs the origin to be a Dirichlet ghost off the grid (radial, polar)
        if self.coeff.v0 is not None and not (data.origin_wall and data.radius.min() > 0.0):
            bad.append(("grid", "singular damping needs a grid that excludes the origin"))
        if self.coeff.tau == 0 and self.init.g_amplitude != 0:
            bad.append(("init", "g_amplitude must be 0: only tau=1 takes an initial velocity"))
        if bad:
            raise SpecError(bad)


@dataclass
class FieldState:
    """The field at time t, with the step dt that continues it.

    ``v`` is the velocity u_t at t for tau=1 and None for tau=0.  ``peak`` is
    max|u| over [lo, hi), bitwise ``max_abs``'s value, as the step that made
    the state read it: off the |u| of its solve's flush for a real field on a
    1-d grid (``_flushed_peak``), otherwise off the |u|^2 it wrote
    (``_peak``).  It is None when max|u| is below 2^-511 or not a number, and
    on the initial state.  A state
    continues under the coefficients that made it; code that changes its
    ``u`` in place steps from a copy, since the next Crank-Nicolson step may
    take |u|^2 from the grid's ``real_work``.

    ``u`` is +0.0 outside the rows ``u[lo:hi]`` (every row by default) and
    on the walls, and for tau=1 so is ``v``.  ``initial_state`` sets the
    range from the bump's nonzero rows, and a step from its solve window
    (joined, for tau=1, with the rows the step computed).

    A step may write into the arrays of a *spare*: a state of the same
    scheme, the initial one included, on the same grid and dtype, that no
    one reads again.  A step writes into its ``u`` and, for tau=1, its
    ``v``.  The spare is void once lent: its arrays belong to the result.

    ``grid`` is a GridSpec, or the ``_FoldedLine`` of a centred line run,
    whose state holds the line's rows 0..(n-1)/2.
    """

    grid: GridSpec | _FoldedLine
    u: np.ndarray
    v: np.ndarray | None
    t: float
    dt: float
    lo: int = 0
    hi: int | None = None
    peak: float | None = None


def _bump(data: _GridData, init: InitialDataSpec) -> np.ndarray:
    """f, the initial bump before its amplitude and epsilon, on the grid nodes."""
    return bump_profile((data.signed_radius - init.center) / init.width) * data.angular**2


def initial_state(problem: EvolutionProblem, dt: float) -> FieldState:
    return _initial_state(problem, problem.grid, dt)


def _initial_state(problem: EvolutionProblem, grid: GridSpec | _FoldedLine, dt: float):
    """The initial state on ``grid``: the problem's, or its folded line."""
    init, coeff = problem.init, problem.coeff
    prof = _bump(_grid_data(grid), init)
    real = coeff.is_real() and init.amplitude.imag == 0 and init.g_amplitude.imag == 0
    dtype = float if real else complex
    amp = init.amplitude.real if real else init.amplitude
    # + 0.0 turns the -0.0 of a negative or complex amplitude into +0.0, as a step's zeros are
    u = (init.epsilon * amp * prof + 0.0).astype(dtype)
    v = None
    if coeff.tau == 1:
        g_amp = init.g_amplitude.real if real else init.g_amplitude
        v = (init.epsilon * g_amp * prof + 0.0).astype(dtype)
    rows = np.flatnonzero(prof.reshape(len(prof), -1).any(axis=1))
    return FieldState(grid=grid, u=u, v=v, t=0.0, dt=dt, lo=int(rows[0]), hi=int(rows[-1]) + 1)


def step_parabolic(
    state: FieldState, coeff: CoefficientSpec, dt: float, spare: FieldState | None = None
) -> FieldState:
    """One Crank-Nicolson step of u_t = a^{-1}(Lap u + lambda |u|^p).

    Diffusion carries weight 1/2 on both time levels; the source is frozen
    at an explicit half-step predictor.  u is +0.0 outside rows [lo, hi), so
    the right-hand side is +0.0 outside rows [lo-1, hi+1): only those rows
    are computed, with the bits the full grid gives them.  numpy rounds c*z
    and z*c differently for a complex scalar c, so the products with complex
    arrays fix their order (``half *= c``, ``np.multiply(c, lap)``): a row's
    bits depend neither on the grid size nor on the range.  The solve
    overwrites the right-hand side with the new field, leaving its zeros
    outside the window; they are +0.0, as c_half (of positive real part)
    times +0.0 is.  On the 1-d grids each part of the new field is +0.0 or
    at least 2^-511.  A real field under complex coefficients is promoted
    first, which gives the bits of promoting each product.

    The step allocates no array of its own when it has a spare: the
    Laplacian rows and then the right-hand side go into the spare's ``u``,
    |u|^p, the predictor's |half|^p and, on a real step, the predictor and
    the source go into the grid's ``real_work``, and on a complex step the
    predictor and the source into its ``complex_work``.  The result's
    ``peak`` comes off the solve's flush on a real 1-d step and off
    |u_new|^2 otherwise (see ``FieldState``).  At p = 2 the step leaves
    |u_new|^2 over [lo-1, hi+1) of the new range in ``real_work``, and the
    next step from that result takes |u|^2 from there, while no other step
    or solve on the grid has written there since.  The scalars, the solve's
    factor and the dtype come from the rung (``_GridData.rung``).

    ``spare`` lends its ``u`` as the right-hand side, cleared outside
    [lo-1, hi+1), so the solve writes the new field there.
    """
    if coeff.tau != 0:
        raise ValueError("parabolic step requires tau=0")
    data = _grid_data(state.grid)
    u = state.u
    rung = data.rung(coeff, dt, u.dtype.kind)
    dtype = rung.type
    if dtype is complex and rung.kind == "f":
        u = u.astype(complex)  # a real field under complex coefficients
    held, data._power_of = data._power_of, None
    n = u.shape[0]
    a, b = _reach(state.lo, state.hi, n)
    near = u[a:b]
    if spare is None:
        rhs = np.zeros(u.shape, dtype)
    else:
        rhs = spare.u
        if spare.lo < a or b < spare.hi:  # most often the spare's range lies inside [a, b)
            _clear_outside(spare, a, b)
    power = data.real_work[a:b]
    half = power if dtype is float else data.complex_work[a:b]
    imag = None if dtype is float else half.imag  # what abs_power may overwrite
    if coeff.p != 2.0 or held is None or held() is not state:
        abs_power(near, coeff.p, out=power, work=imag)
    lap = data.laplacian(u, a, b, out=rhs[a:b])
    _times(rung.lam, power, half)
    half += lap
    half *= rung.c_half
    half += near
    part = np.multiply(rung.c_half, lap, out=lap)
    part += near
    part += _times(rung.c_source, abs_power(half, coeff.p, out=power, work=imag), half)
    u_new, lo, hi = data.solve_implicit(rung.factor, dt, rhs, (a, b))
    result = FieldState(state.grid, u_new, None, state.t + dt, dt, lo, hi)
    a, b = _reach(lo, hi, n)
    if rung.flushed:
        result.peak = _flushed_peak(data, hi - lo)
        if coeff.p == 2.0:  # |u_new|^2 for the next step
            abs_power(u_new[a:b], 2.0, out=data.real_work[a:b])
    else:
        result.peak = _peak(data, u_new, a, b)
    if coeff.p == 2.0:
        data._power_of = weakref.ref(result)
    return result


def _times(c, x, half):
    """c * x into ``half``, which takes x first: numpy then needs no cast buffer."""
    if x is not half:
        np.copyto(half, x)
    return np.multiply(c, half, out=half)


def _flushed_peak(data: _GridData, n: int) -> float | None:
    """max|x| of a real solve of n rows on a 1-d grid, read off the |x| that
    its flush left in the grid's ``real_work[:n]``, when it is at least
    2^-511: the flush kept every such part, so it is max_abs's value.  None
    otherwise, NaN included."""
    top = float(np.maximum.reduce(data.real_work[:n]))
    return top if top >= _NEGLIGIBLE else None


def _peak(data: _GridData, u: np.ndarray, a: int, b: int) -> float | None:
    """max|u| over rows [a, b), read off the |u|^2 this writes into the grid's
    ``real_work`` there, when it is at least 2^-511: there sqrt(fl(x^2)) = |x|
    holds exactly, and a complex u's max_abs takes the same squares, so it is
    max_abs's value.  None otherwise, NaN included."""
    imag = None if u.dtype.kind == "f" else data.complex_work[a:b].imag
    square = abs_power(u[a:b], 2.0, out=data.real_work[a:b], work=imag)
    top = float(np.maximum.reduce(square, axis=None))
    return math.sqrt(top) if top >= _NEGLIGIBLE * _NEGLIGIBLE else None


def step_hyperbolic(
    state: FieldState, coeff: CoefficientSpec, dt: float, spare: FieldState | None = None
) -> FieldState:
    """One trapezoidal step of u_tt = Lap u + lambda |u|^p - a(x) u_t.

    The trapezoidal rule on (u, v), Newmark's average-acceleration scheme
    (Newmark, J. Eng. Mech. Div. ASCE 85, 1959), with the source frozen at
    the predictor u + (dt/2) v as in ``step_parabolic``.  With
    D = 1 + (dt/2) a(x) it solves

        (D - (dt^2/4) Lap) u' = D u + dt v + (dt^2/4) Lap u
                                + (dt^2/2) lambda |u + (dt/2) v|^p

    and sets v' = (2/dt) (u' - u) - v.  The step is second order and stable
    at any dt: undamped and linear, it conserves |v|^2 - <u, Lap u>.

    u and v are +0.0 outside rows [lo, hi), so the right-hand side is +0.0
    outside [lo-1, hi+1): only those rows are computed, with the bits the full
    grid gives them, and the solve window holds every nonzero row of u'.  v'
    is computed on the union of the two ranges, which is the result's range.

    ``spare`` lends its ``u`` as the right-hand side, which the solve
    overwrites with u', and its ``v`` for v' and the terms D u and dt v; the
    rows of its range outside [lo-1, hi+1) are set to +0.0.  The predictor
    and its |.|^p go into the grid's ``real_work`` (and ``complex_work`` for
    a complex field), so a step with a spare allocates no array.  The step
    sets the result's ``peak`` as ``step_parabolic`` does, and takes its
    scalars and D from the rung (``_GridData.rung``).
    """
    if coeff.tau != 1:
        raise ValueError("hyperbolic step requires tau=1")
    data = _grid_data(state.grid)
    u, v = state.u, state.v
    rung = data.rung(coeff, dt, u.dtype.kind)
    a, b = _reach(state.lo, state.hi, u.shape[0])
    if spare is None:
        rhs, v_new = np.zeros(u.shape, u.dtype), np.zeros(u.shape, u.dtype)
    else:
        rhs, v_new = spare.u, spare.v
        if spare.lo < a or b < spare.hi:  # most often the spare's range lies inside [a, b)
            _clear_outside(spare, a, b)
    near, vel, term = u[a:b], v[a:b], v_new[a:b]
    den = rung.den
    if isinstance(den, np.ndarray):
        den = den[a:b]
    power = data.real_work[a:b]
    half = power if rung.type is float else data.complex_work[a:b]
    np.multiply(rung.factor, vel, out=half)  # (dt/2) v
    half += near
    abs_power(half, coeff.p, out=power, work=None if half is power else half.imag)
    if half is not power:
        np.copyto(half, power)
    source = np.multiply(rung.c_source, half, out=half)
    lap = data.laplacian(u, a, b, out=rhs[a:b])
    lap *= rung.c_lap
    lap += np.multiply(den, near, out=term)
    lap += np.multiply(dt, vel, out=term)
    lap += source
    u_new, lo, hi = data.solve_implicit(rung.factor, dt, rhs, (a, b), coeff)
    peak = _flushed_peak(data, hi - lo) if rung.flushed else _peak(data, u_new, lo, hi)
    lo, hi = min(lo, a), max(hi, b)
    rows = np.subtract(u_new[lo:hi], u[lo:hi], out=v_new[lo:hi])
    rows *= rung.rate
    rows -= v[lo:hi]
    return FieldState(state.grid, u_new, v_new, state.t + dt, dt, lo, hi, peak)


def _reach(lo: int, hi: int | None, n: int) -> tuple[int, int]:
    """The rows [lo-1, hi+1) within [0, n): what a three-point stencil reaches from [lo, hi)."""
    return max(lo - 1, 0), n if hi is None else min(hi + 1, n)


def _clear_outside(spare: FieldState, a: int, b: int) -> None:
    """Set the rows of the spare's range outside [a, b) to +0.0 in each of its arrays."""
    for arr in (spare.u, spare.v):
        if arr is not None:
            arr[spare.lo : a] = arr[b : spare.hi] = 0.0


@dataclass(frozen=True)
class RunControls:
    """Blowup-run policy: the verdict threshold, horizons and the step control.

    The threshold must be one of ``RECORD_THRESHOLDS``, the crossings that
    every run records.  The step takes only the values ``dt_init * 2^k``
    (``dt_init`` defaults to h^2 for tau=0 and h/2 for tau=1): it halves when
    a step grows max|u| by more than 20% or turns non-finite, and doubles
    when a step-doubling probe finds the local error within 1e-5 relative to
    max|u| (and for tau=1 max|v|); no stability limit caps it.  ``max_steps``
    bounds the accepted steps; rejected (halved) attempts and probes do not
    count against it.
    """

    threshold: float = 1e6
    t_max: float = 1e3
    dt_init: float | None = None
    snapshot_dt: float = 0.0
    max_steps: int = 50_000_000

    def __post_init__(self):
        bad = []
        if self.threshold not in RECORD_THRESHOLDS:
            bad.append(("threshold", f"must be one of {', '.join(THRESHOLD_NAMES)}"))
        if not self.t_max > 0:
            bad.append(("t_max", "must be positive"))
        if self.dt_init is not None and not self.dt_init > 0:
            bad.append(("dt_init", "must be positive"))
        if not self.snapshot_dt >= 0:
            bad.append(("snapshot_dt", "must be non-negative"))
        if not self.max_steps > 0:
            bad.append(("max_steps", "must be positive"))
        if bad:
            raise SpecError(bad)


@dataclass
class BlowupRecord:
    epsilon: float
    p: float
    tau: int
    alpha: float
    zeta: float
    status: str  # blowup | survived | stalled | fault
    t_at_thresholds: tuple  # crossing time of each RECORD_THRESHOLDS entry, NaN if none
    t_extrapolated: float
    dt_final: float
    h: float
    steps: int  # NaN in a fault row
    t_final: float
    boundary_max: float
    reason: str | None = None  # why a fault row has no result; not a CSV column


def _record(problem: EvolutionProblem, **run) -> BlowupRecord:
    """A record of ``problem``: the fields the problem fixes, and the run's results by keyword."""
    c, h = problem.coeff, _grid_data(problem.grid).h
    return BlowupRecord(problem.init.epsilon, c.p, c.tau, c.alpha, c.zeta, h=h, **run)


def fault_record(problem: EvolutionProblem, reason: str) -> BlowupRecord:
    """The record of a run that raised ``RuntimeError``: status ``fault``,
    no crossings and NaN in every run result."""
    nan = math.nan
    return _record(
        problem, status="fault", t_at_thresholds=(nan,) * len(RECORD_THRESHOLDS),
        t_extrapolated=nan, dt_final=nan, steps=nan, t_final=nan, boundary_max=nan, reason=reason,
    )


class SnapshotStore:
    """A run observer that keeps the time and a copy of each snapshot: every
    node at ``stride`` 1, otherwise every ``stride``-th node of the field
    flattened in row-major order.  It copies because the run's array is valid
    only during the call.  It is the one observer whose memory grows with the
    run, so a run keeps its history only when the caller passes one."""

    def __init__(self, stride: int = 1):
        self.stride = stride
        self.times: list = []
        self.fields: list = []

    def __call__(self, t: float, u: np.ndarray) -> None:
        self.times.append(t)
        self.fields.append(u.copy() if self.stride == 1 else u.reshape(-1)[:: self.stride].copy())


@dataclass
class RunResult:
    problem: EvolutionProblem
    record: BlowupRecord
    snapshot_times: list
    snapshots: list


def extrapolate_lifespan(thresholds, crossings, rate: float) -> tuple[float, float]:
    """(T_inf, c) of the least-squares fit T_M = T_inf - c * M^-rate over the
    recorded crossings; one crossing gives (T_M, NaN) and none NaN for both.

    The fit is exact for the equation a run follows near its blowup.  A
    tau=0 run follows u' = lambda u^p: rate p - 1 and c = 1/((p-1) |lambda|).
    A damped wave follows u'' = lambda u^p, since the damping is of lower
    order there: rate (p - 1)/2 and c = sqrt((p+1)/(2 lambda)) * 2/(p-1),
    sqrt(6) at p = 2 and lambda = 1."""
    pts = [(m, t) for m, t in zip(thresholds, crossings) if math.isfinite(t)]
    if not pts:
        return math.nan, math.nan
    if len(pts) == 1:
        return pts[0][1], math.nan
    x = np.array([m ** (-rate) for m, _ in pts])
    t = np.array([t for _, t in pts])
    design = np.stack([np.ones_like(x), -x], axis=1)
    sol, *_ = np.linalg.lstsq(design, t, rcond=None)
    return float(sol[0]), float(sol[1])


def run_until_blowup(
    problem: EvolutionProblem, controls: RunControls, observers=()
) -> RunResult:
    """Integrate until max|u| crosses the blowup threshold, the horizon is
    reached, or the adaptive step collapses.

    A start with max|u(0)| at or above the threshold is a blowup at t = 0
    with no step, and every recorded threshold the start reaches is crossed
    at t = 0.  The step moves on the dyadic ladder ``dt_init * 2^k``.  It is
    halved whenever one step would grow max|u| by more than 20% or produce
    non-finite values; the run stalls once the halved step would fall below
    ``1e-3 * threshold^(1-p)``, the step the growth rule needs right at the
    blowup threshold, or underflow to 0 (the floor itself underflows at
    large p).  Overflow in a trial step or a probe raises no warning: the
    halving rule is what handles it.  Once two steps have been accepted at
    the current dt, a probe takes one step of 2*dt from the state two steps
    back; if it lands within ``_RTOL * max|u|`` of the state the two steps
    reached (and, for tau=1, its velocity within ``_RTOL * max|v|``), later
    steps use 2*dt and the wait before the next probe is back to 2 steps;
    otherwise the wait doubles, up to 32 steps, for every run.  The probe
    result is discarded, so the trajectory is made of ordinary steps only.
    Both steps are stable at any dt, so the only cap on a probe is
    min(snapshot_dt when positive, t_max), and a halving lowers the cap to
    the halved step: from then on the growth limit, not the local error,
    bounds dt, so a run whose first halving comes early keeps the halved
    step through any later quiet phase.  The crossing times of every
    ``RECORD_THRESHOLDS`` entry are recorded by log-linear interpolation and
    extrapolated to the lifespan estimate at the equation's blowup rate
    (``extrapolate_lifespan``); as the thresholds ascend, an accepted step
    is compared with the next one not yet crossed only.

    A line with an odd node count and the bump centred at 0 is stepped on
    its folded half (``_stepped_grid``): the field stays even, and observers,
    the result and the record see the full line, unfolded.

    ``observers`` say what the run keeps.  Each is called as ``obs(t, u)``
    on every recorded snapshot: t = 0, each ``snapshot_dt`` crossing and the
    final field; ``u`` is the run's own array, or on a folded run the one
    line array it unfolds each snapshot into, and must not be changed.  It
    is valid only during the call: a later step writes into the arrays of
    states the run has retired (it keeps two, and while a probe may follow
    a trial leaves one for it), so an observer copies what it keeps
    (:class:`SnapshotStore` does; :class:`TraceAccumulator` keeps only
    sums).  No observer changes the trajectory; one that changed ``u`` would
    also void the |u|^2 that the next Crank-Nicolson step takes from the
    grid's ``real_work``.  The result holds the times and fields of the first
    ``SnapshotStore`` among the observers; without one, as by default, it
    holds only a copy of the first field and the final one, so a run's
    memory does not grow with its length, and ``snapshot_dt`` still caps the
    step, so the record is the same.  The growth test takes max|u| from a
    step's ``peak`` (see ``FieldState``) and calls ``max_abs`` only when a
    step has none; a probe is compared over the union of the two fields'
    ranges.  A step and its probe's 2*dt are two rungs, each bound once on
    entry (``_GridData.rung``); the factors and the bound rung go when the
    run ends.  The ``-v`` DEBUG line reports these counts, the stepper calls
    (trials and probes) and the run's ``perf_counter`` wall time per call,
    which goes into no output file.
    """
    clock = time.perf_counter()
    coeff = problem.coeff
    grid = _stepped_grid(problem)
    data = _grid_data(grid)
    dt0, dt_cap = controls.dt_init, controls.t_max
    if dt0 is None:
        dt0 = 0.5 * data.h if coeff.tau == 1 else data.h * data.h
    if controls.snapshot_dt > 0:
        dt_cap = min(dt_cap, controls.snapshot_dt)
    state = _initial_state(problem, grid, dt0)
    # a folded run unfolds each field that observers or the result see into one line array
    line = np.empty(problem.grid.num_points, state.u.dtype) if data.folded else None

    def seen(u):  # the field on the problem's grid
        return u if line is None else np.concatenate((u, u[-2::-1]), out=line)

    stepper = step_hyperbolic if coeff.tau == 1 else step_parabolic
    spares = []  # up to two retired states, whose arrays the next steps write into

    def retire(old):  # a state the run holds no more
        if old is not None and len(spares) < 2:
            spares.append(old)

    def spare(keep=0):
        return spares.pop() if len(spares) > keep else None

    observers = tuple(observers)
    store = next((obs for obs in observers if isinstance(obs, SnapshotStore)), None)
    caller_errors = np.geterr()

    def observe(t, u):
        if observers:
            u = seen(u)
            with np.errstate(**caller_errors):
                for obs in observers:
                    obs(t, u)

    first = seen(state.u).copy() if store is None else None  # a store keeps its own copy
    observe(0.0, state.u)
    observed = 0.0  # the time of the last snapshot
    next_snap = controls.snapshot_dt if controls.snapshot_dt > 0 else math.inf

    dt_floor = 1e-3 * controls.threshold ** (1.0 - coeff.p)
    steps = halvings = passed = failed = calls = 0
    dt_lo = dt_hi = dt0
    back1 = None  # the accepted state one step back
    run = 0  # accepted steps since the last probe
    wait = 2  # accepted steps before the next probe
    # the halving rule handles a field that overflows; observers keep the caller's rules
    with np.errstate(over="ignore", invalid="ignore"):
        m_prev = max_abs(state.u)
        crossings = [0.0 if m_prev >= mth else math.nan for mth in RECORD_THRESHOLDS]
        crossed = sum(not math.isnan(t) for t in crossings)  # the thresholds are ascending
        marks = RECORD_THRESHOLDS + (math.inf,)  # marks[crossed]: the next one to cross
        status = "blowup" if m_prev >= controls.threshold else None
        while status is None:
            if state.t >= controls.t_max:
                status = "survived"
                break
            if steps >= controls.max_steps:
                raise RuntimeError("step budget exhausted before a verdict was reached")
            dt = state.dt
            # while a probe may follow, the trial leaves it a spare
            keep = 1 if 2.0 * dt <= dt_cap else 0
            trial = stepper(state, coeff, min(dt, controls.t_max - state.t + 1e-15), spare(keep))
            calls += 1
            m_new = trial.peak
            if m_new is None:
                m_new = max_abs(trial.u[trial.lo : trial.hi])
            if not math.isfinite(m_new) or (
                m_prev > 0 and m_new > (1.0 + _GROWTH_LIMIT) * m_prev
            ):
                halved = dt / 2.0
                if halved == 0.0 or halved < dt_floor:
                    status = "stalled"
                    break
                # the growth limit now bounds the step: no probe climbs back
                dt_cap = state.dt = halved
                dt_lo = min(dt_lo, state.dt)
                halvings += 1
                retire(trial)
                continue
            steps += 1
            while m_new >= marks[crossed]:
                mth = marks[crossed]
                if m_prev > 0 and m_new > m_prev:
                    frac = (math.log(mth) - math.log(m_prev)) / (math.log(m_new) - math.log(m_prev))
                    frac = min(max(frac, 0.0), 1.0)
                else:
                    frac = 1.0
                crossings[crossed] = state.t + frac * (trial.t - state.t)
                crossed += 1
            back2, back1, state = back1, state, trial
            m_prev = m_new
            if state.t >= next_snap:
                observe(state.t, state.u)
                observed = state.t
                next_snap += controls.snapshot_dt
            if m_new >= controls.threshold:
                status = "blowup"
                break
            run += 1
            # a step shortened to land on t_max ends the run: it is not probed
            big = None
            if run >= wait and trial.dt == dt and 2.0 * dt <= dt_cap:
                big = stepper(back2, coeff, 2.0 * dt, spare())
                calls += 1
                # both fields are +0.0 outside the union of their ranges; each
                # comparison is False for a non-finite probe
                lo, hi = min(big.lo, state.lo), max(big.hi, state.hi)
                ok = max_abs(big.u[lo:hi] - state.u[lo:hi]) <= _RTOL * m_new
                if ok and coeff.tau == 1:
                    v = state.v[lo:hi]
                    ok = max_abs(big.v[lo:hi] - v) <= _RTOL * max_abs(v)
                run = 0
                if ok:
                    state.dt = 2.0 * dt
                    dt_hi = max(dt_hi, state.dt)
                    passed += 1
                    wait = 2
                else:
                    failed += 1
                    wait = min(2 * wait, 32)
            # the next probe starts from back1: back2 and the probe result are retired
            retire(back2)
            retire(big)

    # the next run starts on its own rungs: a finished run leaves no factors in the grid cache
    data._factors.clear()
    data._rung = None
    logger.debug(
        "eps %r: %s at t %r; %d steps accepted, %d halvings, probes %d passed / %d failed, "
        "dt %r..%r; %d stepper calls, %.1f us of run per call",
        problem.init.epsilon, status, state.t, steps, halvings, passed, failed, dt_lo, dt_hi,
        calls, 1e6 * (time.perf_counter() - clock) / max(calls, 1),
    )
    if observed != state.t:
        observe(state.t, state.u)
    if store is not None:
        snap_times, snaps = store.times, store.fields
    else:  # the run's end points only
        snap_times, snaps = [0.0], [first]
        if state.t != 0.0:
            snap_times.append(state.t)
            snaps.append(seen(state.u))

    boundary = float(np.max(np.abs(state.u[data.truncation_adjacent])))
    t_ext = math.nan
    if status == "blowup":
        rate = (coeff.p - 1.0) / (1 + coeff.tau)  # u' = u^p, or u'' = u^p for a wave
        t_ext, _ = extrapolate_lifespan(RECORD_THRESHOLDS, crossings, rate)
    record = _record(
        problem, status=status, t_at_thresholds=tuple(crossings), t_extrapolated=t_ext,
        dt_final=state.dt, steps=steps, t_final=state.t, boundary_max=boundary,
    )
    return RunResult(problem=problem, record=record, snapshot_times=snap_times, snapshots=snaps)


def _stepped_grid(problem: EvolutionProblem) -> GridSpec | _FoldedLine:
    """The grid a run steps: the folded line of a line with an odd node count
    and the bump centred at 0, whose field stays even, or the problem's grid."""
    grid = problem.grid
    if grid.geometry == "line" and problem.init.center == 0.0 and grid.num_points % 2:
        return _FoldedLine(grid)
    return grid


def weighted_initial_mass(problem: EvolutionProblem) -> float:
    """The positive initial-mass lower bound delta fed to the criterion.

    tau=0: eps * |lambda^{-1} integral(f Phi)| (the rotated projection the
    weak formulation extracts).  tau=1: eps * integral((g + a f) Phi).
    """
    grid, init, coeff = problem.grid, problem.init, problem.coeff
    if coeff.tau == 0 and coeff.lam == 0:
        raise ValueError("lambda: the tau=0 initial mass divides by lambda, which is 0")
    data = _grid_data(grid)
    phi = weight_values(grid)
    prof = _bump(data, init)
    f_int = complex(np.sum(init.amplitude * prof * phi * data.vol))
    if coeff.tau == 0:
        return init.epsilon * abs(f_int / coeff.lam)
    a_vals = coeff.damping(data.radius)
    g_int = complex(np.sum(init.g_amplitude * prof * phi * data.vol))
    af_int = complex(np.sum(init.amplitude * prof * a_vals * phi * data.vol))
    return init.epsilon * float((g_int + af_int).real)


def first_admissible_radius(init: InitialDataSpec, alpha: float) -> float:
    """Smallest R with psi_R = 1 on the data support at t=0."""
    return 2.0 * (1.0 + init.support_radius() ** 2) ** ((2.0 - alpha) / 2.0)


class TraceAccumulator:
    """Space-time cutoff masses of w = |u|^p * Phi, one snapshot at a time.

    Called as ``acc(t, u)`` on each snapshot in time order, it keeps t and
    the snapshot's column: the grid quadratures of w * psi* and w * psi at
    each radius.  A run feeds it as an observer, so the trace costs no
    stored field.  :meth:`finish` integrates the columns in time.  The
    cutoff is the run's own: power 2p' and s = (<x>^(2-alpha) + t) / R with
    the problem's p and alpha.

    Every cutoff is 0 where s >= 1, so a column evaluates and sums only the
    nodes with <x>^(2-alpha) + t below the largest radius, in grid order.
    That set shrinks as t grows, so each call looks only at the nodes the
    call before kept, and the snapshots must come in time order.
    """

    def __init__(self, problem: EvolutionProblem, radii):
        data = _grid_data(problem.grid)
        coeff = problem.coeff
        self.fam = CutoffFamily(R=1.0, p=coeff.p, alpha=coeff.alpha)  # psi_of_s reads no R
        self.radii = np.asarray(radii, dtype=float)
        self.r_max = float(np.max(self.radii))
        bp = bracket_power(data.radius[..., None], coeff.alpha).reshape(-1)
        # the nodes in the largest support at the last t seen (t = 0 at first), as
        # flat indices in grid order, with their <x>^(2-alpha) and weighted volume
        self.near = np.flatnonzero(bp < self.r_max)
        self.bp = bp[self.near]
        self.wvol = (weight_values(problem.grid) * data.vol).reshape(-1)[self.near]
        self.times: list = []
        self.y_cols: list = []
        self.m_cols: list = []

    def __call__(self, t: float, u: np.ndarray) -> None:
        shifted = self.bp + t
        inside = shifted < self.r_max
        if not inside.all():  # the support shrinks as t grows: drop the nodes it left
            self.near, self.bp, self.wvol = self.near[inside], self.bp[inside], self.wvol[inside]
            shifted = shifted[inside]
        w = abs_power(u.reshape(-1)[self.near], self.fam.p) * self.wvol
        s = shifted / self.radii[:, None]  # one row per radius
        cut = psi_of_s(self.fam, s) * w
        self.m_cols.append(np.sum(cut, axis=1))
        cut[s < 0.5] = 0.0  # psi* equals psi on s >= 1/2 and vanishes below
        self.y_cols.append(np.sum(cut, axis=1))
        self.times.append(t)

    def finish(self) -> FunctionalTrace:
        """Trapezoid in time over the columns taken so far.

        The trapezoid rule over every other snapshot must agree to 2%
        relative on the final masses, otherwise the snapshots undersample
        the run.
        """
        radii = self.radii
        times = np.asarray(self.times)
        if len(times) < 4:
            raise ValueError("need at least 4 snapshots for the time quadrature")
        if times[0] > max(radii.min() - 1.0, 0.0):
            raise ValueError("cutoff support lies entirely before the first snapshot")
        y_rows = np.stack(self.y_cols, axis=1)
        m_rows = np.stack(self.m_cols, axis=1)

        def masses(stride: int):
            idxs = list(range(0, len(times), stride))
            if idxs[-1] != len(times) - 1:
                idxs.append(len(times) - 1)
            # contiguous copies: trapezoid sums a fancy-indexed view in another order
            y = np.trapezoid(np.ascontiguousarray(y_rows[:, idxs]), times[idxs], axis=1)
            m = np.trapezoid(np.ascontiguousarray(m_rows[:, idxs]), times[idxs], axis=1)
            return y, m

        y_full, m_full = masses(1)
        y_half, m_half = masses(2)
        scale = max(float(np.max(m_full)), 1e-300)
        if np.max(np.abs(m_full - m_half)) > 0.02 * scale or np.max(
            np.abs(y_full - y_half)
        ) > 0.02 * scale:
            raise ValueError("snapshot density insufficient for the trace quadrature")
        return FunctionalTrace(radii=radii, shell_mass=y_full, mass=m_full)

