"""LAPACK factors of an implicit step's tridiagonal matrix, and the window of
rows outside which its solution is negligible.

A grid's factors live in ``solvers._GridData``, which refactors them in place
as a run moves from rung to rung; this module holds one factorization and its
solve.  The window bound and the flush of negligible parts keep every part of
a solution either +0.0 or at least 2^-511, so no square of a part is
subnormal.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

# solution parts below this are zero: they would decay into subnormals, and as the
# square root of the smallest normal double it keeps u*u (and |u|^p, p <= 2) normal
_NEGLIGIBLE = 2.0**-511
_WINDOW_MARGIN = 16  # extra nodes on each side of the provable window


class _TridiagonalLU:
    """LAPACK factors of ``ident - coef * Lap`` on a 1-d grid or the polar sector's
    stacked sine modes, with ``ident`` 1.0 (Crank-Nicolson) or a positive
    diagonal (the damped wave's 1 + (dt/2) a).

    A real symmetric positive definite matrix (the line and half line with a
    real, forward ``coef``) is factored by ``?pttrf`` as L D L^T and solved by
    ``?pttrs``, whose back substitution keeps the division off its serial
    chain; every other matrix (radial grids, sine modes, complex factors,
    backward diffusion) by ``?gttrf``/``?gttrs`` with partial pivoting, which
    never crosses the zero coupling between two modes.
    :meth:`factor` fills the bands into this object's arrays and factors them
    there, so refactoring for another ``coef`` allocates no band.  Without
    pivots ``gttrf`` returns ``du2`` = 0 and ``ipiv`` = 1, 2, ..., m, so
    such factors take the grid's arrays of these instead.
    ``solve`` overwrites the right-hand side, only on the index window
    outside which the exact solution is provably below ``_NEGLIGIBLE``, and
    returns that window; sweeping the far field instead decays into subnormal
    numbers, which the CPU handles slowly.  It sets every solution part below
    ``_NEGLIGIBLE`` = 2^-511 to +0.0, so no square of a part is subnormal.
    Without pivoting the LU factors are L (unit lower, multipliers l_i) and U
    (diagonal d_i, superdiagonal u_i).  For the unit vector e_j the forward
    sweep is zero before j and decays by rho_l = max|l_i| per node after it;
    the backward sweep decays by rho_u = max|u_i/d_i| per node.  So
    |x_i| <= gain * rho^|i-j| with rho the larger rate and
    gain = max(1/|d_i|) / (1 - rho_l * rho_u), and by linearity
    |x_i| <= gain * m * max_j |b_j| * rho^|i-j| for m unknowns.  L D L^T is
    the case u_i/d_i = l_i = e_i (the multipliers ``pttrf`` returns):
    rho_l = rho_u = max|e_i| and gain = max(1/|d_i|) / (1 - rho^2).  Inside
    the window the arithmetic is that of the full solve.  When ``gttrf``
    pivoted or rho >= 1 the bound does not hold and the full range is solved.
    """

    def __init__(self, unpivoted: tuple, dtype):
        counting, zeros = unpivoted  # the grid's arrays
        self.nodes = counting[:-1]  # 0, 1, ..., m-1
        self.dtype = np.dtype(dtype)
        m = self.nodes.size
        self._unpivoted = zeros.view(dtype)[: m - 2], counting[1:]  # du2 and ipiv
        self.sub, self.d = np.empty(m - 1, dtype), np.empty(m, dtype)
        # the superdiagonal, which only gttrf reads: every complex matrix takes
        # gttrf, and a real one makes it when it first does
        self.sup = np.empty(m - 1, dtype) if self.dtype.kind == "c" else None

    def factor(self, lower, diag, upper, coef, ident=1.0) -> None:
        """Factor ``ident - coef * Lap`` for the bands (lower, diag, upper) in
        place; ``ident`` is a scalar or one value per node."""
        sub, d = self.sub, self.d

        def bands():  # the subdiagonal and diagonal of ident - coef * Lap
            np.multiply(-coef, lower[1:], out=sub)
            np.subtract(ident, np.multiply(coef, diag, out=d), out=d)

        self.factors = ()  # gttrf's du2 and ipiv are released before it returns new ones
        bands()
        self.pivoted = False
        if self.dtype.kind == "f" and np.array_equal(lower[1:], upper[:-1]):  # symmetric
            pttrf, self._pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=self.dtype)
            if pttrf(d, sub, overwrite_d=1, overwrite_e=1)[2] == 0:  # positive definite: d > 0
                self.factors = (d, sub)
                rho = float(max(sub.max(), -sub.min()))  # max|e| with no temporary, as max_abs
                self._bound(rho, rho, float(d.min()))
                return
            bands()  # pttrf stopped part way: LU below
        if self.sup is None:
            self.sup = np.empty_like(sub)
        np.multiply(-coef, upper[:-1], out=self.sup)
        gttrf, self._gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=self.dtype)
        *lu_bands, du2, ipiv, info = gttrf(
            sub, d, self.sup, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info > 0:
            raise np.linalg.LinAlgError("singular implicit matrix")
        self.pivoted = bool(np.any(ipiv != self._unpivoted[1]))
        self.factors = (*lu_bands, *((du2, ipiv) if self.pivoted else self._unpivoted))
        rho_u = float(np.max(np.abs(self.sup / d[:-1])))
        self._bound(float(np.max(np.abs(sub))), rho_u, float(np.min(np.abs(d))))

    def _bound(self, rho_l, rho_u, d_min):
        """Set the decay rate and scale of the window bound, or ``decay`` None.
        ``d_min`` is min|d_i|: 1 / d_min is max(1/|d_i|), as division rounds
        monotonically."""
        rho = max(rho_l, rho_u, _NEGLIGIBLE)
        self.decay = None  # no decay bound: solve the full range
        if not self.pivoted and rho < 1.0:
            self.decay = -math.log(rho)  # e-folds per node
            gain = (1.0 / d_min) / (1.0 - rho_l * rho_u)
            self.log_scale = math.log(gain * self.nodes.size / _NEGLIGIBLE)

    def _reach(self, mag):
        """Overwrite the array ``mag`` with the nodes beyond which a right-hand
        side entry of that magnitude contributes below ``_NEGLIGIBLE / m``;
        -inf for zero entries."""
        zero = ~np.greater(mag, 0.0)  # NaN too
        # mag < 2**e, so e * ln 2 bounds log(mag); frexp is cheaper than log
        _, e = np.frexp(mag)
        np.copyto(mag, e)  # as a float, without the buffer of a mixed-type product
        mag *= math.log(2.0)
        mag += self.log_scale
        mag /= self.decay
        np.copyto(mag, -math.inf, where=zero)
        return mag

    def window(self, b: np.ndarray, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
        """The index range [start, stop) outside which the solution is negligible.

        ``b`` is zero outside the entries [lo, hi) (all of them by default),
        so only those are scanned for the first and last nonzero part.  |b| is
        taken only within one peak reach of the outermost nonzero entries, the
        only ones that can move the ends.  The reach may come from any upper
        bound on max|b|: an entry past the true reach lies farther inside than
        its own reach, so it never lowers ``start`` or raises ``stop``.
        """
        m = b.size
        if self.decay is None or (b[0] != 0.0 and b[-1] != 0.0):
            return 0, m  # no bound, or the right-hand side already spans the grid
        parts = b.view(np.float64)  # the real and imaginary parts of a complex b
        per = parts.size // m
        nonzero = parts[lo * per : (m if hi is None else hi) * per] != 0.0
        first = int(np.argmax(nonzero))
        if not nonzero[first]:
            return 0, 0
        # a reversed argmax is slow on the negative stride
        first, last = lo * per + first, lo * per + nonzero.tobytes().rfind(1)
        live = parts[first : last + 1]
        top = float(max(live.max(), -live.min()))  # NaN propagates through both
        if not math.isfinite(top):
            return 0, m
        lo, hi = first // per, last // per
        _, e = math.frexp(top)  # top < 2**e
        if per == 2:  # |b| <= sqrt(2) * top < 2**(e + 1/2)
            e += 1
        span = max(math.ceil((e * math.log(2.0) + self.log_scale) / self.decay), 0)
        head = slice(lo, min(lo + span, hi) + 1)
        tail = slice(max(hi - span, lo), hi + 1)
        # each in one array: |b|, then its reach, then node -+ reach
        mag = np.abs(b[head])
        self._reach(mag)
        start = min(float(np.min(np.subtract(self.nodes[head], mag, out=mag))), lo)
        mag = np.abs(b[tail])
        self._reach(mag)
        stop = max(float(np.max(np.add(self.nodes[tail], mag, out=mag))), hi)
        return (
            max(math.floor(start) - _WINDOW_MARGIN, 0),
            min(math.ceil(stop) + 1 + _WINDOW_MARGIN, m),
        )

    def solve(self, b: np.ndarray, lo: int, hi: int | None, scratch: tuple) -> tuple[int, int]:
        """Overwrite ``b[start:stop]`` with the solution for ``b`` and return the
        range [start, stop) it solved.  Outside that range the solution is
        negligible and ``b`` holds only zeros, which the solve leaves as they
        are.  ``b`` is contiguous and of the factors' dtype, so LAPACK writes
        into it; it is zero outside the entries [lo, hi), as in :meth:`window`.
        ``scratch``, a flat float64 and a flat bool array with room for b's
        real and imaginary parts, holds the flush's |part| and flags in place
        of new arrays."""
        start, stop = self.window(b, lo, hi)
        if stop - start < 3:  # gttrs needs du2 of length stop - start - 2 >= 1
            start, stop = 0, b.size
        x = b[start:stop]
        if len(self.factors) == 2:  # L D L^T: (d, e)
            d, e = self.factors
            self._pttrs(d[start:stop], e[start : stop - 1], x, overwrite_b=True)
        else:
            # ipiv[start:stop] - start: a factor with pivots has no window and solves
            # from 0, and without pivots ipiv is 1, 2, ..., so it is ipiv[:stop - start]
            dl, d, du, du2, ipiv = self.factors
            self._gttrs(
                dl[start : stop - 1],
                d[start:stop],
                du[start : stop - 1],
                du2[start : stop - 2],
                ipiv[: stop - start],
                x,
                overwrite_b=True,
            )
        parts = x.view(np.float64)
        mag, small = (a[: parts.size] for a in scratch)
        np.less(np.abs(parts, out=mag), _NEGLIGIBLE, out=small)
        np.copyto(parts, 0.0, where=small)
        return start, stop
