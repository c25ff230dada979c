"""LAPACK factors of an implicit step's tridiagonal matrix, and the window of
rows outside which its solution is negligible.

A grid keeps the factors of two rungs in ``solvers._GridData`` and builds a
new rung's afresh; this module holds one factorization and its solve.  The
window bound and the flush of negligible parts keep every part of a solution
either +0.0 or at least 2^-511, so no square of a part is subnormal.

The LAPACK routines come from scipy's compiled wrappers, the extension
``scipy.linalg._flapack``, loaded from its file: importing it by name would
first run the ``scipy`` and ``scipy.linalg`` packages, which load numpy's
f2py, testing, ma, random and polynomial and cost a short command more than
its work.  They are the routines ``scipy.linalg.lapack.get_lapack_funcs``
picks (prefix ``d`` for float64, ``z`` for complex128), so every solve keeps
its bits; a later ``import scipy.linalg`` reuses the registered extension.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np


def _load_flapack():
    """scipy's ``linalg._flapack`` extension, loaded without its packages' ``__init__``."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        (root,) = importlib.util.find_spec("scipy").submodule_search_locations
        finder = FileFinder(os.path.join(root, "linalg"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


_FLAPACK = _load_flapack()
_PREFIX = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}  # get_lapack_funcs' rule


def _lapack(dtype, *names):
    """The ``_flapack`` routines ``names`` for arrays of ``dtype``."""
    return tuple(getattr(_FLAPACK, _PREFIX[dtype] + name) for name in names)

# solution parts below this are zero: they would decay into subnormals, and as the
# square root of the smallest normal double it keeps u*u (and |u|^p, p <= 2) normal
_NEGLIGIBLE = 2.0**-511
_WINDOW_MARGIN = 16  # extra nodes on each side of the provable window
_SCAN = 256  # parts scanned from each end of a right-hand side before the whole of it


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
    The constructor builds the bands and factors them, and binds what each
    solve with the factors reads: the LAPACK solve routine and the grid's
    flat scratch arrays for the flush.  Without pivots
    ``gttrf`` returns ``du2`` = 0 and ``ipiv`` = 1, 2, ..., m, so such factors
    take the grid's arrays of these instead.
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
    rho_l = rho_u = max|e_i| and gain = max(1/|d_i|) / (1 - rho^2).  So b_j
    moves x_i by ``_NEGLIGIBLE`` / m or more only while |b_j| * reach_table[k]
    > 1 at k = |i-j|, with each factor's reach_table[k] = gain * m * rho^k /
    ``_NEGLIGIBLE``.  Inside the window the arithmetic is the full solve's.
    When ``gttrf`` pivoted or rho >= 1 the bound does not hold: the full range.
    """

    def __init__(self, lower, diag, upper, coef, ident, dtype, unpivoted: tuple, scratch: tuple):
        """Factor ``ident - coef * Lap`` for the bands (lower, diag, upper) in
        ``dtype``; ``ident`` is a scalar or one value per node, ``unpivoted``
        the grid's ``ipiv`` = 1, 2, ..., m and m - 2 complex zeros, and
        ``scratch`` a flat float64 and a flat bool array with room for the
        real and imaginary parts of m unknowns, which every solve's flush
        writes its |part| and flags into in place of new arrays."""
        self.size = m = diag.size  # the rows
        self.dtype = dtype = np.dtype(dtype)
        self.scratch = scratch
        self._per = 1 if dtype.kind == "f" else 2  # float64 parts per unknown
        self.reach_table = np.empty(m)  # ``window`` fills it only as far as a reach needs
        sub = np.multiply(-coef, lower[1:], out=np.empty(m - 1, dtype))
        d = np.multiply(coef, diag, out=np.empty(m, dtype))
        np.subtract(ident, d, out=d)
        self.pivoted = False
        if dtype.kind == "f" and np.array_equal(lower[1:], upper[:-1]):  # symmetric
            pttrf, self._pttrs = _lapack(dtype, "pttrf", "pttrs")
            ld, le, info = pttrf(d, sub)  # on copies: the bands stay for the LU below
            if info == 0:  # positive definite: ld > 0
                self.factors = (ld, le)
                rho = float(max(le.max(), -le.min()))  # max|e| with no temporary, as max_abs
                self._bound(rho, rho, float(ld.min()))
                return
        sup = np.multiply(-coef, upper[:-1], out=np.empty(m - 1, dtype))
        gttrf, self._gttrs = _lapack(dtype, "gttrf", "gttrs")
        dl, d, du, du2, ipiv, info = gttrf(
            sub, d, sup, overwrite_dl=1, overwrite_d=1, overwrite_du=1
        )
        if info > 0:
            raise np.linalg.LinAlgError("singular implicit matrix")
        self.pivoted = bool(np.any(ipiv != unpivoted[0]))
        if not self.pivoted:  # du2 = 0 and ipiv = 1, 2, ..., m: the grid's arrays
            du2, ipiv = unpivoted[1].view(dtype)[: m - 2], unpivoted[0]
        self.factors = (dl, d, du, du2, ipiv)
        rho_u = float(np.max(np.abs(du / d[:-1])))
        self._bound(float(np.max(np.abs(dl))), rho_u, float(np.min(np.abs(d))))

    def _bound(self, rho_l, rho_u, d_min):
        """Set the decay rate and scale of the window bound and mark its reach
        table empty, or set ``decay`` None.  ``d_min`` is min|d_i|: 1 / d_min is
        max(1/|d_i|), as division rounds monotonically."""
        rho = max(rho_l, rho_u, _NEGLIGIBLE)
        self.decay = None  # no decay bound: solve the full range
        if not self.pivoted and rho < 1.0:
            self.decay = -math.log(rho)  # e-folds per node
            gain = (1.0 / d_min) / (1.0 - rho_l * rho_u)
            self.log_scale = math.log(gain * self.size / _NEGLIGIBLE)
            self.reach_filled = 0  # entries of the reach table valid for this decay

    def window(self, b: np.ndarray, lo: int = 0, hi: int | None = None) -> tuple[int, int]:
        """The index range [start, stop) outside which the solution is negligible.

        ``b`` is zero outside the entries [lo, hi) (all of them by default),
        so only those are scanned for the first and last nonzero part.  |b| is
        taken only within one peak reach of the outermost nonzero entries, the
        only ones that can move the ends.  The reach may come from any upper
        bound on max|b|: an entry past the true reach lies farther inside than
        its own reach, so it never lowers ``start`` or raises ``stop``.  Each
        end takes one product with the reach table and one max: ``start`` =
        lo - log(max_k |b_{lo+k}| reach_table[k]) / decay, at most lo, and
        ``stop`` its mirror image.  An end whose outermost nonzero entry lies
        within ``_WINDOW_MARGIN`` nodes of the matrix's end is that end
        whatever its reach, so it takes no product (the folded line's x = 0
        row is nonzero at every step).  |part| of the nonzero rows goes into
        ``scratch[0]``, which the solve's flush overwrites after it.
        """
        m = b.size
        if self.decay is None or (b[0] != 0.0 and b[-1] != 0.0):
            return 0, m  # no bound, or the right-hand side already spans the grid
        per = self._per
        parts = b if per == 1 else b.view(np.float64)  # the real and imaginary parts of a complex b
        a, z = lo * per, (m if hi is None else min(hi, m)) * per  # the parts that may be nonzero

        def nonzero(i, j):  # a byte per part of parts[i:j], 1 where it is nonzero
            return (parts[i:j] != 0.0).tobytes()

        # the first and last nonzero parts lie most often a few nodes from a and z, so a
        # short run from each end is scanned, by find and rfind in C, before the whole range
        first = nonzero(a, min(a + _SCAN, z)).find(1)
        if first < 0:
            first = nonzero(a, z).find(1)
            if first < 0:
                return 0, 0
        tail_from = max(z - _SCAN, a)
        last = nonzero(tail_from, z).rfind(1)
        last = tail_from + last if last >= 0 else a + nonzero(a, z).rfind(1)
        lo, hi = (a + first) // per, last // per  # the first and last nonzero rows
        end = hi + 1
        head, tail = lo > _WINDOW_MARGIN, hi < m - 1 - _WINDOW_MARGIN  # the ends a reach can move
        if not (head or tail):
            return 0, m
        # |part| goes into the flush's scratch, unused until the solve's flush: for a
        # real b it is |b|, which the ends' products below then read
        mags = np.abs(parts[lo * per : end * per], out=self.scratch[0][: (end - lo) * per])
        top = float(np.maximum.reduce(mags))  # NaN stays NaN
        if not math.isfinite(top):
            return 0, m
        # no entry of |b| <= sqrt(per) * top reaches farther inward than ``span`` nodes
        span = max(math.ceil((math.log(top) + math.log(per) / 2 + self.log_scale) / self.decay), 0)
        k = min(span, hi - lo) + 1  # the entries within one reach of an end, that end's included
        if k > self.reach_filled:  # reach_table[j] = exp(log_scale - decay*j), in place
            table = np.multiply(np.arange(k), -self.decay, out=self.reach_table[:k])
            table += self.log_scale
            np.exp(table, out=table)
            self.reach_filled = k

        def reach(a, z, table):  # how far past its end the largest |b[a:z]| * table reaches
            mag = mags[a - lo : z - lo] if per == 1 else np.abs(b[a:z])  # a complex entry's modulus
            peak = float(np.maximum.reduce(np.multiply(mag, table, out=None if per == 1 else mag)))
            # a product past the largest float (or NaN) reaches the full range on its side
            return math.log(peak) / self.decay if 0.0 < peak < math.inf else m

        # |b| from each end inward, times the table: the entry j nodes in from an
        # end reaches log(|b| * reach_table[j]) / decay nodes past that end
        start, stop = 0, m
        if head:
            lead = reach(lo, lo + k, self.reach_table[:k])
            start = max(math.floor(min(lo - lead, lo)) - _WINDOW_MARGIN, 0)
        if tail:
            trail = reach(end - k, end, self.reach_table[k - 1 :: -1])
            stop = min(math.ceil(max(hi + trail, hi)) + 1 + _WINDOW_MARGIN, m)
        return start, stop

    def solve(self, b: np.ndarray, lo: int, hi: int | None) -> tuple[int, int]:
        """Overwrite ``b[start:stop]`` with the solution for ``b`` and return the
        range [start, stop) it solved.  Outside that range the solution is
        negligible and ``b`` holds only zeros, which the solve leaves as they
        are.  ``b`` is contiguous and of the factors' dtype, so LAPACK writes
        into it; it is zero outside the entries [lo, hi), as in :meth:`window`.
        The LAPACK routine and the flush's ``scratch`` were bound when the
        factors were built.  The flush leaves |part| of each solved part,
        taken before the parts below ``_NEGLIGIBLE`` were set to +0.0, in the
        first (stop - start) * (1 for a real, 2 for a complex ``b``) entries of
        ``scratch[0]``: on a real ``b`` their max is max|x|, the ``peak`` a
        step reports, wherever it is at least ``_NEGLIGIBLE``."""
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
        n = (stop - start) * self._per
        parts = x if self._per == 1 else x.view(np.float64)
        mag, small = self.scratch[0][:n], self.scratch[1][:n]
        np.less(np.abs(parts, out=mag), _NEGLIGIBLE, out=small)
        np.copyto(parts, 0.0, where=small)
        return start, stop
