"""Numerical laboratory for lifespan scaling of semilinear evolution equations
on cone-like domains.

The package has seven layers:

* :mod:`blowlab.cone_geometry` -- cross-section eigenvalues, the homogeneity
  exponent gamma, the harmonic weight, and verification helpers (harmonicity,
  Euler identity, Hardy quotients).
* :mod:`blowlab.cutoffs` -- the smooth space-time cutoff family, its scaled
  coordinate, derivative-bound constants and the log-2 tail inequality.
* :mod:`blowlab.lifespan_bounds` -- closed-form horizon bounds from the
  differential-inequality argument, an independent ODE saturation oracle,
  the shell-mass transform and the criterion inequality checker.
* :mod:`blowlab.solvers` -- finite-difference integrators for the unified
  equation tau*u_tt - Lap(u) + a(x)*u_t = lambda*|u|^p, blowup detection,
  and space-time functional traces.
* :mod:`blowlab.experiments` -- epsilon sweeps, scaling-law fits and regime
  verdicts.
* :mod:`blowlab.verify` -- the property suites and the criterion-to-bound pipeline.
* :mod:`blowlab.config` / :mod:`blowlab.cli` -- JSON configuration, CSV
  emission and the command-line surface.
"""

from blowlab.cone_geometry import (
    ConeDomain,
    CrossSectionSpec,
    cap_eigenvalue,
    fujita_threshold,
    gamma_root,
    make_domain,
    sector_eigenvalue,
)
from blowlab.cutoffs import CutoffFamily, TransitionProfile
from blowlab.lifespan_bounds import BoundInputs, FunctionalTrace, lifespan_upper_bound

__all__ = [
    "ConeDomain",
    "CrossSectionSpec",
    "cap_eigenvalue",
    "fujita_threshold",
    "gamma_root",
    "make_domain",
    "sector_eigenvalue",
    "CutoffFamily",
    "TransitionProfile",
    "BoundInputs",
    "FunctionalTrace",
    "lifespan_upper_bound",
]

__version__ = "0.1.0"
