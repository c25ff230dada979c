"""Per-layer tracing of blowlab from outside the package.

The tracer replaces each hooked function with a timing wrapper at every
place the package binds it: a function imported with ``from ... import``
lives on in the importing module's namespace (``cli.run_sweep`` is
``experiments.sweep``), so patching the defining module alone would leave
those call sites untraced and the layer would read zero.

Spans are not kept.  Each call adds its count, self time (its duration minus
the time spent in hooked callees) and inclusive time to one aggregate per
(layer, parent layer), so memory stays constant however many kernel calls a
run makes.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (layer, module, attribute); "Class.method" hooks a method on the class.
HOOKS = (
    ("solvers.implicit_solve", "blowlab.solvers", "_GridData.solve_implicit"),
    ("solvers.laplacian", "blowlab.solvers", "_GridData.laplacian"),
    ("solvers.nonlinearity", "blowlab.solvers", "abs_power"),
    ("solvers.stepper", "blowlab.solvers", "step_parabolic"),
    ("solvers.stepper", "blowlab.solvers", "step_hyperbolic"),
    ("solvers.step_control", "blowlab.solvers", "run_until_blowup"),
    ("solvers.step_control", "blowlab.solvers", "max_abs"),
    ("solvers.trace_quadrature", "blowlab.solvers", "functional_trace"),
    ("cutoffs.tail_integral", "blowlab.cutoffs", "star_tail_integral"),
    ("cutoffs.bound_constants", "blowlab.cutoffs", "bound_constants"),
    ("lifespan_bounds.oracle", "blowlab.lifespan_bounds", "ode_saturation_oracle"),
    ("lifespan_bounds.criterion", "blowlab.lifespan_bounds", "criterion_check"),
    ("lifespan_bounds.criterion", "blowlab.lifespan_bounds", "lifespan_upper_bound"),
    ("cone_geometry.hardy", "blowlab.cone_geometry", "hardy_ratio"),
    ("cone_geometry.eigen", "blowlab.cone_geometry", "cap_eigenvalue"),
    ("experiments.sweep", "blowlab.experiments", "sweep"),
    ("config.parse", "blowlab.config", "parse_config"),
    ("config.emit", "blowlab.config", "emit_record"),
    ("config.emit", "blowlab.config", "emit_records"),
    ("config.emit", "blowlab.config", "emit_trace"),
    ("config.emit", "blowlab.config", "emit_snapshots"),
    ("config.emit", "blowlab.config", "emit_sweep"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))
COUNTED_LAYERS = (
    "solvers.implicit_solve",
    "solvers.laplacian",
    "solvers.nonlinearity",
    "cutoffs.tail_integral",
)
ROOT = "<root>"
_TINY = np.finfo(np.float64).tiny


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self):
        self.agg: dict = {}  # (layer, parent) -> [calls, self_s, inclusive_s]
        self.absent: list = []  # "module:attr" of hooks that did not resolve
        self.sites: dict = {}  # "module:attr" -> bindings replaced
        self.dt_min = None  # smallest dt any stepper call received
        self.steps_accepted = 0
        self.snapshots_held = 0  # most snapshots one RunResult held
        self.snapshot_bytes = 0  # largest snapshot store of one RunResult
        self.subnormal = 0  # subnormal components over all final fields
        self.components = 0
        self._stack = [[ROOT, 0.0]]
        self._undo: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        for layer, modname, attr in HOOKS:
            key = f"{modname}:{attr}"
            module = sys.modules.get(modname)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.absent.append(key)
                continue
            before = self._note_dt if name.startswith("step_") else None
            after = self._note_run if name == "run_until_blowup" else None
            wrapper = self._wrap(layer, original, before, after)
            owners = [owner] if owner_name else _package_modules()
            self.sites[key] = []
            for target in owners:
                for bound_name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, bound_name, wrapper)
                        self._undo.append((target, bound_name, original))
                        self.sites[key].append(f"{target.__name__}.{bound_name}")
        return self

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer, fn, before, after):
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = agg.get((layer, parent[0]))
                if rec is None:
                    rec = agg[(layer, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if parent[0] != layer:
                    rec[2] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _note_dt(self, args, kwargs) -> None:
        dt = kwargs["dt"] if "dt" in kwargs else args[2]
        if self.dt_min is None or dt < self.dt_min:
            self.dt_min = dt

    def _note_run(self, result) -> None:
        self.steps_accepted += result.record.steps
        self.snapshots_held = max(self.snapshots_held, len(result.snapshots))
        store = sum(np.asarray(s).nbytes for s in result.snapshots)
        self.snapshot_bytes = max(self.snapshot_bytes, store)
        final = np.asarray(result.snapshots[-1])
        parts = np.abs(final.view(np.float64) if np.iscomplexobj(final) else final)
        self.subnormal += int(np.count_nonzero((parts > 0.0) & (parts < _TINY)))
        self.components += parts.size

    # -- reporting -----------------------------------------------------------

    def layer(self, name: str) -> tuple:
        """(calls, self_s, inclusive_s) of one layer, summed over its parents."""
        calls = self_s = incl = 0
        for (layer, _), (c, s, i) in self.agg.items():
            if layer == name:
                calls, self_s, incl = calls + c, self_s + s, incl + i
        return calls, self_s, incl

    def breakdown(self) -> list:
        """Every (layer, parent) aggregate, for the detailed results file."""
        return [
            {"layer": layer, "parent": parent, "calls": c, "self_s": s, "inclusive_s": i}
            for (layer, parent), (c, s, i) in sorted(self.agg.items())
        ]

    def metrics(self) -> dict:
        """The per-layer metrics, by name, as (value, unit)."""
        out = {}
        for name in LAYERS:
            calls, self_s, _ = self.layer(name)
            out[f"{name}.self_s"] = (self_s, "s")
            if name in COUNTED_LAYERS:
                out[f"{name}.calls"] = (calls, "count")
        attempts = self.layer("solvers.stepper")[0]
        rejected = attempts - self.steps_accepted
        in_runs = self.layer("solvers.step_control")[2]
        out["solvers.steps_accepted"] = (self.steps_accepted, "count")
        out["solvers.steps_rejected"] = (rejected, "count")
        out["solvers.reject_ratio"] = (rejected / attempts if attempts else 0.0, "ratio")
        out["solvers.dt_min"] = (self.dt_min or 0.0, "sim_time")
        out["solvers.us_per_step"] = (
            1e6 * in_runs / self.steps_accepted if self.steps_accepted else 0.0,
            "us",
        )
        out["solvers.snapshots_held"] = (self.snapshots_held, "count")
        out["solvers.snapshot_mb"] = (self.snapshot_bytes / 2**20, "MiB")
        out["solvers.subnormal_share"] = (
            self.subnormal / self.components if self.components else 0.0,
            "ratio",
        )
        return out


def _package_modules() -> list:
    """Every loaded blowlab module: the places a function can be bound."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "blowlab" or name.startswith("blowlab."))
    ]
