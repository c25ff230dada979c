"""JSON run configurations and CSV/JSON emission.

A config file is a single JSON object whose sections are the solver
dataclasses.  Parsing is derived from their fields: unknown keys are
rejected, each value is type-checked against its annotation, and every rule
a dataclass's ``__post_init__`` breaks is reported with its field path, not
just the first.  CSV output uses shortest round-trip decimals, LF line
endings and a header row, so identical data always re-emits byte-identically.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from blowlab.cone_geometry import SpecError
from blowlab.experiments import SweepResult, epsilon_violations
from blowlab.lifespan_bounds import FunctionalTrace
from blowlab.solvers import (
    THRESHOLD_NAMES,
    BlowupRecord,
    CoefficientSpec,
    EvolutionProblem,
    RunControls,
)


class ConfigError(ValueError):
    """Carries the full list of validation violations."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    problem: EvolutionProblem
    controls: RunControls = RunControls()
    sweep_epsilons: tuple[float, ...] | None = None
    slope_tolerance: float = 0.15
    trace_radii: tuple[float, ...] | None = None
    seed: int = 0  # kept with the config; simulate and sweep do not read it

    def __post_init__(self):
        bad = []
        if self.sweep_epsilons is not None:
            bad.extend(("sweep_epsilons", msg) for msg in epsilon_violations(self.sweep_epsilons))
        if not self.slope_tolerance > 0:
            bad.append(("slope_tolerance", "must be positive"))
        if (radii := self.trace_radii) is not None:
            if not radii:
                bad.append(("trace_radii", "must hold at least one radius"))
            if not all(r > 0 for r in radii):
                bad.append(("trace_radii", "entries must be positive"))
            if any(b <= a for a, b in zip(radii, radii[1:])):
                bad.append(("trace_radii", "must be strictly increasing"))
            if not self.controls.snapshot_dt > 0:
                bad.append(("controls.snapshot_dt", "must be positive when trace_radii are set"))
        if bad:
            raise SpecError(bad)


# JSON name of each field whose name differs.  A dotted name nests the value
# one object down; None puts a nested spec's fields inline in its parent.
_JSON_NAMES = {
    RunConfig: {"sweep_epsilons": "sweep.epsilons", "slope_tolerance": "sweep.slope_tolerance"},
    EvolutionProblem: {"coeff": None, "init": "initial"},
    CoefficientSpec: {"lam": "lambda"},
}

_EXPECTED = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    complex: "a number or [re, im] pair",
    tuple: "a list of numbers",
    str: "a string",
}


def _join(path: str, name: str | None) -> str:
    return ".".join(part for part in (path, name) if part)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _from_json(hint, value, path: str, errors: list):
    """``value`` converted to the annotated type ``hint``."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    kind = get_origin(hint) or hint
    if kind in (bool, str) and isinstance(value, kind):
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind in (float, complex) and _is_number(value):
        numbers = [value]
    elif (
        kind in (complex, tuple)
        and isinstance(value, list)
        and all(map(_is_number, value))
        and (kind is tuple or len(value) == 2)
    ):
        numbers = value
    else:
        errors.append(f"{path}: expected {_EXPECTED[kind]}")
        return None
    if not all(abs(v) <= sys.float_info.max for v in numbers):  # NaN, Infinity, huge ints
        errors.append(f"{path}: expected a finite number")
        return None
    return tuple(map(float, numbers)) if kind is tuple else kind(*numbers)


def _build(cls, obj: dict, path: str, errors: list):
    """Construct ``cls`` from the JSON object ``obj``, popping the keys it uses."""
    names = _JSON_NAMES.get(cls, {})
    hints = get_type_hints(cls)
    start = len(errors)
    kwargs = {}
    for f in fields(cls):
        name = names.get(f.name, f.name)
        hint = hints[f.name]
        if name is None:
            kwargs[f.name] = _build(hint, obj, path, errors)
        elif name in obj:
            value = obj.pop(name)
            where = _join(path, name)
            if is_dataclass(hint):
                kwargs[f.name] = _section(hint, value, where, errors)
            else:
                kwargs[f.name] = _from_json(hint, value, where, errors)
        elif f.default is MISSING:
            errors.append(f"{_join(path, name)}: missing")
    if len(errors) > start:
        return None
    try:
        return cls(**kwargs)
    except SpecError as exc:
        errors.extend(f"{_join(path, names.get(n, n))}: {msg}" for n, msg in exc.violations)
        return None


def _section(cls, value, path: str, errors: list):
    """Build ``cls`` from one JSON object and reject the keys it does not use."""
    if not isinstance(value, dict):
        errors.append(f"{path or 'top level'}: expected a JSON object")
        return None
    obj = dict(value)
    for group in {n.split(".")[0] for n in _JSON_NAMES.get(cls, {}).values() if n and "." in n}:
        if group in obj:
            nested = obj.pop(group)
            if isinstance(nested, dict):
                obj.update({f"{group}.{k}": v for k, v in nested.items()})
            else:
                errors.append(f"{_join(path, group)}: expected a JSON object")
    spec = _build(cls, obj, path, errors)
    errors.extend(f"{_join(path, key)}: unknown key" for key in obj)
    return spec


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a parsed JSON object, collecting every violation."""
    errors: list[str] = []
    cfg = _section(RunConfig, raw, "", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    return config_from_dict(raw)


# -- CSV emission -------------------------------------------------------

RECORD_COLUMNS = (
    "epsilon", "p", "tau", "alpha", "zeta", "status",
    *(f"T_at_{name}" for name in THRESHOLD_NAMES),
    "T_extrapolated", "dt_final", "h", "steps",
)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return repr(v)


def _record_row(rec: BlowupRecord) -> list:
    return [
        rec.epsilon,
        rec.p,
        rec.tau,
        rec.alpha,
        rec.zeta,
        rec.status,
        *rec.t_at_thresholds,
        rec.t_extrapolated,
        rec.dt_final,
        rec.h,
        rec.steps,
    ]


def _write_text(path: str, lines) -> None:
    """Every output file: utf-8 with LF line endings, ``lines`` written as given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _write_csv(path: str, header, rows) -> None:
    lines = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    _write_text(path, itertools.chain([",".join(header) + "\n"], lines))


def emit_record(rec: BlowupRecord, path: str) -> None:
    _write_csv(path, RECORD_COLUMNS, [_record_row(rec)])


def emit_records(records, path: str) -> None:
    _write_csv(path, RECORD_COLUMNS, [_record_row(r) for r in records])


def emit_trace(trace: FunctionalTrace, path: str) -> None:
    rows = zip(trace.radii, trace.shell_mass, trace.mass)
    _write_csv(path, ("R", "y", "m"), rows)


def emit_criterion(path: str, t_sim: float, outcome=None, reason: str | None = None) -> dict:
    """Write ``criterion.json``, the bound pipeline's verdict on one run, and return it.

    ``outcome`` is a ``blowlab.verify.CriterionOutcome``, or None when the
    pipeline failed for ``reason``.  Non-finite numbers are written as null.
    """
    b, bound = (outcome.inputs, outcome.bound) if outcome is not None else (None, math.nan)
    values = (b.delta, b.r1, b.theta, b.c0, bound) if b is not None else (math.nan,) * 5
    keys = ("delta", "R1", "theta", "minimal_C0", "bound", "T")
    verdict = {k: v if math.isfinite(v) else None for k, v in zip(keys, (*values, t_sim))}
    # a bound beyond the float range (inf at a finite C0) still lies above T
    verdict.update(bound_ge_T=math.isfinite(values[3]) and bound >= t_sim, reason=reason)
    _write_text(path, [json.dumps(verdict, indent=2) + "\n"])
    return verdict


def snapshot_node_stride(nodes: int) -> int:
    """The node stride of ``snapshots.csv`` for fields of ``nodes`` nodes."""
    return max(1, nodes // 2000)


def emit_snapshots(times, fields, points: np.ndarray, path: str) -> None:
    """Flat CSV of solution snapshots: one row per (time, node).

    ``points`` holds one row of coordinates per node of each field, the
    fields' nodes in row-major order; every node is written, at every
    ``len(times)//50``-th time.
    """
    time_stride = max(1, len(times) // 50)
    xs = [",".join(_fmt(c) for c in row) for row in np.asarray(points).tolist()]

    def column(idx):  # the lines of one time, as one string
        t, z = _fmt(times[idx]), np.asarray(fields[idx]).reshape(-1).astype(complex)
        # tolist() gives Python floats, whose repr is what _fmt writes for a float
        rows = zip(xs, z.real.tolist(), z.imag.tolist())
        return "".join([f"{t},{x},{re!r},{im!r}\n" for x, re, im in rows])

    header = ",".join(("t", *(f"x{i+1}" for i in range(len(points[0]))), "u_re", "u_im"))
    columns = map(column, range(0, len(times), time_stride))
    _write_text(path, itertools.chain([header + "\n"], columns))


def read_trace(path: str) -> FunctionalTrace:
    radii, y, m = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "R,y,m":
            raise ValueError(f"{path}: expected header 'R,y,m'")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: bad row {line!r}")
            radii.append(float(parts[0]))
            y.append(float(parts[1]))
            m.append(float(parts[2]))
    return FunctionalTrace(
        radii=np.asarray(radii), shell_mass=np.asarray(y), mass=np.asarray(m)
    )


def emit_sweep(result: SweepResult, out_dir: str) -> dict:
    """Write ``sweep.csv``, the plot-ready ``sweep.dat`` and ``sweep_summary.json``.

    Returns the summary dictionary.
    """
    os.makedirs(out_dir, exist_ok=True)
    emit_records(result.records, os.path.join(out_dir, "sweep.csv"))
    points = ((math.log(r.epsilon), math.log(r.t_extrapolated)) for r in result.blowup_rows)
    _write_text(os.path.join(out_dir, "sweep.dat"), (f"{_fmt(x)} {_fmt(y)}\n" for x, y in points))
    summary = {
        "problem_id": result.problem_id,
        "fit_status": result.fit_status,
        "span_ok": result.span_ok,
        "slope": result.power_fit.slope if result.power_fit else None,
        "intercept": result.power_fit.intercept if result.power_fit else None,
        "r2_power": result.power_fit.r_squared if result.power_fit else None,
        "exp_slope": result.exponential_fit.slope if result.exponential_fit else None,
        "r2_exp": result.exponential_fit.r_squared if result.exponential_fit else None,
        "verdict": result.verdict,
    }
    if result.faults:
        summary["faults"] = [{"epsilon": r.epsilon, "reason": r.reason} for r in result.faults]
    _write_text(os.path.join(out_dir, "sweep_summary.json"), [json.dumps(summary, indent=2) + "\n"])
    return summary
