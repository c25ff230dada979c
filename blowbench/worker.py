"""One repetition of one benchmark workload, in its own process.

    python3 blowbench/worker.py --workload heat_sweep --config CFG --seed 0 \
        --out-dir DIR --result FILE [--trace] [--setup-only]

The worker times set-up (importing blowlab, parsing the generated config and
building the grid on first use), runs the workload through the public entry
points, checks every operation's outcome against the objects the calls
return, digests the files the CLI wrote and writes one JSON result.  It
imports nothing from blowlab or numpy before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

# Fixed gates per workload; the sweep tolerances are those of acceptance
# criteria 5 and 6, the NLS spread that of criterion 8.
SWEEP_GATES = {
    "heat_sweep": {"slope": -2.0, "slope_tol": 0.15, "r2_min": 0.97},
    "wave_sweep": {"slope": -2.0, "slope_tol": 0.20, "r2_min": 0.95},
}
HYGIENE = 1e-8  # largest |u| allowed next to the Dirichlet walls
C0_SPREAD_MAX = 0.20
# (suite, takes --seed, number of check lines it prints)
VERIFY_SUITES = (("cutoff", False, 4), ("hardy", True, 3), ("harmonic", False, 4), ("lemma-oracle", True, 3))
EXPECTED_OPS = {  # 5 runs + 1 fit; run, trace, criterion; every check line
    "heat_sweep": 6,
    "wave_sweep": 6,
    "nls_trace": 3,
    "analysis_verify": sum(n for _, _, n in VERIFY_SUITES),
}


@contextlib.contextmanager
def capture_returns(module, name):
    """Keep what ``module.name`` returns while the block runs."""
    original = getattr(module, name)
    got = []

    def keep(*args, **kwargs):
        value = original(*args, **kwargs)
        got.append(value)
        return value

    setattr(module, name, keep)
    try:
        yield got
    finally:
        setattr(module, name, original)


def setup(workload: str, config_path: str | None) -> None:
    """The set-up users pay once per process."""
    import blowlab.cli  # noqa: F401  (imports every layer)

    if workload != "analysis_verify":
        from blowlab import config, solvers

        cfg = config.parse_config(config_path)
        solvers.grid_coordinates(cfg.problem.grid)


def _sweep(workload, config_path, out_dir, seed, ops):
    from blowlab import cli

    with capture_returns(cli, "run_sweep") as got:
        code = cli.main(["sweep", "--config", config_path, "--out-dir", out_dir, "--jobs", "1"])
    if not got:
        raise RuntimeError(f"sweep exited {code} without a result")
    result = got[0]
    for rec in result.records:
        ok = rec.status == "blowup" and rec.boundary_max < HYGIENE
        ops.append((f"run eps={rec.epsilon!r}", ok, f"{rec.status}, {rec.steps} steps, boundary_max {rec.boundary_max:.3g}"))
    gate = SWEEP_GATES[workload]
    fit = result.power_fit
    lifespans = [r.t_extrapolated for r in result.records]
    monotone = all(b <= a for a, b in zip(lifespans, lifespans[1:]))
    ok = (
        code == 0
        and fit is not None
        and abs(fit.slope - gate["slope"]) <= gate["slope_tol"] * abs(gate["slope"])
        and fit.r_squared >= gate["r2_min"]
        and monotone
        and result.verdict == "consistent"
    )
    detail = (
        f"exit {code}, slope {fit.slope if fit else math.nan:.4f}, "
        f"R^2 {fit.r_squared if fit else math.nan:.4f}, monotone {monotone}, verdict {result.verdict}"
    )
    ops.append(("fit", ok, detail))


def _nls_trace(workload, config_path, out_dir, seed, ops):
    import numpy as np

    from blowlab import cli, config, solvers
    from blowlab import lifespan_bounds as lb

    with capture_returns(cli, "run_until_blowup") as got:
        code = cli.main(["simulate", "--config", config_path, "--out-dir", out_dir])
    if not got:
        raise RuntimeError(f"simulate exited {code} without a result")
    rec, problem = got[0].record, got[0].problem
    got.clear()  # release the snapshot store
    ok = code == 0 and rec.status == "blowup" and rec.boundary_max < HYGIENE
    ops.append(("run", ok, f"exit {code}, {rec.status}, {rec.steps} steps, boundary_max {rec.boundary_max:.3g}"))

    trace = config.read_trace(os.path.join(out_dir, "trace.csv"))
    with open(config_path, encoding="utf-8") as fh:
        radii = json.load(fh)["trace_radii"]
    ok = list(trace.radii) == list(radii) and bool(np.all(np.isfinite(trace.shell_mass)))
    ops.append(("trace", ok, f"{len(trace.radii)} radii"))

    coeff = problem.coeff
    dom = solvers.domain_for_grid(problem.grid)
    theta = 1.0 / (coeff.p - 1.0) - (dom.dim + dom.gamma - coeff.alpha) / 2.0
    delta = solvers.weighted_initial_mass(problem)
    r1 = solvers.first_admissible_radius(problem.init, coeff.alpha)
    report = lb.criterion_check(trace, lb.BoundInputs(delta, 1.0, r1, theta, coeff.p))
    req = report.required_c0
    spread = float(np.max(np.abs(req - req.mean())) / req.mean())
    bound = lb.lifespan_upper_bound(lb.BoundInputs(delta, report.minimal_c0, r1, theta, coeff.p))
    ok = bool(np.all(np.isfinite(req))) and spread <= C0_SPREAD_MAX and bound >= rec.t_extrapolated
    ops.append(("criterion", ok, f"C0 spread {spread:.2%}, bound {bound:.4g} vs T {rec.t_extrapolated:.4g}"))


def _analysis_verify(workload, config_path, out_dir, seed, ops):
    from blowlab import cli

    for suite, seeded, expected in VERIFY_SUITES:
        argv = ["verify", suite] + (["--seed", str(seed)] if seeded else [])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        lines = [ln for ln in buf.getvalue().splitlines() if ln.startswith(("PASS", "FAIL"))]
        for ln in lines:
            ops.append((f"{suite}: {ln[6:].strip()}", code == 0 and ln.startswith("PASS"), f"exit {code}"))
        for k in range(len(lines), expected):
            ops.append((f"{suite}: check {k + 1} missing", False, f"exit {code}"))


WORKLOADS = {
    "heat_sweep": _sweep,
    "wave_sweep": _sweep,
    "nls_trace": _nls_trace,
    "analysis_verify": _analysis_verify,
}


def run_workload(workload, config_path, out_dir, seed, tracer=None) -> dict:
    """Run one workload and judge it; ``tracer`` (installed here) is optional.

    Returns wall time, the operations with their verdicts, and the digests
    and total size of the files written to ``out_dir``.  An exception fails
    every operation not yet finished.
    """
    os.makedirs(out_dir, exist_ok=True)
    ops: list = []
    error = None
    if tracer is not None:
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        WORKLOADS[workload](workload, config_path, out_dir, seed, ops)
    except Exception:  # the workload's failure is data for the result
        error = traceback.format_exc()
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        if tracer is not None:
            tracer.uninstall()
    for k in range(len(ops), EXPECTED_OPS[workload]):
        ops.append((f"operation {k + 1} not finished", False, "exception"))
    digests, out_bytes = {}, 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        out_bytes += len(data)
    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in ops],
        "error": error,
        "digests": digests,
        "out_bytes": out_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    setup(args.workload, args.config)
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        import blowlab
        import numpy
        import scipy

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        result.update(run_workload(args.workload, args.config, args.out_dir, args.seed, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["blowlab_file"] = blowlab.__file__
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        if tracer is not None:
            metrics = tracer.metrics()
            metrics["config.emit.bytes"] = (result["out_bytes"], "bytes")
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            result["layer_breakdown"] = tracer.breakdown()
            result["absent_hooks"] = tracer.absent
            result["hook_sites"] = tracer.sites
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
