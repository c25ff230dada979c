"""Command-line surface.

Subcommands: ``eigen`` (cross-section eigenvalue queries), ``bound``
(closed-form lifespan bounds), ``simulate`` (one blowup run), ``sweep``
(epsilon sweep with fits), ``verify`` (property suites); each takes only
the flags it reads.  Exit codes: 0 success, 1 validation failure (a usage
error, bad inputs or a failed property verdict), 2 runtime fault.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from blowlab import cone_geometry as cg
from blowlab import lifespan_bounds as lb
from blowlab import verify
from blowlab.config import (
    ConfigError,
    emit_criterion,
    emit_record,
    emit_snapshots,
    emit_sweep,
    emit_trace,
    parse_config,
    snapshot_node_stride,
)
from blowlab.experiments import regime_verdict
from blowlab.experiments import sweep as run_sweep
from blowlab.solvers import (
    SnapshotStore,
    TraceAccumulator,
    domain_for_grid,
    grid_coordinates,
    run_until_blowup,
)


# the eigen flags by their argparse dest, which is the spec's field
_SPEC_FLAGS = {"kind": "--kind", "dim": "--N", "omega": "--omega", "theta0": "--theta0", "k": "--k"}


def _spec_from_args(args) -> cg.CrossSectionSpec:
    if args.kind is None or args.dim is None:
        raise ValueError("eigen needs --kind and --N")
    try:
        return cg.CrossSectionSpec(
            kind=args.kind, dim=args.dim, omega=args.omega, theta0=args.theta0, k=args.k
        )
    except cg.SpecError as exc:  # name the flags the user typed, not the fields
        raise cg.SpecError((_SPEC_FLAGS[name], msg) for name, msg in exc.violations) from None


def _cmd_eigen(args) -> int:
    spec = _spec_from_args(args)
    dom = cg.make_domain(spec)
    print(f"kind: {spec.kind}")
    print(f"N: {spec.dim}")
    print(f"lambda_sigma: {dom.lambda_sigma!r}")
    print(f"gamma: {dom.gamma!r}")
    print(f"fujita_threshold(alpha=0): {cg.fujita_threshold(spec.dim, dom.gamma, 0.0)!r}")
    return 0


def _cmd_bound(args) -> int:
    b = lb.BoundInputs(delta=args.delta, c0=args.c0, r1=args.r1, theta=args.theta, p=args.p)
    closed = lb.lifespan_upper_bound(b)
    tag = "theta>0 branch" if b.theta > 0 else "theta=0 branch"
    print(f"bound ({tag}): {closed!r}")
    print(f"bound (theta=0 branch): {lb.lifespan_upper_bound(replace(b, theta=0.0))!r}")
    if args.oracle:
        print(f"saturation oracle: {lb.ode_saturation_oracle(b)!r}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    # the run keeps only the nodes snapshots.csv writes, and streams the trace
    coords = grid_coordinates(cfg.problem.grid)
    points = coords.reshape(-1, coords.shape[-1] if coords.ndim > 1 else 1)
    store = SnapshotStore(snapshot_node_stride(len(points)))
    observers = [store]
    if cfg.trace_radii:
        streamed = TraceAccumulator(cfg.problem, cfg.trace_radii)
        observers.append(streamed)
    result = run_until_blowup(cfg.problem, cfg.controls, observers)
    rec = result.record
    emit_record(rec, os.path.join(args.out_dir, "record.csv"))
    print(f"status: {rec.status}")
    print(f"T_extrapolated: {rec.t_extrapolated!r}")
    print(f"boundary_max: {rec.boundary_max!r}")
    if cfg.trace_radii:
        trace = outcome = reason = None
        try:  # a run too short or too coarse for the quadrature has no trace
            trace = streamed.finish()
            outcome = verify.criterion_pipeline(result, trace)
        except ValueError as exc:
            reason = str(exc)
        if trace is not None:
            emit_trace(trace, os.path.join(args.out_dir, "trace.csv"))
            print(f"trace: {len(cfg.trace_radii)} radii written")
        verdict = emit_criterion(
            os.path.join(args.out_dir, "criterion.json"), rec.t_extrapolated, outcome, reason
        )
        if reason:
            print(f"criterion: no bound: {reason}")
        else:
            print(f"criterion: bound {outcome.bound!r}, bound >= T: {verdict['bound_ge_T']}")
    if len(result.snapshot_times) > 2:
        path = os.path.join(args.out_dir, "snapshots.csv")
        emit_snapshots(result.snapshot_times, result.snapshots, points[:: store.stride], path)
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if cfg.sweep_epsilons is None:
        raise ConfigError(["sweep.epsilons: required for the sweep command"])
    result = run_sweep(
        cfg.problem,
        cfg.sweep_epsilons,
        cfg.controls,
        jobs=args.jobs,
        problem_id=os.path.basename(args.config),
    )
    coeff = cfg.problem.coeff
    dom = domain_for_grid(cfg.problem.grid)
    try:
        predicted = lb.regime_bound(dom.dim, dom.gamma, coeff.alpha, coeff.p)
        regime_verdict(result, predicted, slope_tolerance=cfg.slope_tolerance)
    except ValueError:
        result.verdict = "no prediction: exponent above the blowup threshold"
    summary = emit_sweep(result, args.out_dir)
    print(json.dumps(summary, indent=2))
    return 0


def _report(checks) -> int:
    width = max(len(name) for name, _ in checks)
    ok = True
    for name, passed in checks:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name.ljust(width)}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def _verify_cutoff(args) -> int:
    m = verify.cutoff()
    return _report([
        ("support identities exact", m.support == (1.0, 0.0, 0.0, 0.0)),
        ("log-2 tail inequality at 100 sigmas", bool(np.all(m.log2_margins >= -1e-10))),
        ("bound constants stable (10%) across R", max(m.spreads.values()) <= 0.10),
        ("negative control (power 1) diverges", m.power_one_diverges),
    ])


def _verify_hardy(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    return _report([
        (f"{name}: {args.count} fields above {bound:.4g}", min(q, default=math.inf) >= bound - 1e-6)
        for name, bound, q in verify.hardy(args.seed, args.count, orders=(24, 48, 48))
    ])


def _verify_harmonic(args) -> int:
    m = verify.harmonic()
    return _report([
        ("quarter-plane product weight exactly discrete-harmonic", m.product_laplacian < 1e-10),
        ("half-line Euler identity exact", m.half_line_euler < 1e-12),
        *(
            (f"{kind}: residuals converge at order >= 1.8", lap >= 2.0**1.8 and euler >= 2.0**1.8)
            for kind, lap, euler in m.orders
        ),
    ])


def _verify_lemma_oracle(args) -> int:
    (spot0, spot1), worst = verify.lemma_oracle(args.seed)
    return _report([
        ("spot value theta=0 equals 2", abs(spot0 - 2.0) < 1e-14),
        ("spot value theta=1 equals 1+log2", abs(spot1 - 1.0 - math.log(2.0)) < 1e-14),
        (
            f"oracle agrees to 1e-6 on {verify.ORACLE_POINTS} points (worst {worst:.2e})",
            worst <= 1e-6,
        ),
    ])


class _Parser(argparse.ArgumentParser):
    """Takes each flag only by its full name and raises a usage error as
    ``ValueError``, so ``main`` exits 1 with it.  A flag of ``suite_flags``
    given before the subcommand's name is named as such."""

    suite_flags = frozenset()  # the flags of the subcommands below, which follow their name

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)  # a prefix of a flag is not that flag
        super().__init__(*args, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        for arg in args if self.suite_flags else ():
            if not arg.startswith("-"):
                break  # the subcommand's name
            flag = arg.split("=", 1)[0]
            if flag in self.suite_flags:
                self.error(
                    f"{flag} comes before the suite: a suite's flags follow its name, "
                    f"as in 'blowlab verify hardy {flag} 1'"
                )
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True, help="JSON run configuration")
    run.add_argument("--out-dir", default=".", help="output directory (default: .)")

    parser = _Parser(prog="blowlab", description=__doc__)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log each run's step control to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eig = sub.add_parser("eigen", help="cross-section eigenvalue queries")
    eig.add_argument("--kind", choices=cg.VALID_KINDS)
    eig.add_argument("--N", dest="dim", type=int)
    eig.add_argument("--omega", type=float)
    eig.add_argument("--theta0", type=float)
    eig.add_argument("--k", type=int)
    eig.set_defaults(func=_cmd_eigen)

    bnd = sub.add_parser("bound", help="closed-form lifespan bounds")
    bnd.add_argument("--delta", type=float, required=True)
    bnd.add_argument("--c0", type=float, required=True)
    bnd.add_argument("--r1", type=float, required=True)
    bnd.add_argument("--theta", type=float, required=True)
    bnd.add_argument("--p", type=float, required=True)
    bnd.add_argument("--oracle", action="store_true", help="also run the saturation oracle")
    bnd.set_defaults(func=_cmd_bound)

    sim = sub.add_parser("simulate", parents=[run], help="run one problem to blowup")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", parents=[run], help="epsilon sweep with scaling fits")
    swp.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    swp.set_defaults(func=_cmd_sweep)

    ver = sub.add_parser("verify", help="property verification suites")
    suites = ver.add_subparsers(dest="suite", required=True)
    suites.add_parser("cutoff").set_defaults(func=_verify_cutoff)
    hardy = suites.add_parser("hardy")
    hardy.add_argument("--seed", type=int, default=0, help="seed of the random fields")
    hardy.add_argument("--count", type=int, default=200, help="fields per domain")
    hardy.set_defaults(func=_verify_hardy)
    suites.add_parser("harmonic").set_defaults(func=_verify_harmonic)
    oracle = suites.add_parser("lemma-oracle")
    oracle.add_argument("--seed", type=int, default=0, help="seed of the random inputs")
    oracle.set_defaults(func=_verify_lemma_oracle)
    ver.suite_flags = frozenset({"--seed", "--count"})

    return parser


@contextlib.contextmanager
def _run_log(enabled: bool):
    """Route the package's DEBUG log to stderr while the command runs."""
    if not enabled:
        yield
        return
    log = logging.getLogger("blowlab")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _run_log(args.verbose):
            return args.func(args)
    except ValueError as exc:  # a ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime fault
        print(f"fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
