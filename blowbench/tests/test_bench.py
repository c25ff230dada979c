"""Self-test of the benchmark's tracer and worker.

Run from the repository root:  python3 -m pytest -q blowbench/tests

Scaled-down versions of the three simulation workloads (same kinds of
problem, smaller grids) and the full analysis workload each run traced in a
fresh worker process, twice, as the benchmark runs them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "blowbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from blowlab import cli, config, experiments, solvers  # noqa: E402  (loads every layer)
from tracer import Tracer  # noqa: E402
from worker import EXPECTED_OPS, run_workload  # noqa: E402

SMALL = {
    "heat_sweep": {
        "problem": {
            "tau": 0, "p": 2.0, "lambda": 1.0, "a_phase": 0.0,
            "grid": {"geometry": "line", "extent": 60.0, "num_points": 1201},
            "initial": {"center": 0.0, "width": 1.0, "epsilon": 1.0},
        },
        "controls": {"threshold": 1e6, "t_max": 20.0, "dt_init": 0.0025, "snapshot_dt": 0.05},
        "sweep": {"epsilons": [0.9, 1.1, 1.4, 1.8, 2.3]},
    },
    "wave_sweep": {
        "problem": {
            "tau": 1, "p": 2.0, "lambda": 1.0, "a0": 1.0, "alpha": 0.0,
            "grid": {"geometry": "line", "extent": 60.0, "num_points": 3001},
            "initial": {"center": 0.0, "width": 1.0, "epsilon": 1.0,
                        "amplitude": 1.0, "g_amplitude": 1.0},
        },
        "controls": {"threshold": 1e6, "t_max": 60.0, "dt_init": 0.018},
        "sweep": {"epsilons": [1.0, 1.4, 2.0, 2.8, 4.0], "slope_tolerance": 0.2},
    },
    "nls_trace": {
        "problem": {
            "tau": 0, "p": 2.0, "lambda": -1.0, "a_phase": -1.5707963267948966,
            "grid": {"geometry": "line", "extent": 100.0, "num_points": 5001},
            "initial": {"center": 0.0, "width": 1.0, "epsilon": 1.0, "amplitude": [0.0, -0.47]},
        },
        "controls": {"threshold": 1e6, "t_max": 60.0, "dt_init": 0.01, "snapshot_dt": 0.04},
        "trace_radii": [4.0, 4.8, 5.6],
    },
    "analysis_verify": None,
}
SIMULATIONS = ("heat_sweep", "wave_sweep", "nls_trace")

# layer -> (workloads that must call it, workloads that must not)
EXPECTED_LAYERS = {
    "solvers.implicit_solve": (("heat_sweep", "nls_trace"), ("wave_sweep", "analysis_verify")),
    "solvers.laplacian": (SIMULATIONS, ("analysis_verify",)),
    "solvers.nonlinearity": (SIMULATIONS, ("analysis_verify",)),
    "solvers.stepper": (SIMULATIONS, ("analysis_verify",)),
    "solvers.step_control": (SIMULATIONS, ("analysis_verify",)),
    "solvers.trace_quadrature": (("nls_trace",), ("heat_sweep", "wave_sweep", "analysis_verify")),
    "cutoffs.tail_integral": (("analysis_verify",), SIMULATIONS),
    "cutoffs.bound_constants": (("analysis_verify",), SIMULATIONS),
    "lifespan_bounds.oracle": (("analysis_verify",), SIMULATIONS),
    "lifespan_bounds.criterion": (("analysis_verify", "nls_trace"), ("heat_sweep", "wave_sweep")),
    "cone_geometry.hardy": (("analysis_verify",), SIMULATIONS),
    "cone_geometry.eigen": (("analysis_verify",), SIMULATIONS),
    "experiments.sweep": (("heat_sweep", "wave_sweep"), ("nls_trace", "analysis_verify")),
    "config.parse": (SIMULATIONS, ("analysis_verify",)),
    "config.emit": (SIMULATIONS, ("analysis_verify",)),
}
COUNTS = ("solvers.steps_accepted", "solvers.steps_rejected", "solvers.snapshots_held")


def _traced_run(workload, tmp: Path, tag: str) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
           "--out-dir", str(tmp / tag), "--result", str(tmp / f"{tag}.json"), "--trace"]
    if SMALL[workload] is not None:
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(SMALL[workload]))
        cmd += ["--config", str(cfg)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    subprocess.run(cmd, env=env, check=True, timeout=300, stdout=subprocess.DEVNULL)
    result = json.loads((tmp / f"{tag}.json").read_text())
    calls: dict = {}
    for row in result["layer_breakdown"]:
        calls[row["layer"]] = calls.get(row["layer"], 0) + row["calls"]
    result["calls"] = calls
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of each workload."""
    runs = {}
    for workload in SMALL:
        tmp = tmp_path_factory.mktemp(workload)
        runs[workload] = [_traced_run(workload, tmp, tag) for tag in ("a", "b")]
    return runs


@pytest.mark.parametrize("layer", sorted(EXPECTED_LAYERS))
def test_layer_calls_on_its_workload_and_none_on_bypass(traced, layer):
    used, bypass = EXPECTED_LAYERS[layer]
    for workload in used:
        assert traced[workload][0]["calls"].get(layer, 0) > 0, (layer, workload)
    for workload in bypass:
        assert traced[workload][0]["calls"].get(layer, 0) == 0, (layer, workload)


def test_runs_complete_without_absent_hooks(traced):
    for workload, (first, _) in traced.items():
        assert first["error"] is None, first["error"]
        assert first["absent_hooks"] == []
        assert len(first["ops"]) == EXPECTED_OPS[workload]
    for name in ("solvers.snapshots_held", "solvers.snapshot_mb"):
        assert traced["nls_trace"][0]["layers"][name]["value"] > 0
    assert traced["wave_sweep"][0]["layers"]["solvers.snapshots_held"]["value"] == 2
    assert traced["nls_trace"][0]["layers"]["config.emit.bytes"]["value"] > 0


def test_counts_repeat_exactly(traced):
    for workload, (a, b) in traced.items():
        assert a["calls"] == b["calls"], workload
        for name in COUNTS:
            assert a["layers"][name]["value"] == b["layers"][name]["value"], (workload, name)
        assert a["digests"] == b["digests"], workload


def test_every_import_site_is_bound():
    tracer = Tracer().install()
    try:
        sites = tracer.sites
        assert set(sites["blowlab.solvers:run_until_blowup"]) >= {
            "blowlab.solvers.run_until_blowup",
            "blowlab.experiments.run_until_blowup",
            "blowlab.cli.run_until_blowup",
        }
        assert set(sites["blowlab.solvers:functional_trace"]) >= {
            "blowlab.solvers.functional_trace",
            "blowlab.cli.functional_trace",
        }
        assert "blowlab.cli.run_sweep" in sites["blowlab.experiments:sweep"]
        for name in ("emit_record", "emit_trace", "emit_snapshots", "emit_sweep"):
            assert f"blowlab.cli.{name}" in sites[f"blowlab.config:{name}"]
        assert cli.run_sweep is experiments.sweep
        assert cli.emit_sweep is config.emit_sweep
        assert hasattr(cli.run_until_blowup, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(cli.run_until_blowup, "__wrapped__")
    assert not hasattr(solvers._GridData.laplacian, "__wrapped__")


@pytest.mark.parametrize("kernel", ["laplacian", "solve_implicit"])
def test_missing_kernel_is_reported_absent(monkeypatch, kernel):
    monkeypatch.delattr(solvers._GridData, kernel)
    tracer = Tracer().install()
    tracer.uninstall()
    assert tracer.absent == [f"blowlab.solvers:_GridData.{kernel}"]
    layer = "solvers.laplacian" if kernel == "laplacian" else "solvers.implicit_solve"
    metrics = tracer.metrics()
    assert metrics[f"{layer}.calls"] == (0, "count")
    assert metrics[f"{layer}.self_s"] == (0, "s")


def test_run_survives_missing_kernel(monkeypatch, tmp_path):
    monkeypatch.delattr(solvers._GridData, "solve_implicit")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SMALL["wave_sweep"]))
    tracer = Tracer()
    result = run_workload("wave_sweep", str(cfg), str(tmp_path / "out"), 0, tracer)
    assert result["error"] is None
    assert len(result["ops"]) == EXPECTED_OPS["wave_sweep"]
    assert tracer.absent == ["blowlab.solvers:_GridData.solve_implicit"]
    assert tracer.layer("solvers.laplacian")[0] > 0
