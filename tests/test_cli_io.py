import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from typing import get_type_hints

import numpy as np
import pytest

from blowlab import config
from blowlab.cli import build_parser, main
from blowlab.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    emit_records,
    emit_sweep,
    emit_trace,
    parse_config,
    read_trace,
)
from blowlab.experiments import sweep
from blowlab.lifespan_bounds import FunctionalTrace
from blowlab.solvers import GridSpec, RunControls, SnapshotStore, grid_coordinates


def _heat_config(**overrides):
    cfg = {
        "problem": {
            "tau": 0,
            "p": 2.0,
            "lambda": 1.0,
            "a_phase": 0.0,
            "grid": {"geometry": "line", "extent": 60.0, "num_points": 1201},
            "initial": {"center": 0.0, "width": 1.0, "epsilon": 1.0},
        },
        "controls": {"threshold": 1e6, "t_max": 20.0, "dt_init": 0.0025},
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_minimal_config_fills_defaults():
    cfg = config_from_dict(_heat_config())
    assert cfg.problem.coeff.p == 2.0
    assert cfg.controls.threshold == 1e6
    assert cfg.sweep_epsilons is None
    assert cfg.seed == 0


def test_config_rejects_alpha_out_of_range():
    raw = _heat_config()
    raw["problem"]["tau"] = 1
    del raw["problem"]["a_phase"]
    raw["problem"]["a0"] = 1.0
    raw["problem"]["alpha"] = 1.5
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert any("alpha must lie in [0,1]" in e for e in err.value.errors)


def test_config_rejects_coefficient_form_mismatch():
    raw = _heat_config()
    raw["problem"]["tau"] = 1
    # keeps a_phase while claiming tau=1
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert any("a_phase" in e for e in err.value.errors)


def test_config_rejects_unknown_keys_and_collects_all_errors():
    raw = _heat_config()
    raw["problem"]["grid"]["shape"] = "round"
    raw["problem"]["p"] = 0.5
    raw["mystery"] = 1
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    msgs = err.value.errors
    assert any("unknown key" in e and "shape" in e for e in msgs)
    assert any("p: must exceed 1" in e for e in msgs)
    assert any("mystery" in e for e in msgs)
    assert len(msgs) >= 3


def _polar_config():
    raw = _heat_config()
    raw["problem"]["grid"] = {
        "geometry": "polar-sector",
        "extent": 10.0,
        "num_points": 64,
        "omega": 1.0,
        "num_angles": 64,
    }
    raw["problem"]["initial"]["center"] = 4.0
    return raw


@pytest.mark.parametrize(
    "make, where, value",
    [
        (_heat_config, "problem.tau", 0.0),
        (_heat_config, "problem.grid.dim", True),
        (_heat_config, "controls.max_steps", True),
        (_heat_config, "controls.thresholds", [True]),
        (_heat_config, "sweep.epsilons", [True, 2]),
        (_heat_config, "problem.lambda", True),
        (_heat_config, "seed", True),
        (_heat_config, "controls.snapshot_dt", -1.0),
        (_heat_config, "controls.snapshot_dt", float("nan")),
        (_polar_config, "problem.grid.num_angles", 10.5),
        (_polar_config, "problem.grid.num_angles", "64"),
        # fields that only another geometry reads
        (_heat_config, "problem.grid.omega", 1.0),
        (_heat_config, "problem.grid.num_angles", 64),
        (_heat_config, "problem.grid.include_origin", False),
        (_polar_config, "problem.grid.include_origin", False),
        (_polar_config, "problem.grid.dim", 3),
        # non-finite numbers, which Python's JSON reader accepts as NaN and Infinity
        (_heat_config, "problem.initial.center", float("nan")),
        (_heat_config, "problem.initial.epsilon", float("inf")),
        (_heat_config, "problem.initial.amplitude", float("nan")),
        (_heat_config, "problem.grid.extent", float("inf")),
        (_heat_config, "problem.p", float("inf")),
        (_heat_config, "problem.lambda", [1.0, float("nan")]),
        (_heat_config, "sweep.epsilons", [0.5, float("inf")]),
        (_heat_config, "trace_radii", [4.0, float("inf")]),
        pytest.param(_heat_config, "controls.t_max", 10**400, id="_heat_config-controls.t_max-1e400"),
    ],
)
def test_config_rejects_mistyped_values(make, where, value):
    raw = make()
    config_from_dict(raw)  # valid before the edit
    *sections, key = where.split(".")
    target = raw
    for name in sections:
        target = target.setdefault(name, {})
    target[key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert any(e.startswith(where + ":") for e in err.value.errors)


def test_config_names_each_non_finite_json_number(tmp_path):
    raw = _heat_config(sweep={"epsilons": [0.5, math.nan]})
    raw["problem"]["p"] = -math.inf
    raw["problem"]["initial"].update(center=math.nan, amplitude=[1.0, math.inf])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))  # written as NaN, Infinity and -Infinity
    with pytest.raises(ConfigError) as err:
        parse_config(str(cfg_path))
    where = ("problem.p", "problem.initial.center", "problem.initial.amplitude", "sweep.epsilons")
    assert sorted(err.value.errors) == sorted(f"{w}: expected a finite number" for w in where)


def test_config_rejects_a_trace_without_snapshots(tmp_path):
    raw = _heat_config(trace_radii=[4.0, 8.0])
    raw["controls"]["snapshot_dt"] = 0.05
    config_from_dict(raw)  # valid with snapshots
    del raw["controls"]["snapshot_dt"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.errors == ["controls.snapshot_dt: must be positive when trace_radii are set"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()  # rejected before the run


@pytest.mark.parametrize("g_amplitude", [5.0, [0.0, 1.0]], ids=["real", "complex"])
def test_config_rejects_an_initial_velocity_without_tau_1(tmp_path, capsys, g_amplitude):
    # a tau=0 run has no u_t(0): a nonzero g_amplitude is an error, not ignored
    raw = _heat_config()
    raw["problem"]["initial"]["g_amplitude"] = g_amplitude
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "problem.initial: g_amplitude must be 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the run
    raw["problem"]["initial"]["g_amplitude"] = 0.0
    config_from_dict(raw)  # zero is the default, and valid


@pytest.mark.parametrize("tau", [0, 1], ids=["heat", "damped-wave"])
def test_config_rejects_a_bump_that_holds_no_grid_node(tmp_path, capsys, tau):
    # the support (0.029, 0.031) lies between the nodes 0.0 and 0.1005: the
    # run used to fail on its empty row range and exit 2
    raw = _heat_config()
    raw["problem"]["grid"].update(extent=20.0, num_points=200)
    raw["problem"]["initial"].update(center=0.03, width=0.001, epsilon=0.5)
    if tau == 1:
        del raw["problem"]["a_phase"]
        raw["problem"].update(tau=1, a0=1.0)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "problem.initial: initial data support must hold a grid node" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before the run


@pytest.mark.parametrize(
    "radii, message",
    [
        ([], "must hold at least one radius"),
        ([8.0, 4.0, 6.0], "must be strictly increasing"),
        ([4.0, 4.0], "must be strictly increasing"),
    ],
    ids=["empty", "unordered", "repeated"],
)
def test_config_rejects_empty_or_unordered_trace_radii(tmp_path, radii, message):
    raw = _heat_config(trace_radii=radii)
    raw["controls"].update(t_max=5.0, snapshot_dt=0.05)
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert err.value.errors == [f"trace_radii: {message}"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()  # rejected before the run


def test_config_reports_every_rule_a_section_breaks():
    raw = _heat_config()
    del raw["problem"]["a_phase"]
    raw["problem"].update(tau=1, a0=1.0, p=1.0, alpha=1.5)
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert "problem.p: must exceed 1" in err.value.errors
    assert "problem.alpha: alpha must lie in [0,1]" in err.value.errors


def test_thresholds_must_have_a_record_column():
    raw = _heat_config()
    raw["controls"]["thresholds"] = [5e3, 1e7]
    with pytest.raises(ConfigError) as err:
        config_from_dict(raw)
    assert any(e.startswith("controls.thresholds:") for e in err.value.errors)
    with pytest.raises(ValueError):
        RunControls(threshold=5e5)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.json")


def test_trace_csv_round_trip(tmp_path):
    tr = FunctionalTrace(
        radii=np.array([1.0, 2.5, 7.0]),
        shell_mass=np.array([0.0, 0.125, 0.6]),
        mass=np.array([0.1, 0.25, 0.75]),
    )
    path = tmp_path / "trace.csv"
    emit_trace(tr, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "R,y,m"
    assert len(text.splitlines()) == 4
    back = read_trace(str(path))
    assert np.array_equal(back.radii, tr.radii)
    assert np.array_equal(back.shell_mass, tr.shell_mass)
    assert np.array_equal(back.mass, tr.mass)


def _emit_snapshots_by_rows(times, fields, coords, path):
    """The row-by-row writer that ``emit_snapshots`` replaced: the reference."""
    time_stride = max(1, len(times) // 50)
    node_stride = max(1, np.asarray(fields[0]).size // 2000)
    coords = np.asarray(coords)
    pts = coords.reshape(-1, coords.shape[-1]) if coords.ndim > 1 else coords.reshape(-1, 1)
    rows = []
    for idx in range(0, len(times), time_stride):
        t = times[idx]
        flat = np.asarray(fields[idx]).reshape(-1)
        for j in range(0, flat.size, node_stride):
            z = complex(flat[j])
            rows.append([t, *pts[j], z.real, z.imag])
    header = ("t", *(f"x{i+1}" for i in range(pts.shape[1])), "u_re", "u_im")
    config._write_csv(path, header, rows)


@pytest.mark.parametrize("case", ["real", "complex-special", "polar-sector"])
def test_emit_snapshots_matches_the_row_writer(tmp_path, case):
    rng = np.random.default_rng(3)
    if case == "polar-sector":
        grid = GridSpec("polar-sector", extent=4.0, num_points=90, omega=2.0, num_angles=50)
        coords = grid_coordinates(grid)
        shape = coords.shape[:-1]
    else:
        coords = np.linspace(-30.0, 30.0, 4321)
        shape = coords.shape
    # 121 times and over 4000 nodes: both strides are 2
    times = [0.0, *np.cumsum(rng.uniform(0.01, 0.1, 120)).tolist()]
    fields = [rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape) for _ in times]
    if case != "real":
        fields = [f + 1j * rng.normal(size=shape) for f in fields]
    if case == "complex-special":
        for f in fields:
            flat = f.reshape(-1)  # even strides: every special value lands on a written node
            flat.real[::6] = -0.0
            flat.imag[::10] = -0.0
            flat.real[::8] = np.nan
            flat.imag[::14] = np.inf
            flat.real[::22] = -np.inf
    ref = tmp_path / "ref.csv"
    _emit_snapshots_by_rows(times, fields, coords, str(ref))
    # simulate's call: the node-strided store with its thinned coordinates
    store = SnapshotStore(config.snapshot_node_stride(fields[0].size))
    for t, f in zip(times, fields):
        store(t, f)
    points = coords.reshape(-1, coords.shape[-1] if coords.ndim > 1 else 1)
    new = tmp_path / "new.csv"
    config.emit_snapshots(times, store.fields, points[:: store.stride], str(new))
    assert store.stride == 2 and new.read_bytes() == ref.read_bytes()
    text = new.read_text()
    assert "np.float64" not in text
    if case == "complex-special":
        assert all(v in text for v in (",-0.0,", ",nan,", ",inf\n", ",-inf,"))


def test_empty_record_csv_is_header_only(tmp_path):
    path = tmp_path / "records.csv"
    emit_records([], str(path))
    assert path.read_text() == (
        "epsilon,p,tau,alpha,zeta,status,T_at_1e3,T_at_1e4,T_at_1e5,T_at_1e6,"
        "T_extrapolated,dt_final,h,steps\n"
    )


def test_re_emit_byte_identical(tmp_path):
    cfg = config_from_dict(_heat_config())
    controls = RunControls(threshold=1e6, t_max=10.0, dt_init=0.0025)
    result = sweep(cfg.problem, (0.9, 1.1, 1.4, 1.8, 2.3), controls)
    emit_sweep(result, str(tmp_path / "a"))
    emit_sweep(result, str(tmp_path / "b"))
    for name in ("sweep.csv", "sweep.dat", "sweep_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_eigen_and_bound_exit_codes(capsys):
    assert main(["eigen", "--kind", "planar-sector", "--N", "2", "--omega", "0.7853981633974483"]) == 0
    out = capsys.readouterr().out
    assert "lambda_sigma: 16.0" in out
    assert main(["bound", "--delta", "1", "--c0", "1", "--r1", "1", "--theta", "0", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "2.0" in out
    # invalid inputs exit 1
    assert main(["eigen", "--kind", "planar-sector", "--N", "3", "--omega", "1.0"]) == 1
    assert main(["bound", "--delta", "-1", "--c0", "1", "--r1", "1", "--theta", "0", "--p", "2"]) == 1
    # a bound beyond the float range prints inf on both branches
    assert main(["bound", "--delta", "1e-6", "--c0", "10", "--r1", "1", "--theta", "0.001",
                 "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "bound (theta>0 branch): inf" in out and "bound (theta=0 branch): inf" in out


def _blowlab(*argv, timeout=None):
    """``python -m blowlab argv`` in a fresh process, with this checkout's ``src`` first."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "blowlab", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def _bound_argv(**changes):
    values = {"delta": "1", "c0": "1", "r1": "1", "theta": "0.5", "p": "2", **changes}
    return ["bound", *(a for k, v in values.items() for a in (f"--{k}", v)), "--oracle"]


def test_cli_bound_prints_the_saturation_oracle(capsys):
    assert main(_bound_argv()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(": ")[0] for ln in lines] == [
        "bound (theta>0 branch)", "bound (theta=0 branch)", "saturation oracle"
    ]
    closed, oracle = float(lines[0].split(": ")[1]), float(lines[2].split(": ")[1])
    assert abs(oracle - closed) <= 1e-6 * closed


@pytest.mark.parametrize(
    "field, value",
    [("delta", "nan"), ("c0", "nan"), ("r1", "nan"), ("theta", "nan"), ("p", "nan"),
     ("delta", "inf"), ("r1", "inf"), ("theta", "inf"), ("p", "inf"), ("c0", "inf")],
)
def test_cli_bound_rejects_non_finite_inputs(field, value, capsys):
    argv = _bound_argv(**{field: value})
    if value == "nan" or field == "p":
        # the oracle's march never ended on these: a timeout turns a hang into a failure
        proc = _blowlab(*argv, timeout=60)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_verify_hardy_needs_a_field(count, capsys):
    assert main(["verify", "hardy", "--count", count]) == 1
    out, err = capsys.readouterr()
    assert "--count" in err and "PASS" not in out


def test_cli_eigen_names_each_bad_flag(capsys):
    assert main(["eigen", "--kind", "planar-sector", "--N", "2", "--omega", "0.7853981633974483"]) == 0
    assert "lambda_sigma: 16.0" in capsys.readouterr().out
    for flags, named in [
        (["--N", "2"], "error: eigen needs --kind and --N"),
        (["--kind", "planar-sector", "--N", "2", "--omgea", "0.78"], "unrecognized arguments: --omgea"),
        (["--kind", "planar-sector", "--N", "3", "--omega", "1"], "error: --N: planar-sector requires N=2"),
        (["--kind", "spherical-cap", "--N", "3", "--theta0", "3.141592653589793"], "error: --theta0:"),
        (["--kind", "full-sphere", "--N", "3", "--k", "2"], "error: --k: full-sphere takes no k"),
    ]:
        assert main(["eigen", *flags]) == 1
        assert named in capsys.readouterr().err


def _radial_config(include_origin):
    raw = _heat_config()
    raw["problem"]["grid"] = {
        "geometry": "radial", "extent": 10.0, "num_points": 101, "dim": 3,
        "include_origin": include_origin,
    }
    raw["problem"]["initial"]["center"] = 0.0 if include_origin else 5.0
    return raw


@pytest.mark.parametrize("make, dim, named", [
    (lambda: _radial_config(True), 1, "problem.grid.dim: radial requires N>=2"),
    (lambda: _radial_config(False), 1, "problem.grid.dim: radial requires N>=2"),
    (_polar_config, 2, "problem.grid.dim: polar-sector takes no dim (only radial does)"),
], ids=["radial-1", "radial-1-no-origin", "polar-sector-dim-2"])
def test_cli_rejects_a_second_spelling_of_a_grid(tmp_path, capsys, make, dim, named):
    # N = 1 is the line or the half line, and the polar sector's N is always 2
    raw = make()
    config_from_dict(raw)  # valid before the edit
    raw["problem"]["grid"]["dim"] = dim
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "record.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["eigen", "--kind", "half-space-product", "--N", "1", "--k", "1"],
     "error: --N: half-space-product requires N>=2"),
    (["eigen", "--spec-json", '{"kind": "full-line", "N": 1}'],
     "unrecognized arguments: --spec-json"),
], ids=["half-space-product-N-1", "spec-json"])
def test_cli_eigen_rejects_a_second_spelling_of_a_cone(capsys, argv, named):
    assert main(argv) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--N", "1"], "error: --N: full-sphere requires N>=2"),
    (["--N", "3", "--omega", "1"], "error: --omega: full-sphere takes no omega"),
    (["--N", "3", "--theta0", "0.5"], "error: --theta0: full-sphere takes no theta0"),
    (["--N", "3", "--k", "2"], "error: --k: full-sphere takes no k"),
])
def test_cli_eigen_errors_name_the_flag(capsys, flags, named):
    assert main(["eigen", "--kind", "full-sphere", *flags]) == 1
    assert capsys.readouterr().err.startswith(named)


def test_cli_simulate_memory_grows_by_strided_copies_with_run_length(tmp_path, capsys):
    """A longer traced run holds more node-strided snapshots, not more full fields."""
    nodes, snapshot_dt = 20001, 0.05
    raw = _heat_config(trace_radii=[4.0, 8.0, 16.0])
    raw["problem"]["grid"].update(extent=200.0, num_points=nodes)
    raw["problem"]["initial"]["epsilon"] = 0.05  # survives both horizons
    raw["controls"].update(dt_init=0.01, snapshot_dt=snapshot_dt)
    cfg_path = tmp_path / "cfg.json"

    def simulate(t_max):
        raw["controls"]["t_max"] = t_max
        cfg_path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        assert "status: survived" in capsys.readouterr().out

    simulate(1.0)  # fills the grid caches outside the measurement
    peaks = []
    for t_max in (1.0, 2.0):
        tracemalloc.start()
        try:
            simulate(t_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    stride = config.snapshot_node_stride(nodes)
    strided = 8 * (-(-nodes // stride))  # bytes of one strided real snapshot
    extra = round(1.0 / snapshot_dt)  # snapshots the longer run adds
    # each extra snapshot may cost its strided copy plus 1 KiB of bookkeeping;
    # one full field of slack, where a full store would add 20 of them
    assert peaks[1] - peaks[0] <= extra * (strided + 1024) + 8 * nodes


def test_cli_simulate_and_sweep(tmp_path, capsys):
    raw = _heat_config()
    raw["problem"]["initial"]["epsilon"] = 0.5  # T ~ 15, so the radii stay causal
    raw["controls"]["snapshot_dt"] = 0.05
    raw["trace_radii"] = [4.0, 6.0, 9.0]
    raw["sweep"] = {"epsilons": [0.9, 1.1, 1.4, 1.8, 2.3]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "record.csv").exists()
    assert (out_dir / "trace.csv").exists()
    verdict = json.loads((out_dir / "criterion.json").read_text())
    assert verdict["theta"] == 0.5 and verdict["R1"] == 4.0 and verdict["reason"] is None
    assert verdict["bound"] >= verdict["T"] > 0 and verdict["bound_ge_T"] is True
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["fit_status"] == "ok"
    assert summary["slope"] < 0
    assert (out_dir / "sweep.csv").exists()
    assert (out_dir / "sweep.dat").exists()


@pytest.mark.parametrize(
    "p, epsilon, reported",
    [
        # above the line's threshold 3: theta < 0 and no bound exists
        (4.0, 1.2, "criterion: no bound: theta"),
        # at the threshold: theta = 0, and the bound's exponent is far beyond the float range
        (3.0, 0.1, "criterion: bound inf"),
    ],
)
def test_cli_simulate_verdict_without_finite_bound(tmp_path, capsys, p, epsilon, reported):
    raw = _heat_config(trace_radii=[4.0, 4.5])
    raw["problem"]["p"] = p
    raw["problem"]["initial"]["epsilon"] = epsilon
    raw["controls"].update(t_max=2.0, snapshot_dt=0.01)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "record.csv").exists() and (tmp_path / "trace.csv").exists()
    verdict = json.loads((tmp_path / "criterion.json").read_text())
    assert verdict["bound"] is None and reported in capsys.readouterr().out
    if p == 4.0:
        assert "< 0" in verdict["reason"] and verdict["bound_ge_T"] is False
    else:
        assert verdict["reason"] is None and verdict["theta"] == 0.0
        assert math.isfinite(verdict["minimal_C0"])


def _above_threshold_config(**overrides):
    """A 201-node heat config whose start already exceeds the threshold: a blowup at t = 0."""
    raw = _heat_config(**overrides)
    raw["problem"]["grid"].update(extent=20.0, num_points=201)
    raw["problem"]["initial"]["epsilon"] = 2e6
    return raw


@pytest.mark.parametrize("epsilons", [[2e6, 3e6], [2e6, 3e6, 4e6, 5e6, 6e6]])
def test_cli_sweep_of_blowups_at_t0_writes_its_outputs(tmp_path, capsys, epsilons):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_above_threshold_config(sweep={"epsilons": epsilons})))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5::5] for row in rows] == [["blowup", "0.0"]] * len(epsilons)
    assert (tmp_path / "sweep.dat").read_text() == ""
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    named = ", ".join(repr(float(e)) for e in epsilons)
    assert summary["fit_status"] == f"skipped: only 0 blowups after t = 0 (need 5); blowups at t = 0: eps {named}"
    assert summary["verdict"] == "unfitted: too few blowups after t = 0"


def test_cli_simulate_without_a_trace_writes_the_reason(tmp_path, capsys):
    raw = _above_threshold_config(trace_radii=[4.0, 6.0])
    raw["controls"]["snapshot_dt"] = 0.05
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "criterion.json", "record.csv"]
    verdict = json.loads((tmp_path / "criterion.json").read_text())
    assert verdict["reason"] == "need at least 4 snapshots for the time quadrature"
    assert verdict["T"] == 0.0 and verdict["bound"] is None and verdict["bound_ge_T"] is False
    assert "criterion: no bound: need at least 4 snapshots" in capsys.readouterr().out


def test_cli_critical_sweep_writes_its_outputs(tmp_path, capsys):
    # p = 3 is the line's threshold: the exponential regime, which fixes no lifespan value
    raw = _heat_config(sweep={"epsilons": [0.03, 0.05]})
    raw["problem"]["p"] = 3.0
    raw["controls"]["t_max"] = 1.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    for name in ("sweep.csv", "sweep.dat", "sweep_summary.json"):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())
    assert summary["verdict"] == "no blowup observed"


@pytest.mark.parametrize("key, value", [("thresholds", [1e3, 1e6]), ("growth_limit", 0.2),
                                        ("dt_min", 1e-6)])
def test_cli_rejects_the_fixed_step_control_keys(tmp_path, capsys, key, value):
    raw = _heat_config()
    raw["controls"][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert f"controls.{key}: unknown key" in capsys.readouterr().err


def test_cli_verbose_logs_one_line_per_run(tmp_path, capsys):
    raw = _heat_config()
    raw["sweep"] = {"epsilons": [0.9, 1.1]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == 0
    assert "blowlab.solvers" not in capsys.readouterr().err
    assert main(["-v", "sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(ln.startswith("blowlab.solvers: eps ") and "steps accepted" in ln for ln in lines)
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


def test_cli_nls_run_backs_off_its_failed_probes(tmp_path, capsys):
    # every step-doubling probe of the NLS run fails (the dispersive phase error of a 2*dt
    # step); the waits 2, 4, 8, 16 and then 32 steps give 12 probes by t = 3
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    with open(os.path.join(root, "schrodinger_blowup.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["controls"]["t_max"] = 3.0
    del raw["trace_radii"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["-v", "simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    (line,) = [ln for ln in capsys.readouterr().err.splitlines() if "steps accepted" in ln]
    assert "survived" in line and "probes 0 passed / 12 failed" in line


def test_cli_sweep_determinism_across_workers(tmp_path):
    raw = _heat_config()
    raw["sweep"] = {"epsilons": [0.9, 1.1, 1.4, 1.8, 2.3]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    outs = []
    for jobs, tag in ((1, "serial"), (3, "par")):
        out_dir = tmp_path / tag
        code = main(
            ["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir), "--jobs", str(jobs)]
        )
        assert code == 0
        outs.append((out_dir / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_sweep_rejects_repeated_epsilons(tmp_path, capsys):
    raw = _heat_config()
    raw["sweep"] = {"epsilons": [0.5, 0.5]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "sweep.epsilons: epsilon values must be distinct" in capsys.readouterr().err


def test_cli_sweep_needs_epsilons(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_heat_config()))
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "sweep.epsilons: required for the sweep command" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_validation_failure(capsys):
    assert main(["sweep", "--config", "/does/not/exist.json"]) == 1
    assert main(["simulate"]) == 1


@pytest.mark.parametrize("argv, named", [
    (["eigen", "--kind", "full-line", "--N", "abc"], "--N: invalid int value: 'abc'"),
    (["frob"], "invalid choice: 'frob'"),
    (["simulate", "--out-dir", "out"], "required: --config"),
    # argparse alone would take the flag's value for the suite's name
    *(
        pytest.param(
            ["verify", *flag_first],
            f"verify: {flag} comes before the suite: a suite's flags follow its name, "
            f"as in 'blowlab verify hardy {flag} 1'",
            id=" ".join(["verify", *flag_first]),
        )
        for flag, flag_first in [
            ("--seed", ["--seed", "1", "hardy"]),
            ("--count", ["--count", "5", "hardy"]),
            ("--seed", ["--seed=1", "lemma-oracle"]),
        ]
    ),
])
def test_cli_usage_errors_exit_1(capsys, argv, named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: blowlab") and named in err


# every flag the shared parser once gave a command that does not read it
_UNREAD_FLAGS = [
    (command, flag)
    for command, flags in (
        (["eigen", "--kind", "full-line", "--N", "1"], ("--config", "--out-dir", "--seed", "--jobs")),
        (_bound_argv(), ("--config", "--out-dir", "--seed", "--jobs")),
        (["simulate", "--config", "cfg.json"], ("--seed", "--jobs")),
        (["sweep", "--config", "cfg.json"], ("--seed",)),
        (["verify", "lemma-oracle"], ("--config", "--out-dir", "--jobs")),
    )
    for flag in flags
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS, ids=[f"{c[0]} {f}" for c, f in _UNREAD_FLAGS])
def test_cli_rejects_a_flag_its_command_does_not_read(capsys, command, flag):
    assert main([*command, flag, "1"]) == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cutoff", "--seed", "3"], ["cutoff", "--count", "3"], ["harmonic", "--seed", "3"],
    ["harmonic", "--count", "3"], ["lemma-oracle", "--count", "-5"],
], ids=" ".join)
def test_cli_verify_suite_rejects_a_flag_it_does_not_read(capsys, argv):
    assert main(["verify", *argv]) == 1
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err and "PASS" not in out


_PREFIXES = [
    (["sweep", "--config", "cfg.json", "--out", "o"], "unrecognized arguments: --out o"),
    (["sweep", "--config", "cfg.json", "--job", "1"], "unrecognized arguments: --job 1"),
    (["sweep", "--conf", "cfg.json"], "required: --config"),
    (["simulate", "--config", "cfg.json", "--out-d", "o"], "unrecognized arguments: --out-d o"),
    (["verify", "hardy", "--cou", "5"], "unrecognized arguments: --cou 5"),
    (["verify", "hardy", "--see", "1"], "unrecognized arguments: --see 1"),
    (["verify", "--see=1", "hardy"], "unrecognized arguments: --see=1"),
    (["eigen", "--kin", "full-line", "--N", "1"], "unrecognized arguments: --kin full-line"),
    (["eigen", "--spec", '{"kind": "full-line", "N": 1}'], "unrecognized arguments: --spec {"),
    ([*_bound_argv(), "--del", "1"], "unrecognized arguments: --del 1"),
    ([*_bound_argv()[:-1], "--orac"], "unrecognized arguments: --orac"),
    (["--verb", "eigen", "--kind", "full-line", "--N", "1"], "unrecognized arguments: --verb"),
]


@pytest.mark.parametrize("argv, named", _PREFIXES, ids=[f"{a[0]} {n.split(': ')[-1]}" for a, n in _PREFIXES])
def test_cli_rejects_a_prefix_of_a_flag(capsys, argv, named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: blowlab") and named in err


def test_cli_runtime_fault_exits_2(tmp_path, capsys):
    raw = _heat_config()
    raw["controls"]["max_steps"] = 3  # exhaust the step budget mid-run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path)]) == 2


def test_cli_verify_suites_pass(capsys):
    # the check lines each suite prints, as the benchmark counts them
    for argv, checks in ((["cutoff"], 4), (["hardy", "--seed", "7"], 3), (["harmonic"], 4),
                         (["lemma-oracle", "--seed", "7"], 3)):
        suite = argv[0]
        assert main(["verify", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "all checks passed", suite
        assert [ln[:4] for ln in lines[:-1]] == ["PASS"] * checks, suite


def test_cli_verify_suites_take_their_own_flags_after_the_name():
    parser = build_parser()
    args = parser.parse_args(["verify", "hardy", "--seed", "7", "--count", "3"])
    assert (args.suite, args.seed, args.count) == ("hardy", 7, 3)
    args = parser.parse_args(["verify", "hardy"])
    assert (args.seed, args.count) == (0, 200)
    args = parser.parse_args(["verify", "lemma-oracle", "--seed", "7"])
    assert (args.suite, args.seed) == ("lemma-oracle", 7) and not hasattr(args, "count")
    for suite in ("cutoff", "harmonic"):
        args = parser.parse_args(["verify", suite])
        assert not hasattr(args, "seed") and not hasattr(args, "count")


def test_shipped_configs_validate():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(root))
    assert len(names) >= 3
    for name in names:
        cfg = parse_config(os.path.join(root, name))
        assert cfg.problem.coeff.p > 1


def test_console_entry_point_runs():
    proc = _blowlab("bound", "--delta", "1", "--c0", "1", "--r1", "1", "--theta", "1", "--p", "2")
    assert proc.returncode == 0
    assert "1.693147" in proc.stdout


def _json_keys(cls) -> dict:
    """Each key of the JSON object of a config dataclass, mapped to the keys of
    its section when it is one and to None when it holds a value."""
    names = config._JSON_NAMES.get(cls, {})
    hints = get_type_hints(cls)
    out: dict = {}
    for f in fields(cls):
        name, hint = names.get(f.name, f.name), hints[f.name]
        if name is None:
            out.update(_json_keys(hint))
            continue
        group, _, key = name.rpartition(".")
        (out.setdefault(group, {}) if group else out)[key] = (
            _json_keys(hint) if is_dataclass(hint) else None
        )
    return out


def _doc_keys(obj: dict) -> dict:
    return {k: _doc_keys(v) if isinstance(v, dict) else None for k, v in obj.items()}


def test_formats_config_example_has_exactly_the_config_keys():
    path = os.path.join(os.path.dirname(__file__), "..", "formats.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    example = text.split("## Run configuration (JSON)")[1].split("```json\n")[1].split("```")[0]
    doc = _doc_keys(json.loads(re.sub(r"//.*", "", example)))
    want = _json_keys(RunConfig)
    sections = [((), doc, want)]
    while sections:  # compare one JSON object at a time, so a failure names its section
        where, got, expected = sections.pop()
        assert set(got) == set(expected), ".".join(where) or "top level"
        sections.extend(((*where, k), got[k], v) for k, v in expected.items() if v is not None)


def test_cli_simulate_without_lambda_gives_no_bound_and_keeps_the_trace(tmp_path, capsys):
    _assert_no_bound_without_lambda(tmp_path, capsys, tau=0)


def test_cli_simulate_of_a_linear_damped_wave_gives_no_bound(tmp_path, capsys):
    # it used to print and write the finite bound 267.29 with reason null
    _assert_no_bound_without_lambda(tmp_path, capsys, tau=1)


def test_cli_simulate_of_a_defocusing_damped_wave_gives_no_bound(tmp_path, capsys):
    # it used to print and write the finite bound 614.77 with reason null
    _assert_no_bound_without_lambda(tmp_path, capsys, tau=1, lam=-1.0)


def _assert_no_bound_without_lambda(tmp_path, capsys, tau, lam=0.0):
    # with lambda = 0 the equation has no source to blow up on, and the damped
    # wave's bound needs a focusing one (lambda > 0): a run has no bound, which
    # criterion.json says, and its trace is written all the same
    raw = _heat_config(trace_radii=[4.0, 5.0, 6.0])
    raw["problem"]["lambda"] = lam
    raw["problem"]["grid"]["num_points"] = 601
    raw["problem"]["initial"]["epsilon"] = 0.5
    if tau == 1:  # the linear damped wave: a0 1, g_amplitude 1
        del raw["problem"]["a_phase"]
        raw["problem"].update(tau=1, a0=1.0)
        raw["problem"]["initial"]["g_amplitude"] = 1.0
    raw["controls"] = {"threshold": 1e6, "t_max": 5.0, "snapshot_dt": 0.05}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "status: survived" in out and "criterion: no bound: lambda:" in out
    verdict = json.loads((tmp_path / "criterion.json").read_text())
    assert verdict["reason"].startswith("lambda:") and verdict["bound_ge_T"] is False
    assert all(verdict[k] is None for k in ("delta", "R1", "theta", "minimal_C0", "bound"))
    assert read_trace(str(tmp_path / "trace.csv")).radii.tolist() == [4.0, 5.0, 6.0]


_README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _readme_block(after: str, fence: str) -> str:
    """The first ``fence`` code block of README.md after the line ``after``."""
    text = open(_README, encoding="utf-8").read()
    rest = text[text.index(after + "\n") :]
    start = rest.index(fence + "\n") + len(fence) + 1
    return rest[start : rest.index("```", start)]


def _expansions(line: str):
    """Every command a usage line stands for: each [...] part given and left
    out, and each a|b token as a and as b."""
    m = re.search(r"\[([^\[\]]*)\]", line)
    if m:
        for part in (m.group(1), ""):
            yield from _expansions(line[: m.start()] + part + line[m.end() :])
        return
    yield from map(list, itertools.product(*(tok.split("|") for tok in shlex.split(line))))


def test_readme_command_lines_parse():
    lines = [ln for ln in _readme_block("## Command line", "```sh").splitlines() if ln.startswith("blowlab ")]
    assert len(lines) >= 7
    argvs = [argv for line in lines for argv in _expansions(line)]
    assert ["blowlab", "verify", "harmonic"] in argvs
    assert ["blowlab", "verify", "hardy", "--seed", "0", "--count", "200"] in argvs
    assert ["blowlab", "verify", "hardy"] in argvs
    for argv in argvs:
        args = build_parser().parse_args(argv[1:])  # a usage error raises ValueError
        assert callable(args.func), argv


def test_readme_minimal_sweep_config_is_valid():
    cfg = config_from_dict(json.loads(_readme_block("A minimal sweep config:", "```json")))
    assert cfg.sweep_epsilons == (0.25, 0.35, 0.5, 0.7, 1.0)
