"""The blowlab benchmark.

    python3 blowbench/run.py --workload heat_sweep --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout.  Each repetition runs in a fresh
worker process (``worker.py``) with the BLAS and OpenMP pools pinned to one
thread and sweeps at ``--jobs 1``: a plain single-threaded baseline.  Each
workload is a closed loop with one client: an operation starts when the
previous one has finished.

Workloads (the program sees only the generated config file):

* ``heat_sweep``   - ``sweep`` on configs/heat_subcritical.json.  Real
  Crank-Nicolson with a banded solve every step and long fixed-dt crawls:
  the implicit solve and step control carry it.
* ``wave_sweep``   - ``sweep`` on configs/damped_wave_subcritical.json.
  Explicit velocity-Verlet, no implicit solve: it bypasses every solve
  change and is the home of the Laplacian, nonlinearity and stepper.
* ``nls_trace``    - ``simulate`` on configs/schrodinger_blowup.json, then
  read_trace, criterion_check and lifespan_upper_bound.  A complex solve
  over a subnormal far field, 221 held snapshots, trace quadrature and
  CSV emission, in only ~1000 steps.
* ``analysis_verify`` - ``verify`` cutoff, hardy, harmonic and lemma-oracle
  in one process: the analysis half, which calls no solver.

Seed 0 copies the shipped configs byte for byte.  Another seed scales each
sweep epsilon by its own factor drawn from [0.95, 1.05] and is passed as
``--seed`` to the seeded verify suites.

``--trace 0`` repeats the workload untraced while the next repetition still
fits in ``--seconds`` (at least once) and reports the medians of wall_s,
setup_s (over SETUP_SAMPLES fresh processes) and peak_rss_mb.  ``--trace 1``
runs the workload once untraced and once traced and reports the per-layer
metrics of the traced run and the tracing overhead.  The last line of
standard output is the JSON result; the details, with machine facts, digests
of every output file and the generated config, go to .blowbench_out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = {
    "heat_sweep": "configs/heat_subcritical.json",
    "wave_sweep": "configs/damped_wave_subcritical.json",
    "nls_trace": "configs/schrodinger_blowup.json",
    "analysis_verify": None,
}
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def write_config(workload: str, seed: int, dest: str) -> dict | None:
    """Write the workload's config for ``seed``; return it as a dict."""
    src = CONFIGS[workload]
    if src is None:
        return None
    with open(src, "rb") as fh:
        raw = fh.read()
    cfg = json.loads(raw)
    if seed != 0:
        rng = random.Random(seed)
        if "sweep" in cfg:
            eps = cfg["sweep"]["epsilons"]
            cfg["sweep"]["epsilons"] = [e * rng.uniform(0.95, 1.05) for e in eps]
        cfg["seed"] = seed
        raw = (json.dumps(cfg, indent=2) + "\n").encode()
    with open(dest, "wb") as fh:
        fh.write(raw)
    return cfg


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(index, name), encoding="utf-8") as fh:
                    fields[name] = fh.read().strip()
            facts["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
        except OSError:
            pass
    return facts


def run_worker(workload, cfg_path, seed, out_dir, result_path, env, trace=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", out_dir, "--result", result_path]
    if cfg_path:
        cmd += ["--config", cfg_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise HarnessError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    expected = os.path.join(os.getcwd(), "src", "blowlab")
    if "blowlab_file" in result and os.path.dirname(result["blowlab_file"]) != expected:
        raise HarnessError(f"imported blowlab from {result['blowlab_file']}, not {expected}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = ["src/blowlab/__init__.py"] + [c for c in CONFIGS.values() if c]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from a blowlab checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = os.path.join(root, ".blowbench_out")
    work = os.path.join(base, "work", tag)
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    cfg_path = os.path.join(work, "config.json") if CONFIGS[args.workload] else None
    cfg = write_config(args.workload, args.seed, cfg_path) if cfg_path else None

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in THREAD_VARS})

    def worker(name, **kw):
        return run_worker(args.workload, cfg_path, args.seed, os.path.join(work, name),
                          os.path.join(work, f"{name}.json"), env, **kw)

    try:
        worker("warmup", setup_only=True)  # byte-compile and fill the file cache
        reps = []
        if args.trace == 0:
            start = time.perf_counter()
            while True:
                reps.append(worker(f"rep{len(reps)}"))
                elapsed = time.perf_counter() - start
                if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
            setups = [r["setup_s"] for r in reps]
            while len(setups) < SETUP_SAMPLES:
                setups.append(worker(f"setup{len(setups)}", setup_only=True)["setup_s"])
            metrics = {
                "wall_s": {"value": statistics.median(r["wall_s"] for r in reps), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps),
                                "unit": "MiB"},
            }
        else:
            reps.append(worker("untraced"))
            traced = worker("traced", trace=True)
            reps.append(traced)
            metrics = dict(traced["layers"])
            metrics["trace_overhead_s"] = {"value": traced["wall_s"] - reps[0]["wall_s"],
                                           "unit": "s"}
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(not op["ok"] for r in reps for op in r["ops"])
    identical = all(r["digests"] == reps[0]["digests"] for r in reps)
    correct = failed == 0 and identical and all(r["error"] is None for r in reps)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "versions": reps[0]["versions"],
        "threads": {name: env[name] for name in THREAD_VARS},
        "config": cfg,
        "correct": correct,
        "outputs_identical_across_reps": identical,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "reps": reps,
    }
    if args.trace == 0:
        details["setup_samples_s"] = setups
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    details_path = os.path.join(base, "results", f"{tag}.json")
    with open(details_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    for r in reps:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"FAILED {op['name']}: {op['detail']}")
        if r["error"]:
            print(r["error"])
    if not identical:
        print("FAILED output digests differ between repetitions")
    if args.trace == 1 and traced["absent_hooks"]:
        print(f"absent hooks (their layers read 0): {', '.join(traced['absent_hooks'])}")
    print(f"repetitions {len(reps)}; error_rate {failed / attempted:.4g} ({failed}/{attempted})")
    print(f"details: {os.path.relpath(details_path, root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
