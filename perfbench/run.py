"""robustmv benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload ambiguity-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
See perfbench/README.md for the workloads, metrics and known faults.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, and leave ROBUSTMV_THREADS unset
# (the single-threaded baseline).  Child processes inherit both.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ROBUSTMV_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 5
CLI_REPEATS = 3
OUT_DIR = ROOT / ".perfbench_out"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "robustmv" / "__init__.py").is_file():
        fail(f"no robustmv sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import robustmv

    if Path(robustmv.__file__).resolve().parent != (SRC / "robustmv").resolve():
        fail(f"imported robustmv from {robustmv.__file__}, not from {SRC}")
    return robustmv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def wall(cmd, repeats, clock):
    """Median wall seconds and median reference seconds of a fresh process running cmd."""
    raw, ref = [], []
    for _ in range(repeats):
        clock.calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        clock.calibrate()
        raw.append(t1 - t0)
        ref.append(clock.reference_seconds(t0, t1))
    return statistics.median(raw), statistics.median(ref)


def setup_seconds(args, clock):
    """Fresh interpreter through import, input generation and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    return wall(cmd, SETUP_REPEATS, clock)


def end_to_end(tally, setup_s, clock=None) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "closed_form_solves_per_s": (tally.rate("closed", clock), "1/s"),
        "numeric_solves_per_s": (tally.rate("numeric", clock), "1/s"),
        "saddle_draws_per_s": (tally.rate("saddle", clock), "1/s"),
        "euler_path_steps_per_s": (tally.rate("euler", clock), "1/s"),
        "exact_path_steps_per_s": (tally.rate("exact", clock), "1/s"),
        "principle_check_s": (tally.median_seconds("principle", clock), "s"),
    }


def layer_probe(rm, tracer, wl, clock) -> dict:
    """Fixed calls that give every per-layer metric a value on every workload."""
    import numpy as np

    import inputs
    import workloads

    tracer.install()
    try:
        side = inputs.side_points()
        for p in side[:-6]:
            spec, params = workloads.make_spec(p), workloads.make_params(p)
            for _ in range(5):
                rm.solve(spec, params)
        readme = side[0]
        rm.sample(workloads.make_spec(readme), 1000, 0, workloads.make_params(readme))
        for d in (3, 4, 5):
            p = inputs.full_sweep("probe", inputs.full_market(d, np.random.default_rng([20180905, d])),
                                  inputs.FIXED_CONSTANTS)[2]
            rm.sample(workloads.make_spec(p), 300, 0, workloads.make_params(p))
        prod = inputs.product_sweep("probe", inputs.generated_box_market(3, product=True),
                                    inputs.FIXED_CONSTANTS)[2]
        rm.sample(workloads.make_spec(prod), 300, 0, workloads.make_params(prod))
    finally:
        tracer.uninstall()

    case = wl.wealth
    cfg = rm.SimConfig(n_paths=16384, n_steps=64, seed=3)
    sched = case["schedules"]["worst"]
    threads = str(max(2, os.cpu_count() or 1))
    timings = {}
    for setting in (None, threads, None, threads):
        if setting:
            os.environ["ROBUSTMV_THREADS"] = setting
        t0 = time.perf_counter()
        rm.simulate_wealth(case["strategy"], sched, case["params"], cfg)
        timings.setdefault(setting, []).append(time.perf_counter() - t0)
        os.environ.pop("ROBUSTMV_THREADS", None)
    config = HERE / "readme_config.json"
    return {
        "simulate.thread_speedup": (min(timings[None]) / min(timings[threads]), "ratio"),
        "cli.import_s": (wall([sys.executable, "-c", "import robustmv"], CLI_REPEATS, clock)[0], "s"),
        "cli.solve_s": (wall([sys.executable, "-m", "robustmv.cli", "solve", "--config", str(config)],
                             CLI_REPEATS, clock)[0], "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="build inputs, warm up, exit")
    args = parser.parse_args(argv)

    rm = import_package()
    import refclock
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.Workload(args.workload, args.seed)
    wl.warm_up()
    if args.setup_only:
        return 0

    tally = workloads.Tally()
    clock = refclock.Clock()
    rounds = 0
    raw = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        wl.round(tally, clock)
        t1 = time.perf_counter()
        tracer.install()
        try:
            wl.round(tally, clock, tracer)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        clock.calibrate()
        untraced, traced = clock.reference_seconds(t0, t1), clock.reference_seconds(t1, t2)
        rounds = 2
        probe = layer_probe(rm, tracer, wl, clock)
        metrics = {**tracer.metrics(), **probe}
        metrics["simulate.paths_mb"] = (tally.paths_mb, "MB")
        metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        OUT_DIR.mkdir(exist_ok=True)
        dump = dict(tracer.dump(), workload=args.workload, seed=args.seed,
                    untraced_round_s=untraced, traced_round_s=traced)
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump, indent=1))
    else:
        t0 = time.perf_counter()
        while True:
            wl.round(tally, clock)
            rounds += 1
            if time.perf_counter() - t0 >= args.seconds:
                break
        clock.calibrate()
        setup_raw, setup_ref = setup_seconds(args, clock)
        metrics = end_to_end(tally, setup_ref, clock)
        raw = end_to_end(tally, setup_raw)

    import numpy as np
    import scipy

    problems = workloads.negative_controls(tally)
    if not workloads.threads_bitwise(wl.wealth):
        problems.append("paths differ between one thread and several")
    for what in tally.unexpected + problems:
        print(f"perfbench: FAILED {what}", file=sys.stderr)
    env = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "nproc": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
           "blas_threads": BLAS_THREADS, "robustmv_threads": None,
           "calibration_median_s": clock.median_kernel_s(), "calibration_ref_s": refclock.CALIBRATION_REF_S}
    print("# " + json.dumps(env))
    if raw:
        print("# wall-clock " + json.dumps({k: v for k, (v, _) in raw.items()}))
    result = {
        "correct": not tally.unexpected and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
