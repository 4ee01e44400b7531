"""fishgame benchmark: whole CLI experiments, timed and checked.

One workload per invocation, as a closed loop of in-process
``fishgame.cli.run`` calls on a config generated from ``--seed``, for at
least ``--seconds`` seconds (always at least one run).  Every run's outputs
are checked; a run fails if it raises, exits 1 or fails its check (exit 2,
"not converged", is recorded but is not a failure).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

  --trace 0   end-to-end metrics: wall_s, cpu_s, peak_rss_mb, setup_s
  --trace 1   per-layer metrics from spans recorded around fishgame's
              functions; untraced and traced runs alternate so the tracing
              overhead is measured in the same invocation

Every reported time is rescaled to a nominal host speed, measured while the
run goes on (see hostspeed.py); the raw seconds are printed too and kept in
the results file.

Without ``--workload`` every workload runs at ``--trace 0`` and ``1``, each
in its own process, and a table of all metrics is printed.  Results,
output hashes and spans go under bench/out/.  ``--write-spec`` rewrites
BENCHMARK.json from the tables below.

Usage: python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
"""

from __future__ import annotations

import os
import sys

# Hold the load to two cores: BLAS/OpenMP single-threaded, the sweep
# fan-out at 2.  Set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["FISHGAME_THREADS"] = "2"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, file_hashes  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("bench", "out")
SETUP_REPS = 7
RUN_SECONDS = 10

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

PER_LAYER = [(name, "count", "lower") for name in (
    "harvest.project.calls", "harvest.ascend.iters", "harvest.ascend.unconverged",
    "harvest.linesearch.trials", "harvest.gradient.calls", "harvest.optimize_single.calls",
    "elliptic.solve_steady.calls", "elliptic.newton_iters", "elliptic.restarts",
    "elliptic.linear.calls", "elliptic.splu.calls", "elliptic.pcg.calls", "game.rounds",
    "game.best_response.calls", "game.eps_nash_check.calls", "mfhg.picard_sweeps",
    "mfhg.diffusion.calls", "grid.field_constructions")] + [(name, "s", "lower") for name in (
    "harvest.project.s", "harvest.gradient.s", "harvest.optimize_single.s",
    "elliptic.solve_steady.s", "elliptic.linear.s", "elliptic.splu.s", "elliptic.pcg.s",
    "game.best_response.s", "game.eps_nash_check.s", "cli.sweep.point_s.max",
    "cli.sweep.point_s.sum", "mfhg.fish_forward.s", "mfhg.hjb_backward.s",
    "mfhg.fp_forward.s", "mfhg.diffusion.s", "cli.write.s", "trace.overhead_s",
    "harvest.optimize_single.total_s", "elliptic.solve_steady.total_s",
    "game.best_response.total_s", "game.eps_nash_check.total_s")] + [
    ("harvest.linesearch.accept_ratio", "ratio", "higher"),
    ("cli.write.bytes", "bytes", "lower"),
    ("trace.span_coverage", "ratio", "higher"),
]


def _import_fishgame():
    """Import fishgame from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fishgame", "__init__.py")):
        sys.exit(f"bench: no fishgame sources under {SRC}")
    sys.path.insert(0, SRC)
    import fishgame

    if os.path.dirname(os.path.dirname(os.path.abspath(fishgame.__file__))) != SRC:
        sys.exit(f"bench: imported fishgame from {fishgame.__file__}, not {SRC}")
    return fishgame


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _measure_setup(config: str) -> tuple[float, float]:
    """Median set-up time of fresh processes, raw and rescaled by each
    process's own speed factor (see setup_probe.py)."""
    probe = os.path.join("bench", "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, config], check=True,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
        report = json.loads(proc.stdout)
        raw.append(wall - report["burst_s"])
        scaled.append(raw[-1] * hostspeed.NOMINAL_S["small"] / report["chunk_mean_s"])
    return statistics.median(raw), statistics.median(scaled)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(path) for f in fs)


def _run_once(cli, workload, inputs, out_dir, run_id, tracer=None) -> dict:
    """One closed-loop iteration: cli.run on the generated config, then the
    outcome check.  Returns the run record, in raw seconds until
    ``_rescale`` has been applied to it."""
    shutil.rmtree(out_dir, ignore_errors=True)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    start = hostspeed.clock()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
        tracer.begin_run(run_id)
    try:
        with hostspeed.Sampler(workload.reference) as sampler:
            code = cli.run(inputs.config, out_dir, quiet=True)
        error = None
    except Exception as exc:  # a raising run is a failed run, not a crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_run()
            tracer.uninstall()
    wall = time.perf_counter() - t0
    end = hostspeed.clock()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    if error is None and code not in (0, 2):
        error = f"exit code {code}"
    failures = [error] if error else []
    if not failures:
        try:
            failures = workload.check(inputs, out_dir)
        except Exception as exc:  # unreadable or malformed output
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    return {"raw_wall_s": wall, "raw_cpu_s": cpu, "window": (start, end),
            "in_run_samples": sampler.samples, "exit_code": code, "converged": code == 0,
            "failures": failures, "bytes": _dir_bytes(out_dir),
            "hashes": file_hashes(out_dir, ".csv")}  # manifest.json holds the wall time


def _rescale(run: dict, monitor) -> None:
    """Adds the run's speed factor and its rescaled wall_s and cpu_s, from
    the in-run samples or, if they are too few, the monitor's."""
    samples, source = run.pop("in_run_samples"), "in-run"
    if len(samples) < hostspeed.MIN_SAMPLES:
        samples, source = monitor.between(*run["window"]), "monitor"
    if not samples:
        raise RuntimeError("no host-speed samples for a run")
    speed = hostspeed.factor(samples, monitor.reference)
    run.update(wall_s=run["raw_wall_s"] * speed, cpu_s=run["raw_cpu_s"] * speed,
               speed_factor=speed, speed_samples=len(samples), speed_source=source)


def _environment(fishgame) -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "fishgame": fishgame.__version__, "machine": platform.machine(),
            "FISHGAME_THREADS": os.environ["FISHGAME_THREADS"],
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    fishgame = _import_fishgame()
    from fishgame import cli

    workload = WORKLOADS[name]
    case = os.path.join(OUT, f"{name}-seed{seed}")
    inputs_dir = os.path.join(case, "inputs")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    os.makedirs(inputs_dir)
    inputs = workload.make(seed, inputs_dir)
    out_dir = os.path.join(case, "run")

    setup = None if trace else _measure_setup(inputs.config)
    tracer = Tracer() if trace else None
    runs, traced = [], []
    peak_rss_mb = None
    deadline = time.perf_counter() + seconds
    with hostspeed.Monitor(workload.reference) as monitor:
        while True:
            runs.append(_run_once(cli, workload, inputs, out_dir, len(runs)))
            if peak_rss_mb is None:  # after one run: later runs only add allocator slack
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if trace:
                traced.append(_run_once(cli, workload, inputs, out_dir, len(runs), tracer))
            if time.perf_counter() >= deadline:
                break
    everything = runs + traced
    for r in everything:
        _rescale(r, monitor)

    reference = everything[0]["hashes"]
    for r in everything:
        if not r["failures"] and r["hashes"] != reference:
            r["failures"].append("output bytes differ from the first run of this seed")
    failed = sum(bool(r["failures"]) for r in everything)
    walls = [r["wall_s"] for r in runs]
    q1, wall_med, q3 = _quartiles(walls)
    units = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
    if trace:
        metrics, shares = layer_metrics(tracer, len(traced))
        speed = statistics.median(r["speed_factor"] for r in traced)
        metrics = {k: v * speed if units[k] == "s" else v for k, v in metrics.items()}
        metrics["cli.write.bytes"] = statistics.median(r["bytes"] for r in traced)
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall_med
        assert set(metrics) == {m[0] for m in PER_LAYER}, "per-layer table out of date"
        spans_path = os.path.join(case, "spans.csv")
        tracer.write_csv(spans_path)
    else:
        metrics = {"wall_s": wall_med,
                   "cpu_s": statistics.median(r["cpu_s"] for r in runs),
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": setup[1]}

    for key, value in metrics.items():
        print(f"{name:12s} {key:34s} {value:14.6g} {units[key]}")
    print(f"{name:12s} wall_s quartiles {q1:.4g} / {wall_med:.4g} / {q3:.4g} s over "
          f"{len(runs)} untraced runs; converged {sum(r['converged'] for r in runs)}/"
          f"{len(runs)}; fail_rate {failed}/{len(everything)}")
    raw_walls = ", ".join(f"{r['raw_wall_s']:.4g}" for r in runs)
    speeds = ", ".join(f"{r['speed_factor']:.4g} ({r['speed_source']})" for r in runs)
    print(f"{name:12s} raw wall_s {raw_walls} s; speed factors {speeds}"
          + (f"; raw setup_s {setup[0]:.4g} s" if setup else ""))
    for r in everything:
        for msg in r["failures"]:
            print(f"{name:12s} FAILED: {msg}")
    if trace and tracer.missing:
        print(f"{name:12s} not traced (absent in this build): {', '.join(tracer.missing)}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": _environment(fishgame),
        "inputs": file_hashes(inputs_dir),
        "runs": runs, "traced_runs": traced,
        "wall_s_quartiles": [q1, wall_med, q3],
        "reference": workload.reference,
        "nominal_chunk_s": hostspeed.NOMINAL_S[workload.reference],
        "fail_rate": failed / len(everything),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if setup:
        record["raw_setup_s"] = setup[0]
    if trace:
        record["self_time_share_of_wall"] = shares
        record["not_traced"] = tracer.missing
        record["spans"] = spans_path
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(everything), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload at --trace 0 and 1, each in a process of its own so
    peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join("bench", "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name}: benchmark process exited {proc.returncode}")
                return 1
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    with open(os.path.join(OUT, "results", f"all-seed{seed}.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


def write_spec() -> None:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open("BENCHMARK.json", "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from this file's tables and exit")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {list(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
