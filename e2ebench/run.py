"""End-to-end benchmark of the D-RAPID reproduction: one command, four workloads.

    python3 e2ebench/run.py --workload identify --seed 0 --seconds 15 --trace 0

runs one workload in this process and prints, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the public functions of each layer are wrapped with timers and the metrics
are the per-layer ones.  Other modes, each running every run in a fresh
process:

    --workload all                 every workload once
    --repeat N [--seeds 0,1,...]   steadiness: N runs per seed, then the
                                   median, quartiles and (max-min)/median
                                   of each end-to-end metric
    --trace-out FILE               an untraced and a traced run per
                                   workload; writes the per-layer metrics
                                   and the tracing overhead as JSON

See README.md in this directory for the workloads, metrics and figures.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _reap_children() -> None:
    """Stop every process this run started and wait until each has ended.

    The parallel backend's spawn context starts multiprocessing's resource
    tracker, which Python 3.11 never stops: it would outlive this process.
    Registered before the program is imported, so it runs after the
    program's own exit handler has stopped the worker pool.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _child_pids() -> list[int]:
    """Children of this process, as the kernel lists them."""
    pids = []
    for task in Path(f"/proc/{os.getpid()}/task").glob("*/children"):
        try:
            pids += [int(p) for p in task.read_text().split()]
        except OSError:
            pass
    return pids


atexit.register(_reap_children)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The program's execution settings come from explicit configs only.  This
# runs on import too, so spawned worker processes see the same environment.
from common import PINNED_ENV  # noqa: E402

for _name in PINNED_ENV:
    os.environ.pop(_name, None)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORKLOADS = ("identify", "serve", "classify", "frontend")

#: End-to-end metrics: name -> unit.  Every workload reports every one.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "items_per_s": "1/s",
    "f_measure": "ratio",
}

#: Per-layer metrics: name -> unit.  A traced run reports all of them; a
#: layer its workload never calls reads 0.
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.pool_s": "s",
    "io.upload_s": "s",
    "sparklet.parse_task_s": "s",
    "sparklet.shuffle_write_mb": "MB",
    "sparklet.search_task_s": "s",
    "sparklet.search_task_max_s": "s",
    "sparklet.search_skew": "ratio",
    "core.rapid_s": "s",
    "core.features_s": "s",
    "drapid.diagnostics_s": "s",
    "sparklet.tasks": "count",
    "sessions.batch_p95_ms": "ms",
    "streaming.cut_ms": "ms",
    "streaming.execute_ms": "ms",
    "sessions.schedule_ms": "ms",
    "sparklet.jobs_per_batch": "count",
    "sparklet.job_overhead_ms": "ms",
    "dfs.write_ms": "ms",
    "streaming.checkpoint_ms": "ms",
    "serving.score_ms": "ms",
    "streaming.state_rows_max": "rows",
    "alm.label_s": "s",
    "ml.rank_s": "s",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.tree_nodes": "count",
    "kernels.dedisperse_s": "s",
    "kernels.boxcar_s": "s",
    "spe.emit_s": "s",
    "kernels.dedisperse_gop": "1e9ops",
    "clustering.dbscan_s": "s",
    "frontend.spes": "count",
}


def run_one(args: argparse.Namespace) -> int:
    """Run one workload here and print its result line."""
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    import importlib

    from common import Tracer, leak_report, peak_rss_mb, shm_segments

    shm_before = shm_segments()
    module = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    outcome = module.run(args.seed, args.seconds, tracer, T_START)
    leaks = leak_report(shm_before, outcome.worker_pids)
    e2e = dict(outcome.e2e, peak_rss_mb=peak_rss_mb())

    print(f"# workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"wall: {time.perf_counter() - T_START:.1f} s")
    for key, value in outcome.config.items():
        print(f"# config.{key}: {value}")
    for problem in outcome.problems + leaks:
        print(f"# problem: {problem}")
    for error in dict.fromkeys(outcome.failed):
        print(f"# failed operation: {error}")
    if args.trace:
        print("#trace-e2e " + json.dumps(e2e))
        values, units = {k: outcome.layers.get(k, 0.0) for k in LAYER_UNITS}, LAYER_UNITS
    else:
        values, units = e2e, E2E_UNITS
    result = {
        "correct": not outcome.problems,
        # The leak check at the end of the run is one more operation.
        "attempted": outcome.attempted + 1,
        "failed": len(outcome.failed) + (1 if leaks else 0),
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; (result line, traced e2e)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    traced = {}
    for line in lines:
        if line.startswith("#trace-e2e "):
            traced = json.loads(line[len("#trace-e2e "):])
        elif line.startswith("# "):
            print(f"  [{workload}] {line[2:]}")
    return json.loads(lines[-1]), traced


def _spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "range_over_median": (max(values) - min(values)) / med if med else 0.0}


def run_many(args: argparse.Namespace) -> int:
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
    summary: dict[str, dict] = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            for _ in range(args.repeat):
                result, _ = _child(workload, seed, args.seconds, 0)
                ok = ok and result["correct"] and not result["failed"]
                runs.append(result)
                values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
                print(f"{workload} seed={seed} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} {values}",
                      flush=True)
        summary[workload] = {
            name: _spread([r["metrics"][name]["value"] for r in runs]) for name in E2E_UNITS
        }
        for name, s in summary[workload].items():
            print(f"  {workload:9s} {name:12s} median={s['median']:.4g} "
                  f"q1={s['q1']:.4g} q3={s['q3']:.4g} iqr/med={s['iqr_over_median']:.3f} "
                  f"(max-min)/med={s['range_over_median']:.3f}", flush=True)
    print(json.dumps({"correct": ok, "summary": summary}))
    return 0 if ok else 1


def run_traced(args: argparse.Namespace) -> int:
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    report: dict[str, dict] = {}
    for workload in workloads:
        plain, _ = _child(workload, args.seed, args.seconds, 0)
        traced_result, traced_e2e = _child(workload, args.seed, args.seconds, 1)
        untraced = {k: m["value"] for k, m in plain["metrics"].items()}
        report[workload] = {
            "seed": args.seed,
            "seconds": args.seconds,
            "layers": {k: m["value"] for k, m in traced_result["metrics"].items()},
            "e2e_untraced": untraced,
            "e2e_traced": traced_e2e,
            "tracing_overhead": {
                k: (traced_e2e[k] - v) / v if v else 0.0 for k, v in untraced.items()
            },
        }
        print(f"{workload}: overhead " + json.dumps(
            {k: round(v, 4) for k, v in report[workload]["tracing_overhead"].items()}))
    Path(args.trace_out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.trace_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per seed, each in a fresh process")
    parser.add_argument("--seeds", default="",
                        help="comma-separated seeds for the steadiness mode")
    parser.add_argument("--trace-out", default="",
                        help="write per-layer metrics and tracing overhead to this file")
    args = parser.parse_args(argv)
    if args.trace_out:
        return run_traced(args)
    if args.repeat or args.workload == "all" or args.seeds:
        args.repeat = max(args.repeat, 1)
        return run_many(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
