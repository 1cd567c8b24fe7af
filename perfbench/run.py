"""Benchmark of the anisolayer package, one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table-sweep --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's ``src`` directory.  One process
generates the load as a closed loop: one job at a time, the next one starting
when the previous one and its output check have finished, until ``--seconds``
have passed.  BLAS and OpenMP threads are capped at the number of usable
cores.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the
median job time, the set-up time of a fresh interpreter (median of several)
and the peak resident memory.  ``--trace 1`` alternates traced and untraced
jobs and reports the per-layer metrics (see ``tracing.py``); the gap between
the traced and untraced job times is reported as the tracing overhead.

Every job's output is checked (see ``checks.py``); a job fails on an
exception, a nonzero exit code or a failed check.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Job times, the
environment and, when tracing, every span are written under
``.perfbench_out/`` in the checkout; the CSV artifacts of the jobs go to a
temporary directory there that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table-sweep", "field-csv", "mc-point"))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; only mc-point consumes it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; the job running at its end completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload, seed, workdir):
    """Seconds from starting a fresh interpreter to its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), workload,
                           str(seed), str(workdir)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def timed_job(wl, tracer):
    """Run one job; returns (output, seconds, per-job trace or None)."""
    if tracer is None:
        t0 = time.perf_counter()
        out = wl.job()
        return out, time.perf_counter() - t0, None
    with tracer.installed(wl.api), tracer.span("job"):
        out = wl.job()
    summary, spans = tracer.take_job()
    return out, spans[0]["end"] - spans[0]["start"], (summary, spans)


def clear(workdir):
    """Delete a job's output files once they are checked.

    Every job then writes fresh files: on ext4, truncating a file that still
    has dirty pages forces its writeback at close, which would time the disk
    rather than the program.
    """
    for path in workdir.iterdir():
        path.unlink()


def run_jobs(wl, seconds, tracer):
    """Warm up, then run jobs until ``seconds`` have passed."""
    jobs = {"attempted": 1, "failed": 0, "plain_s": [], "traced_s": [],
            "traces": [], "outputs": []}

    def fail(problems):
        jobs["failed"] += 1
        for msg in problems:
            print(f"{wl.name}: check failed: {msg}", file=sys.stderr)

    try:
        problems = wl.warmup()
    except Exception:
        problems = [traceback.format_exc()]
    finally:
        clear(wl.workdir)
    if problems:
        fail(problems)
    # at least one job; a traced run needs one traced and one untraced job
    min_attempts = 3 if tracer is not None else 2
    start = time.perf_counter()
    while jobs["attempted"] < min_attempts or time.perf_counter() - start < seconds:
        traced = tracer is not None and jobs["attempted"] % 2 == 1
        jobs["attempted"] += 1
        try:
            out, elapsed, trace = timed_job(wl, tracer if traced else None)
            problems = wl.check(out)
        except Exception:
            fail([traceback.format_exc()])
            continue
        finally:
            clear(wl.workdir)
        if problems:
            fail(problems)
        jobs["traced_s" if traced else "plain_s"].append(elapsed)
        jobs["outputs"].append(out)
        if trace is not None:
            jobs["traces"].append(trace)
    return jobs


def tail_percentile(samples):
    """Highest percentile above the median with at least ten samples beyond it."""
    n = len(samples)
    if n <= 20:
        return None
    k = n - 10
    return {"p": 100.0 * k / n, "value": sorted(samples)[k - 1]}


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(wl, jobs):
    """Per-layer metrics: medians over traced jobs of each job's figures."""
    per_job = []
    for summary, spans in jobs["traces"]:
        s = summary
        root = spans[0]
        m = dict(s)
        m["fdsolver.ns_per_unknown"] = ratio(s["fdsolver.solve_fd.self_s"],
                                             s["fdsolver.unknowns"], 1e9)
        m["fdsolver.write_csv.mb_per_s"] = ratio(s["fdsolver.write_csv.bytes"],
                                                 s["fdsolver.write_csv.self_s"], 1e-6)
        m["expansion.evaluate_grid.ns_per_point"] = ratio(
            s["expansion.evaluate_grid.self_s"], s["expansion.evaluate_grid.points"], 1e9)
        m["montecarlo.path_steps"] = s["montecarlo.reflect.points"]
        m["montecarlo.loop_steps"] = s["montecarlo.reflect.calls"]
        m["montecarlo.live_paths_per_step"] = ratio(s["montecarlo.reflect.points"],
                                                    s["montecarlo.reflect.calls"])
        m["montecarlo.ns_per_path_step"] = ratio(s["montecarlo.estimate_point.total_s"],
                                                 s["montecarlo.reflect.points"], 1e9)
        m["trace.job_s"] = root["end"] - root["start"]
        m["trace.unattributed_s"] = s["job.self_s"]
        per_job.append(m)
    names = sorted(set().union(*per_job)) if per_job else []
    # layers a workload does not reach read 0
    metrics = defaultdict(float, {n: statistics.median(m.get(n, 0.0) for m in per_job)
                                  for n in names})
    plain = statistics.median(jobs["plain_s"])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - plain
    steps = [wl.path_steps(out) for out in jobs["outputs"]] if hasattr(wl, "path_steps") else []
    metrics["mc_path_steps_per_s"] = ratio(statistics.median(steps), plain) if steps else 0.0
    return metrics


def main(argv=None):
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)

    import numpy as np
    import scipy

    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        api = workloads.load_api(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setup_s = [time_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
        wl = workloads.WORKLOADS[args.workload](api, args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        jobs = run_jobs(wl, args.seconds, tracer)
    if not jobs["plain_s"]:
        print(f"perfbench: no {wl.name} job completed", file=sys.stderr)
        return 1

    if args.trace:
        values = layer_metrics(wl, jobs)
        wanted = declared["per_layer"]
    else:
        values = {
            "job_s": statistics.median(jobs["plain_s"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seed_used": wl.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, scipy),
        "attempted": jobs["attempted"],
        "failed": jobs["failed"],
        "failed_ratio": jobs["failed"] / jobs["attempted"],
        "job_s": {"samples": jobs["plain_s"], "traced_samples": jobs["traced_s"],
                  "median": statistics.median(jobs["plain_s"]),
                  "tail": tail_percentile(jobs["plain_s"])},
        "setup_s": setup_s,
        "metrics": metrics,
        "spans": [{"job": k, **span} for k, (_, spans) in enumerate(jobs["traces"])
                  for span in spans],
    }
    artifact = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{wl.name}: {len(jobs['plain_s'])} untraced jobs, "
          f"failed {jobs['failed']}/{jobs['attempted']}; record in {artifact}",
          file=sys.stderr)
    print(json.dumps({"correct": jobs["failed"] == 0, "attempted": jobs["attempted"],
                      "failed": jobs["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
