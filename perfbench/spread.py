"""Repeat benchmark runs over seeds and summarize each metric's spread.

    python3 perfbench/spread.py [--workload mc-point] [--trace 1]
                                [--write perfbench/baseline.json]

It makes RUNS runs of each workload; run ``i`` uses seed ``i``.

For every workload and metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``).  With ``--write`` the summary is
merged into a JSON file under the key ``end_to_end`` or ``per_layer``; the
per-layer summary also gives each time's share of the traced ``job_s``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ten runs per workload, as the comparison of two sets of runs needs
RUNS = 10


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    record = json.loads((ROOT / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    key = "per_layer" if args.trace else "end_to_end"
    summary, environment = {}, None
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        runs = [one_run(workload, seed, declared["run_seconds"], args.trace)
                for seed in range(RUNS)]
        environment = runs[0][1]["environment"]
        table = {}
        for m in declared[key]:
            table[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r, _ in runs])
            table[m["name"]]["unit"] = m["unit"]
            bound = m.get("bound")
            flag = "" if bound is None or table[m["name"]]["spread"] < bound / 3 else "  WIDE"
            print(f"{workload:12s} {m['name']:48s} median {table[m['name']]['median']:.6g} "
                  f"{m['unit']:6s} spread {table[m['name']]['spread']:.4f}{flag}")
        if args.trace:
            job_s = table["trace.job_s"]["median"]
            for name, row in table.items():
                if row["unit"] == "s":
                    row["share_of_job_s"] = row["median"] / job_s
        summary[workload] = table
    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        doc["environment"] = environment
        doc["run_seconds"] = declared["run_seconds"]
        doc.setdefault(key, {}).update(summary)
        args.write.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
