"""Set-up probe: a fresh interpreter imports the package and builds one
workload's inputs, then prints ``ready``.  ``run.py`` times it to that line.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import sys
from pathlib import Path

import workloads


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    api = workloads.load_api(Path(__file__).resolve().parent.parent)
    workloads.WORKLOADS[name](api, seed, workdir)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
