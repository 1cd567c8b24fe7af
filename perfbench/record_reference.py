"""Re-record ``reference.json`` from the current program's outputs.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter the program's outputs, and say
so in the change; the checks compare every later run against this record.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main():
    root = Path(__file__).resolve().parent.parent
    api = workloads.load_api(root)
    reference = {}
    (root / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench_out") as workdir:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(api, 0, workdir)
            reference[name] = wl.record(wl.job())
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
