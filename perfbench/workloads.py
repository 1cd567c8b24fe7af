"""The benchmark's workloads: each job is one complete user operation.

* ``table-sweep``: the ``convergence`` subcommand over five eps^2 values on a
  wide 2048x512 grid with the Richardson estimate on (10 reference solves,
  10 expansion builds and grid evaluations, a tiny CSV and a JSON sidecar).
  Exercises ``fdsolver`` and ``expansion``.
* ``field-csv``: ``fd`` then ``expand --order 1`` on a tall 128x4096 grid,
  each writing a 0.5M-row CSV.  Exercises ``Field2D.write_csv`` and the
  tall-grid paths of the solver and the expansion.
* ``mc-point``: ``estimate_point`` at (0.5, 0.5), eps^2 = 0.05, dt = 1e-4,
  40 000 paths (two Philox chunks).  Exercises ``montecarlo``.

Only ``mc-point`` consumes the seed; the other two workloads are
deterministic, so their inputs are the same for every seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from pathlib import Path

import checks

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_api(root):
    """Import ``anisolayer`` from ``root/src``, never from an installed copy."""
    src = Path(root, "src").resolve()
    if not (src / "anisolayer" / "__init__.py").is_file():
        raise FileNotFoundError(f"no anisolayer package under {src}")
    sys.path.insert(0, str(src))
    api = importlib.import_module("anisolayer")
    if Path(api.__file__).resolve().parent != src / "anisolayer":
        raise ImportError(f"imported anisolayer from {api.__file__}, not {src}")
    for mod in ("cli", "validation", "expansion", "fdsolver", "montecarlo",
                "spectral", "problem"):
        importlib.import_module("anisolayer." + mod)
    return api


def _run_cli(api, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return api.cli.run(argv)


class Workload:
    """Inputs for one workload; ``job`` is timed, ``check`` is not."""

    uses_seed = False

    def __init__(self, api, seed, workdir):
        self.api = api
        self.seed = seed
        self.workdir = Path(workdir)
        self.ref = (json.loads(REFERENCE_PATH.read_text()).get(self.name)
                    if REFERENCE_PATH.exists() else None)

    def warmup(self):
        """Fill caches and lazy set-up; returns failure messages."""
        return self.check(self.job())


class TableSweep(Workload):
    name = "table-sweep"

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        self.out = self.workdir / "table.csv"
        self.argv = ["convergence", "--problem", "paper",
                     "--eps2", "0.001,0.005,0.01,0.05,0.1", "--orders", "0,1",
                     "--nx", "2048", "--ny", "512", "--modes", "64",
                     "--out", str(self.out)]

    def job(self):
        return _run_cli(self.api, self.argv)

    def check(self, code):
        if code != 0:
            return [f"convergence exited {code}"]
        return checks.check_table(self.out.read_text(encoding="utf-8"),
                                  self.out.with_suffix(".json").read_text(encoding="utf-8"),
                                  self.ref)

    def record(self, code):
        """Reference entry taken from this job's output."""
        body = [ln for ln in self.out.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")]
        cols = body[0].split(",")
        rows = [[float(c) for c in ln.split(",")] for ln in body[1:]]
        return {"header": body[0], "eps2": [r[0] for r in rows],
                "norms": {name: [r[c] for r in rows] for c, name in enumerate(cols) if c}}


class FieldCsv(Workload):
    name = "field-csv"
    nx, ny = 128, 4096

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        common = ["--problem", "paper", "--eps2", "0.01",
                  "--nx", str(self.nx), "--ny", str(self.ny)]
        self.outs = {"fd": self.workdir / "fd.csv", "expand": self.workdir / "u2.csv"}
        self.argvs = [["fd", *common, "--out", str(self.outs["fd"])],
                      ["expand", *common, "--order", "1", "--out", str(self.outs["expand"])]]
        self.digests = None

    def job(self):
        return [_run_cli(self.api, argv) for argv in self.argvs]

    def check(self, codes):
        if any(codes):
            return [f"fd/expand exited {codes}"]
        digests = {k: checks.file_digest(p) for k, p in self.outs.items()}
        if self.digests is not None:
            # the first job's files were parsed and checked in full
            return [] if digests == self.digests else [
                f"files differ from the first run with the same flags: {digests}"]
        self.digests = digests
        scans, remainder = checks.scan_field_csvs(self.outs["fd"], self.outs["expand"],
                                                   self.nx, self.ny)
        failures = []
        for key, scan in zip(self.outs, scans):
            failures += [f"{key}: {msg}" for msg in checks.check_field(scan, self.ref[key])]
        if not failures:
            failures += checks.check_remainder(remainder, self.ref["remainder"])
        return failures

    def record(self, codes):
        scans, remainder = checks.scan_field_csvs(self.outs["fd"], self.outs["expand"],
                                                   self.nx, self.ny)
        ref = {key: checks.field_record(scan, self.nx, self.ny)
               for key, scan in zip(self.outs, scans)}
        ref["remainder"] = remainder
        return ref


class McPoint(Workload):
    name = "mc-point"
    uses_seed = True

    def __init__(self, api, seed, workdir):
        super().__init__(api, seed, workdir)
        self.cfg = api.McConfig(dt=1e-4, n_paths=40_000, seed=seed)
        self.cheap_cfg = api.McConfig(dt=1e-3, n_paths=300, seed=seed)
        self.first = None

    def _estimate(self, cfg):
        p = self.api.builtin_problem("paper", eps=math.sqrt(0.05))
        return self.api.estimate_point(p, 0.5, 0.5, cfg)

    def job(self):
        return self._estimate(self.cfg)

    def warmup(self):
        return self._cheap_rerun()

    def _cheap_rerun(self):
        return checks.check_same(self._estimate(self.cheap_cfg),
                                 self._estimate(self.cheap_cfg), "cheap estimate")

    def check(self, est):
        failures = checks.check_estimate(est, self.ref) + self._cheap_rerun()
        if self.first is None:
            self.first = est
        return failures + checks.check_same(self.first, est, "estimate")

    def record(self, est):
        # u(0.5, 0.5) from the five-point solve on a 1025x1024 grid, where
        # (0.5, 0.5) is a node; the 513x512 value differs by 2e-7
        p = self.api.builtin_problem("paper", eps=math.sqrt(0.05))
        field, _ = self.api.solve_fd(p, self.api.Grid2D(n_x=1025, n_y=1024))
        return {"fd_value": float(field.values[512, 512])}

    def path_steps(self, est):
        """Path-steps simulated by one job, n_paths * mean_tau / dt."""
        return est.n_paths * est.mean_absorption_time / est.dt


WORKLOADS = {w.name: w for w in (TableSweep, FieldCsv, McPoint)}
