"""Each output check passes on the program's real output and fails on a
corrupted one; a failed check is counted by the job loop.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
API = workloads.load_api(ROOT)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    wl = workloads.TableSweep(API, 0, tmp_path_factory.mktemp("table"))
    assert wl.job() == 0
    return wl, wl.out.read_text(), wl.out.with_suffix(".json").read_text()


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    wl = workloads.FieldCsv(API, 0, tmp_path_factory.mktemp("field"))
    assert wl.job() == [0, 0]
    return wl


def _rewrite_value(path, row, new_token):
    """Replace the value token of data row ``row`` in a field CSV by
    ``new_token(old_value)``; returns the old and the new token."""
    lines = path.read_text().splitlines(keepends=True)
    start = next(i for i, ln in enumerate(lines) if ln.startswith("x,y,")) + 1
    x, y, old = lines[start + row].rstrip("\n").split(",")
    new = new_token(float(old))
    lines[start + row] = f"{x},{y},{new}\n"
    path.write_text("".join(lines))
    return old, new


def test_table_passes_and_fails_on_perturbed_norm(table):
    wl, csv_text, sidecar = table
    assert checks.check_table(csv_text, sidecar, wl.ref) == []
    ref = json.loads(json.dumps(wl.ref))
    ref["norms"]["r2"][2] += 10 * checks.NORM_TOL
    assert any("r2 norms" in m for m in checks.check_table(csv_text, sidecar, ref))


def test_table_fails_on_broken_sidecar_and_max_principle(table):
    wl, csv_text, sidecar = table
    assert checks.check_table(csv_text, sidecar[:-20], wl.ref)
    bad = json.loads(sidecar)
    bad["max_principle"][1]["passed"] = False
    assert checks.check_table(csv_text, json.dumps(bad), wl.ref)


def test_field_passes_then_fails_on_corruption(field, tmp_path):
    assert field.check([0, 0]) == []
    saved = {k: shutil.copy(p, tmp_path / p.name) for k, p in field.outs.items()}
    try:
        # same flags, different bytes: caught against the first run's files
        _rewrite_value(field.outs["fd"], 5, lambda v: "0.25")
        assert field.check([0, 0])
        assert field.check([0, 2])
        # full checks on a fresh workload object: sampled and unsampled values
        for row, delta in ((checks.FIELD_STRIDE * 3, 1e-6), (1000, 1e-3)):
            shutil.copy(saved["fd"], field.outs["fd"])
            _rewrite_value(field.outs["fd"], row,
                           lambda v: format(v + delta, checks.CSV_FLOAT_FORMAT))
            fresh = workloads.FieldCsv(API, 0, field.workdir)
            assert any(m.startswith("fd:") for m in fresh.check([0, 0])), row
    finally:
        for k, p in field.outs.items():
            shutil.copy(saved[k], p)


def test_field_fails_on_lossy_writer(field, tmp_path):
    """A value written at 10 significant digits moves by less than FIELD_TOL;
    only the format check catches it."""
    saved = shutil.copy(field.outs["expand"], tmp_path / "u2.csv")
    try:
        old, new = _rewrite_value(field.outs["expand"], checks.FIELD_STRIDE * 7,
                                  lambda v: format(v, ".10g"))
        assert old != new and abs(float(old) - float(new)) < checks.FIELD_TOL
        failures = workloads.FieldCsv(API, 0, field.workdir).check([0, 0])
        assert len(failures) == 1 and "not written as .17g" in failures[0], failures
    finally:
        shutil.copy(saved, field.outs["expand"])


def test_field_fails_on_metadata_and_remainder(field):
    scans, remainder = checks.scan_field_csvs(field.outs["fd"], field.outs["expand"],
                                               field.nx, field.ny)
    scan, ref = scans[1], field.ref["expand"]
    assert checks.check_field(scan, ref) == []
    assert checks.check_field({**scan, "meta": scan["meta"][:-1] + ["# tol: 1e-10"]}, ref)
    assert checks.check_remainder(remainder, field.ref["remainder"]) == []
    assert checks.check_remainder(remainder, field.ref["remainder"] + 1e-6)


def test_estimate_fails_off_the_fd_value_and_on_rerun_mismatch(tmp_path):
    wl = workloads.McPoint(API, 7, tmp_path)
    assert wl.warmup() == []
    est = wl._estimate(API.McConfig(dt=1e-4, n_paths=2000, seed=7))
    assert wl.check(est) == []
    assert wl.check(est) == []
    off = dataclasses.replace(est, mean=wl.ref["fd_value"] + 5 * est.std_error)
    assert any("standard errors" in m for m in checks.check_estimate(off, wl.ref))
    assert any("differs" in m for m in wl.check(dataclasses.replace(est, n_paths=1999)))


class _Corrupted:
    """Workload stand-in whose jobs return a perturbed McPoint estimate."""

    name = "mc-point"

    def __init__(self, wl):
        self.wl = wl
        self.api = wl.api
        self.workdir = wl.workdir

    def warmup(self):
        return []

    def job(self):
        est = self.wl._estimate(API.McConfig(dt=1e-3, n_paths=300, seed=1))
        return dataclasses.replace(est, mean=est.mean + 100.0)

    def check(self, est):
        return checks.check_estimate(est, self.wl.ref)


def test_job_loop_counts_failed_checks(tmp_path):
    jobs = run.run_jobs(_Corrupted(workloads.McPoint(API, 1, tmp_path)), 0, None)
    assert jobs["attempted"] == 2 and jobs["failed"] == 1
