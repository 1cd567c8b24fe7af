"""Output checks for the benchmark workloads.

Each check takes what a job produced plus the recorded reference (see
``reference.json``) and returns a list of failure messages; an empty list
means the output is correct.  The checks are pure functions so that the
benchmark's tests can feed them corrupted outputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

import numpy as np

# Remainder norms may move by this much: far below the reference solver's
# own discretization error (>= 1.5e-5 on this sweep, see the sidecar's
# fd_error_estimates) but above the algebraic error of a tol = 1e-11 solve.
NORM_TOL = 1e-8
# Field values may move by this much: the solver and the expansion are
# deterministic to ~1e-14, and an exact direct solver would differ from the
# PCG field by ~2e-10.
FIELD_TOL = 1e-9
# Every CSV float is written with 17 significant digits, as Field2D.write_csv
# documents, so it reads back exactly.  Fixed here, not imported from the
# package, so that a lossy writer cannot pass by changing the constant.
CSV_FLOAT_FORMAT = ".17g"
# Data rows a field check parses at a time: the checker holds a few MB, not
# whole fields, so its memory stays out of peak_rss_mb.
CHUNK_ROWS = 4096
# Every FIELD_STRIDE-th CSV value is recorded; 509 is coprime with the
# x-resolution, so the samples visit every column.
FIELD_STRIDE = 509
# Monte Carlo estimate must lie within this many standard errors of the
# reference value; at dt = 1e-4 the time-step bias is below 1 SE.
MC_K_SE = 4.0


def _read_head(fh):
    """Metadata lines and header of an open field CSV."""
    meta = []
    line = fh.readline()
    while line.startswith("#"):
        meta.append(line.rstrip("\n"))
        line = fh.readline()
    return meta, line.rstrip("\n")


def _new_scan(meta, header):
    return {"meta": meta, "header": header, "rows": 0, "grid_gap": 0.0,
            "samples": [], "sample_tokens": [], "sum": 0.0, "sumsq": 0.0,
            "min": math.inf, "max": -math.inf}


def _add_chunk(scan, lines, nx, ny):
    """Fold a chunk of data rows into ``scan``; returns their value column."""
    tokens = [ln.rstrip("\n").split(",") for ln in lines]
    rows = np.array(tokens, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"rows {scan['rows']}..{scan['rows'] + len(lines)} "
                         f"are not x,y,value triples")
    r = scan["rows"] + np.arange(len(rows))
    xs = (r % nx + 0.5) / nx
    ys = (r // nx) / ny
    scan["grid_gap"] = max(scan["grid_gap"], float(np.max(np.abs(rows[:, 0] - xs))),
                           float(np.max(np.abs(rows[:, 1] - ys))))
    v = rows[:, 2]
    picked = np.flatnonzero(r % FIELD_STRIDE == 0)
    scan["samples"] += v[picked].tolist()
    scan["sample_tokens"] += [tokens[k] for k in picked]
    scan["sum"] += float(np.sum(v))
    scan["sumsq"] += float(np.sum(v * v))
    scan["min"] = min(scan["min"], float(np.min(v)))
    scan["max"] = max(scan["max"], float(np.max(v)))
    scan["rows"] += len(rows)
    return v


def scan_field_csvs(first, second, nx, ny):
    """Summaries of two row-aligned ``x,y,value`` CSVs on an nx x ny grid.

    The files are read together, CHUNK_ROWS data rows at a time, so the
    checker never holds a whole field.  For each file: metadata lines,
    header, row count, largest distance of the x,y columns from the grid,
    every FIELD_STRIDE-th value with its row's tokens, mean, rms, min and
    max.  Also returns sup |first - second| over the value columns.
    """
    with open(first, encoding="utf-8") as fa, open(second, encoding="utf-8") as fb:
        files = (fa, fb)
        scans = [_new_scan(*_read_head(fh)) for fh in files]
        remainder = 0.0
        while True:
            chunks = [list(itertools.islice(fh, CHUNK_ROWS)) for fh in files]
            if not any(chunks):
                break
            if len(chunks[0]) != len(chunks[1]):
                raise ValueError(f"{first} and {second} differ in row count")
            va, vb = (_add_chunk(s, lines, nx, ny) for s, lines in zip(scans, chunks))
            remainder = max(remainder, float(np.max(np.abs(va - vb))))
    for s in scans:
        n = max(s["rows"], 1)
        s["mean"] = s.pop("sum") / n
        s["rms"] = math.sqrt(s.pop("sumsq") / n)
    return scans, remainder


def field_record(scan, nx, ny):
    """Reference entry for one field CSV (see ``check_field``)."""
    return {"meta": scan["meta"], "nx": nx, "ny": ny,
            **{k: scan[k] for k in ("samples", "mean", "rms", "min", "max")}}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_table(csv_text, sidecar_text, ref):
    """Remainder table matches the recorded norms; sidecar parses; max principle holds."""
    failures = []
    body = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    if not body or body[0] != ref["header"]:
        return [f"table header {body[:1]} != {ref['header']!r}"]
    cols = ref["header"].split(",")
    try:
        rows = np.array([[float(c) for c in ln.split(",")] for ln in body[1:]])
    except ValueError as exc:
        return [f"table does not parse: {exc}"]
    if rows.shape != (len(ref["eps2"]), len(cols)):
        return [f"table shape {rows.shape}, expected {(len(ref['eps2']), len(cols))}"]
    if not np.array_equal(rows[:, 0], ref["eps2"]):
        failures.append(f"eps2 column {rows[:, 0].tolist()} != {ref['eps2']}")
    for c, name in enumerate(cols[1:], start=1):
        gap = np.abs(rows[:, c] - np.asarray(ref["norms"][name]))
        if not np.all(gap <= NORM_TOL):
            failures.append(f"{name} norms off the record by up to {np.max(gap):.3e}")
    try:
        sidecar = json.loads(sidecar_text)
        mp = sidecar["max_principle"]
        passed = [bool(r["passed"]) for r in mp]
    except (ValueError, KeyError, TypeError) as exc:
        return failures + [f"sidecar does not parse: {exc!r}"]
    if len(passed) != len(ref["eps2"]) or not all(passed):
        failures.append(f"max-principle results {passed}")
    return failures


def check_field(scan, ref):
    """A scanned field CSV matches its recorded metadata, grid, samples and
    moments, and its sampled rows are written in CSV_FLOAT_FORMAT."""
    failures = []
    if scan["meta"] != ref["meta"]:
        failures.append(f"metadata lines {scan['meta']} != {ref['meta']}")
    if scan["header"] != "x,y,value":
        failures.append(f"header {scan['header']!r}")
    nx, ny = ref["nx"], ref["ny"]
    if scan["rows"] != nx * (ny + 1):
        return failures + [f"{scan['rows']} rows, expected {nx * (ny + 1)}"]
    if scan["grid_gap"] > 1e-15:
        failures.append(f"x,y columns off the grid by {scan['grid_gap']:.3e}")
    gap = np.max(np.abs(np.asarray(scan["samples"]) - ref["samples"]))
    if not gap <= FIELD_TOL:
        failures.append(f"sampled values off the record by {gap:.3e}")
    lossy = [tok for row in scan["sample_tokens"] for tok in row
             if format(float(tok), CSV_FLOAT_FORMAT) != tok]
    if lossy:
        failures.append(f"{len(lossy)} sampled tokens not written as "
                        f"{CSV_FLOAT_FORMAT}, e.g. {lossy[:3]}")
    for key in ("mean", "rms", "min", "max"):
        if not abs(scan[key] - ref[key]) <= FIELD_TOL:
            failures.append(f"field {key} {scan[key]!r} != recorded {ref[key]!r}")
    return failures


def check_remainder(remainder, ref_remainder):
    """sup |u_fd - u[2]| over the two CSVs matches the recorded remainder."""
    if not abs(remainder - ref_remainder) <= FIELD_TOL:
        return [f"remainder {remainder!r} != recorded {ref_remainder!r}"]
    return []


def check_estimate(est, ref):
    """Estimate within MC_K_SE standard errors of the recorded FD value."""
    if not (np.isfinite(est.mean) and est.std_error > 0.0):
        return [f"degenerate estimate {est}"]
    gap = abs(est.mean - ref["fd_value"])
    if gap > MC_K_SE * est.std_error:
        return [f"estimate {est.mean!r} is {gap / est.std_error:.2f} standard errors "
                f"from the FD value {ref['fd_value']!r}"]
    return []


def check_same(first, again, what):
    """Same-seed reruns must give identical results."""
    return [] if first == again else [f"{what} differs between same-seed runs: "
                                      f"{first} != {again}"]
