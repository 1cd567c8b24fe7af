"""Spans and counters recorded around calls into the anisolayer modules.

The tracer replaces public functions at the module (or class) attribute each
caller resolves at call time, for instance ``anisolayer.validation.solve_fd``
for the reference solves that ``remainder_norms`` makes, and restores the
originals on exit.  Nothing inside the package is edited.

Two kinds of wrapper exist:

* span wrappers record ``[name, start, end, parent, child_s]`` in memory,
  where ``child_s`` is the part of the interval covered by traced callees;
* aggregate wrappers serve per-step callables (``problem.f`` and
  ``reflect_unit_interval`` under Monte Carlo) and only add calls, seconds
  and points to a counter, charging the seconds to the enclosing span.

A layer's self time is its spans' duration minus ``child_s``.  Counts are
taken at the same boundaries (iterations from ``SolveStats``, grid points,
bytes from the file position after ``write_csv``) and repeat exactly between
runs of the same code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np


def _solve_counts(counts, args, kwargs, result):
    field, stats = result
    counts["fdsolver.iterations"] += stats.iterations
    counts["fdsolver.unknowns"] += field.grid.n_x * (field.grid.n_y - 1)
    counts["fdsolver.residual_max"] = max(counts["fdsolver.residual_max"],
                                          stats.relative_residual)


def _grid_points(counts, args, kwargs, result):
    counts["expansion.evaluate_grid.points"] += np.size(result)


def _bytes_written(name):
    def hook(counts, args, kwargs, result):
        stream = kwargs.get("stream", args[1] if len(args) > 1 else None)
        # the writers start on a freshly opened file, so the position after
        # the call is the byte count of the artifact
        counts[name + ".bytes"] += stream.tell()
    return hook


class Tracer:
    """In-memory span recorder; wrappers are active only inside ``installed``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _aggregate_wrapper(self, fn, name, points_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.counts[name + ".calls"] += 1
            self.counts[name + ".self_s"] += elapsed
            self.counts[name + ".points"] += np.size(points_of(args, result))
            if self._stack:
                self.spans[self._stack[-1]][4] += elapsed
            return result
        return wrapper

    def _traced_problem(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            p = factory(*args, **kwargs)
            f = self._aggregate_wrapper(p.f, "problem.f", lambda a, r: r)
            return dataclasses.replace(p, f=f)
        return wrapper

    # -- installation -------------------------------------------------------

    def _patches(self, api):
        """(owner, attribute, replacement) for every traced entry point."""
        cli, validation, expansion, fdsolver, montecarlo = (
            api.cli, api.validation, api.expansion, api.fdsolver, api.montecarlo)
        spans = [
            (cli, "run", "cli.run", None),
            (cli, "solve_fd", "fdsolver.solve_fd", _solve_counts),
            (validation, "solve_fd", "fdsolver.solve_fd", _solve_counts),
            (cli, "composite", "expansion.composite", None),
            (validation, "composite", "expansion.composite", None),
            (expansion.ExpansionResult, "evaluate_grid", "expansion.evaluate_grid",
             _grid_points),
            (expansion, "cosine_coeffs", "spectral.cosine_coeffs", None),
            (expansion, "decompose", "problem.decompose", None),
            (fdsolver.Field2D, "write_csv", "fdsolver.write_csv",
             _bytes_written("fdsolver.write_csv")),
            (validation.ErrorReport, "write_csv", "validation.write_csv",
             _bytes_written("validation.write_csv")),
            (cli, "remainder_norms", "validation.remainder_norms", None),
            (validation, "max_principle_check", "validation.max_principle_check", None),
            (validation, "fd_self_convergence_estimate",
             "validation.fd_self_convergence_estimate", None),
            (api, "estimate_point", "montecarlo.estimate_point", None),
        ]
        for owner, attr, name, hook in spans:
            yield owner, attr, self._span_wrapper(getattr(owner, attr), name, hook)
        yield (montecarlo, "reflect_unit_interval",
               self._aggregate_wrapper(montecarlo.reflect_unit_interval,
                                       "montecarlo.reflect", lambda a, r: a[0]))
        for owner in (api, cli):
            yield owner, "builtin_problem", self._traced_problem(owner.builtin_problem)

    @contextlib.contextmanager
    def installed(self, api):
        """Patch the package for the duration of the block, then restore it."""
        self.spans, self.counts, self._stack = [], defaultdict(float), []
        saved = []
        try:
            for owner, attr, wrapper in list(self._patches(api)):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- per-job summary ----------------------------------------------------

    def take_job(self):
        """Self times, call counts and counters recorded since the last call.

        Returns ``(summary, spans)``; ``spans`` are dicts with name, start,
        end and parent index, ready to be written out.
        """
        summary = defaultdict(float, self.counts)
        for name, start, end, _, child_s in self.spans:
            summary[name + ".calls"] += 1
            summary[name + ".self_s"] += end - start - child_s
            summary[name + ".total_s"] += end - start
        spans = [{"name": n, "start": s, "end": e, "parent": p}
                 for n, s, e, p, _ in self.spans]
        self.spans = []
        self.counts = defaultdict(float)
        return summary, spans
