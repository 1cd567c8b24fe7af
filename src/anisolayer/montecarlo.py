"""Feynman-Kac point estimates by simulating the fast-slow diffusion.

The solution admits the stochastic representation

    u(x, y) = E[ phi_{side}(X_tau) + 1/2 integral_0^tau f(X_t, Y_t) dt ],

where X moves as a Brownian motion sped up by 1/eps and reflected at the
Neumann sides x = 0, 1, Y is a standard Brownian motion absorbed at the
Dirichlet sides y = 0, 1, and tau is the absorption time.  Paths are advanced
by Euler-Maruyama; reflection is applied through the exact folding map of the
line onto [0, 1], and the running force integral uses the left-endpoint rule.

Paths are split into fixed-size chunks, each drawing from its own SFC64
stream spawned from the seed.  The chunks run on all usable cores: with W
forked worker processes, worker w runs chunks w, w + W, w + 2W, ... and
pipes each result back to the calling process, which runs chunks itself only
when it is the only worker.  A chunk's result depends only on its stream, so
the estimate is bit-identical for a given seed and config whatever the
number of workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._fork import forked_map
from .errors import DegenerateStart, NonFiniteValue
from .problem import ProblemSpec

DEFAULT_DT = 1e-5
DEFAULT_PATHS = 10_000
MAX_DT = 1e-3
MIN_PATHS = 100
_CHUNK = 20_000


@dataclass(frozen=True)
class McConfig:
    """Time step, path count, seed and the optional exit-bias correction."""

    dt: float = DEFAULT_DT
    n_paths: int = DEFAULT_PATHS
    seed: int = 0
    bridge_correction: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.dt <= MAX_DT:
            raise ValueError(f"dt must lie in (0, {MAX_DT}], got {self.dt}")
        if self.n_paths < MIN_PATHS:
            raise ValueError(f"n_paths must be >= {MIN_PATHS}, got {self.n_paths}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error, and exit and step statistics.

    ``n_exit_bottom`` and ``n_exit_top`` count the paths absorbed at y = 0 and
    y = 1; ``mean_steps`` and ``max_steps`` are the time steps a path took
    until absorption.
    """

    mean: float
    std_error: float
    n_paths: int
    mean_absorption_time: float
    seed: int
    dt: float
    n_exit_bottom: int
    n_exit_top: int
    mean_steps: float
    max_steps: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": self.mean,
                "std_error": self.std_error,
                "n_paths": self.n_paths,
                "mean_tau": self.mean_absorption_time,
                "seed": self.seed,
                "dt": self.dt,
                "n_exit_bottom": self.n_exit_bottom,
                "n_exit_top": self.n_exit_top,
                "mean_steps": self.mean_steps,
                "max_steps": self.max_steps,
            }
        )


def reflect_unit_interval(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fold the real line onto [0, 1] by reflection at both endpoints.

    ``out`` may be ``x`` itself.  For |x| < 2 the fold is min(|x|, 2 - |x|);
    larger arguments are first reduced mod 2.
    """
    a = np.abs(x, out=out)
    if np.maximum.reduce(a, axis=None, initial=0.0) >= 2.0:
        a = np.mod(a, 2.0, out=out)
    return np.minimum(a, 2.0 - a, out=out)


def estimate_point(p: ProblemSpec, x0: float, y0: float, cfg: McConfig) -> McEstimate:
    """Estimate the solution value at one interior point.

    Args:
        p: problem instance.
        x0: start abscissa in [0, 1].
        y0: start ordinate, strictly inside (0, 1).
        cfg: simulation parameters.

    Raises:
        DegenerateStart: y0 on or outside the absorbing boundaries.
        NonFiniteValue: problem data evaluated to NaN/inf along a path.
        ChildProcessError: a worker process died before returning its chunk.
        Any exception the problem's functions raise in a worker process is
        raised again here.
    """
    if not 0.0 < y0 < 1.0:
        raise DegenerateStart(f"y0 must lie strictly inside (0, 1), got {y0}")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")

    n_chunks = -(-cfg.n_paths // _CHUNK)
    job = (p, float(x0), float(y0), cfg, np.random.SeedSequence(cfg.seed).spawn(n_chunks))
    chunks = list(forked_map(_run_indexed_chunk, job, n_chunks))
    payoffs = np.concatenate([c[0] for c in chunks])
    steps = np.concatenate([c[1] for c in chunks])
    n_exit_bottom = sum(c[2] for c in chunks)

    if not np.all(np.isfinite(payoffs)):
        raise NonFiniteValue("payoff evaluated to a non-finite value")
    mean = float(np.mean(payoffs))
    std_error = float(np.std(payoffs, ddof=1) / np.sqrt(cfg.n_paths))
    mean_steps = float(np.mean(steps))
    return McEstimate(
        mean=mean,
        std_error=std_error,
        n_paths=cfg.n_paths,
        mean_absorption_time=mean_steps * cfg.dt,
        seed=cfg.seed,
        dt=cfg.dt,
        n_exit_bottom=n_exit_bottom,
        n_exit_top=cfg.n_paths - n_exit_bottom,
        mean_steps=mean_steps,
        max_steps=int(np.max(steps)),
    )


def _run_indexed_chunk(job: tuple, index: int) -> tuple[np.ndarray, np.ndarray, int]:
    p, x0, y0, cfg, streams = job
    size = min(_CHUNK, cfg.n_paths - index * _CHUNK)
    rng = np.random.Generator(np.random.SFC64(streams[index]))
    return _run_chunk(p, x0, y0, cfg, size, rng)


def _run_chunk(p: ProblemSpec, x0: float, y0: float, cfg: McConfig,
               size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Simulate ``size`` paths to absorption.

    Returns each path's payoff and step count, in order of absorption, and
    the number of paths absorbed at y = 0.  The live paths occupy the first
    ``n`` slots of the state buffers; an absorbed path's slot is refilled
    from the tail.
    """
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    x_scale = sqrt_dt / p.eps

    x = np.full(size, x0)
    y = np.full(size, y0)
    y_next = np.empty(size)
    force_sum = np.zeros(size)  # sum of f along the path; times dt at exit
    noise = np.empty(2 * size)
    payoffs = np.empty(size)
    steps = np.empty(size, dtype=np.int64)
    n = size
    n_done = 0
    n_bottom = 0
    step = 0

    while n:
        step += 1
        xs, ys, y_new = x[:n], y[:n], y_next[:n]
        force_sum[:n] += p.f(xs, ys)
        rng.standard_normal(out=noise[:2 * n])
        dx, dy = noise[:n], noise[n:2 * n]
        dx *= x_scale
        dx += xs
        reflect_unit_interval(dx, out=xs)
        dy *= sqrt_dt
        np.add(ys, dy, out=y_new)

        y, y_next = y_next, y
        if cfg.bridge_correction:
            bottom, top = _bridge_exits(ys, y_new, dt, rng)
        elif np.minimum.reduce(y_new) > 0.0 and np.maximum.reduce(y_new) < 1.0:
            continue
        else:
            bottom, top = y_new <= 0.0, y_new >= 1.0
        exited = np.flatnonzero(bottom | top)
        k = exited.size
        if not k:
            continue

        xe = x[exited]
        at_bottom = bottom[exited]
        value = np.where(at_bottom, p.phi0(xe), p.phi1(xe))
        payoffs[n_done:n_done + k] = value + (0.5 * dt) * force_sum[exited]
        steps[n_done:n_done + k] = step
        n_done += k
        n_bottom += int(np.count_nonzero(at_bottom))

        # refill the holes below the new live count from the survivors above it
        n -= k
        n_holes = int(np.searchsorted(exited, n))
        if n_holes:
            survivor = np.ones(k, dtype=bool)
            survivor[exited[n_holes:] - n] = False
            holes = exited[:n_holes]
            sources = n + np.flatnonzero(survivor)
            for state in (x, y, force_sum):
                state[holes] = state[sources]

    return payoffs, steps, n_bottom


def _bridge_exits(y: np.ndarray, y_new: np.ndarray, dt: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exit masks at y = 0 and y = 1, counting bridge crossings between steps."""
    bottom = y_new <= 0.0
    top = y_new >= 1.0
    inside = np.flatnonzero(~(bottom | top))
    if inside.size:
        # probability that the bridge between the endpoints crossed
        y_in, y_new_in = y[inside], y_new[inside]
        p_bot = np.exp(-2.0 * np.maximum(y_in * y_new_in, 0.0) / dt)
        p_top = np.exp(-2.0 * np.maximum((1.0 - y_in) * (1.0 - y_new_in), 0.0) / dt)
        draw = rng.uniform(size=inside.size)
        hit_bot = draw < p_bot
        hit_top = (~hit_bot) & (draw < p_bot + p_top)
        bottom[inside[hit_bot]] = True
        top[inside[hit_top]] = True
    return bottom, top
