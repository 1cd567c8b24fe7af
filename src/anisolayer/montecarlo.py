"""Feynman-Kac point estimates by simulating the fast-slow diffusion.

The solution admits the stochastic representation

    u(x, y) = E[ phi_{side}(X_tau) + 1/2 integral_0^tau f(X_t, Y_t) dt ],

where X moves as a Brownian motion sped up by 1/eps and reflected at the
Neumann sides x = 0, 1, Y is a standard Brownian motion absorbed at the
Dirichlet sides y = 0, 1, and tau is the absorption time.  Paths are advanced
by the simplified weak Euler scheme (Kloeden & Platen 1992, section 14.1):
Y takes Gaussian steps sqrt(dt) Z, and X takes uniform steps
sqrt(3) h (2U - 1) with h = sqrt(dt) / eps, which match the Gaussian's first
three moments and so keep weak order 1.  Reflection is applied through the
exact folding map of the line onto [0, 1], and the running force integral
uses the left-endpoint rule.  A path is absorbed at the first step that ends
on or past y = 0 or y = 1; with ``bridge_correction`` also at a step whose
Brownian bridge between its endpoints crossed a side.  One helper,
``_exits``, makes that decision for both passes below.

While more than ``_TAIL_PATHS`` paths are live, each pass advances every live
path by one step.  At or below it, each pass advances a block of
``max(1, _TAIL_BLOCK // n)`` steps for the n live paths at once: cumulative
sums of the increments, folded once (exact in law for symmetric steps), with
each path retired at the first row where it exits.  This keeps the per-call
overhead of the sparse tail off the few long-lived paths.

``n_paths`` is split into chunks of at most ``_CHUNK`` paths, an even number
of them unless one suffices, with sizes that differ by at most one; each
chunk draws from its own SFC64 stream spawned from the seed.  The chunks run
on all usable cores: with W forked worker processes, worker w runs chunks w,
w + W, w + 2W, ... and pipes each result back to the calling process, which
runs chunks itself only when it is the only worker.  The chunk sizes depend
on ``n_paths`` alone and a chunk's result only on its stream, so the estimate
is bit-identical for a given seed and config whatever the number of workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._fork import forked_map
from .errors import DegenerateStart, NonFiniteValue
from .problem import ProblemSpec

DEFAULT_DT = 1e-5
DEFAULT_PATHS = 10_000
MAX_DT = 1e-3
MIN_PATHS = 100
MAX_PATHS = 10**8  # estimate_point holds about 32 B per path at its peak
_CHUNK = 20_000
_TAIL_PATHS = 512  # at or below this many live paths, advance in blocks
_TAIL_BLOCK = 2**14  # path-steps per block


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
        if not MIN_PATHS <= self.n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must lie in [{MIN_PATHS}, {MAX_PATHS}], got {self.n_paths}")
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
        """The fields as a JSON object, ``mean_absorption_time`` as ``mean_tau``."""
        return json.dumps({"mean_tau" if key == "mean_absorption_time" else key: value
                           for key, value in asdict(self).items()})


def reflect_unit_interval(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Fold the real line onto [0, 1] by reflection at both endpoints.

    ``x`` may have any shape, and ``out`` may be ``x`` itself.  For |x| < 2
    the fold is min(|x|, 2 - |x|); if any entry is larger, every entry is
    first reduced mod 2.
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

    sizes = _chunk_sizes(cfg.n_paths)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(sizes))
    job = (p, float(x0), float(y0), cfg, sizes, streams)
    chunks = list(forked_map(_run_indexed_chunk, job, len(sizes)))
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


def _chunk_sizes(n_paths: int) -> list[int]:
    """Path counts of the chunks: at most ``_CHUNK`` each, an even number of
    chunks unless one suffices, sizes differing by at most one."""
    n_chunks = -(-n_paths // _CHUNK)
    if n_chunks > 1:
        n_chunks += n_chunks % 2
    base, extra = divmod(n_paths, n_chunks)
    return [base + (index < extra) for index in range(n_chunks)]


def _run_indexed_chunk(job: tuple, index: int) -> tuple[np.ndarray, np.ndarray, int]:
    p, x0, y0, cfg, sizes, streams = job
    rng = np.random.Generator(np.random.SFC64(streams[index]))
    return _run_chunk(p, x0, y0, cfg, sizes[index], rng)


def _run_chunk(p: ProblemSpec, x0: float, y0: float, cfg: McConfig,
               size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, int]:
    """Simulate ``size`` paths to absorption.

    Returns each path's payoff and step count, in order of absorption, and
    the number of paths absorbed at y = 0.  The live paths occupy the first
    ``n`` slots of the state buffers; an absorbed path's slot is refilled
    from the tail.  Both branches draw the x-steps, then the y-steps, then
    any bridge uniforms, for the live slots in order; a block of one step
    therefore advances exactly as a single step does.
    """
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    x_half_width = math.sqrt(3.0 * dt) / p.eps  # sqrt(3) h
    bridge = rng if cfg.bridge_correction else None

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
        if n > _TAIL_PATHS:
            step += 1
            xs, ys, y_new = x[:n], y[:n], y_next[:n]
            force_sum[:n] += p.f(xs, ys)
            dx, dy = noise[:n], noise[n:2 * n]
            _x_steps(rng, dx, x_half_width)
            dx += xs
            reflect_unit_interval(dx, out=xs)
            rng.standard_normal(out=dy)
            dy *= sqrt_dt
            np.add(ys, dy, out=y_new)

            y, y_next = y_next, y
            if (bridge is None and np.minimum.reduce(y_new) > 0.0
                    and np.maximum.reduce(y_new) < 1.0):
                continue
            bottom, top = _exits(ys, y_new, dt, bridge)
            slots = exited = np.flatnonzero(bottom | top)
            if not exited.size:
                continue
            at_bottom = bottom[exited]
            xe = x[exited]
            force_e = force_sum[exited]
            exit_steps = step
        else:
            # rows 0..rows of each block: the current state, then after each step
            rows = max(1, _TAIL_BLOCK // n)
            xb = np.empty((rows + 1, n))
            yb = np.empty((rows + 1, n))
            fb = np.empty((rows + 1, n))
            xb[0], yb[0], fb[0] = x[:n], y[:n], force_sum[:n]
            _x_steps(rng, xb[1:], x_half_width)
            rng.standard_normal(out=yb[1:])
            yb[1:] *= sqrt_dt
            np.cumsum(xb, axis=0, out=xb)
            reflect_unit_interval(xb, out=xb)
            np.cumsum(yb, axis=0, out=yb)
            fb[1:] = p.f(xb[:-1], yb[:-1])
            np.cumsum(fb, axis=0, out=fb)

            bottom, top = (mask.reshape(rows, n) for mask in
                           _exits(yb[:-1].ravel(), yb[1:].ravel(), dt, bridge))
            hit = bottom | top
            first = np.argmax(hit, axis=0)  # each slot's first exiting step, 0 if none
            slots = np.flatnonzero(hit.any(axis=0))
            x[:n], y[:n], force_sum[:n] = xb[-1], yb[-1], fb[-1]
            first_step = step + 1
            step += rows
            if not slots.size:
                continue
            # order the exits by step, then slot
            exited = slots[np.argsort(first[slots], kind="stable")]
            exit_rows = first[exited]
            at_bottom = bottom[exit_rows, exited]
            xe = xb[exit_rows + 1, exited]
            force_e = fb[exit_rows + 1, exited]
            exit_steps = first_step + exit_rows

        k = exited.size
        value = np.where(at_bottom, p.phi0(xe), p.phi1(xe))
        payoffs[n_done:n_done + k] = value + (0.5 * dt) * force_e
        steps[n_done:n_done + k] = exit_steps
        n_done += k
        n_bottom += int(np.count_nonzero(at_bottom))

        # refill the holes below the new live count from the survivors above it
        n -= k
        n_holes = int(np.searchsorted(slots, n))
        if n_holes:
            survivor = np.ones(k, dtype=bool)
            survivor[slots[n_holes:] - n] = False
            holes = slots[:n_holes]
            sources = n + np.flatnonzero(survivor)
            for state in (x, y, force_sum):
                state[holes] = state[sources]

    return payoffs, steps, n_bottom


def _x_steps(rng: np.random.Generator, out: np.ndarray, half_width: float) -> None:
    """Fill ``out`` with steps uniform on [-half_width, half_width)."""
    rng.random(out=out)
    out -= 0.5
    out *= 2.0 * half_width


def _exits(y: np.ndarray, y_new: np.ndarray, dt: float,
           rng: np.random.Generator | None) -> tuple[np.ndarray, np.ndarray]:
    """Exit masks at y = 0 and y = 1 of the steps from ``y`` to ``y_new``.

    A step exits where it ends on or past a side.  With ``rng``, a step that
    ends inside also exits where the Brownian bridge between its endpoints
    crossed a side, decided by one uniform per such step, in slot order.
    """
    bottom = y_new <= 0.0
    top = y_new >= 1.0
    if rng is None:
        return bottom, top
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
