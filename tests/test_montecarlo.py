import multiprocessing
import os

import numpy as np
import pytest

from anisolayer import (
    DegenerateStart,
    Grid2D,
    McConfig,
    NonFiniteValue,
    ProblemSpec,
    builtin_problem,
    decompose,
    estimate_point,
    mean_solution,
    reflect_unit_interval,
    solve_fd,
)
from anisolayer import montecarlo


def _flat(value):
    return lambda x: value + 0.0 * np.asarray(x, dtype=float)


def test_config_guards():
    with pytest.raises(ValueError):
        McConfig(dt=2e-3)
    with pytest.raises(ValueError):
        McConfig(n_paths=10)


def test_degenerate_start_rejected():
    p = builtin_problem("zero")
    for y0 in (0.0, 1.0, -0.1, 1.2):
        with pytest.raises(DegenerateStart):
            estimate_point(p, 0.5, y0, McConfig(dt=1e-3, n_paths=100, seed=1))


def test_reflection_folds_line_onto_unit_interval():
    rng = np.random.default_rng(0)
    x = rng.uniform(-7.0, 7.0, size=10_000)
    folded = reflect_unit_interval(x)
    assert np.all((folded >= 0.0) & (folded <= 1.0))
    # spot values: fold(1.3) = 0.7, fold(-0.2) = 0.2, fold(2.4) = 0.4
    assert reflect_unit_interval(np.array([1.3]))[0] == pytest.approx(0.7)
    assert reflect_unit_interval(np.array([-0.2]))[0] == pytest.approx(0.2)
    assert reflect_unit_interval(np.array([2.4]))[0] == pytest.approx(0.4)


def test_fast_fold_agrees_with_general_fold():
    # inputs below 2 in magnitude take the fast fold; one larger entry sends
    # the whole array through the mod-2 reduction
    rng = np.random.default_rng(1)
    small = rng.uniform(-2.0, 2.0, size=10_000)
    small[:4] = (-1.0, 1.0, 0.0, np.nextafter(2.0, 0.0))
    general = reflect_unit_interval(np.append(small, 7.0))[:-1]
    assert np.array_equal(reflect_unit_interval(small), general)
    for x in (small, rng.uniform(-7.0, 7.0, size=10_000)):
        m = np.mod(np.abs(x), 2.0)
        expected = np.where(m > 1.0, 2.0 - m, m)
        assert np.array_equal(reflect_unit_interval(x), expected)
        out = np.empty_like(x)
        assert reflect_unit_interval(x, out=out) is out
        assert np.array_equal(out, expected)
        in_place = x.copy()
        reflect_unit_interval(in_place, out=in_place)
        assert np.array_equal(in_place, expected)


def _usable_cores(monkeypatch, n):
    """Make the estimator see n usable cores, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("bridge", [False, True])
def test_parallel_chunks_match_serial_rebuild(monkeypatch, bridge):
    # three workers on four chunks: the caller runs chunks 0 and 3, each of
    # the two forked workers one chunk
    _usable_cores(monkeypatch, 3)
    p = builtin_problem("paper", eps=0.3)
    n_paths = 3 * montecarlo._CHUNK + 7
    cfg = McConfig(dt=1e-3, n_paths=n_paths, seed=4, bridge_correction=bridge)
    est = estimate_point(p, 0.25, 0.1, cfg)

    payoffs, steps, n_bottom = [], [], 0
    for index, stream in enumerate(np.random.SeedSequence(4).spawn(4)):
        size = min(montecarlo._CHUNK, n_paths - index * montecarlo._CHUNK)
        rng = np.random.Generator(np.random.SFC64(stream))
        pay, st, bottom = montecarlo._run_chunk(p, 0.25, 0.1, cfg, size, rng)
        payoffs.append(pay)
        steps.append(st)
        n_bottom += bottom
    payoffs, steps = np.concatenate(payoffs), np.concatenate(steps)
    assert est.mean == float(np.mean(payoffs))
    assert est.std_error == float(np.std(payoffs, ddof=1) / np.sqrt(n_paths))
    assert est.mean_steps == float(np.mean(steps))
    assert est.max_steps == int(np.max(steps))
    assert (est.n_exit_bottom, est.n_exit_top) == (n_bottom, n_paths - n_bottom)

    _usable_cores(monkeypatch, 1)
    assert estimate_point(p, 0.25, 0.1, cfg) == est


def _three_chunk_estimate():
    p = builtin_problem("paper", eps=0.3)
    return estimate_point(p, 0.25, 0.1,
                          McConfig(dt=1e-3, n_paths=2 * montecarlo._CHUNK + 1, seed=6))


def test_daemonic_caller_runs_chunks_itself(monkeypatch):
    # a daemonic process may not start children, so it runs every chunk
    _usable_cores(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_daemon = pool.apply_async(_three_chunk_estimate).get(timeout=120)
    assert in_daemon == _three_chunk_estimate()


def _in_worker(failure):
    """A force that is 0 in the calling process and ``failure(x)`` in a worker."""
    caller = os.getpid()

    def f(x, y):
        return failure(x) if os.getpid() != caller else 0.0 * x * y
    return f


def _raise(x):
    raise ZeroDivisionError("planted")


def _die(x):
    os._exit(3)


@pytest.mark.parametrize("failure, error", [(_raise, ZeroDivisionError),
                                            (lambda x: np.nan * x, NonFiniteValue),
                                            (_die, ChildProcessError)],
                         ids=["raises", "nan", "exits"])
def test_worker_failure_reaches_caller(monkeypatch, failure, error):
    # two chunks on two workers: only the forked worker runs chunk 1
    _usable_cores(monkeypatch, 2)
    p = ProblemSpec(f=_in_worker(failure), phi0=_flat(0.0), phi1=_flat(1.0), eps=0.2)
    cfg = McConfig(dt=1e-3, n_paths=2 * montecarlo._CHUNK, seed=5)
    with pytest.raises(error):
        estimate_point(p, 0.5, 0.5, cfg)
    assert multiprocessing.active_children() == []


def test_seeded_estimates_are_bit_identical():
    p = builtin_problem("paper", eps=0.3)
    cfg = McConfig(dt=5e-4, n_paths=500, seed=42)
    a = estimate_point(p, 0.25, 0.5, cfg)
    b = estimate_point(p, 0.25, 0.5, cfg)
    assert a == b  # frozen dataclass: exact field-wise equality


def test_different_seeds_differ():
    p = builtin_problem("paper", eps=0.3)
    a = estimate_point(p, 0.25, 0.5, McConfig(dt=5e-4, n_paths=500, seed=1))
    b = estimate_point(p, 0.25, 0.5, McConfig(dt=5e-4, n_paths=500, seed=2))
    assert a.mean != b.mean


def test_constant_boundary_payoff_has_zero_variance():
    p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=_flat(0.7), phi1=_flat(0.7), eps=0.2)
    est = estimate_point(p, 0.3, 0.6, McConfig(dt=1e-3, n_paths=200, seed=3))
    assert est.mean == pytest.approx(0.7, abs=1e-15)
    assert est.std_error == 0.0
    assert est.mean_absorption_time > 0.0


def test_gamblers_ruin_probability():
    p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=_flat(0.0), phi1=_flat(1.0), eps=0.2)
    est = estimate_point(p, 0.5, 0.5, McConfig(dt=1e-3, n_paths=4000, seed=7))
    assert abs(est.mean - 0.5) <= 3.0 * est.std_error


def test_json_round_trip_fields():
    import json

    p = builtin_problem("zero", eps=0.2)
    est = estimate_point(p, 0.5, 0.5, McConfig(dt=1e-3, n_paths=100, seed=9))
    payload = json.loads(est.to_json())
    assert set(payload) == {"mean", "std_error", "n_paths", "mean_tau", "seed", "dt",
                            "n_exit_bottom", "n_exit_top", "mean_steps", "max_steps"}
    assert payload["n_paths"] == 100
    assert payload["seed"] == 9
    assert payload["dt"] == 1e-3
    assert payload["n_exit_bottom"] + payload["n_exit_top"] == 100
    assert 1 <= payload["mean_steps"] <= payload["max_steps"]
    assert payload["mean_tau"] == pytest.approx(payload["mean_steps"] * 1e-3)


def test_dt_refinement_stays_within_noise():
    p = builtin_problem("no-layer", eps=0.2)
    coarse = estimate_point(p, 0.4, 0.5, McConfig(dt=4e-4, n_paths=3000, seed=11))
    fine = estimate_point(p, 0.4, 0.5, McConfig(dt=2e-4, n_paths=3000, seed=12))
    band = 3.0 * np.hypot(coarse.std_error, fine.std_error)
    assert abs(coarse.mean - fine.mean) <= band


def test_bridge_correction_shrinks_exit_time_bias():
    # discrete monitoring overshoots the absorption time by O(sqrt(dt));
    # the bridge correction removes most of it
    p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=_flat(0.0), phi1=_flat(1.0), eps=0.2)
    plain = estimate_point(p, 0.5, 0.5, McConfig(dt=1e-3, n_paths=4000, seed=21))
    bridged = estimate_point(p, 0.5, 0.5,
                             McConfig(dt=1e-3, n_paths=4000, seed=21,
                                      bridge_correction=True))
    assert bridged.mean_absorption_time < plain.mean_absorption_time
    assert abs(bridged.mean - 0.5) <= 3.0 * bridged.std_error


def test_layer_signature_decays_away_from_boundary():
    # |estimate - mean profile| shrinks as the start moves out of the layer
    eps = 0.1
    p = builtin_problem("paper", eps=eps)
    ubar = mean_solution(decompose(p))
    gaps = []
    errs = []
    for i, y0 in enumerate((eps, 2 * eps, 4 * eps, 0.5)):
        est = estimate_point(p, 0.0, y0, McConfig(dt=1e-4, n_paths=4000, seed=30 + i))
        gaps.append(abs(est.mean - float(ubar(y0))))
        errs.append(est.std_error)
    for i in range(len(gaps) - 1):
        noise = 3.0 * np.hypot(errs[i], errs[i + 1])
        assert gaps[i + 1] < gaps[i] + noise


def test_agrees_with_fd_reference_at_interior_point():
    eps2 = 0.05
    p = builtin_problem("paper", eps=float(np.sqrt(eps2)))
    grid = Grid2D(128, 128)
    field, _ = solve_fd(p, grid)
    # x = 0.5 sits midway between the two central half-integer nodes
    i = grid.n_x // 2
    fd_value = 0.5 * (field.values[i - 1, grid.n_y // 2] + field.values[i, grid.n_y // 2])
    est = estimate_point(p, 0.5, 0.5, McConfig(dt=1e-4, n_paths=20_000, seed=5))
    assert abs(est.mean - fd_value) <= 3.0 * est.std_error
