"""Acceptance suite: one test (or parametrized family) per exit criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; the Monte Carlo criterion simulates 1e5 paths at dt = 1e-5
twice and dominates the runtime (several minutes).

Published remainder table being reproduced (criterion 1):

    eps^2      ||r0||_inf    ||r2||_inf
    0.001      1.0533e-04    5.2834e-07
    0.005      5.2222e-04    7.3587e-06
    0.01       1.0335e-03    2.8475e-05
    0.05       4.7441e-03    5.7746e-04
    0.1        8.6241e-03    1.9240e-03
"""

import numpy as np
import pytest

from anisolayer import (
    CosineSeries,
    Grid2D,
    LayerTerm,
    McConfig,
    ProblemSpec,
    builtin_problem,
    build_antiderivatives,
    composite,
    cosine_coeffs,
    decompose,
    estimate_point,
    fd_self_convergence_estimate,
    matching_identity_check,
    mean_solution,
    mean_solution_bvp,
    remainder_norms,
    solve_fd,
)

TABLE = {
    (0.001, 0): 1.0533e-04, (0.001, 1): 5.2834e-07,
    (0.005, 0): 5.2222e-04, (0.005, 1): 7.3587e-06,
    (0.01, 0): 1.0335e-03, (0.01, 1): 2.8475e-05,
    (0.05, 0): 4.7441e-03, (0.05, 1): 5.7746e-04,
    (0.1, 0): 8.6241e-03, (0.1, 1): 1.9240e-03,
}
EPS2_VALUES = (0.001, 0.005, 0.01, 0.05, 0.1)
TABLE_GRID = Grid2D(n_x=2048, n_y=512)
N_MODES = 64
# tight grid for the order fits: fine spacing across the y-layers keeps the
# reference's discretization error from polluting the smallest eps^2 points
SLOPE_GRID = Grid2D(n_x=512, n_y=8192)
SLOPE_EPS2 = (0.005, 0.01, 0.05, 0.1)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def table_report():
    return remainder_norms(builtin_problem("paper"), list(EPS2_VALUES), [0, 1],
                           TABLE_GRID, n_modes=N_MODES)


@pytest.fixture(scope="module")
def slope_report():
    return remainder_norms(builtin_problem("paper"), list(SLOPE_EPS2), [0, 1],
                           SLOPE_GRID, n_modes=N_MODES)


@pytest.mark.parametrize("eps2,order", sorted(TABLE))
def test_criterion1_table_reproduction(table_report, eps2, order):
    """Criterion 1: remainder norms on the 2048x512 grid, K = 64."""
    i = table_report.eps2.index(eps2)
    measured = table_report.norms[order][i]
    expected = TABLE[(eps2, order)]
    ratio = measured / expected
    flagged = table_report.flagged[order][i]
    if eps2 >= 0.005:
        ok = abs(measured - expected) / expected <= 0.25
        rule = "within 25%"
    else:
        ok = 1.0 / 3.0 <= ratio <= 3.0
        rule = "within factor 3"
    _line("criterion 1",
          ok,
          f"eps2={eps2:g} r{2 * order}: measured {measured:.4e} vs table "
          f"{expected:.4e} (ratio {ratio:.3f}, {rule}, "
          f"fd-error-flagged={flagged})")
    assert ok, (
        f"r{2 * order} at eps2={eps2:g}: measured {measured:.4e}, table value "
        f"{expected:.4e}, ratio {ratio:.3f} outside '{rule}'"
        + ("; the report flags this cell: the reference solver's own "
           "discretization error exceeds a tenth of the remainder"
           if flagged else "")
    )


def test_criterion2_convergence_orders(slope_report):
    """Criterion 2: fitted slopes vs eps^2 over the four points >= 0.005."""
    s0 = slope_report.slopes[0].slope
    s2 = slope_report.slopes[1].slope
    ok = 0.85 <= s0 <= 1.15 and 1.7 <= s2 <= 2.3
    _line("criterion 2", ok,
          f"slope(r0) = {s0:.3f} (need [0.85, 1.15]), "
          f"slope(r2) = {s2:.3f} (need [1.7, 2.3]) on "
          f"{SLOPE_GRID.n_x}x{SLOPE_GRID.n_y} grid")
    assert 0.85 <= s0 <= 1.15
    assert 1.7 <= s2 <= 2.3


def test_criterion3_matching_identity():
    """Criterion 3: matching-identity deviation <= 1e-7 at 4096 quad points."""
    d = decompose(builtin_problem("paper"), quad_points=4096)
    stack = build_antiderivatives(d, quad_points=4096)
    deviation = matching_identity_check(d, stack, n_modes=8,
                                        y_samples=np.linspace(0, 1, 9))
    ok = deviation <= 1e-7
    _line("criterion 3", ok, f"max deviation {deviation:.3e} (need <= 1e-7)")
    assert ok


def test_criterion4_max_principle(table_report):
    """Criterion 4: every reference solve obeys ||u|| <= Phi + G/2."""
    all_pass = all(r.passed for r in table_report.max_principle)
    i = table_report.eps2.index(0.05)
    at_005 = table_report.max_principle[i]
    ok = all_pass and abs(at_005.bound - 1.025) < 1e-3
    _line("criterion 4", ok,
          f"all {len(table_report.max_principle)} solves within bound; "
          f"at eps2=0.05: max|u| = {at_005.max_abs:.6f} <= bound {at_005.bound:.6f}")
    assert all_pass
    assert at_005.bound == pytest.approx(1.025, abs=1e-3)
    assert at_005.passed


@pytest.mark.parametrize("eps2", [0.001, 0.1])
def test_criterion5_no_layer_exactness(eps2):
    """Criterion 5: without layers, u[0] matches the reference to FD error."""
    p = builtin_problem("no-layer", eps=float(np.sqrt(eps2)))
    grid = Grid2D(64, 256)
    field, _ = solve_fd(p, grid)
    u0 = composite(p, order=0, n_modes=16, quad_points=512)
    dist = float(np.max(np.abs(
        field.values - u0.evaluate_grid(grid.x_nodes(), grid.y_nodes()))))
    est = fd_self_convergence_estimate(p, field)
    # 5% headroom for the Richardson estimator's own higher-order terms
    ok = dist <= 1.05 * est
    _line("criterion 5", ok,
          f"eps2={eps2:g}: |u[0] - u_fd| = {dist:.3e} vs fd-error estimate {est:.3e}")
    assert ok


def test_criterion6_mean_solution_oracle():
    """Criterion 6: closed-form mean vs tridiagonal solve, Richardson ratio 4."""
    d = decompose(builtin_problem("paper"))
    ms = mean_solution(d)

    def err(cells):
        ys = np.linspace(0, 1, cells + 1)
        return float(np.max(np.abs(mean_solution_bvp(d, cells) - ms(ys))))

    e512, e1024 = err(512), err(1024)
    ratio = e512 / e1024
    ok = e512 <= 1.0 * (1 / 512) ** 2 and abs(ratio - 4.0) <= 0.3
    _line("criterion 6", ok,
          f"max gap {e512:.3e} at 512 cells (<= dy^2 = {1 / 512**2:.3e}), "
          f"Richardson ratio {ratio:.4f} (need 4 +/- 0.3)")
    assert e512 <= 1.0 * (1 / 512) ** 2
    assert ratio == pytest.approx(4.0, abs=0.3)


def test_criterion7_monte_carlo_cross_check():
    """Criterion 7: Feynman-Kac estimates agree with the references at 3 sigma."""
    eps2 = 0.05
    p = builtin_problem("paper", eps=float(np.sqrt(eps2)))
    field, _ = solve_fd(p, TABLE_GRID)
    # x = 0.5 falls midway between the two central half-integer nodes
    i = TABLE_GRID.n_x // 2
    j = TABLE_GRID.n_y // 2
    fd_value = 0.5 * (field.values[i - 1, j] + field.values[i, j])

    cfg = McConfig(dt=1e-5, n_paths=100_000, seed=7)
    est = estimate_point(p, 0.5, 0.5, cfg)
    gap = abs(est.mean - fd_value)
    ok_fd = gap <= 3.0 * est.std_error

    ruin = ProblemSpec(f=lambda x, y: 0.0 * x * y,
                       phi0=lambda x: 0.0 * np.asarray(x, dtype=float),
                       phi1=lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float),
                       eps=float(np.sqrt(eps2)))
    ruin_est = estimate_point(ruin, 0.5, 0.5, McConfig(dt=1e-5, n_paths=100_000, seed=11))
    ruin_gap = abs(ruin_est.mean - 0.5)
    ok_ruin = ruin_gap <= 3.0 * ruin_est.std_error

    _line("criterion 7", ok_fd and ok_ruin,
          f"fd cross-check gap {gap:.3e} <= 3 se = {3 * est.std_error:.3e}; "
          f"ruin gap {ruin_gap:.3e} <= 3 se = {3 * ruin_est.std_error:.3e}")
    assert ok_fd, f"MC {est.mean:.6f} vs FD {fd_value:.6f}, gap {gap:.2e}"
    assert ok_ruin, f"ruin estimate {ruin_est.mean:.6f}, gap {ruin_gap:.2e}"


def test_criterion8_property_suite():
    """Criterion 8: structural properties that need no reference solve."""
    checks = []

    # cosine orthogonality exact to 1e-10
    s = cosine_coeffs(lambda x: np.cos(np.pi * x), n_modes=8)
    checks.append(abs(s.coeffs[0] - 1.0) < 1e-10 and np.all(np.abs(s.coeffs[1:]) < 1e-10))

    # layer-term boundary and decay invariants
    series = CosineSeries(np.array([1.0, -0.25]))
    bottom = LayerTerm("bottom", series, eps=0.1)
    top = LayerTerm("top", series, eps=0.1)
    xs = np.linspace(0, 1, 33)
    checks.append(bool(np.allclose(bottom(xs, 0.0), series(xs), atol=1e-13)))
    checks.append(bool(np.allclose(top(xs, 1.0), series(xs), atol=1e-13)))
    checks.append(bool(np.max(np.abs(bottom(xs, 1.0))) < 1e-12))
    checks.append(bool(np.max(np.abs(top(xs, 0.0))) < 1e-12))

    # boundary fidelity: only the opposite layer's tail leaks through
    p = builtin_problem("paper", eps=0.3)
    u = composite(p, order=1, n_modes=32, quad_points=512)
    d = decompose(p, quad_points=512)
    k = np.arange(1, 33)
    phi1_k = cosine_coeffs(d.phitilde1, 32, quad_points=512).coeffs
    f1_k = cosine_coeffs(lambda x: d.ftilde(x, 1.0), 32, quad_points=512).coeffs
    leak = np.exp(-k * np.pi / p.eps)
    rhs = float(np.sum(np.abs(phi1_k) * leak)
                + p.eps**2 * np.sum(np.abs(f1_k) * leak / (k * np.pi) ** 2))
    lhs = float(np.max(np.abs(u(xs, np.zeros_like(xs)) - p.phi0(xs))))
    checks.append(lhs <= rhs + 1e-9)

    # seeded Monte Carlo determinism
    cfg = McConfig(dt=1e-3, n_paths=300, seed=123)
    a = estimate_point(p, 0.25, 0.5, cfg)
    b = estimate_point(p, 0.25, 0.5, cfg)
    checks.append(a == b)

    ok = all(checks)
    _line("criterion 8", ok,
          f"{sum(checks)}/{len(checks)} property checks green "
          "(orthogonality, layer invariants, boundary fidelity, mc determinism)")
    assert ok
