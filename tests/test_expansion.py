import dataclasses

import numpy as np
import pytest

from anisolayer import expansion
from anisolayer import (
    CosineSeries,
    MissingDerivatives,
    ProblemSpec,
    builtin_problem,
    composite,
    cosine_coeffs,
    decompose,
    eval_series,
    layer_term,
    mean_solution,
    mean_solution_bvp,
)


class TestMeanSolution:
    def test_harmonic_interpolation(self):
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: 2.0 + 0 * x,
                        phi1=lambda x: -1.0 + 0 * x, eps=0.1)
        ms = mean_solution(decompose(p, quad_points=64), quad_points=64)
        ys = np.linspace(0, 1, 11)
        assert np.allclose(ms(ys), 2.0 - 3.0 * ys, atol=1e-12)

    def test_constant_force_parabola(self):
        # -u'' = 1 with zero ends integrates by hand to y(1-y)/2
        p = builtin_problem("constant-force")
        ms = mean_solution(decompose(p, quad_points=128), quad_points=128)
        ys = np.linspace(0, 1, 17)
        assert np.allclose(ms(ys), ys * (1 - ys) / 2, atol=1e-12)

    def test_end_values_match_means(self):
        p = builtin_problem("paper")
        d = decompose(p)
        ms = mean_solution(d)
        assert ms(0.0) == pytest.approx(d.phibar0, abs=1e-10)
        assert ms(1.0) == pytest.approx(d.phibar1, abs=1e-10)

    def test_second_difference_recovers_force(self):
        p = builtin_problem("paper")
        d = decompose(p)
        ms = mean_solution(d)
        h = 1e-3
        for y in (0.2, 0.5, 0.8):
            second = (ms(y - h) - 2 * ms(y) + ms(y + h)) / h**2
            assert -second == pytest.approx(float(d.fbar(y)), abs=5e-4)

    def test_matches_bvp_oracle_on_paper_problem(self):
        d = decompose(builtin_problem("paper"))
        ms = mean_solution(d)
        nodes = np.linspace(0, 1, 513)
        bvp = mean_solution_bvp(d, 512)
        # second-order scheme against the (much more accurate) closed form
        assert np.max(np.abs(ms(nodes) - bvp)) < 1.0 * (1 / 512) ** 2


class TestMeanSolutionBvp:
    def test_exact_on_linear(self):
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: 0 * x,
                        phi1=lambda x: 1.0 + 0 * x, eps=0.1)
        d = decompose(p, quad_points=32)
        vals = mean_solution_bvp(d, 16)
        assert np.allclose(vals, np.linspace(0, 1, 17), atol=1e-13)

    def test_exact_on_quadratic(self):
        d = decompose(builtin_problem("constant-force"), quad_points=32)
        vals = mean_solution_bvp(d, 16)
        ys = np.linspace(0, 1, 17)
        assert np.allclose(vals, ys * (1 - ys) / 2, atol=1e-13)

    def test_richardson_ratio_second_order(self):
        d = decompose(builtin_problem("paper"))
        ms = mean_solution(d)

        def err(m):
            ys = np.linspace(0, 1, m + 1)
            return np.max(np.abs(mean_solution_bvp(d, m) - ms(ys)))

        ratio = err(128) / err(256)
        assert ratio == pytest.approx(4.0, abs=0.3)

    def test_rejects_tiny_grids(self):
        d = decompose(builtin_problem("zero"), quad_points=32)
        with pytest.raises(ValueError):
            mean_solution_bvp(d, 3)


def _outer_term2(p, quad_points):
    """Second-order outer correction -F_2(x, y) + F_3(1, y), as outer_part / eps^2."""
    u = composite(p, order=1, n_modes=64, quad_points=quad_points)
    return lambda x, y: u.outer_part(x, y) / p.eps**2


class TestOuterTerm2:
    def test_zero_force(self):
        u2 = _outer_term2(builtin_problem("zero"), quad_points=64)
        xs = np.linspace(0, 1, 9)
        assert np.allclose(u2(xs, 0.5), 0.0, atol=1e-14)

    def test_closed_form_oracle(self):
        # ftilde = cos(pi x) g(y) -> outer term g(y) cos(pi x)/pi^2
        g = lambda y: 2.0 - y
        p = ProblemSpec(f=lambda x, y: np.cos(np.pi * x) * g(y), phi0=lambda x: 0 * x,
                        phi1=lambda x: 0 * x, eps=0.1)
        u2 = _outer_term2(p, quad_points=512)
        xs = np.linspace(0, 1, 21)
        for y in (0.0, 0.4, 1.0):
            assert np.allclose(u2(xs, y), g(y) * np.cos(np.pi * xs) / np.pi**2, atol=1e-9)

    def test_zero_x_mean_per_y(self):
        u2 = _outer_term2(builtin_problem("paper"), quad_points=1024)
        x = np.linspace(0, 1, 1025)
        w = np.ones(1025)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w /= 3.0 * 1024
        for y in (0.0, 0.33, 0.71, 1.0):
            assert abs(w @ u2(x, y)) < 1e-10


class TestLayerTerm:
    def test_bottom_boundary_value(self):
        term = layer_term(CosineSeries(np.array([1.0])), "bottom", eps=0.1)
        xs = np.linspace(0, 1, 9)
        assert np.allclose(term(xs, 0.0), np.cos(np.pi * xs), atol=1e-14)

    def test_bottom_decay(self):
        term = layer_term(CosineSeries(np.array([1.0])), "bottom", eps=0.1)
        expected = np.exp(-10 * np.pi) * np.cos(np.pi * 0.3)
        assert term(0.3, 1.0) == pytest.approx(expected, rel=1e-12)
        assert abs(term(0.3, 1.0)) < 1e-13

    def test_top_boundary_value(self):
        term = layer_term(CosineSeries(np.array([1.0])), "top", eps=0.1)
        xs = np.linspace(0, 1, 9)
        assert np.allclose(term(xs, 1.0), np.cos(np.pi * xs), atol=1e-14)

    def test_reproduces_series_at_stretched_origin(self):
        series = cosine_coeffs(lambda x: np.cos(2 * np.pi * x) - 0.5 * np.cos(np.pi * x),
                               n_modes=4)
        term = layer_term(series, "top", eps=0.05)
        xs = np.linspace(0, 1, 33)
        assert np.allclose(term(xs, 1.0), eval_series(series, xs), atol=1e-13)

    def test_decay_rates(self):
        term = layer_term(CosineSeries(np.array([1.0, 2.0, 3.0])), "bottom", eps=0.1)
        assert np.allclose(term.decay_rates, np.pi * np.array([1, 2, 3]))

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            layer_term(CosineSeries(np.array([1.0])), "left", eps=0.1)


class TestComposite:
    def test_zero_problem_is_zero(self):
        u = composite(builtin_problem("zero"), order=1, n_modes=16, quad_points=64)
        xs = np.linspace(0, 1, 7)
        ys = np.linspace(0, 1, 5)
        assert np.allclose(u.evaluate_grid(xs, ys), 0.0, atol=1e-13)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_no_layer_problem_equals_mean(self, order):
        p = builtin_problem("no-layer", eps=0.2)
        u = composite(p, order=order, n_modes=32, quad_points=256)
        xs = np.linspace(0, 1, 9)
        ys = np.linspace(0, 1, 9)
        grid = u.evaluate_grid(xs, ys)
        mean_only = np.broadcast_to(u.mean(ys)[None, :], grid.shape)
        assert np.allclose(grid, mean_only, atol=1e-12)

    def test_order0_outer_part_vanishes_and_parts_recombine(self):
        p = builtin_problem("paper", eps=0.2)
        u = composite(p, order=0, n_modes=16, quad_points=256)
        xs = np.linspace(0, 1, 6)
        ys = np.linspace(0, 1, 7)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        assert np.all(u.outer_part(xg, yg) == 0.0)
        total = u.mean_part(xg, yg) + u.outer_part(xg, yg) \
            + u.bottom_layer(xg, yg) + u.top_layer(xg, yg)
        assert np.array_equal(u(xg, yg), total)

    def test_grid_and_pointwise_paths_agree(self):
        p = builtin_problem("paper", eps=0.25)
        u = composite(p, order=1, n_modes=24, quad_points=256)
        xs = np.linspace(0, 1, 8)
        ys = np.linspace(0, 1, 6)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        assert np.allclose(u.evaluate_grid(xs, ys), u(xg, yg), atol=1e-13)

    def test_even_prefactors_scale_exactly(self):
        # outer corrections must scale by (eps2/eps1)^(2m): nothing odd in eps
        p = builtin_problem("paper")
        xs = np.linspace(0, 1, 7)
        ys = np.array([0.31, 0.5, 0.77])
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        u_a = composite(p.with_eps(0.1), order=1, n_modes=16, quad_points=256)
        u_b = composite(p.with_eps(0.2), order=1, n_modes=16, quad_points=256)
        ratio = u_b.outer_part(xg, yg) / u_a.outer_part(xg, yg)
        assert np.allclose(ratio, 4.0, rtol=1e-12)

    def test_boundary_fidelity_bottom(self):
        # at y = 0 only the top layer's exponentially small tail leaks
        p = builtin_problem("paper", eps=0.3)
        n_modes = 32
        u = composite(p, order=1, n_modes=n_modes, quad_points=512)
        d = decompose(p, quad_points=512)
        k = np.arange(1, n_modes + 1)
        phi1_k = cosine_coeffs(d.phitilde1, n_modes, quad_points=512).coeffs
        f1_k = cosine_coeffs(lambda x: d.ftilde(x, 1.0), n_modes, quad_points=512).coeffs
        leak = np.exp(-k * np.pi / p.eps)
        rhs = np.sum(np.abs(phi1_k) * leak) \
            + p.eps**2 * np.sum(np.abs(f1_k) * leak / (k * np.pi) ** 2)
        xs = np.linspace(0, 1, 101)
        lhs = np.max(np.abs(u(xs, np.zeros_like(xs)) - p.phi0(xs)))
        assert lhs <= rhs + 1e-9

    def test_boundary_fidelity_top_against_truncated_data(self):
        p = builtin_problem("paper", eps=0.3)
        n_modes = 32
        u = composite(p, order=1, n_modes=n_modes, quad_points=512)
        d = decompose(p, quad_points=512)
        k = np.arange(1, n_modes + 1)
        phi0_k = cosine_coeffs(d.phitilde0, n_modes, quad_points=512).coeffs
        f0_k = cosine_coeffs(lambda x: d.ftilde(x, 0.0), n_modes, quad_points=512).coeffs
        leak = np.exp(-k * np.pi / p.eps)
        rhs = np.sum(np.abs(phi0_k) * leak) \
            + p.eps**2 * np.sum(np.abs(f0_k) * leak / (k * np.pi) ** 2)
        xs = np.linspace(0, 1, 101)
        truncated_phi1 = d.phibar1 + eval_series(u.top_series, xs)
        lhs = np.max(np.abs(u(xs, np.ones_like(xs)) - truncated_phi1))
        assert lhs <= rhs + 1e-9

    def test_order_increments_shrink_at_expected_rate(self):
        # sup|u[2(n+1)] - u[2n]| must scale like eps^{2(n+1)}
        p = builtin_problem("paper")
        eps_values = np.array([0.05, 0.1, 0.2])
        xs = np.linspace(0, 1, 65)
        ys = np.linspace(0, 1, 65)
        for n in (0, 1):
            gaps = []
            for eps in eps_values:
                lo = composite(p.with_eps(eps), order=n, n_modes=32, quad_points=512)
                hi = composite(p.with_eps(eps), order=n + 1, n_modes=32, quad_points=512)
                gaps.append(np.max(np.abs(hi.evaluate_grid(xs, ys)
                                          - lo.evaluate_grid(xs, ys))))
            slope = np.polyfit(np.log(eps_values), np.log(gaps), 1)[0]
            assert slope == pytest.approx(2 * (n + 1), abs=0.15)

    def test_published_remainders_on_layer_resolving_grid(self):
        # published sup-norm remainders; the reference grid must resolve the
        # O(eps) y-layers, so the fine spacing goes to the y-direction
        from anisolayer import Grid2D, linf_distance, solve_fd

        grid = Grid2D(512, 2048)
        p = builtin_problem("paper", eps=float(np.sqrt(0.05)))
        field, _ = solve_fd(p, grid)
        u0 = composite(p, order=0, n_modes=64)
        assert linf_distance(field, u0) == pytest.approx(4.7441e-3, rel=0.02)

        p = builtin_problem("paper", eps=float(np.sqrt(0.01)))
        field, _ = solve_fd(p, grid)
        u2 = composite(p, order=1, n_modes=64)
        assert linf_distance(field, u2) == pytest.approx(2.8475e-5, rel=0.05)

    def test_scalar_call_returns_float(self):
        u = composite(builtin_problem("paper", eps=0.3), order=1,
                      n_modes=8, quad_points=64)
        value = u(0.3, 0.7)
        assert isinstance(value, float)
        assert value == pytest.approx(u.evaluate_grid([0.3], [0.7])[0, 0], abs=1e-13)

    def test_scattered_points_sample_the_force_in_blocks(self, monkeypatch):
        # u(x, y) at P scattered points samples the force on at most
        # (quad_points + 1) x _Y_BLOCK nodes at a time, with the unblocked values
        base = builtin_problem("paper", eps=0.2)
        largest = [0]

        def f(x, y):
            out = base.f(x, y)
            largest[0] = max(largest[0], np.size(out))
            return out

        p = dataclasses.replace(base, f=f)
        rng = np.random.default_rng(3)
        x, y = rng.random(5000), rng.random(5000)
        blocked = composite(p, order=1, n_modes=16, quad_points=64)(x, y)
        assert 0 < largest[0] <= 65 * expansion._Y_BLOCK
        monkeypatch.setattr(expansion, "_Y_BLOCK", 10**9)
        whole = composite(p, order=1, n_modes=16, quad_points=64)(x, y)
        assert largest[0] == 65 * 5000
        assert np.max(np.abs(blocked - whole)) <= 1e-14

    def test_requires_derivatives_for_higher_orders(self):
        p = ProblemSpec(f=lambda x, y: np.cos(np.pi * x) * (1 + y),
                        phi0=lambda x: 0 * x, phi1=lambda x: 0 * x, eps=0.1)
        composite(p, order=1, n_modes=8, quad_points=64)  # fine without derivatives
        with pytest.raises(MissingDerivatives):
            composite(p, order=2, n_modes=8, quad_points=64)

    def test_eps_guards(self):
        p = builtin_problem("paper", eps=0.7)
        with pytest.warns(UserWarning, match="layers overlap"):
            composite(p, order=0, n_modes=8, quad_points=64)
        with pytest.raises(ValueError):
            composite(builtin_problem("paper", eps=1.5), order=0,
                      n_modes=8, quad_points=64)
