import dataclasses
import io
import json

import numpy as np
import pytest

import anisolayer.validation as validation
from anisolayer import (
    Grid2D,
    InsufficientPoints,
    NonPositiveNorm,
    builtin_problem,
    build_antiderivatives,
    decompose,
    fd_self_convergence_estimate,
    fit_order,
    matching_identity_check,
    max_principle_check,
    composite,
    remainder_norms,
    solve_fd,
)


class TestFitOrder:
    def test_exact_quadratic_power(self):
        eps2 = np.array([0.001, 0.01, 0.1])
        points = list(zip(eps2, 3.0 * eps2**2))
        fit = fit_order(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_linear_power(self):
        eps2 = np.array([0.002, 0.02, 0.2, 0.5])
        fit = fit_order(list(zip(eps2, 7.0 * eps2)))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log10(7.0), abs=1e-12)

    def test_paper_table_r0_slope_near_one(self):
        # r0 column of the published remainder table
        points = [(0.001, 1.0533e-4), (0.005, 5.2222e-4), (0.01, 1.0335e-3),
                  (0.05, 4.7441e-3), (0.1, 8.6241e-3)]
        fit = fit_order(points)
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            fit_order([(0.01, 1.0), (0.1, 2.0)])

    def test_nonpositive_norm(self):
        with pytest.raises(NonPositiveNorm):
            fit_order([(0.01, 1.0), (0.1, 0.0), (0.5, 2.0)])


class TestMaxPrinciple:
    def test_zero_problem(self):
        p = builtin_problem("zero", eps=0.3)
        field, _ = solve_fd(p, Grid2D(16, 16))
        res = max_principle_check(field, p)
        assert res.bound == 0.0
        assert res.max_abs == 0.0
        assert res.passed

    def test_constant_force_at_eps_one(self):
        # exact solution y(1-y)/2 peaks at 1/8, bound is 0 + 1/2
        p = builtin_problem("constant-force", eps=1.0)
        field, _ = solve_fd(p, Grid2D(16, 64))
        res = max_principle_check(field, p)
        assert res.bound == pytest.approx(0.5)
        assert res.max_abs == pytest.approx(0.125, abs=1e-3)
        assert res.passed

    def test_paper_problem_bound(self):
        eps2 = 0.05
        p = builtin_problem("paper", eps=float(np.sqrt(eps2)))
        field, _ = solve_fd(p, Grid2D(128, 128))
        res = max_principle_check(field, p)
        assert res.bound == pytest.approx(1.025, abs=1e-3)
        assert res.passed


class TestMatchingIdentity:
    def test_zero_force(self):
        d = decompose(builtin_problem("zero"), quad_points=64)
        stack = build_antiderivatives(d, quad_points=64)
        assert matching_identity_check(d, stack, n_modes=4) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_closed_form(self):
        d0 = decompose(builtin_problem("zero"), quad_points=1024)
        d = type(d0)(fbar=d0.fbar,
                     ftilde=lambda x, y: np.cos(np.pi * x) * (1.0 + 0.5 * y),
                     phibar0=0.0, phibar1=0.0, phitilde0=d0.phitilde0,
                     phitilde1=d0.phitilde1, quad_points=1024)
        stack = build_antiderivatives(d, quad_points=1024)
        assert matching_identity_check(d, stack, n_modes=8) < 1e-9

    def test_paper_problem_high_resolution(self):
        d = decompose(builtin_problem("paper"), quad_points=4096)
        stack = build_antiderivatives(d, quad_points=4096)
        assert matching_identity_check(d, stack, n_modes=8) <= 1e-7

    def test_stack_of_another_problem_deviates(self):
        # the right-hand side comes from d, not from the stack under test
        d = decompose(builtin_problem("paper"), quad_points=256)
        zero = build_antiderivatives(decompose(builtin_problem("zero"), quad_points=256),
                                     quad_points=256)
        assert matching_identity_check(d, zero, n_modes=8) > 1e-2

    @pytest.mark.parametrize("n_modes,y_samples", [(0, None), (-1, None), (4, [])])
    def test_empty_check_rejected(self, n_modes, y_samples):
        d = decompose(builtin_problem("paper"), quad_points=64)
        stack = build_antiderivatives(d, quad_points=64)
        with pytest.raises(ValueError):
            matching_identity_check(d, stack, n_modes=n_modes, y_samples=y_samples)


class TestSelfConvergenceEstimate:
    def test_matches_true_error_on_smooth_problem(self):
        # no-layer: the expansion mean is exact, so the FD error is measurable
        from anisolayer import composite

        p = builtin_problem("no-layer", eps=0.2)
        grid = Grid2D(16, 64)
        field, _ = solve_fd(p, grid)
        approx = composite(p, order=0, n_modes=8, quad_points=256)
        true_err = float(np.max(np.abs(
            field.values - approx.evaluate_grid(grid.x_nodes(), grid.y_nodes()))))
        est = fd_self_convergence_estimate(p, field)
        assert est == pytest.approx(true_err, rel=0.25)

    def test_matches_true_x_error_with_layers(self):
        # paper problem: the x-discretization error dominates on 64 x 4096;
        # the true one is the distance to a 3x x-refined solve, whose nodes
        # [1::3] coincide with the 64-cell staggered nodes
        p = builtin_problem("paper", eps=float(np.sqrt(0.1)))
        field, _ = solve_fd(p, Grid2D(64, 4096))
        fine, _ = solve_fd(p, Grid2D(192, 4096))
        true_err = float(np.max(np.abs(field.values - fine.values[1::3])))
        est = fd_self_convergence_estimate(p, field)
        assert est == pytest.approx(true_err, rel=0.25)

    def test_requires_even_cells(self):
        p = builtin_problem("zero")
        field, _ = solve_fd(p, Grid2D(9, 8))
        with pytest.raises(ValueError):
            fd_self_convergence_estimate(p, field)


class TestRemainderNorms:
    def test_no_layer_norms_bounded_by_fd_error(self):
        p = builtin_problem("no-layer")
        report = remainder_norms(p, [0.001, 0.01, 0.1], [0], Grid2D(16, 64),
                                 n_modes=8, quad_points=256)
        for i, norm in enumerate(report.norms[0]):
            # expansion is exact here, the whole remainder is FD error
            assert norm <= 1.5 * report.fd_error_estimates[i]
            assert report.flagged[0][i]
        # and that error does not depend on eps
        assert max(report.norms[0]) / min(report.norms[0]) < 1.01

    def test_paper_problem_dominance_and_monotonicity(self):
        p = builtin_problem("paper")
        report = remainder_norms(p, [0.01, 0.05, 0.1], [0, 1], Grid2D(128, 512),
                                 quad_points=1024)
        r0, r2 = report.norms[0], report.norms[1]
        assert all(a <= b for a, b in zip(r0, r0[1:]))
        assert all(a <= b for a, b in zip(r2, r2[1:]))
        assert all(r2[i] < r0[i] for i in range(3))
        assert all(res.passed for res in report.max_principle)

    def test_insufficient_eps_values(self):
        p = builtin_problem("paper")
        with pytest.raises(InsufficientPoints):
            remainder_norms(p, [0.01, 0.1], [0], Grid2D(8, 8))

    def test_eps_values_must_increase(self):
        p = builtin_problem("paper")
        with pytest.raises(ValueError):
            remainder_norms(p, [0.1, 0.01, 0.05], [0], Grid2D(8, 8))

    def test_csv_and_sidecar_round_trip(self):
        p = builtin_problem("no-layer")
        report = remainder_norms(p, [0.001, 0.01, 0.1], [0, 1], Grid2D(8, 16),
                                 n_modes=8, quad_points=64)
        buf = io.StringIO()
        report.write_csv(buf, metadata={"tool": "anisolayer test"})
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "eps2,r0,r2"
        row = lines[2].split(",")
        assert float(row[0]) == 0.001
        assert float(row[1]) == report.norms[0][0]
        sidecar = report.sidecar_dict()
        json.dumps(sidecar)  # must be JSON-serializable
        assert set(sidecar["slopes"]) == {"r0", "r2"}
        assert sidecar["grid"] == {"n_x": 8, "n_y": 16}
        assert len(sidecar["max_principle"]) == 3

    def test_resolved_grid_reproduces_single_solve_bit_for_bit(self):
        # dy resolves the fastest kept layer mode, so r = 1: one solve on the
        # output grid, exactly as measured before references were refined
        p = builtin_problem("paper")
        eps2 = [0.05, 0.1, 0.2]
        grid = Grid2D(64, 2048)
        report = remainder_norms(p, eps2, [0, 1], grid, quad_points=256)
        assert report.refinement == 1 and report.reference_grid == grid
        xs, ys = grid.x_nodes(), grid.y_nodes()
        for i, e2 in enumerate(eps2):
            p_eps = p.with_eps(float(np.sqrt(e2)))
            field, _ = solve_fd(p_eps, grid)
            for n in (0, 1):
                approx = composite(p_eps, order=n, quad_points=256)
                diff = np.abs(field.values - approx.evaluate_grid(xs, ys))
                assert report.norms[n][i] == float(np.max(diff))
                data = np.abs(np.stack([p_eps.phi0(xs), p_eps.phi1(xs)], axis=1)
                              - approx.evaluate_grid(xs, [0.0, 1.0]))
                assert report.dirichlet_errors[n][i] == pytest.approx(np.max(data), abs=1e-15)
            assert report.fd_error_estimates[i] == fd_self_convergence_estimate(p_eps, field)

    def test_under_resolved_grid_gets_accurate_reference(self):
        # dy = 1/32 is far too coarse for layers of width eps ~ 0.14
        p = builtin_problem("paper")
        eps2 = [0.02, 0.05, 0.1]
        grid = Grid2D(128, 32)
        kwargs = dict(n_modes=16, quad_points=256)
        report = remainder_norms(p, eps2, [0, 1], grid, **kwargs)
        plain = remainder_norms(p, eps2, [0, 1], grid, refine=1, **kwargs)
        # 16 pi dy / eps_min = 11.1
        assert report.refinement == 16
        assert report.reference_grid == Grid2D(128, 512)
        assert not report.refinement_capped
        xs, ys = grid.x_nodes(), grid.y_nodes()
        for i, e2 in enumerate(eps2):
            # finer check: 3x the x-cells (nodes 1::3 nest) and twice the y-cells
            p_eps = p.with_eps(float(np.sqrt(e2)))
            a = solve_fd(p_eps, Grid2D(384, 1024))[0].values[1::3, ::32]
            b = solve_fd(p_eps, Grid2D(384, 512))[0].values[1::3, ::16]
            finer = (4.0 * a - b) / 3.0
            for n in (0, 1):
                approx = composite(p_eps, order=n, **kwargs).evaluate_grid(xs, ys)
                expected = float(np.max(np.abs(finer - approx)[:, 1:-1]))
                gap = abs(report.norms[n][i] - expected)
                assert gap <= 0.01 * expected
                assert gap <= report.fd_error_estimates[i]
        # the single solve on the output grid misses r2 at eps^2 = 0.02 tenfold
        assert plain.norms[1][0] > 10.0 * report.norms[1][0]

    def test_refinement_capped_flags_every_cell(self, monkeypatch):
        # the rule asks for r = 8 (8 pi dy / eps_min = 5.6); 16 x (32 r - 1)
        # unknowns: r = 4 fits under 2100, r = 8 does not
        monkeypatch.setattr(validation, "MAX_REFERENCE_UNKNOWNS", 2100)
        p = builtin_problem("paper")
        report = remainder_norms(p, [0.02, 0.05, 0.1], [0], Grid2D(16, 32),
                                 n_modes=8, quad_points=64)
        assert report.refinement == 4
        assert report.refinement_capped
        assert all(report.flagged[0])
        ref = report.sidecar_dict()["reference"]
        solves = ref.pop("solves")
        assert ref == {"grid": {"n_x": 16, "n_y": 128}, "refinement": 4, "capped": True}
        assert solves == report.reference_solves
        assert [s["grid"] for s in solves[0]] == [{"n_x": 16, "n_y": 128}, {"n_x": 16, "n_y": 64}]

    def test_force_only_problem_needs_no_refinement(self):
        # zero boundary data and a constant force: with 128 quadrature points
        # the order-1 layer amplitudes are rounding of a zero fluctuation
        # (~5e-36, not exactly 0), far below the solution's scale eps^2 / 2,
        # so no layer asks for refinement
        p = builtin_problem("constant-force")
        report = remainder_norms(p, [0.001, 0.01, 0.1], [0, 1], Grid2D(16, 32),
                                 n_modes=16, quad_points=128, estimate_fd_error=False)
        assert report.refinement == 1 and not report.refinement_capped

    @pytest.mark.parametrize("refine", [0, 2, 3, "fine"])
    def test_refine_must_be_one_or_auto(self, refine):
        with pytest.raises(ValueError):
            remainder_norms(builtin_problem("paper"), [0.01, 0.05, 0.1], [0],
                            Grid2D(8, 8), refine=refine)


def _counting_f(p):
    """p with an f that records the number of points of each sampling."""
    calls = []

    def f(x, y):
        out = p.f(x, y)
        calls.append(np.size(out))
        return out

    return dataclasses.replace(p, f=f), calls


class TestSweepSharesEpsFreeWork:
    @pytest.mark.parametrize("refine", [1, "auto"])
    def test_f_samples_do_not_grow_with_eps_count(self, refine):
        counts = []
        for eps2 in ([0.02, 0.05, 0.1], [0.02, 0.03, 0.05, 0.07, 0.1]):
            p, calls = _counting_f(builtin_problem("paper"))
            report = remainder_norms(p, eps2, [0, 1], Grid2D(16, 32), n_modes=8,
                                     quad_points=64, refine=refine)
            counts.append(sum(calls))
        assert report.refinement == (1 if refine == 1 else 8)
        assert counts[0] == counts[1]

    def test_refined_reference_matches_one_solve_at_a_time(self):
        # the 128 x 32 sweep of test_under_resolved_grid_gets_accurate_reference
        # (r = 16), rebuilt eps by eps from solve_fd, composite and
        # max_principle_check by the recipe the sweep documents
        p = builtin_problem("paper")
        eps2 = [0.02, 0.05, 0.1]
        grid = Grid2D(128, 32)
        kwargs = dict(n_modes=16, quad_points=256)
        report = remainder_norms(p, eps2, [0, 1], grid, **kwargs)
        r = report.refinement
        assert r == 16
        xs, ys = grid.x_nodes(), grid.y_nodes()

        def rows(p_eps, n_x, level):
            field, stats = solve_fd(p_eps, Grid2D(n_x, grid.n_y * level))
            return field, field.values[:, ::level].copy(), validation._solve_record(field, stats)

        for i, e2 in enumerate(eps2):
            p_eps = p.with_eps(float(np.sqrt(e2)))
            fine, u_r, fine_record = rows(p_eps, 128, r)
            mp = max_principle_check(fine, p_eps)
            _, u_half, half_record = rows(p_eps, 128, r // 2)
            ref = (4.0 * u_r - u_half) / 3.0
            _, coarsest, _ = rows(p_eps, 128, r // 4)
            est_y = float(np.max(np.abs(ref - (4.0 * u_half - coarsest) / 3.0))) / 15.0
            _, half_x, _ = rows(p_eps, 64, r // 4)
            est_x = float(np.max(np.abs(half_x - validation._restrict_x(coarsest)))) / 3.0
            assert report.fd_error_estimates[i] == est_y + est_x
            assert report.reference_solves[i] == [fine_record, half_record]
            assert (report.max_principle[i].bound, report.max_principle[i].max_abs) == (
                mp.bound, mp.max_abs)
            for n in (0, 1):
                diff = np.abs(ref - composite(p_eps, order=n, **kwargs).evaluate_grid(xs, ys))
                assert report.norms[n][i] == float(np.max(diff[:, 1:-1]))
                assert report.dirichlet_errors[n][i] == float(
                    max(np.max(diff[:, 0]), np.max(diff[:, -1])))
