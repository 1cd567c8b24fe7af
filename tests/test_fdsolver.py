import dataclasses
import errno
import io
import multiprocessing
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from multiprocessing.context import ForkProcess
from pathlib import Path

import numpy as np
import pytest

from anisolayer import (
    Field2D,
    Grid2D,
    GridMismatch,
    NoConvergence,
    ProblemSpec,
    builtin_problem,
    linf_distance,
    max_principle_check,
    solve_fd,
)
from anisolayer import fdsolver

SRC = Path(__file__).resolve().parent.parent / "src"


class TestGrid2D:
    def test_node_formulas(self):
        g = Grid2D(n_x=4, n_y=5)
        assert g.dx == pytest.approx(0.25)
        assert g.dy == pytest.approx(0.2)
        assert np.allclose(g.x_nodes(), [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(g.y_nodes(), [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert g.x_nodes().size == g.n_x
        assert g.y_nodes().size == g.n_y + 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Grid2D(n_x=1, n_y=8)


class TestSolveFd:
    def test_zero_problem_exact(self):
        field, stats = solve_fd(builtin_problem("zero", eps=0.2), Grid2D(16, 16))
        assert np.all(field.values == 0.0)
        assert stats.iterations == 0

    @pytest.mark.parametrize("eps2", [0.001, 0.1, 1.0])
    def test_constant_force_exact_parabola(self, eps2):
        # x-independent quadratic: the scheme reproduces y(1-y)/2 at the nodes
        p = builtin_problem("constant-force", eps=float(np.sqrt(eps2)))
        grid = Grid2D(8, 32)
        field, stats = solve_fd(p, grid)
        ys = grid.y_nodes()
        expected = np.broadcast_to(ys * (1 - ys) / 2, field.values.shape)
        assert np.max(np.abs(field.values - expected)) < 1e-10
        assert stats.relative_residual <= 1e-11

    def test_linear_solution_exact(self):
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: 0 * x,
                        phi1=lambda x: 1.0 + 0 * x, eps=0.3)
        grid = Grid2D(8, 16)
        field, _ = solve_fd(p, grid)
        expected = np.broadcast_to(grid.y_nodes(), field.values.shape)
        assert np.max(np.abs(field.values - expected)) < 1e-11

    def test_eps_independent_for_x_independent_data(self):
        grid = Grid2D(16, 64)
        a, _ = solve_fd(builtin_problem("no-layer", eps=np.sqrt(0.001)), grid)
        b, _ = solve_fd(builtin_problem("no-layer", eps=np.sqrt(0.1)), grid)
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_self_convergence_second_order(self):
        # distance to a very fine reference shrinks ~4x per refinement
        from scipy.interpolate import RegularGridInterpolator

        p = builtin_problem("paper", eps=0.4)
        fine, _ = solve_fd(p, Grid2D(256, 256))
        interp = RegularGridInterpolator(
            (fine.grid.x_nodes(), fine.grid.y_nodes()), fine.values, method="cubic")

        def dist(n):
            field, _ = solve_fd(p, Grid2D(n, n))
            pts = np.stack(np.meshgrid(field.grid.x_nodes(), field.grid.y_nodes(),
                                       indexing="ij"), axis=-1)
            return float(np.max(np.abs(field.values - interp(pts))))

        d16, d32 = dist(16), dist(32)
        assert d16 / d32 == pytest.approx(4.0, abs=1.0)

    def test_max_principle_on_paper_problem(self):
        eps2 = 0.05
        p = builtin_problem("paper", eps=float(np.sqrt(eps2)))
        field, _ = solve_fd(p, Grid2D(128, 128))
        bound = 1.0 + eps2 / 2  # boundary sup 1, force sup 1
        assert np.max(np.abs(field.values)) <= bound + 1e-8

    def test_tol_floor_rejected(self):
        with pytest.raises(ValueError):
            solve_fd(builtin_problem("zero"), Grid2D(8, 8), tol=1e-16)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            solve_fd(builtin_problem("paper"), Grid2D(8, 8), max_iter=max_iter)

    def test_eps_squaring_to_zero_rejected(self):
        with pytest.raises(ValueError, match="squares to 0"):
            solve_fd(builtin_problem("paper", eps=1e-170), Grid2D(8, 8))

    @staticmethod
    def _scale_inverse_transform(monkeypatch, factor):
        idct = fdsolver.idct
        monkeypatch.setattr(fdsolver, "idct", lambda *a, **kw: factor * idct(*a, **kw))

    def test_perturbed_solve_is_no_convergence(self, monkeypatch):
        # a solve 1e-6 off leaves a relative residual of 1e-6, which fails
        # the check with one transform solve; a refinement pass mends it
        self._scale_inverse_transform(monkeypatch, 1.0 + 1e-6)
        p, grid = builtin_problem("paper", eps=0.05), Grid2D(64, 64)
        with pytest.raises(NoConvergence, match="exceeds tol"):
            solve_fd(p, grid, max_iter=1)
        _, stats = solve_fd(p, grid, max_iter=2)
        assert stats.iterations == 2
        assert stats.relative_residual <= 1e-11 + stats.residual_floor

    def test_non_finite_solve_is_no_convergence(self, monkeypatch):
        self._scale_inverse_transform(monkeypatch, np.nan)
        with pytest.raises(NoConvergence):
            solve_fd(builtin_problem("paper", eps=0.2), Grid2D(16, 16))

    def test_relative_residual_is_the_true_residual(self, monkeypatch):
        # recompute ||b - A u|| / ||b|| with an independent sparse stencil, on
        # a field perturbed so that its residual sits far above rounding
        from scipy import sparse

        eps2, grid = 0.01, Grid2D(12, 10)
        p = builtin_problem("paper", eps=float(np.sqrt(eps2)))
        self._scale_inverse_transform(monkeypatch, 1.0 + 1e-6)
        field, stats = solve_fd(p, grid, tol=1e-3, max_iter=1)
        nx, m = grid.n_x, grid.n_y - 1

        def second_difference(n, h):
            return sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                               [-1, 0, 1], format="lil") / h**2

        a_x = second_difference(nx, grid.dx)
        a_x[0, 0] = a_x[-1, -1] = 1.0 / grid.dx**2  # reflected ghosts
        a = sparse.kron(a_x, sparse.eye(m)) + eps2 * sparse.kron(
            sparse.eye(nx), second_difference(m, grid.dy))
        xs, ys = grid.x_nodes(), grid.y_nodes()
        b = eps2 * p.f(xs[:, None], ys[None, 1:-1])
        b[:, 0] += eps2 / grid.dy**2 * p.phi0(xs)
        b[:, -1] += eps2 / grid.dy**2 * p.phi1(xs)
        u = field.values[:, 1:-1].ravel()
        expected = np.linalg.norm(b.ravel() - a @ u) / np.linalg.norm(b)
        assert expected > 1e-7
        assert stats.relative_residual == pytest.approx(expected, rel=1e-3)

    @staticmethod
    def _unblocked_residual(b, u, inv_dx2, beta):
        # the whole-array form of b - A u, term by term in the same order
        r = np.multiply(u, -2.0 * (inv_dx2 + beta))
        r += b
        r[1:] += inv_dx2 * u[:-1]
        r[:-1] += inv_dx2 * u[1:]
        r[0] += inv_dx2 * u[0]
        r[-1] += inv_dx2 * u[-1]
        r[:, 1:] += beta * u[:, :-1]
        r[:, :-1] += beta * u[:, 1:]
        return r

    @pytest.mark.parametrize("entries", [1, 3 * 37, 5 * 37, 2**16])
    def test_residual_blocks_keep_every_bit(self, monkeypatch, entries):
        # one, three or five x-rows per block, or one block: the same bits
        rng = np.random.default_rng(7)
        u = rng.standard_normal((64, 37)) * 10.0 ** rng.integers(-3, 4, (64, 37))
        b = rng.standard_normal((64, 37))
        inv_dx2, beta = 64.0**2 * 1.1, 0.37
        monkeypatch.setattr(fdsolver, "_BLOCK_ENTRIES", entries)
        r = b.copy()
        fdsolver._subtract_operator(r, u, inv_dx2, beta)
        assert np.array_equal(r, self._unblocked_residual(b, u, inv_dx2, beta))

    @pytest.mark.parametrize("eps2", [1e-24, 0.01])
    def test_data_with_zero_x_mean_passes_in_one_solve(self, eps2):
        # no x-mean anywhere: the mean mode of u is rounding only
        pi = np.pi
        p = ProblemSpec(f=lambda x, y: np.cos(pi * x) * (1.0 + y), phi0=lambda x: np.cos(pi * x),
                        phi1=lambda x: np.cos(3 * pi * x), eps=float(np.sqrt(eps2)))
        _, stats = solve_fd(p, Grid2D(128, 512), max_iter=1)
        assert stats.iterations == 1

    def test_tiny_eps_reaches_the_limit(self):
        # the discrete solution tends to its eps -> 0 limit, which the
        # eps^2 = 1e-12 solve already sits at on this grid
        grid = Grid2D(16, 16)
        limit, _ = solve_fd(builtin_problem("paper", eps=1e-6), grid)
        for eps2 in (1e-32, 1e-40, 1e-100, 1e-300, 1e-320, 5e-324):
            field, _ = solve_fd(builtin_problem("paper", eps=float(np.sqrt(eps2))), grid)
            assert np.max(np.abs(field.values - limit.values)) <= 1e-8, eps2

    @pytest.mark.parametrize("first, eps", [(0.01, 0.5), (0.25, 1e-3)])
    def test_prepared_grid_solves_a_second_eps_as_a_fresh_grid(self, first, eps):
        # the transforms of the right-hand side, kept from the first solve,
        # give the second eps^2 bit for bit what a freshly prepared grid gives
        p, grid = builtin_problem("paper", eps=eps), Grid2D(32, 48)
        prepared = fdsolver._sample(p, grid)
        prepared.solve(first)
        u, stats = prepared.solve(eps**2)
        v, fresh_stats = solve_fd(p, grid)
        assert u.values.tobytes() == v.values.tobytes() and stats == fresh_stats


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_solves_start_no_threads():
    # a transform thread pool registers fork handlers, which can hang the
    # forked Monte Carlo workers; a fresh interpreter has started no pool
    # yet.  The solves load scipy at their first transform and norm, and its
    # BLAS starts a thread as it loads: loaded first, so that only the solves'
    # own count
    code = (
        "import os, anisolayer as a, scipy.fft, scipy.linalg\n"
        "from anisolayer import fdsolver\n"
        "def count(): return len(os.listdir('/proc/self/task'))\n"
        "before = count()\n"
        "p, grid = a.builtin_problem('paper', eps=0.1), a.Grid2D(64, 64)\n"
        "a.solve_fd(p, grid)\n"
        "fdsolver._sample(p, grid).solve_fitted(0.01)\n"
        "for refine in (1, 'auto'):\n"
        "    a.remainder_norms(p, [0.02, 0.05, 0.1], [0, 1], a.Grid2D(16, 32), n_modes=8,\n"
        "                      quad_points=64, refine=refine)\n"
        "print(before, count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] == out[1]


class TestCoarsenedLevel:
    @pytest.mark.parametrize("problem", ["paper", "no-layer"])
    @pytest.mark.parametrize("r", [2, 4, 8, 16])
    @pytest.mark.parametrize("n_x", [16, 15])
    def test_equals_a_freshly_prepared_level(self, problem, r, n_x):
        # every second row of the finest samples, once or twice over, is the
        # level sampled from scratch
        p = builtin_problem(problem)
        coarse = fdsolver._sample(p, Grid2D(n_x, 8 * r))
        for stride in (s for s in (2, 4) if s <= r):
            coarse = coarse.coarsened()
            fresh = fdsolver._sample(p, Grid2D(n_x, 8 * r // stride))
            assert coarse.grid == fresh.grid
            assert coarse._five_point_rhs(1.0).flags.c_contiguous
            for name in ("f", "_mu", "_lam", "bottom", "top"):
                a, b = getattr(coarse, name), getattr(fresh, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert (coarse._inv_dx2, coarse._inv_dy2, coarse._zero) == (
                fresh._inv_dx2, fresh._inv_dy2, fresh._zero)
            for solve in (fdsolver._PreparedGrid.solve, fdsolver._PreparedGrid.solve_fitted):
                u, stats = solve(coarse, 0.05)
                v, fresh_stats = solve(fresh, 0.05)
                assert u.values.tobytes() == v.values.tobytes() and stats == fresh_stats

    @pytest.mark.parametrize("n_y", [9, 33])
    def test_odd_row_count_is_rejected(self, n_y):
        # every second row of an odd count would skip the last row, y = 1
        finest = fdsolver._sample(builtin_problem("paper"), Grid2D(16, n_y))
        with pytest.raises(ValueError, match=f"n_y = {n_y}"):
            finest.coarsened()


class TestSamples:
    def test_f_on_the_dirichlet_rows_reaches_only_the_fitted_scheme_and_the_bound(self):
        # f changed on y = 0 and y = 1 only: the five-point scheme never reads
        # those rows, the fitted one weights them by beta_k, and sup|f| in
        # the max-principle bound includes them
        p = builtin_problem("paper", eps=0.1)
        q = dataclasses.replace(p, f=lambda x, y: np.where((y == 0.0) | (y == 1.0), 10.0,
                                                           p.f(x, y)))
        eps2, grid = p.eps**2, Grid2D(32, 16)
        a, b = fdsolver._sample(p, grid), fdsolver._sample(q, grid)
        (u, u_stats), (v, v_stats) = a.solve(eps2), b.solve(eps2)
        assert u.values.tobytes() == v.values.tobytes() and u_stats == v_stats
        fitted_a, fitted_b = a.solve_fitted(eps2)[0].values, b.solve_fitted(eps2)[0].values
        assert np.max(np.abs(fitted_a - fitted_b)) > 1e-4
        assert np.max(np.abs(a.f)) < 10.0 == np.max(np.abs(b.f))
        phi_max = max(np.max(np.abs(b.bottom)), np.max(np.abs(b.top)))
        assert max_principle_check(v, q).bound == phi_max + 0.5 * (eps2 * 10.0)

    def test_nan_f_on_the_dirichlet_rows_gives_a_nan_bound(self):
        # the rows are sampled unchecked, and a NaN on them reaches sup|f|
        p = builtin_problem("paper", eps=0.1)
        q = dataclasses.replace(p, f=lambda x, y: np.where(y == 1.0, np.nan, p.f(x, y)))
        u, _ = solve_fd(q, Grid2D(16, 16))
        assert np.isnan(max_principle_check(u, q).bound)

    def test_f_nonzero_only_on_the_dirichlet_rows(self):
        # the five-point right-hand side is 0, solved exactly by u = 0; the
        # fitted one is not, since beta_k weights f's rows at y = 0 and 1
        p = ProblemSpec(f=lambda x, y: np.where(y == 0.0, 1.0, 0.0 * x), phi0=lambda x: 0 * x,
                        phi1=lambda x: 0 * x, eps=0.1)
        prepared = fdsolver._sample(p, Grid2D(16, 16))
        field, stats = prepared.solve(0.01)
        assert not field.values.any() and stats == fdsolver.SolveStats(1, 0.0, 0.0)
        field, stats = prepared.solve_fitted(0.01)
        assert field.values[:, 1:-1].min() > 0.0 and stats.iterations == 1

    @pytest.mark.parametrize("solve", [fdsolver._PreparedGrid.solve,
                                       fdsolver._PreparedGrid.solve_fitted],
                             ids=["five-point", "fitted"])
    def test_underflowed_right_hand_side_is_no_convergence(self, solve):
        # eps^2 f underflows to 0 at the smallest subnormal eps^2, so no
        # relative residual is left to certify the solve
        p = ProblemSpec(f=lambda x, y: 0.1 + 0 * x * y, phi0=lambda x: 0 * x,
                        phi1=lambda x: 0 * x, eps=1.0)
        prepared = fdsolver._sample(p, Grid2D(16, 16))
        with pytest.raises(NoConvergence, match="right-hand side eps\\^2 b underflows to 0"):
            solve(prepared, 5e-324)


class TestFittedSolve:
    @staticmethod
    def _solve(p, grid, eps2):
        return fdsolver._sample(p, grid).solve_fitted(eps2)

    @pytest.mark.parametrize("eps2", [0.1, 1e-3, 1e-6])
    @pytest.mark.parametrize("grid", [Grid2D(16, 16), Grid2D(8, 32), Grid2D(64, 8)])
    def test_pure_layer_mode_is_exact(self, grid, eps2):
        # phi0 = cos(pi x) is x-mode 1 on the staggered nodes; its layer
        # cos(pi x) sinh(c (1 - y)) / sinh(c), with c^2 the compact
        # x-eigenvalue over eps^2, is exact on the grid however coarse dy is
        pi = np.pi
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: np.cos(pi * x),
                        phi1=lambda x: 0 * x, eps=float(np.sqrt(eps2)))
        field, stats = self._solve(p, grid, eps2)
        mu = 4.0 / grid.dx**2 * np.sin(pi / (2 * grid.n_x)) ** 2
        c = np.sqrt(mu / (1.0 - mu * grid.dx**2 / 12.0) / eps2)
        ys = grid.y_nodes()
        layer = np.exp(-c * ys) * np.expm1(-2.0 * c * (1.0 - ys)) / np.expm1(-2.0 * c)
        expected = np.cos(pi * grid.x_nodes())[:, None] * layer
        assert np.max(np.abs(field.values - expected)) <= 1e-15
        assert stats.iterations == 1

    def test_tiny_eps_reaches_the_limit(self):
        # every x-mode k > 0 goes to 0, leaving the x-mean of the data: the
        # three-point solve in y of the x-node means of phi0, phi1 and f, the
        # latter Numerov-weighted, b_j + (b_{j-1} - 2 b_j + b_{j+1}) / 12, with
        # f's means on y = 0 and 1 as the end values
        p = builtin_problem("paper")
        grid = Grid2D(16, 16)
        xs, ys = grid.x_nodes(), grid.y_nodes()
        m = grid.n_y - 1
        a = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / grid.dy**2
        f_means = p.f(xs[:, None], ys[None, :]).mean(axis=0)
        b = f_means[1:-1] + np.diff(f_means, 2) / 12.0
        b[0] += p.phi0(xs).mean() / grid.dy**2
        b[-1] += p.phi1(xs).mean() / grid.dy**2
        limit = np.concatenate([[p.phi0(xs).mean()], np.linalg.solve(a, b),
                                [p.phi1(xs).mean()]])
        prepared = fdsolver._sample(p, grid)
        for eps2 in (1e-24, 1e-32, 1e-100, 1e-300, 1e-320, 5e-324):
            with np.errstate(all="raise"):
                field, _ = prepared.solve_fitted(eps2)
            interior = field.values[:, 1:-1]
            assert np.max(np.abs(interior - limit[1:-1])) <= 1e-13, eps2

    def test_forcing_is_fourth_order_in_y(self):
        # a smooth forcing with a layer at eps^2 = 0.01: against 16 x 1024 at
        # the shared rows, each halving of dy divides the error by about 16
        pi = np.pi
        p = ProblemSpec(f=lambda x, y: np.cos(pi * x) * np.exp(y) + y**2,
                        phi0=lambda x: np.cos(pi * x), phi1=lambda x: 0.5 + 0 * x, eps=0.1)
        fine = self._solve(p, Grid2D(16, 1024), 0.01)[0].values
        errors = [np.max(np.abs(self._solve(p, Grid2D(16, n_y), 0.01)[0].values
                                - fine[:, ::1024 // n_y]))
                  for n_y in (16, 32, 64)]
        assert errors[0] >= 12.0 * errors[1] and errors[1] >= 12.0 * errors[2]

    def test_perturbed_inverse_transform_is_no_convergence(self, monkeypatch):
        # a solve 1e-6 off fails the certificate after its one transform solve
        calls = []
        idct = fdsolver.idct
        monkeypatch.setattr(fdsolver, "idct",
                            lambda *a, **kw: (calls.append(1), (1.0 + 1e-6) * idct(*a, **kw))[1])
        with pytest.raises(NoConvergence, match="fitted solve residual"):
            self._solve(builtin_problem("paper"), Grid2D(64, 64), 0.0025)
        assert len(calls) == 1

    def test_zero_data_returns_zeros(self):
        field, stats = self._solve(builtin_problem("zero"), Grid2D(16, 16), 0.04)
        assert np.all(field.values == 0.0)
        assert stats.iterations == 0


class TestLinfDistance:
    def test_identical_sampled_field(self):
        grid = Grid2D(8, 8)
        fn = lambda x, y: np.sin(x) + y
        vals = fn(grid.x_nodes()[:, None], grid.y_nodes()[None, :])
        field = Field2D(grid=grid, values=vals)
        assert linf_distance(field, fn) == 0.0

    def test_constant_offset(self):
        grid = Grid2D(4, 4)
        field = Field2D(grid=grid, values=np.zeros((4, 5)))
        assert linf_distance(field, lambda x, y: -2.5 + 0 * x * y) == pytest.approx(2.5)

    def test_field_vs_field(self):
        grid = Grid2D(4, 4)
        a = Field2D(grid=grid, values=np.zeros((4, 5)))
        b = Field2D(grid=grid, values=np.full((4, 5), 0.25))
        assert linf_distance(a, b) == pytest.approx(0.25)

    def test_grid_mismatch(self):
        a = Field2D(grid=Grid2D(4, 4), values=np.zeros((4, 5)))
        b = Field2D(grid=Grid2D(8, 4), values=np.zeros((8, 5)))
        with pytest.raises(GridMismatch):
            linf_distance(a, b)


class TestFieldCsv:
    def test_layout_and_precision(self):
        grid = Grid2D(2, 2)
        field = Field2D(grid=grid, values=np.array([[1.0, 2.0, 3.0],
                                                    [4.0, 5.0, 1.0 / 3.0]]))
        buf = io.StringIO()
        field.write_csv(buf, metadata={"tool": "anisolayer test"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# tool: anisolayer test"
        assert lines[1] == "x,y,value"
        # rows run j outer, i inner
        assert lines[2].startswith("0.25,0,1")
        assert lines[3].startswith("0.75,0,4")
        assert lines[4].startswith("0.25,0.5,2")
        # 17 significant digits survive the round trip
        assert float(lines[-1].split(",")[2]) == 1.0 / 3.0

    @staticmethod
    def _per_node_reference(field, metadata):
        # the writer's previous body: one f-string and one write per node
        buf = io.StringIO()
        for key, val in (metadata or {}).items():
            buf.write(f"# {key}: {val}\n")
        buf.write("x,y,value\n")
        xs, ys = field.grid.x_nodes(), field.grid.y_nodes()
        for j, y in enumerate(ys):
            col = field.values[:, j]
            for i, x in enumerate(xs):
                buf.write(f"{x:.17g},{y:.17g},{col[i]:.17g}\n")
        return buf.getvalue()

    @staticmethod
    def _awkward_field(n_x, n_y):
        rng = np.random.default_rng(n_x * n_y)
        shape = (n_x, n_y + 1)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        awkward = [-0.0, 5e-324, 1e300, 0.1, 1.0, 1.0 / 3.0, -1.0 / 7.0, 0.0, -2.5e-310, 12345.0]
        values.flat[:len(awkward)] = awkward
        values[-1] = rng.integers(-3, 4, n_y + 1)  # whole numbers, written without '.0'
        return Field2D(grid=Grid2D(n_x, n_y), values=values)

    @pytest.mark.parametrize("n_x,n_y", [(24, 5), (3, 40)], ids=["wide", "tall"])
    @pytest.mark.parametrize("metadata", [None, {"tool": "anisolayer test", "eps2": 0.01}],
                             ids=["bare", "metadata"])
    def test_bytes_match_per_node_formatting(self, n_x, n_y, metadata):
        field = self._awkward_field(n_x, n_y)
        buf = io.StringIO()
        field.write_csv(buf, metadata=metadata)
        text = buf.getvalue()
        assert text == self._per_node_reference(field, metadata)
        assert text.split("x,y,value\n")[1].startswith(f"{0.5 / n_x:.17g},0,-0\n")
        for token in ("4.9406564584124654e-324", "1.0000000000000001e+300",
                      "0.10000000000000001", "0.33333333333333331",
                      "-0.14285714285714285", "12345"):
            assert f",{token}\n" in text

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("n_x,n_y", [(3, 2**14), (fdsolver._CSV_BLOCK_ENTRIES + 5, 2)],
                             ids=["tall", "row-above-block"])
    def test_multi_block_bytes_match_on_any_core_count(self, n_x, n_y, cores, monkeypatch):
        # every block is formatted and written in order by the calling process,
        # whatever the core count; blocks need not hold whole rows, and the
        # header appears once
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        starts = []
        real_start = ForkProcess.start
        monkeypatch.setattr(ForkProcess, "start",
                            lambda proc: (starts.append(proc), real_start(proc))[1])
        metadata = {"tool": "anisolayer test", "eps2": 0.01}
        field = self._awkward_field(n_x, n_y)
        buf = io.StringIO()
        field.write_csv(buf, metadata=metadata)
        assert buf.getvalue() == self._per_node_reference(field, metadata)
        assert n_x * (n_y + 1) > 3 * fdsolver._CSV_BLOCK_ENTRIES
        assert fdsolver._CSV_BLOCK_ENTRIES % n_x  # a block boundary splits a row
        assert starts == []
        assert multiprocessing.active_children() == []

    def test_one_block_field_never_forks(self, monkeypatch):
        # no field size starts a process: one block or many
        def refuse(proc):
            raise AssertionError("write_csv started a process")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(ForkProcess, "start", refuse)
        p = builtin_problem("paper", eps=0.2)
        for grid in (Grid2D(16, 16), Grid2D(64, 128), Grid2D(128, 1024)):
            field, _ = solve_fd(p, grid)
            buf = io.StringIO()
            field.write_csv(buf, metadata={"tool": "anisolayer test"})
            assert buf.getvalue() == self._per_node_reference(field, {"tool": "anisolayer test"})
        assert 128 * 1025 > 8 * fdsolver._CSV_BLOCK_ENTRIES

    def test_stream_error_propagates_and_stops_workers(self, monkeypatch):
        class FailingStream(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 4:  # the header, then the second block
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        field = self._awkward_field(3, 2**14)
        stream = FailingStream()
        with pytest.raises(OSError, match="No space left"):
            field.write_csv(stream, metadata={"tool": "anisolayer test"})
        assert stream.writes == 4  # nothing is written after the error
        assert multiprocessing.active_children() == []

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Field2D(grid=Grid2D(4, 4), values=np.zeros((4, 4)))


def _kernel_tokens(values):
    """The tokens ``fdsolver._value_tokens`` gives for an array of doubles."""
    out = np.empty(values.size, dtype=fdsolver._TOKEN)
    fdsolver._value_tokens(values, out)
    lines = np.empty((values.size, out.itemsize + 1), dtype=np.uint8)
    lines[:, :-1] = out.view(np.uint8).reshape(values.size, -1)
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _recorded_fallbacks(monkeypatch):
    """Record every value ``_value_tokens`` sends to ``_format_fallback``."""
    sent, real = [], fdsolver._format_fallback
    monkeypatch.setattr(fdsolver, "_format_fallback", lambda v: (sent.append(v), real(v))[1])
    return sent


class TestValueTokens:
    @staticmethod
    def _sweep():
        rng = np.random.default_rng(20241)
        bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        neighbours, up, down = [powers], powers, powers
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            neighbours += [up, down]
        neighbours = np.concatenate(neighbours)
        return np.concatenate([
            bits[np.isfinite(bits)],  # every exponent, subnormals included
            rng.standard_normal(200_000),
            rng.uniform(-1e-3, 1e-3, 100_000),
            rng.integers(-10**17, 10**17, 100_000).astype(float),
            rng.integers(-10**6, 10**6, 100_000).astype(float),
            rng.integers(-2**40, 2**40, 100_000) / 2.0 ** rng.integers(1, 60, 100_000),
            neighbours, -neighbours,
            [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 1e300, -1e300],
        ])

    def test_sweep_matches_format(self):
        values = self._sweep()
        assert values.size >= 10**6
        got = _kernel_tokens(values)
        want = [format(v, ".17g") for v in values.tolist()]
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want) and bad == []

    def test_power_tables_are_exact(self):
        hi, head, tail, lo, quads = fdsolver._kernel_tables()
        for k, (h, l) in enumerate(zip(hi.tolist(), lo.tolist())):
            power = Fraction(10) ** (16 - (fdsolver._E_HIGH - k))
            assert h == float(power) and l == float(power - Fraction(h))
        assert np.array_equal(head + tail, hi)
        assert bytes(quads[[7, 1200, 10000 + 1200, 10000]].view(np.uint8)) == b"0007120012" + bytes(6)

    def test_near_tie_goes_to_fallback(self, monkeypatch):
        # v = 1 + k 2^-52 scales to 10^16 + k 5^16 / 2^36, so the fraction of
        # the scaled value is (k 5^16 mod 2^36) / 2^36: a seeded search for
        # fractions within 1e-6 of 1/2, checked afresh in exact decimals
        rng = np.random.default_rng(7)
        k = rng.integers(0, 2**36, 2**21, dtype=np.uint64)
        r = ((k * np.uint64(5**16)) & np.uint64(2**36 - 1)).astype(np.int64)
        near = 1.0 + k[np.abs(r - 2**35) < 1e-6 * 2**36] * 2.0**-52
        near = np.append(near, 1.0 + 2.0**-17)  # an exact tie, rounded to even
        assert near.size >= 2
        with localcontext(prec=80):
            for v in near.tolist():
                assert abs((Decimal(v) * 10**16) % 1 - Decimal("0.5")) < Decimal("1e-6")
        sent = _recorded_fallbacks(monkeypatch)
        values = np.concatenate([near, [0.25, 1.0 / 3.0]])
        assert _kernel_tokens(values) == [format(v, ".17g") for v in values.tolist()]
        assert sent == sorted(near.tolist())
        assert format(1.0 + 2.0**-17, ".17g") == "1.0000076293945312"

    @pytest.mark.parametrize("value", [1e300, -1e-290, 5e-324, -2.5e-310, 0.0, -0.0],
                             ids=["huge", "tiny", "subnormal", "negative-subnormal", "zero",
                                  "negative-zero"])
    def test_out_of_range_and_zero_go_to_fallback(self, value, monkeypatch):
        sent = _recorded_fallbacks(monkeypatch)
        values = np.array([0.5, value, 3.0, value])
        assert _kernel_tokens(values) == [format(v, ".17g") for v in values.tolist()]
        # once per distinct value, and a zero keeps its sign
        assert [np.copysign(1.0, v) for v in sent] == [np.copysign(1.0, value)]
        assert sent == [value]

    def test_block_of_fallbacks_only(self, monkeypatch):
        sent = _recorded_fallbacks(monkeypatch)
        values = np.array([0.0, -0.0, 1e300, 0.0])
        assert _kernel_tokens(values) == ["0", "-0", "1.0000000000000001e+300", "0"]
        assert len(sent) == 3
        field = Field2D(grid=Grid2D(4, 4), values=np.zeros((4, 5)))
        buf = io.StringIO()
        field.write_csv(buf)
        assert buf.getvalue() == TestFieldCsv._per_node_reference(field, None)

    @pytest.mark.parametrize("value", [1e-6, 0.09999999999999999, 1e-14, 1e20])
    def test_significand_out_of_range_goes_to_fallback(self, value, monkeypatch):
        # just below a power of ten, the exponent log10 gives is one too high
        # and the integer part falls below 10^16 (1e-14 and 1e20 round up to a
        # power of ten); the significand check catches both
        sent = _recorded_fallbacks(monkeypatch)
        values = np.array([value, -value, 0.125])
        assert _kernel_tokens(values) == [format(v, ".17g") for v in values.tolist()]
        assert sorted(sent) == sorted([value, -value])

    def test_paper_field_takes_the_fast_path(self, monkeypatch):
        p = builtin_problem("paper", eps=0.1)
        field, _ = solve_fd(p, Grid2D(128, 4096))
        sent = _recorded_fallbacks(monkeypatch)
        field.write_csv(io.StringIO())
        assert len(sent) <= 8

    def test_tables_wait_for_the_first_write(self):
        code = ("import sys, anisolayer.cli\n"
                "from anisolayer import fdsolver\n"
                "print(fdsolver._kernel_tables.cache_info().currsize,"
                " 'fractions' in sys.modules, 'decimal' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["0", "False", "False"]

