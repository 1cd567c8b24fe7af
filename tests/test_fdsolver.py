import io

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
    solve_fd,
)
from anisolayer import fdsolver


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

    def test_tiny_eps_reaches_the_limit(self):
        # the discrete solution tends to its eps -> 0 limit, which the
        # eps^2 = 1e-12 solve already sits at on this grid
        grid = Grid2D(16, 16)
        limit, _ = solve_fd(builtin_problem("paper", eps=1e-6), grid)
        for eps2 in (1e-32, 1e-40, 1e-100, 1e-300, 1e-320, 5e-324):
            field, _ = solve_fd(builtin_problem("paper", eps=float(np.sqrt(eps2))), grid)
            assert np.max(np.abs(field.values - limit.values)) <= 1e-8, eps2


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

    @pytest.mark.parametrize("n_x,n_y", [(24, 5), (3, 40)], ids=["wide", "tall"])
    @pytest.mark.parametrize("metadata", [None, {"tool": "anisolayer test", "eps2": 0.01}],
                             ids=["bare", "metadata"])
    def test_bytes_match_per_node_formatting(self, n_x, n_y, metadata):
        rng = np.random.default_rng(n_x * n_y)
        shape = (n_x, n_y + 1)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        awkward = [-0.0, 5e-324, 1e300, 0.1, 1.0, 1.0 / 3.0, -1.0 / 7.0, 0.0, -2.5e-310, 12345.0]
        values.flat[:len(awkward)] = awkward
        values[-1] = rng.integers(-3, 4, n_y + 1)  # whole numbers, written without '.0'
        field = Field2D(grid=Grid2D(n_x, n_y), values=values)
        buf = io.StringIO()
        field.write_csv(buf, metadata=metadata)
        text = buf.getvalue()
        assert text == self._per_node_reference(field, metadata)
        assert text.split("x,y,value\n")[1].startswith(f"{0.5 / n_x:.17g},0,-0\n")
        for token in ("4.9406564584124654e-324", "1.0000000000000001e+300",
                      "0.10000000000000001", "0.33333333333333331",
                      "-0.14285714285714285", "12345"):
            assert f",{token}\n" in text

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Field2D(grid=Grid2D(4, 4), values=np.zeros((4, 4)))
