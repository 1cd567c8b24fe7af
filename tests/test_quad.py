import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

from anisolayer._quad import cumulative_simpson, hermite, unit_nodes

SRC = Path(__file__).resolve().parent.parent / "src"


def _smooth(x):
    return np.sin(3.0 * x) + x**2 * np.exp(x)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [8, 64, 1024, 4096])
    def test_matches_scipy(self, n):
        x = unit_nodes(n)
        expected = scipy_cumulative_simpson(_smooth(x), x=x, initial=0.0)
        got = cumulative_simpson(_smooth(x))
        assert got.shape == x.shape and got[0] == 0.0
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_polynomials_are_integrated_exactly(self):
        # quadratics at every node, cubics at the ends of each Simpson pair
        x = unit_nodes(16)
        got = cumulative_simpson(3.0 * x**2 - 2.0 * x)
        assert np.allclose(got, x**3 - x**2, rtol=0.0, atol=1e-15)
        got = cumulative_simpson(4.0 * x**3 - 3.0 * x**2)
        assert np.allclose(got[::2], (x**4 - x**3)[::2], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n_points", [8, 10, 12])
    def test_refuses_odd_or_short_tables(self, n_points):
        with pytest.raises(ValueError):
            cumulative_simpson(np.ones(n_points))


class TestHermite:
    def test_exact_at_the_nodes(self):
        rng = np.random.default_rng(3)
        values, slopes = rng.normal(size=65), rng.normal(size=65)
        x = unit_nodes(64)
        assert np.array_equal(hermite(values, slopes, x), values)
        assert hermite(values, slopes, 1.0) == values[-1]
        assert hermite(values, slopes, 0.0) == values[0]
        assert isinstance(hermite(values, slopes, 0.5), float)

    def test_fourth_order_on_a_smooth_function(self):
        xs = np.linspace(0.0, 1.0, 1001)
        exact = -np.cos(3.0 * xs) / 3.0 + np.exp(xs)
        errors = []
        for n in (16, 32, 64, 128):
            x = unit_nodes(n)
            table = -np.cos(3.0 * x) / 3.0 + np.exp(x)
            slopes = np.sin(3.0 * x) + np.exp(x)
            errors.append(np.max(np.abs(hermite(table, slopes, xs) - exact)))
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios > 15.0) & (ratios < 17.0))

    def test_nan_gives_nan(self):
        x = unit_nodes(8)
        values, slopes = x**2, 2.0 * x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(hermite(values, slopes, np.nan))
            got = hermite(values, slopes, np.array([np.nan, 0.3, np.nan, 1.0]))
        assert np.isnan(got[[0, 2]]).all()
        assert got[1] == pytest.approx(0.09, abs=1e-15) and got[3] == 1.0

    def test_extends_the_end_cubics(self):
        x = unit_nodes(8)
        values, slopes = x**3, 3.0 * x**2
        assert hermite(values, slopes, -0.25) == pytest.approx(-0.25**3, abs=1e-15)
        assert hermite(values, slopes, 1.5) == pytest.approx(1.5**3, abs=1e-14)


def _scipy_modules_after(code):
    """The ``scipy*`` modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()[-1].split()


def test_import_loads_no_heavy_scipy_module():
    # importing loads no scipy at all; the first transform loads scipy.fft
    # and the first norm scipy.linalg, and nothing else of scipy is ever
    # needed: each module below costs resident memory and start-up time
    assert _scipy_modules_after("import anisolayer, anisolayer.cli") == []
    out = _scipy_modules_after(
        "import anisolayer as a, anisolayer.cli\n"
        "p, grid = a.builtin_problem('paper', eps=0.2), a.Grid2D(8, 8)\n"
        "a.solve_fd(p, grid)\n"
        "a.composite(p, 1, n_modes=8, quad_points=64).evaluate_grid(grid.x_nodes(),\n"
        "                                                           grid.y_nodes())")
    assert "scipy.fft" in out and "scipy.linalg" in out
    for heavy in ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse"):
        assert heavy not in out


def test_monte_carlo_and_reports_load_no_scipy():
    # the Feynman-Kac oracle (two forked chunks), the compatibility and
    # matching-identity reports and a usage error never transform
    assert _scipy_modules_after(
        "import contextlib, io, anisolayer as a, anisolayer.cli\n"
        "a.estimate_point(a.builtin_problem('paper', eps=0.2), 0.5, 0.5,\n"
        "                 a.McConfig(dt=1e-3, n_paths=20_002, seed=1))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['check', '--problem', 'paper'], ['identity', '--problem', 'paper']):\n"
        "        assert anisolayer.cli.run(argv) == 0\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert anisolayer.cli.run(['fd', '--nx', 'many']) != 0") == []
