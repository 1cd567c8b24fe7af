import warnings

import numpy as np
import pytest

from anisolayer import (
    CosineSeries,
    IntegralConditionViolated,
    NotZeroMean,
    analyze,
    build_antiderivatives,
    builtin_problem,
    cosine_coeffs,
    LayerTerm,
    decompose,
    eval_series,
    synthesize,
)

# frozen from a 1e6-node Simpson quadrature of 16 x^2 (x-1)^2 - 8/15
# (equals the closed form -768 / (k pi)^4 for even k, 0 for odd k)
QUARTIC_COEFFS = {
    1: 0.0,
    2: -0.4927671482248482,
    3: 0.0,
    4: -0.030797946764052883,
    5: 0.0,
    6: -0.006083545039812828,
    7: 0.0,
    8: -0.00192487167275322,
}


class TestCosineCoeffs:
    def test_single_mode_orthogonality(self):
        s = cosine_coeffs(lambda x: np.cos(np.pi * x), n_modes=8)
        assert s.coeffs[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(s.coeffs[1:]) < 1e-10)

    def test_two_mode_combination(self):
        s = cosine_coeffs(lambda x: np.cos(3 * np.pi * x) - np.cos(np.pi * x), n_modes=4)
        expected = np.array([-1.0, 0.0, 1.0, 0.0])
        assert np.allclose(s.coeffs, expected, atol=1e-10)

    def test_quartic_against_frozen_quadrature_oracle(self):
        s = cosine_coeffs(lambda x: 16.0 * x**2 * (x - 1.0) ** 2 - 8.0 / 15.0, n_modes=8)
        for k, ck in QUARTIC_COEFFS.items():
            assert s.coeffs[k - 1] == pytest.approx(ck, abs=1e-9)

    def test_rejects_nonzero_mean(self):
        with pytest.raises(NotZeroMean):
            cosine_coeffs(lambda x: np.ones_like(x), n_modes=4)

    def test_tail_magnitude(self):
        s = cosine_coeffs(lambda x: 16.0 * x**2 * (x - 1.0) ** 2 - 8.0 / 15.0, n_modes=8)
        assert s.tail_magnitude == pytest.approx(abs(QUARTIC_COEFFS[8]), rel=1e-6)


class TestEvalSeries:
    def test_boundary_values(self):
        s = CosineSeries(coeffs=np.array([2.0]))
        assert eval_series(s, 0.0) == pytest.approx(2.0)
        assert eval_series(s, 1.0) == pytest.approx(-2.0)

    def test_midpoint_mix(self):
        s = CosineSeries(coeffs=np.array([1.0, 1.0]))
        assert eval_series(s, 0.5) == pytest.approx(-1.0)

    def test_vectorized_and_callable(self):
        s = CosineSeries(coeffs=np.array([1.0, 0.5]))
        xs = np.linspace(0, 1, 7)
        expected = np.cos(np.pi * xs) + 0.5 * np.cos(2 * np.pi * xs)
        assert np.allclose(s(xs), expected, atol=1e-14)


def test_analyze_synthesize_kernel():
    # two band-limited columns: 0.5 cos(pi x) - 0.25 cos(3 pi x) and 2 cos(2 pi x)
    coeffs = np.array([[0.5, 0.0], [0.0, 2.0], [-0.25, 0.0], [0.0, 0.0]])

    def by_hand(c, x):
        return sum(c[k - 1] * np.cos(k * np.pi * x) for k in range(1, c.shape[0] + 1))

    nodes = np.linspace(0.0, 1.0, 257)
    samples = by_hand(coeffs, nodes[:, None])
    assert samples.shape == (257, 2)
    assert np.allclose(analyze(samples, 4), coeffs, atol=1e-10)
    assert np.allclose(synthesize(analyze(samples, 4), nodes[:, None]), samples, atol=1e-10)

    # a series at a scalar and at any array of x
    assert synthesize(coeffs[:, 0], 0.3) == pytest.approx(by_hand(coeffs[:, 0], 0.3), abs=1e-14)
    assert isinstance(synthesize(coeffs[:, 0], 0.3), float)
    xs = np.linspace(0, 1, 12).reshape(3, 4)
    assert np.allclose(synthesize(coeffs[:, 1], xs), by_hand(coeffs[:, 1], xs), atol=1e-14)
    # a (K, P) matrix at P paired points
    xp = np.array([0.1, 0.7])
    paired = np.array([by_hand(coeffs[:, i], xp[i]) for i in range(2)])
    assert np.allclose(synthesize(coeffs, xp), paired, atol=1e-14)
    # a (K, n_y) matrix on the tensor grid
    grid = synthesize(coeffs, nodes[:, None])
    assert grid.shape == (257, 2)
    assert np.allclose(grid, samples, atol=1e-14)


def test_series_reconstruction_error_decreases():
    # smooth zero-mean data: reconstruction error must fall as modes are added
    p = builtin_problem("paper")
    d = decompose(p)
    xs = np.linspace(0, 1, 201)
    errors = []
    for n_modes in (8, 16, 32, 64):
        s = cosine_coeffs(d.phitilde1, n_modes=n_modes)
        errors.append(float(np.max(np.abs(eval_series(s, xs) - d.phitilde1(xs)))))
    assert all(b < a for a, b in zip(errors, errors[1:]))


class TestAntiderivatives:
    def test_closed_form_oracle(self):
        # ftilde = cos(pi x) g(y) with g(y) = 1 + y:
        #   F1 = g sin(pi x)/pi, F2 = g (1 - cos(pi x))/pi^2,
        #   F3 = g (x - sin(pi x)/pi)/pi^2
        g = lambda y: 1.0 + y
        p = builtin_problem("zero").with_eps(0.1)
        d = decompose(p)
        d = type(d)(fbar=d.fbar, ftilde=lambda x, y: np.cos(np.pi * x) * g(y),
                    phibar0=0.0, phibar1=0.0, phitilde0=d.phitilde0,
                    phitilde1=d.phitilde1, quad_points=d.quad_points)
        stack = build_antiderivatives(d, quad_points=512)
        xs = np.linspace(0, 1, 17)
        for y in (0.0, 0.35, 1.0):
            f2 = stack.eval(2, xs, y)
            expected = g(y) * (1.0 - np.cos(np.pi * xs)) / np.pi**2
            assert np.allclose(f2, expected, atol=1e-9)
            assert stack.eval(3, 1.0, y) == pytest.approx(g(y) / np.pi**2, abs=1e-9)

    def test_zero_force_gives_zero_stack(self):
        p = builtin_problem("zero")
        stack = build_antiderivatives(decompose(p, quad_points=64), quad_points=64)
        xs = np.linspace(0, 1, 9)
        for n in range(4):
            assert np.allclose(stack.eval(n, xs, 0.5), 0.0, atol=1e-14)

    def test_antiderivatives_vanish_at_origin(self):
        p = builtin_problem("paper")
        stack = build_antiderivatives(decompose(p), quad_points=256)
        for n in (1, 2, 3):
            for y in (0.0, 0.5, 1.0):
                assert stack.eval(n, 0.0, y) == pytest.approx(0.0, abs=1e-12)

    def test_integral_condition_enforced(self):
        # a force whose x-integral is NOT zero must be refused
        p = builtin_problem("zero")
        d = decompose(p, quad_points=64)
        bad = type(d)(fbar=d.fbar, ftilde=lambda x, y: np.ones_like(x) + 0 * y,
                      phibar0=0.0, phibar1=0.0, phitilde0=d.phitilde0,
                      phitilde1=d.phitilde1, quad_points=64)
        stack = build_antiderivatives(bad, quad_points=64)
        with pytest.raises(IntegralConditionViolated):
            stack.eval(1, 0.5, 0.5)


class TestDecayingExp:
    """The layer factors exp(-k pi s / eps) of LayerTerm.coeffs."""

    C = np.array([1.5, -0.25, 2.0])

    def _bottom(self, eps):
        return LayerTerm("bottom", CosineSeries(self.C), eps)

    def test_matches_exp_in_normal_range(self):
        eps = 0.01
        s = np.array([0.0, 5e-3, 0.1, 0.7])  # exponents down to -660
        k = np.arange(1, 4)[:, None]
        expected = self.C[:, None] * np.exp(-np.pi * (k * s) / eps)
        assert np.array_equal(self._bottom(eps).coeffs(s), expected)

    def test_clamps_deep_underflow_to_zero(self):
        # s / eps = 1e6 and 1e300: exact zeros, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self._bottom(1e-6).coeffs(np.array([1.0]))
            deep = self._bottom(1e-300).coeffs(1.0)
        assert np.all(out == 0.0) and np.all(deep == 0.0)
        top = LayerTerm("top", CosineSeries(self.C), 1e-6).coeffs(np.array([0.0, 1.0]))
        assert np.all(top[:, 0] == 0.0) and np.array_equal(top[:, 1], self.C)
