import numpy as np
import pytest

from anisolayer import (
    NonFiniteValue,
    ProblemSpec,
    UnknownProblem,
    builtin_problem,
    check_compatibility,
    check_derivatives,
    decompose,
)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        ProblemSpec(f=lambda x, y: 0 * x, phi0=lambda x: 0 * x,
                    phi1=lambda x: 0 * x, eps=0.0)


def test_decompose_constant_data():
    p = ProblemSpec(f=lambda x, y: 0.0 * x * y, phi0=lambda x: 3.0 + 0.0 * x,
                    phi1=lambda x: 3.0 + 0.0 * x, eps=0.1)
    d = decompose(p, quad_points=64)
    assert d.phibar0 == pytest.approx(3.0, abs=1e-14)
    assert d.phibar1 == pytest.approx(3.0, abs=1e-14)
    ys = np.linspace(0, 1, 5)
    assert np.allclose(d.fbar(ys), 0.0, atol=1e-14)
    xs = np.linspace(0, 1, 7)
    assert np.allclose(d.phitilde0(xs), 0.0, atol=1e-14)
    assert np.allclose(d.phitilde1(xs), 0.0, atol=1e-14)
    assert np.allclose(d.ftilde(xs, 0.3), 0.0, atol=1e-14)


def test_decompose_zero_mean_cosine():
    p = ProblemSpec(f=lambda x, y: 0.0 * x * y, phi0=lambda x: np.cos(np.pi * x),
                    phi1=lambda x: 0.0 * x, eps=0.1)
    d = decompose(p)
    assert d.phibar0 == pytest.approx(0.0, abs=1e-14)
    xs = np.linspace(0, 1, 11)
    assert np.allclose(d.phitilde0(xs), np.cos(np.pi * xs), atol=1e-14)


def test_decompose_polynomial_mean_exact_oracle():
    # oracle: integrate 16 x^2 (x-1)^2 = 16 x^4 - 32 x^3 + 16 x^2 exactly
    poly = np.polynomial.Polynomial([0.0, 0.0, 16.0, -32.0, 16.0])
    exact = poly.integ()(1.0) - poly.integ()(0.0)
    assert exact == pytest.approx(8.0 / 15.0, abs=1e-15)
    p = ProblemSpec(f=lambda x, y: 0.0 * x * y, phi0=lambda x: 0.0 * x,
                    phi1=lambda x: 16.0 * x**2 * (x - 1.0) ** 2, eps=0.1)
    d = decompose(p)
    assert d.phibar1 == pytest.approx(exact, abs=1e-11)


def test_reconstruction_reproduces_inputs_pointwise():
    p = builtin_problem("paper")
    d = decompose(p)
    xs = np.array([0.0, 0.137, 0.5, 0.731, 1.0])
    ys = np.array([0.0, 0.25, 0.643, 1.0])
    for y in ys:
        assert np.allclose(d.ftilde(xs, y) + d.fbar(y), p.f(xs, y), atol=1e-12)
    assert np.allclose(d.phitilde0(xs) + d.phibar0, p.phi0(xs), atol=1e-12)
    assert np.allclose(d.phitilde1(xs) + d.phibar1, p.phi1(xs), atol=1e-12)


@pytest.mark.parametrize("quad_points", [16, 64, 256])
def test_tilde_parts_integrate_to_zero(quad_points):
    p = builtin_problem("paper")
    d = decompose(p, quad_points=quad_points)
    # re-integrate with a much finer quadrature than the decomposition used
    x = np.linspace(0, 1, 4097)
    w = np.ones(x.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w /= 3.0 * (x.size - 1)
    bound = 20.0 * quad_points**-4  # quadrature error scale of the stored means
    for y in (0.0, 0.31, 0.77, 1.0):
        assert abs(w @ d.ftilde(x, y)) < bound
    assert abs(w @ d.phitilde0(x)) < bound
    assert abs(w @ d.phitilde1(x)) < bound


def test_decompose_rejects_non_finite_force():
    p = ProblemSpec(f=lambda x, y: np.where(x > 0.5, np.nan, 1.0) + 0 * y,
                    phi0=lambda x: 0 * x, phi1=lambda x: 0 * x, eps=0.1)
    d = decompose(p, quad_points=32)
    with pytest.raises(NonFiniteValue):
        d.fbar(0.5)


class TestCompatibility:
    def test_cosine_passes(self):
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: np.cos(np.pi * x),
                        phi1=lambda x: 0 * x, eps=0.1)
        rep = check_compatibility(p)
        assert rep.passed
        assert abs(rep.phi0_at_0) < 1e-8
        assert abs(rep.phi0_at_1) < 1e-8

    def test_linear_fails_with_unit_slope(self):
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: np.asarray(x, dtype=float),
                        phi1=lambda x: 0 * x, eps=0.1)
        rep = check_compatibility(p)
        assert not rep.passed
        assert rep.phi0_at_0 == pytest.approx(1.0, abs=1e-6)
        assert rep.phi0_at_1 == pytest.approx(1.0, abs=1e-6)

    def test_quartic_passes(self):
        # phi1' = 32x(x-1)(2x-1) vanishes at both endpoints
        p = ProblemSpec(f=lambda x, y: 0 * x * y, phi0=lambda x: 0 * x,
                        phi1=lambda x: 16.0 * x**2 * (x - 1.0) ** 2, eps=0.1)
        rep = check_compatibility(p)
        assert rep.passed


class TestBuiltins:
    def test_paper_registry_values(self):
        p = builtin_problem("paper")
        d = decompose(p)
        assert d.phibar1 == pytest.approx(8.0 / 15.0, abs=1e-11)
        assert p.f(0.5, 0.5) == pytest.approx(1.0)  # sin(pi/2)
        assert len(p.f_y_derivs) == 4

    def test_paper_force_is_its_formula_bit_for_bit(self):
        # written to scale and take the sine in place, it must still return
        # exactly sin(pi (x^2 + y^2)) and leave its arguments alone
        f = builtin_problem("paper").f
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 17)
        xy = rng.uniform(-2.0, 2.0, (2, 4, 8))
        cases = [(xs[:, None], ys[None, :]), (xy[0], xy[1]), (xs, 0.3), (0.7, ys),
                 (np.float64(0.1), ys[3]), (0.25, 0.5)]
        cases += [(float(x), float(y)) for x, y in zip(xs[:5], ys[:5])]
        for x, y in cases:
            kept = np.copy(x), np.copy(y)
            got, want = f(x, y), np.sin(np.pi * (x**2 + y**2))
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert np.array_equal(x, kept[0]) and np.array_equal(y, kept[1])

    def test_paper_derivatives_match_finite_differences(self):
        assert check_derivatives(builtin_problem("paper"))

    def test_zero_problem(self):
        p = builtin_problem("zero")
        xs = np.linspace(0, 1, 5)
        assert np.all(p.f(xs, xs) == 0)
        assert np.all(p.phi0(xs) == 0)
        assert np.all(p.phi1(xs) == 0)

    def test_no_layer_has_vanishing_fluctuations(self):
        p = builtin_problem("no-layer")
        d = decompose(p, quad_points=64)
        xs = np.linspace(0, 1, 9)
        for y in (0.0, 0.4, 1.0):
            assert np.allclose(d.ftilde(xs, y), 0.0, atol=1e-13)
        assert np.allclose(d.phitilde0(xs), 0.0, atol=1e-13)
        assert np.allclose(d.phitilde1(xs), 0.0, atol=1e-13)

    def test_constant_force(self):
        p = builtin_problem("constant-force")
        assert np.all(p.f(np.linspace(0, 1, 4), 0.2) == 1.0)

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownProblem):
            builtin_problem("does-not-exist")

    def test_builtins_are_vectorized(self):
        for name in ("paper", "constant-force", "no-layer", "zero"):
            p = builtin_problem(name)
            xs = np.linspace(0, 1, 6)
            ys = np.linspace(0, 1, 4)
            assert p.f(xs[:, None], ys[None, :]).shape == (6, 4)
            assert p.phi0(xs).shape == (6,)
            assert p.phi1(xs).shape == (6,)
            for dj in p.f_y_derivs:
                assert dj(xs[:, None], ys[None, :]).shape == (6, 4)
