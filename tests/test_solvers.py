import math

import numpy as np
import pytest

from missmass.solvers import (BracketError, DivergenceError,
                              integrate_semi_infinite, maximize_unimodal,
                              newton_bracketed, solve_root)
from missmass.special import log_beta, log_gamma


class TestSolveRoot:
    def test_linear(self):
        assert solve_root(lambda z: z - 1.0, (0.0, 2.0)) == pytest.approx(1.0, rel=1e-10)

    def test_ipw_style_equation(self):
        # z (1 - (1 - 1/z)^2) - 1 simplifies to 1 - 1/z: root at 1
        root = solve_root(lambda z: z * (1 - (1 - 1 / z) ** 2) - 1, (1 - 1e-9, 10.0))
        assert root == pytest.approx(1.0, rel=1e-9)

    def test_exponential(self):
        assert solve_root(lambda z: math.exp(-z) - 0.5, (0.0, 5.0)) == pytest.approx(
            math.log(2.0), rel=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_root(lambda z: z + 1.0, (0.0, 1.0))

    def test_endpoint_root(self):
        assert solve_root(lambda z: z, (0.0, 1.0)) == 0.0


class TestNewtonBracketed:
    def test_rising_roots_elementwise(self):
        c = np.array([0.5, 2.0, 9.0])
        roots = newton_bracketed(lambda x: (x * x - c, 2.0 * x), np.full(3, 2.0),
                                 np.zeros(3), np.full(3, 4.0), increasing=True,
                                 tol=1e-14)
        assert np.allclose(roots, np.sqrt(c), rtol=1e-13, atol=0.0)

    def test_falling_with_useless_slope_bisects(self):
        # an infinite slope makes every Newton step zero; bisection must
        # still close the bracket on the root of 1 - x
        root = newton_bracketed(lambda x: (1.0 - x, np.full_like(x, np.inf)),
                                np.array([0.1]), np.array([0.0]), np.array([3.0]),
                                increasing=False, tol=1e-12)
        assert root[0] == pytest.approx(1.0, abs=1e-11)


class TestMaximizeUnimodal:
    def test_log_parabola(self):
        # -(log a)^2 peaks at a = 1
        argmax, val = maximize_unimodal(lambda t: -t * t)
        assert argmax == pytest.approx(1.0, rel=1e-8)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_shifted_peak(self):
        argmax, _ = maximize_unimodal(lambda t: -(t - 2.0) ** 2, t_init=-3.0)
        assert argmax == pytest.approx(math.exp(2.0), rel=1e-8)

    def test_monotone_returns_infinity_sentinel(self):
        argmax, _ = maximize_unimodal(lambda t: 0.1 * t)
        assert math.isinf(argmax)

    def test_derivative_sign_at_argmax(self):
        # a smooth likelihood-like shape: derivative changes sign exactly
        # at the maximizer
        g = lambda t: -math.exp(t) * 0.3 + 2.5 * t
        argmax, _ = maximize_unimodal(g)
        t_star = math.log(argmax)
        h = 1e-6
        assert (g(t_star + h) - g(t_star - h)) / (2 * h) == pytest.approx(0.0, abs=1e-5)


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda u: -u, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_kernel(self):
        k = 3.5
        val = integrate_semi_infinite(lambda u: (k - 1) * np.log(u) - u, k - 1)
        assert val == pytest.approx(float(log_gamma(k)), abs=1e-12)

    def test_gamma_kernel_shape_sweep(self):
        for k in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
            val = integrate_semi_infinite(
                lambda u, k=k: (k - 1) * np.log(u) - u, max(k - 1, 0.05))
            assert val == pytest.approx(float(log_gamma(k)), abs=1e-9)

    def test_beta_prime_kernel(self):
        a, b = 0.7, 12.0
        val = integrate_semi_infinite(
            lambda t: (a - 1) * np.log(t) - (a + b) * np.log1p(t), 0.1)
        assert val == pytest.approx(float(log_beta(a, b)), abs=1e-10)

    def test_divergent_integrand(self):
        with pytest.raises(DivergenceError):
            integrate_semi_infinite(lambda u: 0.0 * u, 1.0)

