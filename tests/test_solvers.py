import math

import numpy as np
import pytest

from conftest import fixture_path
from missmass import inference
from missmass.data import load_observation, summarize
from missmass.solvers import (_REL_TOL, BracketError, DivergenceError,
                              integrate_semi_infinite, maximize_unimodal,
                              newton_bracketed, solve_root)
from missmass.special import log_beta, log_gamma


def counted_root(f, bracket, f_bracket=None):
    """solve_root on f, returning (root, number of f evaluations)."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return solve_root(g, bracket, f_bracket), len(calls)


# functions that defeat interpolation: a jump, a ninth-order zero, an
# infinite slope at the root, and a slope that changes by e^60
HOSTILE_CASES = {
    "step": (lambda x: -1.0 if x < 1.3 else 1.0, (0.0, 3.0), 1.3),
    "ninth_power": (lambda x: (x - 1.0) ** 9, (0.0, 3.0), 1.0),
    "cube_root": (lambda x: math.copysign(abs(x - 1.0) ** (1.0 / 3.0), x - 1.0),
                  (0.0, 3.0), 1.0),
    "steep_exponential": (lambda x: math.exp(20.0 * x) - math.exp(20.0), (0.0, 3.0), 1.0),
}


class TestSolveRoot:
    # smooth cases take at most 12 evaluations
    def test_linear(self):
        root, evals = counted_root(lambda z: z - 1.0, (0.0, 2.0))
        assert root == pytest.approx(1.0, rel=1e-10)
        assert evals <= 12

    def test_ipw_style_equation(self):
        # z (1 - (1 - 1/z)^2) - 1 simplifies to 1 - 1/z: root at 1
        root, evals = counted_root(lambda z: z * (1 - (1 - 1 / z) ** 2) - 1,
                                   (1 - 1e-9, 10.0))
        assert root == pytest.approx(1.0, rel=1e-9)
        assert evals <= 12

    def test_exponential(self):
        root, evals = counted_root(lambda z: math.exp(-z) - 0.5, (0.0, 5.0))
        assert root == pytest.approx(math.log(2.0), rel=1e-10)
        assert evals <= 12

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            solve_root(lambda z: z + 1.0, (0.0, 1.0))

    def test_endpoint_root(self):
        assert solve_root(lambda z: z, (0.0, 1.0)) == 0.0

    def test_interior_zero_returned_exactly(self):
        # the first secant step lands on 1.0, where f is exactly zero
        assert solve_root(lambda z: z - 1.0, (0.0, 4.0)) == 1.0

    def test_empty_bracket(self):
        with pytest.raises(BracketError):
            solve_root(lambda z: z - 1.0, (2.0, 0.0))

    def test_likelihood_slope_root_takes_few_evaluations(self, monkeypatch):
        # the L5 slope in log alpha, as mle_alpha refines it
        counts = []

        def counting(f, bracket, f_bracket=None):
            root, evals = counted_root(f, bracket, f_bracket)
            counts.append(evals)
            return root

        monkeypatch.setattr(inference, "solve_root", counting)
        obs = load_observation(fixture_path("regular_large.json"))
        inference.alpha_slope_maxima("L5", summarize(obs))
        assert counts and max(counts) <= 12

    def test_random_monotone_functions(self):
        rng = np.random.default_rng(20240611)
        families = [
            lambda x, r, k: math.log(x / r),
            lambda x, r, k: (x / r) ** k - 1.0,
            lambda x, r, k: math.tanh(k * (x / r - 1.0)),
            lambda x, r, k: k * (x / r - 1.0) + math.log(x / r),
        ]
        for _ in range(100):
            root = math.exp(rng.uniform(-20.0, 20.0))
            k = rng.uniform(0.2, 3.0)
            shape = families[rng.integers(len(families))]
            sign = rng.choice([-1.0, 1.0])
            bracket = (root * 2.0 ** -rng.uniform(0.1, 20.0),
                       root * 2.0 ** rng.uniform(0.1, 20.0))
            found = solve_root(lambda x: sign * shape(x, root, k), bracket)
            assert abs(found - root) <= _REL_TOL * root

    def test_seeded_ends_are_not_evaluated(self):
        # given f at the bracket ends, solve_root takes the same steps to
        # the same root without calling f there: two evaluations fewer
        rng = np.random.default_rng(20240611)
        for _ in range(50):
            root, k = math.exp(rng.uniform(-20.0, 20.0)), rng.uniform(0.2, 3.0)

            def f(x):
                return (x / root) ** k - 1.0

            lo, hi = root * 2.0 ** -rng.uniform(0.1, 20.0), root * 2.0 ** rng.uniform(0.1, 20.0)
            plain, plain_evals = counted_root(f, (lo, hi))
            calls = []
            seeded = solve_root(lambda x: calls.append(x) or f(x), (lo, hi), (f(lo), f(hi)))
            assert seeded == plain
            assert len(calls) == plain_evals - 2 and lo not in calls and hi not in calls

    @pytest.mark.parametrize("name", sorted(HOSTILE_CASES))
    def test_worst_case_evaluations(self, name):
        # at most three evaluations per halving of the bracket down to the
        # stopping width, plus the two end points
        f, (lo, hi), root = HOSTILE_CASES[name]
        found, evals = counted_root(f, (lo, hi))
        assert found == pytest.approx(root, rel=_REL_TOL)
        assert evals <= 2 + 3 * math.ceil(math.log2((hi - lo) / (_REL_TOL * abs(root))))


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

