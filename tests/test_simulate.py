import math

import numpy as np
import pytest
from scipy import stats as spstats
from scipy.special import gammaln

from missmass.data import Dataset, summarize
from missmass.likelihoods import ModelParams, log_L2
from missmass.simulate import (effective_states, expected_values,
                               simulate_explicit, simulate_model,
                               simulate_model_batch, toy_physics_dataset)
from missmass.verify import expectation_misses, within_4se

PARAMS = ModelParams(2.0, 1.0, 5.0)
X8 = np.full(8, 1 / 8)


class TestSimulateModel:
    def test_mean_total_mass(self):
        batch = simulate_model_batch(X8, PARAMS, "p-c", 10_000, rng_seed=1)
        assert within_4se(batch["Z"], PARAMS.alpha / PARAMS.b)

    @pytest.mark.parametrize("order", ["p-c", "z-dirichlet", "c-p"])
    def test_orders_match_observable_means(self, order):
        batch = simulate_model_batch(X8, PARAMS, order, 20_000, rng_seed=2)
        ev = expected_values(X8, PARAMS, "prior")
        for key in ("M", "N", "V"):
            assert within_4se(batch[key], ev[key]), (order, key)

    def test_concentration_at_large_rate(self):
        # b -> inf at fixed alpha/b: Z concentrates at the mean
        zs = []
        for scale in (1.0, 100.0):
            params = ModelParams(2.0 * scale, 1.0 * scale, 5.0)
            batch = simulate_model_batch(X8, params, "p-c", 4000, rng_seed=3)
            zs.append(batch["Z"].std())
        assert zs[1] < zs[0] / 5

    def test_zero_base_measure_points(self):
        x = np.array([0.0, 0.6, 0.4])
        ds = simulate_model(x, PARAMS, "p-c", rng_seed=4)
        assert ds.p[0] == 0.0 and ds.c[0] == 0

    def test_deterministic_given_seed(self):
        a = simulate_model(X8, PARAMS, "z-dirichlet", rng_seed=11)
        b = simulate_model(X8, PARAMS, "z-dirichlet", rng_seed=11)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.c, b.c)

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            simulate_model(X8, PARAMS, "weird", rng_seed=0)


class TestSimulateExplicit:
    def test_fixed_n_total(self):
        ds = simulate_explicit(np.array([1.0, 2.0, 3.0]), n=17, rng_seed=5)
        assert ds.c.sum() == 17

    def test_poisson_mean(self):
        p = np.array([1.0, 2.0, 3.0])
        totals = np.array([simulate_explicit(p, rate=2.5, rng_seed=s).c.sum()
                           for s in range(2000)])
        assert within_4se(totals.astype(float), 2.5 * p.sum())

    def test_single_point(self):
        ds = simulate_explicit(np.array([5.0]), n=5, rng_seed=6)
        assert list(ds.c) == [5]

    def test_requires_exactly_one_protocol(self):
        with pytest.raises(ValueError):
            simulate_explicit(np.array([1.0]), n=3, rate=1.0)
        with pytest.raises(ValueError):
            simulate_explicit(np.array([1.0]))

    def test_fixed_n_marginal_is_binomial(self):
        # inclusion of each point across replicates follows the binomial
        # complement 1 - (1 - p/Z)^N; exact binomial test per point
        p = np.array([0.5, 1.0, 1.5, 2.0])
        z = p.sum()
        n, reps = 6, 3000
        rng = np.random.default_rng(7)
        counts = rng.multinomial(n, p / z, size=reps)
        for j in range(4):
            seen = int((counts[:, j] >= 1).sum())
            prob = 1.0 - (1.0 - p[j] / z) ** n
            assert spstats.binomtest(seen, reps, prob).pvalue > 1e-3


class TestExpectedValues:
    # expectation_misses draws the prior with its seed, given S with seed + 1
    # and given (S, p on S) with seed + 2
    def test_prior_against_monte_carlo(self):
        assert expectation_misses(8, 30_000, ("prior",)) == []

    def test_given_s_against_monte_carlo(self):
        assert expectation_misses(8, 30_000, ("given_s",)) == []

    def test_given_sp_against_monte_carlo(self):
        assert expectation_misses(8, 30_000, ("given_sp",)) == []

    def test_against_monte_carlo_away_from_b_one(self):
        # log b = 0 at b = 1 hides every term that carries it
        params = ModelParams(2.0, 3.0, 15.0)
        assert expectation_misses(8, 100_000, ("prior",), params) == []
        assert expectation_misses(8, 30_000, ("given_s", "given_sp"), params) == []

    def test_conditioning_validation(self):
        with pytest.raises(ValueError):
            expected_values(X8, PARAMS, "given_s")
        with pytest.raises(ValueError):
            expected_values(X8, PARAMS, "given_sp", s=[0])
        with pytest.raises(ValueError):
            expected_values(X8, PARAMS, "nope")

    @pytest.mark.parametrize("x0", [0.0, 5e-324, math.nan])
    def test_given_s_refuses_a_zero_digamma_argument(self, x0):
        # alpha x(0) is 0, underflows to 0 (alpha = 0.5) or is nan
        x = np.array([x0, 0.5, 0.5])
        with pytest.raises(ValueError, match="^digamma requires a positive argument$"):
            expected_values(x, ModelParams(0.5, 1.0, 2.0), "given_s", s=[0, 1])


class TestJointDensity:
    def test_marginal_count_is_negative_binomial(self):
        # integrate the one-point joint density over p: the count marginal
        # is NegBinomial(a, b/(b+lambda))
        from missmass.verify import integrate_semi_infinite
        alpha, b, lam = 1.6, 0.9, 2.4
        x1 = 0.35
        a = alpha * x1
        for c in (0, 1, 3, 7):
            def log_f(p):
                return (a * math.log(b) - gammaln(a) + (a - 1) * np.log(p)
                        - (b + lam) * p + c * np.log(lam * p) - gammaln(c + 1.0))

            quad = integrate_semi_infinite(log_f, max((a + c) / (b + lam), 0.05))
            pmf = spstats.nbinom.logpmf(c, a, b / (b + lam))
            assert quad == pytest.approx(float(pmf), abs=1e-9)

    def test_l2_matches_conditional_histogram(self):
        # one unseen point: the unseen mass W given c = 0 follows
        # Gamma(a_1, b + lambda), which is exactly the W profile of L2
        rng = np.random.default_rng(11)
        x = np.array([0.3, 0.7])
        alpha, b, lam = 2.0, 1.0, 1.5
        a1 = alpha * x[1]
        p1 = rng.gamma(a1, 1 / b, size=400_000)
        c1 = rng.poisson(lam * p1)
        w_samples = p1[c1 == 0]
        # fixed observed half
        ds = Dataset(x=x, p=np.array([1.2, 0.4]), c=np.array([2, 0]))
        obs = ds.observe()
        st = summarize(obs)
        params = ModelParams(alpha, b, lam)
        edges = np.array([0.05, 0.15, 0.3, 0.5, 0.8, 1.2])
        hist, _ = np.histogram(w_samples, bins=edges, density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        dens = np.exp(log_L2(st, centers, params))
        # compare shapes: normalize both across the bins
        hist = hist / hist.sum()
        dens = dens / dens.sum()
        assert np.max(np.abs(hist - dens)) < 0.01


class TestToyPhysics:
    def test_exact_totals(self):
        toy = toy_physics_dataset(256, [2.0, 0.7], coupling=0.8, rng_seed=12)
        assert toy.z_exact == pytest.approx(float(toy.r_totals @ toy.w), rel=1e-12)
        assert toy.dataset.p == pytest.approx(toy.r @ toy.w)

    def test_single_high_temperature_is_uniform(self):
        toy = toy_physics_dataset(64, [1e9], coupling=1.0, rng_seed=13)
        # energies are O(10): at T = 1e9 every weight is essentially 1
        assert np.allclose(toy.dataset.p, 1.0, rtol=1e-6)
        assert toy.z_exact == pytest.approx(64.0 * toy.w[0], rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_physics_dataset(100, [1.0])  # not a power of two
        with pytest.raises(ValueError):
            toy_physics_dataset(64, [-1.0])

    def test_effective_states(self):
        assert effective_states(np.ones(10)) == pytest.approx(10.0)
        assert effective_states([1.0, 0.0, 0.0]) == pytest.approx(1.0)

