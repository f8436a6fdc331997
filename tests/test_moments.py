import math

import numpy as np
import pytest

from conftest import proportional_observation
from missmass.data import Observation, summarize
from missmass.distributions import GammaDist
from missmass.estimators import rb_poisson_lambda
from missmass.inference import mle_alpha
from missmass.likelihoods import ModelParams, dlog_dalpha
from missmass.moments import (match_A, match_B, match_C, mle_full,
                              moment_match)
from missmass.simulate import simulate_model


def model_observation(seed, d=30, alpha=4.0, b=1.0, lam=8.0):
    x = np.full(d, 1.0 / d)
    ds = simulate_model(x, ModelParams(alpha, b, lam), "p-c", rng_seed=seed)
    obs = ds.observe()
    return obs, summarize(obs)


class TestMleFull:
    def test_stationarity_and_identities(self):
        obs, st = model_observation(4)
        res = mle_full(obs, st)
        assert res.ok
        p = res.params
        # the stationary pair satisfies N = lambda alpha / b exactly
        assert st.N == pytest.approx(p.lam * p.alpha / p.b, rel=1e-12)
        slope = dlog_dalpha("L11", obs, st, p.alpha)
        assert abs(slope) * p.alpha < 1e-5
        # W law is Gamma(alpha Y, b + lambda) with the matching mean
        assert isinstance(res.w_dist, GammaDist)
        assert res.w_dist.mean == pytest.approx(
            p.alpha * st.Y / (p.b + p.lam), rel=1e-12)

    def test_boundary_verdict_on_proportional_data(self, rng):
        obs = proportional_observation(rng, m=3)
        st = summarize(obs)
        res = mle_full(obs, st)
        assert res.params is None
        assert res.diagnostics["status"] == "boundary"


class TestMatchA:
    def test_residuals_and_ratio(self):
        obs, st = model_observation(4)
        res = match_A(obs, st)
        assert res.ok, res.diagnostics
        assert np.max(np.abs(res.residuals)) < 1e-8
        # the N equation enforces lambda / b = N / alpha exactly
        assert res.params.lam / res.params.b == pytest.approx(
            st.N / res.params.alpha, rel=1e-12)

    def test_parameter_recovery_over_replicates(self):
        # medians of the recovered alpha across model draws stay near truth
        alphas = []
        for seed in range(24):
            obs, st = model_observation(100 + seed, d=300, alpha=3.0, lam=40.0)
            res = match_A(obs, st)
            if res.ok:
                alphas.append(res.params.alpha)
        assert len(alphas) >= 18
        assert np.median(alphas) == pytest.approx(3.0, rel=0.25)


class TestMatchB:
    def test_residual_plugback(self):
        obs, st = model_observation(5)
        res = match_B(obs, st)
        assert res.ok, res.diagnostics
        assert np.max(np.abs(res.residuals)) < 1e-8
        assert res.params.lam > 0 and res.params.b > 0

    def test_single_point_sample(self):
        # M = 1 is the trivially proportional case: the conditional U
        # residual approaches zero only as alpha grows without bound, so
        # the no-root verdict is the correct outcome; the inner N and V
        # solves still satisfy their defining equations by hand
        obs = Observation(domain_size=10, x=np.full(10, 0.1),
                          indices=np.array([4]), p_obs=np.array([1.7]),
                          counts=np.array([3]))
        st = summarize(obs)
        assert st.is_proportional
        res = match_B(obs, st)
        assert res.params is None
        assert res.diagnostics["status"] == "no-root"
        from missmass.moments import _solve_b_rho
        for alpha in (0.5, 2.0, 11.0):
            b, rho = _solve_b_rho(obs.x_obs, alpha, st.N, st.V)
            a = alpha * 0.1
            n_model = rho * a / -math.expm1(-a * math.log1p(rho))
            v_model = (a / b) * (-math.expm1(-(a + 1) * math.log1p(rho))
                                 / -math.expm1(-a * math.log1p(rho)))
            assert n_model == pytest.approx(st.N, rel=1e-9)
            assert v_model == pytest.approx(st.V, rel=1e-9)


class TestMatchC:
    def test_lambda_matches_rb_equation(self):
        obs, st = model_observation(6)
        res = match_C(obs, st)
        assert res.ok, res.diagnostics
        assert res.params.lam == rb_poisson_lambda(obs)
        assert np.max(np.abs(res.residuals)) < 1e-8

    def test_all_singletons_degenerate(self):
        obs = Observation(domain_size=5, x=np.full(5, 0.2),
                          indices=np.array([0, 1]),
                          p_obs=np.array([1.0, 2.0]), counts=np.array([1, 1]))
        st = summarize(obs)
        res = match_C(obs, st)
        assert res.params is None
        assert res.diagnostics["status"] == "lambda_zero"


class TestCommon:
    def test_root_selection_reports_brackets(self):
        obs, st = model_observation(7)
        res = match_A(obs, st)
        assert "alpha_roots" in res.diagnostics
        assert len(res.diagnostics["alpha_roots"]) >= 1

    def test_w_law_quantiles_monotone(self):
        obs, st = model_observation(4)
        res = moment_match(obs, st, "MLE")
        qs = [res.w_dist.quantile(q) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_dispatch_validates(self):
        obs, st = model_observation(4)
        with pytest.raises(ValueError):
            moment_match(obs, st, "Z")

    def test_root_closest_to_mixed_alpha(self):
        obs, st = model_observation(8)
        mixed_alpha, _ = mle_alpha(obs, st, "L5")
        res = match_B(obs, st)
        if res.ok and len(res.diagnostics["alpha_roots"]) > 1:
            picked = res.params.alpha
            dists = [abs(math.log(r / mixed_alpha))
                     for r in res.diagnostics["alpha_roots"]]
            assert abs(math.log(picked / mixed_alpha)) == pytest.approx(min(dists))
