import math
import warnings

import numpy as np
import pytest
from scipy import stats as spstats

from scipy import integrate
from scipy.special import betainc, gammaln

from conftest import fixture_path, proportional_observation, random_observation
from missmass import inference
from missmass.data import Observation, load_observation, summarize
from missmass.distributions import BetaDist, BetaPrimeDist, PointMass
from missmass.inference import (ALPHA_T_BOUNDS, alpha_slope_maxima,
                                infer_bayes, infer_mixed, infer_profile,
                                mle_alpha)
from missmass.likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha,
                                  log_L4, log_L5, log_L8, log_L9)
from missmass.simulate import simulate_model


def model_observation(seed, d=30, alpha=6.0, b=1.0, lam=10.0):
    x = np.full(d, 1.0 / d)
    ds = simulate_model(x, ModelParams(alpha, b, lam), "p-c", rng_seed=seed)
    obs = ds.observe()
    return ds, obs, summarize(obs)


class TestMleAlpha:
    def test_stationarity(self, rng):
        for _ in range(5):
            obs = random_observation(rng, extra_counts=4)
            st = summarize(obs)
            if st.is_proportional:
                continue
            for base in ("L5", "L9"):
                alpha, converged = mle_alpha(obs, st, base)
                assert converged
                slope = dlog_dalpha(base, obs, st, alpha)
                curv = abs(d2log_dalpha2(base, obs, st, alpha))
                assert abs(slope) <= 1e-6 * max(1.0, curv * alpha)

    def test_slope_scan_finds_both_local_maxima(self):
        # draw 17 of the concavity criterion's seed carries two L9 maxima,
        # near alpha 3.9 and 189; mle_alpha picks the higher
        rng = np.random.default_rng(104)
        for _ in range(18):
            obs = random_observation(rng)
        st = summarize(obs)
        grid, slopes, maxima = alpha_slope_maxima("L9", obs, st)
        assert len(grid) == len(slopes) and len(maxima) == 2
        assert maxima[0] == pytest.approx(3.9, rel=0.05)
        assert maxima[1] == pytest.approx(189.0, rel=0.05)
        for a in maxima:
            assert abs(dlog_dalpha("L9", obs, st, a)) <= 1e-8 * max(1.0, 1.0 / a)
            assert d2log_dalpha2("L9", obs, st, a) < 0.0
        best = maxima[int(np.argmax([log_L9(obs, st, a) for a in maxima]))]
        assert mle_alpha(obs, st, "L9")[0] == best

    def test_singular_sentinel(self, rng):
        obs = proportional_observation(rng)
        st = summarize(obs)
        alpha, converged = mle_alpha(obs, st)
        assert math.isinf(alpha) and converged

    def test_bases_agree_on_rich_data(self):
        _, obs, st = model_observation(3, d=40, alpha=8.0, lam=30.0)
        assert st.N >= 50
        a5, _ = mle_alpha(obs, st, "L5")
        a9, _ = mle_alpha(obs, st, "L9")
        assert a9 == pytest.approx(a5, rel=0.2)


class TestMixed:
    def test_closed_form_means(self):
        # alpha = 2, X = Y = 0.5, N = 9: E(W/Z) = 1/11 and
        # E(W/V) = alpha Y / (alpha X + N - 1) = 1/9
        a, x_frac, n = 2.0, 0.5, 9
        wz = BetaDist(a * (1 - x_frac), a * x_frac + n)
        assert wz.mean == pytest.approx(1.0 / 11.0, rel=1e-12)
        wv = BetaPrimeDist(a * (1 - x_frac), a * x_frac + n, scale=1.0)
        assert wv.mean == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_beta_density_normalizes_with_matching_mean(self):
        a, b = 1.3, 11.0
        s = np.linspace(1e-9, 1 - 1e-9, 20001)
        dens = np.exp(BetaDist(a, b).log_pdf(s))
        assert np.trapezoid(dens, s) == pytest.approx(1.0, abs=1e-4)
        assert np.trapezoid(s * dens, s) == pytest.approx(a / (a + b), abs=1e-4)

    def test_monte_carlo_beta_prime_to_beta(self, rng):
        # W/Z = t/(1+t) with t from the W/V beta-prime law lands on the
        # Beta law: Kolmogorov-Smirnov at n = 1e5
        a, b = 1.7, 12.0
        t = rng.beta(a, b, 100_000)
        t = t / (1 - t)  # beta prime draws
        wz = t / (1 + t)
        ks = spstats.kstest(wz, lambda s: spstats.beta.cdf(s, a, b)).statistic
        assert ks < 0.02

    def test_report_structure(self):
        _, obs, st = model_observation(1)
        rep = infer_mixed(obs, st)
        assert rep.singular_case is None
        assert isinstance(rep.w_dist, BetaPrimeDist)
        assert isinstance(rep.w_over_z_dist, BetaDist)
        assert rep.w_dist.a == pytest.approx(rep.alpha_summary * st.Y)
        for q in (0.05, 0.5, 0.95):
            assert rep.z_dist.quantile(q) == pytest.approx(
                st.V + rep.w_dist.quantile(q), rel=1e-12)


class TestSingularCases:
    def test_proportional_gives_point_mass_everywhere(self, rng):
        obs = proportional_observation(rng, scale=2.5)
        st = summarize(obs)
        expected_w = st.Y * 2.5
        for fn in (infer_mixed, infer_bayes, infer_profile):
            rep = fn(obs, st)
            assert rep.singular_case == "DeltaS_zero"
            assert isinstance(rep.w_dist, PointMass)
            assert rep.w_dist.value == pytest.approx(expected_w, rel=1e-10)
            assert rep.z_dist.value == pytest.approx(st.V + expected_w, rel=1e-10)
            assert rep.w_over_z_dist.value == pytest.approx(st.Y, rel=1e-10)

    def test_full_coverage_pins_w_at_zero(self):
        obs = Observation(domain_size=3, x=np.array([0.2, 0.5, 0.3]),
                          indices=np.arange(3),
                          p_obs=np.array([1.0, 0.7, 2.2]),
                          counts=np.array([2, 1, 1]))
        st = summarize(obs)
        for fn in (infer_mixed, infer_bayes, infer_profile):
            rep = fn(obs, st)
            assert rep.singular_case == "Y_zero"
            assert rep.w_dist.value == 0.0
            assert rep.z_dist.value == pytest.approx(st.V)


class TestBayes:
    def test_posterior_mass_and_median(self):
        _, obs, st = model_observation(1)
        rep = infer_bayes(obs, st)
        assert rep.diagnostics["mass_check"] == pytest.approx(1.0, abs=1e-4)
        assert math.isfinite(rep.w_dist.quantile(0.5))

    def test_z_quantiles_shift(self):
        _, obs, st = model_observation(2)
        rep = infer_bayes(obs, st)
        for q in (0.05, 0.5, 0.95):
            assert rep.z_dist.quantile(q) == pytest.approx(
                st.V + rep.w_dist.quantile(q), rel=1e-12)

    def test_point_prior_recovers_mixed_density(self):
        # pinning the alpha quadrature to a single node must reproduce the
        # mixed method's closed form: L4(w; a*) / L5(a*) is its density
        _, obs, st = model_observation(1)
        rep = infer_mixed(obs, st)
        a_star = rep.alpha_summary
        ws = np.exp(np.linspace(math.log(rep.w_dist.quantile(0.01)),
                                math.log(rep.w_dist.quantile(0.99)), 41))
        log_dens = log_L4(obs, st, ws, a_star) - log_L5(obs, st, a_star)
        assert np.allclose(log_dens, rep.w_dist.log_pdf(ws), atol=1e-9)


LEVELS = np.array([0.05, 0.25, 0.5, 0.75, 0.95])


def wide_observation(seed=11):
    """A Gamma-Poisson draw with M and N near 190 over 20 000 points."""
    x = np.full(20_000, 1.0 / 20_000)
    ds = simulate_model(x, ModelParams(2000.0, 1.0, 0.1), "p-c", rng_seed=seed)
    obs = ds.observe()
    return obs, summarize(obs)


def fixture_observation(name):
    obs = load_observation(fixture_path(name + ".json"))
    return obs, summarize(obs)


def quad_bayes_cdf(obs, st, w):
    """F(w) = int L5 I_s(alpha Y, alpha X + N) dt / int L5 dt over
    t = log alpha, s = w / (V + w), by adaptive quadrature on L5 written
    out with gammaln."""
    x_s = obs.x_obs

    def log_l5(t):
        a = math.exp(t)
        return (-np.sum(gammaln(a * x_s)) + a * st.U + gammaln(a)
                - (a * st.X + st.N) * math.log(st.V)
                + gammaln(a * st.X + st.N) - gammaln(a + st.N))

    coarse = np.linspace(-30.0, 50.0, 4001)
    vals = np.array([log_l5(t) for t in coarse])
    top = int(np.argmax(vals))
    keep = np.nonzero(vals >= vals[top] - 50.0)[0]
    lo, hi = coarse[max(keep[0] - 1, 0)], coarse[keep[-1] + 1]
    s = w / (st.V + w)

    def dens(t):
        return math.exp(log_l5(t) - vals[top])

    def num(t):
        a = math.exp(t)
        return dens(t) * betainc(a * st.Y, a * st.X + st.N, s)

    opts = dict(points=[coarse[top]], limit=400, epsabs=0.0, epsrel=1e-11)
    return integrate.quad(num, lo, hi, **opts)[0] / integrate.quad(dens, lo, hi, **opts)[0]


class TestBayesMixture:
    @pytest.mark.parametrize("case", ["gt_example", "regular_small",
                                      "regular_large", "wide"])
    def test_cdf_at_quantiles_is_nominal(self, case):
        obs, st = wide_observation() if case == "wide" else fixture_observation(case)
        rep = infer_bayes(obs, st)
        for q, w in zip(LEVELS, rep.w_dist.quantile(LEVELS)):
            assert quad_bayes_cdf(obs, st, w) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("case", ["gt_example", "regular_large"])
    def test_doubling_alpha_nodes_moves_no_quantile(self, case, monkeypatch):
        obs, st = fixture_observation(case)
        base = infer_bayes(obs, st)
        monkeypatch.setattr(inference, "BAYES_PANELS", 2 * inference.BAYES_PANELS)
        doubled = infer_bayes(obs, st)
        assert doubled.diagnostics["alpha_nodes"] == 2 * base.diagnostics["alpha_nodes"]
        assert np.allclose(doubled.w_dist.quantile(LEVELS),
                           base.w_dist.quantile(LEVELS), rtol=1e-9, atol=0.0)

    def test_w_over_z_quantiles_follow_w(self):
        obs, st = fixture_observation("regular_small")
        rep = infer_bayes(obs, st)
        w_q = rep.w_dist.quantile(LEVELS)
        assert np.allclose(rep.w_over_z_dist.quantile(LEVELS), w_q / (st.V + w_q),
                           rtol=1e-12, atol=0.0)

    def test_one_atom_mixture_is_the_closed_form(self):
        a, b, v = 0.7, 9.0, 2.5
        single = BetaPrimeDist(a, b, v)
        mixtures = (BetaPrimeDist(np.array([a]), np.array([b]), v, weights=np.array([1.0])),
                    BetaPrimeDist(np.array([a, a]), np.array([b, b]), v,
                                  weights=np.array([0.3, 0.7])))
        w = single.quantile(LEVELS)
        for mix in mixtures:
            assert np.allclose(mix.quantile(LEVELS), w, rtol=1e-10, atol=0.0)
            assert mix.mean == pytest.approx(single.mean, rel=1e-10)
            assert np.allclose(mix.log_pdf(w), single.log_pdf(w), rtol=0.0, atol=1e-10)

    def test_near_proportional_sample_gets_a_reason(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        p = 2.0 * x[:3] * np.exp(np.array([0.0, 1e-7, -1e-7]))
        obs = Observation(domain_size=4, x=x, indices=np.arange(3), p_obs=p,
                          counts=np.array([2, 1, 3]))
        st = summarize(obs)
        assert not st.is_proportional
        with pytest.raises(ValueError, match="proportional"):
            infer_bayes(obs, st)


class TestBayesAlphaMode:
    @pytest.mark.parametrize("case", ["gt_example", "regular_small", "regular_large"])
    def test_mode_is_a_root_of_the_posterior_slope(self, case):
        # d/dt log(L5 / alpha) = alpha dlogL5/dalpha - 1 vanishes at the mode
        obs, st = fixture_observation(case)
        alpha = infer_bayes(obs, st).alpha_summary
        assert abs(alpha * dlog_dalpha("L5", obs, st, alpha) - 1.0) < 1e-8


def spread_observation():
    """Masses 1e-200, 1 and 1e200 on three of five equal-x points."""
    return Observation(domain_size=5, x=np.full(5, 0.2), indices=np.array([0, 1, 2]),
                       p_obs=np.array([1e-200, 1.0, 1e200]), counts=np.array([1, 1, 1]))


class TestProfile:
    def test_inner_problem_unimodal(self):
        _, obs, st = model_observation(1)
        w = st.V * 0.5
        grid = np.exp(np.linspace(-6, 8, 200))
        slopes = dlog_dalpha("L8", obs, st, grid, w=w)
        changes = np.sum(np.diff(np.sign(slopes)) != 0)
        assert changes == 1

    def test_mode_agreement_with_bayes(self):
        # compare density-per-unit-log-W modes on the profile's W grid; the
        # W-space density is singular at the origin whenever small alpha
        # carries weight
        _, obs, st = model_observation(3, d=40, alpha=8.0, lam=30.0)
        rb = infer_bayes(obs, st)
        rp = infer_profile(obs, st)
        grid = rp.w_dist.w_grid
        profile_mode = grid[np.argmax(rp.w_dist.density * grid)]
        bayes_mode = grid[np.argmax(rb.w_dist.log_pdf(grid) + np.log(grid))]
        assert profile_mode == pytest.approx(bayes_mode, rel=0.1)

    def test_envelope_reaches_grid_maximum(self):
        # the polished sup over alpha of log L8 at every W of the profile
        # grid is no lower than the maximum over a dense log-alpha grid
        _, obs, st = model_observation(2)
        rep = infer_profile(obs, st)
        w_grid = rep.w_dist.w_grid
        polished = np.log(rep.w_dist.density) + rep.w_dist.log_norm
        alphas = np.exp(np.linspace(*ALPHA_T_BOUNDS, 40_001))[:, None]
        for k in range(0, len(w_grid), 25):
            block = w_grid[k:k + 25][None, :]
            dense = np.max(log_L8(obs, st, block, alphas), axis=0)
            assert np.all(polished[k:k + 25] >= dense - 1e-9)

    def test_normalized_by_own_quadrature(self):
        _, obs, st = model_observation(2)
        rep = infer_profile(obs, st)
        assert np.trapezoid(rep.w_dist.density, rep.w_dist.w_grid) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["regular_small.json", "regular_large.json"])
    def test_w_over_z_is_the_transformed_w_law(self, name):
        # s = W / (V + W) with density f_W (V + W)^2 / V, normalized by the
        # trapezoid rule on the s grid
        obs = load_observation(fixture_path(name))
        st = summarize(obs)
        rep = infer_profile(obs, st)
        w, v = rep.w_dist.w_grid, st.V
        dens = rep.w_dist.density * (v + w) ** 2 / v
        s = w / (v + w)
        np.testing.assert_allclose(rep.w_over_z_dist.w_grid, s, rtol=1e-12)
        np.testing.assert_allclose(rep.w_over_z_dist.density,
                                   dens / np.trapezoid(dens, s), rtol=1e-12)

    def test_w_over_z_across_the_float_range(self):
        # masses 1e-200 .. 1e200: (V + W)^2 and the W/Z density at
        # subnormal W/Z both overflow unless kept in log space or off the grid
        obs = spread_observation()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = infer_profile(obs, summarize(obs))
            wz = rep.w_over_z_dist
            values = [wz.mean] + [wz.quantile(q) for q in (0.05, 0.5, 0.95)]
        assert np.all(np.isfinite(values))
        assert 0.0 < values[1] < values[2] < values[3] < 1.0
        assert math.isfinite(rep.w_dist.mean)


    @pytest.mark.parametrize("case", ["regular_large", "spread"])
    def test_span_drops_are_the_envelope_at_the_grid_ends(self, case):
        # per-log-W envelope, maximized on a dense log-alpha grid, at the
        # mixed median and at both ends of the profile's W grid
        obs = spread_observation() if case == "spread" else load_observation(
            fixture_path(case + ".json"))
        st = summarize(obs)
        rep = infer_profile(obs, st)
        grid = rep.w_dist.w_grid
        w = np.array([infer_mixed(obs, st, base="L9").w_dist.quantile(0.5),
                      grid[0], grid[-1]])
        alphas = np.exp(np.linspace(*ALPHA_T_BOUNDS, 40_001))[:, None]
        per_log_w = np.max(log_L8(obs, st, w[None, :], alphas), axis=0) + np.log(w)
        diag = rep.diagnostics
        drops = per_log_w[0] - per_log_w[1:]
        assert diag["span_drop_lo_nats"] == pytest.approx(drops[0], abs=1e-3)
        assert diag["span_drop_hi_nats"] == pytest.approx(drops[1], abs=1e-3)
        assert diag["span_drop_hi_nats"] >= 30.0
        short = min(diag["span_drop_lo_nats"], diag["span_drop_hi_nats"]) < 30.0
        assert diag["status"] == ("short_span" if short else "ok")

    def test_span_cut_by_the_float_floor_is_short(self):
        # the lower end stops at V * 1e-300 = 1e-100, where the envelope is
        # still within 2 nats of its value at the mixed median
        rep = infer_profile(spread_observation(), summarize(spread_observation()))
        assert rep.w_dist.w_grid[0] == pytest.approx(1e-100)
        assert rep.diagnostics["span_drop_lo_nats"] == pytest.approx(1.9, abs=0.1)
        assert rep.diagnostics["status"] == "short_span"


class TestEquivariance:
    @pytest.mark.parametrize("method", ["mixed", "bayes", "profile"])
    def test_mass_rescaling_scales_quantiles(self, method):
        _, obs, st = model_observation(1, d=20, alpha=4.0, lam=8.0)
        s = 3.0
        scaled_obs = Observation(domain_size=obs.domain_size, x=obs.x,
                                 indices=obs.indices, p_obs=s * obs.p_obs,
                                 counts=obs.counts)
        scaled_st = summarize(scaled_obs)
        fn = {"mixed": infer_mixed, "bayes": infer_bayes,
              "profile": infer_profile}[method]
        rep = fn(obs, st)
        rep_s = fn(scaled_obs, scaled_st)
        for q in (0.1, 0.5, 0.9):
            assert rep_s.w_dist.quantile(q) == pytest.approx(
                s * rep.w_dist.quantile(q), rel=5e-3)
