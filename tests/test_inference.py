import collections
import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import stats as spstats

from scipy import integrate
from scipy.special import betainc, betaln, expit, gammaln

from conftest import fixture_path, proportional_observation, random_observation
from missmass import cli, distributions, inference
from missmass.data import Observation, load_observation, summarize
from missmass.distributions import LawView, LogScaleDist, PointMass, _BetaAtoms
from missmass.inference import (ALPHA_T_BOUNDS, infer_bayes, infer_mixed,
                                infer_profile, mle_alpha)
from missmass.likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha,
                                  log_L4, log_L5, log_L9)
from missmass.moments import moment_match
from missmass.simulate import simulate_model
from missmass.verify import alpha_slope_maxima


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
                alpha, converged = mle_alpha(st, base)
                assert converged
                slope = dlog_dalpha(base, st, alpha)
                curv = abs(d2log_dalpha2(base, st, alpha))
                assert abs(slope) <= 1e-6 * max(1.0, curv * alpha)

    def test_slope_scan_finds_both_local_maxima(self):
        # draw 17 of the concavity criterion's seed carries two L9 maxima,
        # near alpha 3.9 and 189; mle_alpha picks the higher
        rng = np.random.default_rng(104)
        for _ in range(18):
            obs = random_observation(rng)
        st = summarize(obs)
        grid, slopes, maxima = alpha_slope_maxima("L9", st)
        assert len(grid) == len(slopes) and len(maxima) == 2
        assert maxima[0] == pytest.approx(3.9, rel=0.05)
        assert maxima[1] == pytest.approx(189.0, rel=0.05)
        for a in maxima:
            assert abs(dlog_dalpha("L9", st, a)) <= 1e-8 * max(1.0, 1.0 / a)
            assert d2log_dalpha2("L9", st, a) < 0.0
        best = maxima[int(np.argmax([log_L9(st, a) for a in maxima]))]
        assert mle_alpha(st, "L9")[0] == best

    def test_singular_sentinel(self, rng):
        obs = proportional_observation(rng)
        st = summarize(obs)
        alpha, converged = mle_alpha(st)
        assert math.isinf(alpha) and converged

    def test_bases_agree_on_rich_data(self):
        _, obs, st = model_observation(3, d=40, alpha=8.0, lam=30.0)
        assert st.N >= 50
        a5, _ = mle_alpha(st, "L5")
        a9, _ = mle_alpha(st, "L9")
        assert a9 == pytest.approx(a5, rel=0.2)


class TestMixed:
    def test_closed_form_means(self):
        # alpha = 2, X = Y = 0.5, N = 9: E(W/Z) = 1/11 and
        # E(W/V) = alpha Y / (alpha X + N - 1) = 1/9
        a, x_frac, n = 2.0, 0.5, 9
        law = _BetaAtoms(a * (1 - x_frac), a * x_frac + n)
        assert LawView(law, 1.0, "W/Z").mean == pytest.approx(1.0 / 11.0, rel=1e-12)
        assert LawView(law, 1.0, "W").mean == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_beta_density_normalizes_with_matching_mean(self):
        a, b = 1.3, 11.0
        s = np.linspace(1e-9, 1 - 1e-9, 20001)
        dens = np.exp(LawView(_BetaAtoms(a, b), 1.0, "W/Z").log_pdf(s))
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
        assert isinstance(rep.w_dist.law, _BetaAtoms)
        assert rep.w_dist.law.a == pytest.approx(rep.alpha_summary * st.Y)
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

    def test_full_coverage_below_one_in_float_pins_w_at_zero(self):
        # x sums to 1 - 2^-53 in float, so 1 - X is one ulp, yet every point
        # of positive x is sampled: Y is 0 and each route the point mass
        # at W = 0, as for x summing to 1 exactly
        x = np.array([0.5, 0.25, 0.25 - 2.0 ** -53, 0.0])
        obs = Observation(domain_size=4, x=x, indices=np.arange(3),
                          p_obs=np.array([1.0, 0.7, 2.2]), counts=np.array([2, 1, 1]))
        st = summarize(obs)
        assert st.X == 1.0 - 2.0 ** -53 and st.Y == 0.0
        for fn in (infer_mixed, infer_bayes, infer_profile):
            rep = fn(obs, st)
            assert rep.singular_case == "Y_zero"
            assert rep.w_dist == PointMass(0.0) and rep.z_dist == PointMass(st.V)
            assert rep.w_over_z_dist == PointMass(0.0)
        for strategy in ("A", "B", "C", "MLE"):
            assert moment_match(obs, st, strategy).w_dist == PointMass(0.0)


def near_proportional_observation(spread=1e-9):
    """p = 2 x exp(0, +spread/2, -spread/2) on three of four points: the
    spread exceeds PROPORTIONALITY_TOL, and alpha-hat is infinite."""
    x = np.array([0.2, 0.3, 0.1, 0.4])
    p = 2.0 * x[:3] * np.exp(np.array([0.0, spread, -spread]))
    return Observation(domain_size=4, x=x, indices=np.arange(3), p_obs=p,
                       counts=np.array([2, 1, 3]))


class TestAlphaVerdict:
    @pytest.mark.parametrize("base", ["L5", "L9"])
    def test_mixed_at_alpha_infinity_is_the_limit_point_mass(self, base):
        # BetaPrime(alpha Y, alpha X + N; V) tends to the point mass at
        # Y V / X = 0.8 as alpha -> infinity
        obs = near_proportional_observation()
        st = summarize(obs)
        assert not st.is_proportional
        rep = infer_mixed(obs, st, base)
        assert rep.singular_case == "alpha_infinite"
        assert math.isinf(rep.alpha_summary)
        assert rep.diagnostics["reason"] == "maximum at alpha -> infinity"
        assert rep.w_dist.value == pytest.approx(0.8, rel=1e-8)
        assert rep.w_dist.value == st.Y * st.V / st.X
        assert rep.z_dist.value == st.V + rep.w_dist.value
        assert rep.w_over_z_dist.value == st.Y

    def test_profile_states_the_alpha_infinity_reason(self):
        obs = near_proportional_observation()
        with pytest.raises(ValueError, match="alpha -> infinity"):
            infer_profile(obs, summarize(obs))

    def test_bayes_states_the_alpha_infinity_reason_before_any_walk(self, monkeypatch):
        obs = near_proportional_observation()
        monkeypatch.setattr(inference, "_walk", None)
        with pytest.raises(ValueError, match="L5 does not decay"):
            infer_bayes(obs, summarize(obs))

    def test_verdict_reads_slopes_only(self):
        # near-proportional samples put log L5, L9 and L11 at huge alpha in
        # cancellation noise; for every likelihood an interior slope maximum
        # is the answer, whatever the value at the top of the grid reads, and
        # without one a slope still rising there is alpha -> infinity
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(4, 8))
            m = int(rng.integers(2, d))
            x = rng.dirichlet(np.ones(d))
            idx = np.sort(rng.choice(d, m, replace=False))
            p = 2.0 * x[idx] * np.exp(10 ** rng.uniform(-9.5, -4) * rng.standard_normal(m))
            obs = Observation(domain_size=d, x=x, indices=idx, p_obs=p,
                              counts=rng.integers(1, 4, m))
            st = summarize(obs)
            if st.is_proportional:
                continue
            for which in ("L5", "L9", "L11"):
                _, slopes, maxima = alpha_slope_maxima(which, st)
                if which == "L11":
                    diag = moment_match(obs, st, "MLE").diagnostics
                    assert diag["status"] == ("ok" if maxima else "boundary")
                    assert diag.get("n_local_maxima", 0) == len(maxima)
                else:
                    rep = infer_mixed(obs, st, which)
                    at_infinity = not maxima and slopes[-1] > 0.0
                    assert (rep.singular_case == "alpha_infinite") == at_infinity
                    assert (rep.alpha_summary in maxima) == bool(maxima)


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
        log_dens = log_L4(st, ws, a_star) - log_L5(st, a_star)
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
        # a gate that never passes runs to the cap: one doubling past the
        # gate's choice
        obs, st = fixture_observation(case)
        base = infer_bayes(obs, st)
        monkeypatch.setattr(inference, "_GATE_MOVE", 0.0)
        monkeypatch.setattr(inference, "BAYES_NODES", 2 * base.diagnostics["alpha_nodes"])
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
        single = LawView(_BetaAtoms(a, b), v)
        mixtures = (LawView(_BetaAtoms(np.array([a]), np.array([b]), np.array([1.0])), v),
                    LawView(_BetaAtoms(np.array([a, a]), np.array([b, b]),
                                       np.array([0.3, 0.7])), v))
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


class TestStatedRefusals:
    """Samples the routes refuse, each with its stated reason."""

    def test_bayes_window_in_rounding_noise(self):
        # at spread 1e-8 the L5 maximum is interior (alpha near 8e14), and
        # log L5 there moves by tens of nats under a relative step of 1e-10
        obs = near_proportional_observation(1e-8)
        with pytest.raises(ValueError, match="rounding noise"):
            infer_bayes(obs, summarize(obs))

    def test_bayes_mass_below_the_window(self):
        # two points 20 decades apart put alpha-hat near 0.06; L5 falls
        # only as alpha^(M - 1) = alpha below it, so the posterior keeps
        # more than 1e-12 of its mass below alpha = e^-30
        obs = Observation(domain_size=3, x=np.full(3, 1 / 3), indices=np.arange(2),
                          p_obs=np.array([1e-10, 1e10]), counts=np.array([1, 2]))
        with pytest.raises(ValueError, match="keeps mass below the log-alpha window"):
            infer_bayes(obs, summarize(obs))

    def test_profile_envelope_at_the_grid_top(self):
        x = np.array([0.2, 0.3, 0.5])
        p = 2.0 * x[:2] * np.exp([-1e-9, 1e-9])
        obs = Observation(domain_size=3, x=x, indices=np.arange(2), p_obs=p,
                          counts=np.array([1, 2]))
        with pytest.raises(ArithmeticError, match="diverged at finite W"):
            infer_profile(obs, summarize(obs))

    def test_profile_without_curvature_at_the_mode(self, capsys, tmp_path):
        # at spread 1e-8 the envelope's mode sits at alpha near 5e20, where
        # the L8 curvature in alpha rounds to 0: a stated refusal, from the
        # library and the CLI alike, not a ZeroDivisionError
        obs = near_proportional_observation(1e-8)
        message = "no curvature in alpha .* too close to proportional"
        with pytest.raises(ValueError, match=message):
            infer_profile(obs, summarize(obs))
        path = tmp_path / "near.json"
        write_observation(obs, path)
        assert cli.main(["infer", "--in", str(path), "--method", "profile"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: profile likelihood L8 ")
        assert err.count("\n") == 1

    def test_profile_envelope_below_its_mode(self, capsys, tmp_path):
        # draw 62 of the near-proportional probe (M = 19, spread 1.6e-8):
        # every probe within reach of the envelope's top lies below the
        # mode, rounding noise at alpha near 1e20, so no panel lies above it
        obs = near_proportional_probe(62)
        with pytest.raises(ValueError, match="no mass above its mode .* too close to "
                                             "proportional"):
            infer_profile(obs, summarize(obs))
        path = tmp_path / "near.json"
        write_observation(obs, path)
        assert cli.main(["infer", "--in", str(path), "--method", "profile"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: the profile envelope has no mass ")
        assert err.count("\n") == 1


def near_proportional_probe(k):
    """Draw k (from 0) of a probe of near-proportional samples: d points
    with Dirichlet(1) base measure, M of them sampled, p = 2 x e^(eps z)
    with eps = 10^U(-9, 0), counts 1 + Poisson(1)."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        d = int(rng.integers(3, 41))
        x = rng.dirichlet(np.ones(d))
        m = int(rng.integers(2, d + 1))
        idx = np.sort(rng.choice(d, m, replace=False))
        eps = 10.0 ** rng.uniform(-9.0, 0.0)
        p = 2.0 * x[idx] * np.exp(eps * rng.standard_normal(m))
        counts = 1 + rng.poisson(1.0, m)
    return Observation(domain_size=d, x=x, indices=idx, p_obs=p, counts=counts)


def tiny_atom_observation():
    """Two of three points sampled, p close to proportional (spread
    8.6e-5, Y = 7.2e-4): the Bayes alpha nodes span 9e-14 .. 1e9, so the
    smallest atoms have a = alpha Y near 7e-17, where b / (a + b) rounds
    to 1."""
    x = np.array([0.0319, 0.9674, 7.24e-4])
    return Observation(domain_size=3, x=x / np.sum(x), indices=np.arange(2),
                       p_obs=np.array([0.06371370748416898, 1.9348483165809187]),
                       counts=np.array([3, 2]))


def bayes_gate_observation(case):
    """The samples of the Bayes law's exactness gates: four fixtures, a
    Gamma-Poisson draw with M = 197, masses spanning 1e-200 .. 1e200 and
    atoms with a near 7e-17."""
    if case == "wide":
        return wide_observation()
    if case in ("spread", "tiny_atoms"):
        obs = spread_observation() if case == "spread" else tiny_atom_observation()
        return obs, summarize(obs)
    return fixture_observation(case)


def mixture_cdf(law, w):
    """sum_j w_j I_s(a_j, b_j) at s = W / (V + W), by scipy's betainc on
    every atom: no table and no solver of the package."""
    w = np.asarray(w, dtype=float)
    s = w / (law.scale + w)
    atoms = law.law
    return betainc(atoms.a[:, None], atoms.b[:, None], s[None, :]).T @ atoms.weights


def write_observation(obs, path):
    path.write_text(json.dumps({
        "domain_size": int(obs.domain_size), "x": obs.x.tolist(),
        "entries": [{"i": int(i), "p": float(p), "c": int(c)}
                    for i, p, c in zip(obs.indices, obs.p_obs, obs.counts)]}))


def run_infer(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


BAYES_GATE = ["gt_example", "regular_small", "regular_large", "all_singletons", "wide", "spread",
              "tiny_atoms"]


@pytest.mark.parametrize("case", BAYES_GATE)
class TestBayesTable:
    """The Bayes law's quantiles, mass check and CSV rows against the exact
    mixture CDF.  On the 1e-200 .. 1e200 sample 0.245 of the mass lies
    where s = W / Z is below the smallest normal float; its 5% quantile is
    the underflow threshold, and the CSV's CDF jumps there once."""

    def test_quantiles_are_exact(self, case):
        obs, st = bayes_gate_observation(case)
        law = infer_bayes(obs, st).w_dist
        outside = betainc(law.law.a, law.law.b, np.finfo(float).tiny) @ law.law.weights
        assert (outside > 0.2) == (case == "spread")
        levels = LEVELS[LEVELS > outside]
        assert np.max(np.abs(mixture_cdf(law, law.quantile(levels)) - levels)) < 1e-12

    def test_mass_check(self, case):
        diag = infer_bayes(*bayes_gate_observation(case)).diagnostics
        assert abs(diag["mass_check"] - 1.0) < 1e-12
        assert 0.0 <= diag["mass_check_worst"] < 1e-12

    def test_quantiles_do_not_depend_on_history(self, case):
        # each level asked first of a fresh law, after the other levels,
        # and inside an array: the same bits
        obs, st = bayes_gate_observation(case)
        first = [infer_bayes(obs, st).w_dist.quantile(q) for q in LEVELS]
        law = infer_bayes(obs, st).w_dist
        after = [law.quantile(q) for q in LEVELS[::-1]][::-1]
        assert first == after == law.quantile(LEVELS).tolist()

    def test_csv_rows_are_exact_and_repeat(self, case, tmp_path):
        obs, st = bayes_gate_observation(case)
        write_observation(obs, tmp_path / "obs.json")
        outputs = []
        for name in ("a.csv", "b.csv"):
            stdout = run_infer(["infer", "--in", str(tmp_path / "obs.json"), "--method",
                                "bayes", "--out-csv", str(tmp_path / name)])
            outputs.append((stdout, (tmp_path / name).read_bytes()))
        assert outputs[0] == outputs[1]
        rows = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1)
        law = infer_bayes(obs, st).w_dist
        np.testing.assert_allclose(law.cdf(rows[:, 0]), rows[:, 2], rtol=0.0, atol=1e-15)
        assert np.all(np.diff(rows[:, 0]) > 0) and np.all(np.diff(rows[:, 2]) >= 0)
        assert np.sum(np.diff(rows[:, 2]) > 1.0 / 200.0) == (case == "spread")


class TestBayesCost:
    # counts, not timings: CDF passes over the mixture's atoms (one _cdf_s
    # call each) and betaincinv calls during infer_bayes plus one array call
    # for the five reported quantiles
    @pytest.mark.parametrize("case, passes", [("gt_example", 12), ("wide", 9)])
    def test_cdf_passes(self, case, passes, monkeypatch):
        obs, st = bayes_gate_observation(case)
        calls = collections.Counter()
        cdf_s, inverse = distributions._BetaAtoms._cdf_s, distributions.betaincinv

        def counted_cdf_s(self, s):
            calls["cdf_s"] += 1
            return cdf_s(self, s)

        def counted_inverse(*args):
            calls["betaincinv"] += 1
            return inverse(*args)

        monkeypatch.setattr(distributions._BetaAtoms, "_cdf_s", counted_cdf_s)
        monkeypatch.setattr(distributions, "betaincinv", counted_inverse)
        infer_bayes(obs, st).w_dist.quantile(LEVELS)
        assert calls["betaincinv"] == 0
        assert 0 < calls["cdf_s"] <= passes

    def test_atoms_near_zero_keep_a_small_table(self):
        # where b / (a + b) rounds to 1, log1p(q expm1(-d)) would be
        # log1p(-1) = -inf: the density would be inf there, and the table
        # would bisect without end
        law = infer_bayes(*bayes_gate_observation("tiny_atoms")).w_dist.law
        assert np.min(law.a) < 1e-16 and np.max(law.b / (law.a + law.b)) == 1.0
        assert len(law.table()[0]) < 100


def record_alphas(monkeypatch, name):
    """The alpha values, one entry per array element, at which the
    inference module evaluates its function ``name``."""
    alphas = []
    fn = getattr(inference, name)

    def counted(*args, **kw):
        alphas.extend(np.ravel(args[-1]).tolist())
        return fn(*args, **kw)

    monkeypatch.setattr(inference, name, counted)
    return alphas


class TestAlphaWork:
    # counts, not timings: log L5 values of the Bayes route (its alpha scan
    # reads slopes only), and the profile's curvature and slope passes
    @pytest.mark.parametrize("case, most", [("wide", 262), ("gt_example", 400)])
    def test_bayes_log_l5_evaluations(self, case, most, monkeypatch):
        obs, st = bayes_gate_observation(case)
        alphas = record_alphas(monkeypatch, "log_L5")
        rep = infer_bayes(obs, st)
        assert rep.diagnostics["alpha_nodes"] < len(alphas) <= most

    @pytest.mark.parametrize("case", ["wide", "gt_example", "regular_small"])
    def test_profile_reads_one_slope_column(self, case, monkeypatch):
        # no curvature on the grid: the one curvature is the width's at the
        # mode, and the array slope calls are the L9 scan, the L8 column and
        # at most 13 secant passes of the envelope (12 on each sample)
        obs, st = bayes_gate_observation(case)
        curvatures = record_alphas(monkeypatch, "d2log_dalpha2")
        slope, passes_made = inference.dlog_dalpha, []

        def counted_slope(which, s, alpha, **kw):
            if np.size(alpha) > 1:
                passes_made.append(which)
            return slope(which, s, alpha, **kw)

        monkeypatch.setattr(inference, "dlog_dalpha", counted_slope)
        rep = infer_profile(obs, st)
        assert curvatures == [rep.alpha_summary]
        assert passes_made[0] == "L9" and set(passes_made[1:]) == {"L8"}
        assert len(passes_made) - 2 <= 13


class TestBayesAlphaMode:
    @pytest.mark.parametrize("case", ["gt_example", "regular_small", "regular_large"])
    def test_mode_is_a_root_of_the_posterior_slope(self, case):
        # d/dt log(L5 / alpha) = alpha dlogL5/dalpha - 1 vanishes at the mode
        obs, st = fixture_observation(case)
        alpha = infer_bayes(obs, st).alpha_summary
        assert abs(alpha * dlog_dalpha("L5", st, alpha) - 1.0) < 1e-8

    def test_one_slope_scan(self, monkeypatch):
        # every route scans its alpha slope once on the shared grid: Bayes
        # reads the maximum-likelihood alpha and the posterior mode off one
        # L5 scan, and the profile calls no log L9 on the grid (its one
        # column is the L8 slope at W = V)
        obs, st = fixture_observation("regular_small")
        scans = record_grid_calls(monkeypatch)
        for route, expected in [(lambda: infer_bayes(obs, st), ["L5"]),
                                (lambda: infer_profile(obs, st), ["L9"]),
                                (lambda: infer_mixed(obs, st, "L5"), ["L5"]),
                                (lambda: infer_mixed(obs, st, "L9"), ["L9"]),
                                (lambda: moment_match(obs, st, "MLE"), ["L11"])]:
            scans.clear()
            route()
            assert scans == expected


def record_grid_calls(monkeypatch):
    """Record the alpha-array calls of dlog_dalpha without W (by likelihood
    name) and of log_L9 (as "log_L9") that the inference module makes."""
    calls = []
    slope, log_l9 = inference.dlog_dalpha, inference.log_L9

    def counted_slope(which, s, alpha, **kw):
        if np.size(alpha) > 1 and kw.get("w") is None:
            calls.append(which)
        return slope(which, s, alpha, **kw)

    def counted_log_l9(s, alpha):
        if np.size(alpha) > 1:
            calls.append("log_L9")
        return log_l9(s, alpha)

    monkeypatch.setattr(inference, "dlog_dalpha", counted_slope)
    monkeypatch.setattr(inference, "log_L9", counted_log_l9)
    return calls


class TestSolverWork:
    @pytest.mark.parametrize("name", ["gt_example", "regular_small", "regular_large"])
    def test_one_scan_and_few_slope_evaluations(self, name, monkeypatch):
        # mixed (L5, L9) and the plain MLE each scan the slope once, then
        # refine each local maximum in at most 12 scalar slope evaluations
        obs, st = fixture_observation(name)
        maxima = {which: len(alpha_slope_maxima(which, st)[2])
                  for which in ("L5", "L9", "L11")}
        scans = record_grid_calls(monkeypatch)
        for which in ("L5", "L9", "L11"):
            scans.clear()
            if which == "L11":
                diag = moment_match(obs, st, "MLE").diagnostics
                assert diag["n_local_maxima"] == maxima[which]
            else:
                diag = infer_mixed(obs, st, which).diagnostics
            assert scans == [which]
            assert maxima[which] >= 1
            assert 0 < diag["evals"] <= 12 * maxima[which]


SEEDED_SAMPLES = ["all_singletons", "dataset_model_draw", "delta_s_zero", "full_coverage",
                  "gt_example", "regular_large", "regular_small", "single_point", "distinct9"]


def seeded_sample(name):
    """A fixture, or "distinct9": nine distinct x over 30 points."""
    if name == "distinct9":
        obs = random_observation(np.random.default_rng(20250808), d=30, m=9, extra_counts=5)
        st = summarize(obs)
        assert len(st.x_values) == 9
        return obs, st
    return fixture_observation(name)


@pytest.mark.parametrize("name", SEEDED_SAMPLES)
class TestSeededRootFinds:
    """The alpha root finds start from the scan's values at their bracket
    ends (solve_root's f_bracket), so a scalar evaluation at a grid point
    must be the scan's entry bit for bit."""

    def test_scalar_evaluations_are_the_scan_entries(self, name, monkeypatch):
        _, st = seeded_sample(name)
        grid = inference._SLOPE_SCAN_ALPHA
        # (scan on the grid, the same quantity at one t = log alpha) per
        # seeded site: the alpha searches of mixed, the plain MLE and the
        # Bayes alpha-MLE, the Bayes mode (the L5 slope shifted by the
        # 1/alpha prior), the Bayes window's log L5 and the profile mode
        sites = {which: (dlog_dalpha(which, st, grid),
                         lambda t, which=which: dlog_dalpha(which, st, math.exp(t)))
                 for which in ("L5", "L9", "L11")}
        sites["L5 mode"] = (dlog_dalpha("L5", st, grid) - 1.0 / grid,
                            lambda t: dlog_dalpha("L5", st, math.exp(t)) - 1.0 / math.exp(t))
        sites["log L5"] = (log_L5(st, grid), lambda t: float(log_L5(st, math.exp(t))))
        if st.Y > 0.0:
            # the slope scan and scalar slope that _profile_mode hands to the
            # alpha search
            search, handed = inference._scan_maximum, []

            def recorded(slopes, slope, value):
                handed.append((slopes, slope))
                return search(slopes, slope, value)

            monkeypatch.setattr(inference, "_scan_maximum", recorded)
            inference._profile_mode(st, inference._profile_column(st))
            sites["profile mode"] = handed[0]
        for k, t in enumerate(inference._SLOPE_SCAN_T):
            assert math.exp(t) == grid[k]
            for site, (scan, scalar) in sites.items():
                assert scalar(t) == scan[k], (site, k)

    def test_seeded_root_finds_skip_the_bracket_ends(self, name, monkeypatch):
        obs, st = seeded_sample(name)
        real, seeded = inference.solve_root, []

        def spy(f, bracket, f_bracket=None):
            points = []

            def counted(t):
                points.append(t)
                return f(t)

            root = real(counted, bracket, f_bracket)
            if f_bracket is not None:
                seeded.append(bracket)
                assert not set(points) & set(bracket)
                assert [f(end) for end in bracket] == list(f_bracket)
            return root

        monkeypatch.setattr(inference, "solve_root", spy)
        infer_mixed(obs, st, "L5")
        infer_mixed(obs, st, "L9")
        moment_match(obs, st, "MLE")
        with contextlib.suppress(ValueError):
            infer_bayes(obs, st)
        with contextlib.suppress(ValueError):
            infer_profile(obs, st)
        if not (st.is_proportional or st.Y == 0.0):
            assert seeded


def spread_observation():
    """Masses 1e-200, 1 and 1e200 on three of five equal-x points."""
    return Observation(domain_size=5, x=np.full(5, 0.2), indices=np.array([0, 1, 2]),
                       p_obs=np.array([1e-200, 1.0, 1e200]), counts=np.array([1, 1, 1]))


class TestProfile:
    def test_inner_problem_unimodal(self):
        _, obs, st = model_observation(1)
        w = st.V * 0.5
        grid = np.exp(np.linspace(-6, 8, 200))
        slopes = dlog_dalpha("L8", st, grid, w=w)
        changes = np.sum(np.diff(np.sign(slopes)) != 0)
        assert changes == 1

    def test_mode_agreement_with_bayes(self):
        # compare density-per-unit-log-W modes: the profile law's is its
        # centre, the Bayes mixture's the maximum on a dense log-W grid; the
        # W-space density is singular at the origin whenever small alpha
        # carries weight
        _, obs, st = model_observation(3, d=40, alpha=8.0, lam=30.0)
        rb = infer_bayes(obs, st)
        rp = infer_profile(obs, st)
        profile_mode = st.V * math.exp(rp.w_dist.law.center)
        grid = np.exp(np.linspace(*np.log(rp.w_dist.quantile(np.array([1e-3, 1 - 1e-3]))),
                                  20_001))
        bayes_mode = grid[np.argmax(rb.w_dist.log_pdf(grid) + np.log(grid))]
        assert profile_mode == pytest.approx(bayes_mode, rel=0.1)

    def test_envelope_reaches_grid_maximum(self):
        # the polished sup over alpha of the per-u log density at every node
        # of the profile law is no lower than the maximum over a dense
        # log-alpha grid, log L9 - log B(a, b) + a u - (a + b) softplus(u)
        _, obs, st = model_observation(2)
        law = infer_profile(obs, st).w_dist.law
        u = LogScaleDist.nodes(law.center, law.width, law.edges, law.log_density.shape[-1])
        polished, u = law.log_density.ravel(), u.ravel()
        alphas = np.exp(np.linspace(*ALPHA_T_BOUNDS, 40_001))[:, None]
        a, b = alphas * st.Y, alphas * st.X + st.N
        column = log_L9(st, alphas) - betaln(a, b)
        for k in range(0, len(u), 25):
            block = u[None, k:k + 25]
            dense = np.max(column + a * block - (a + b) * np.logaddexp(0.0, block), axis=0)
            assert np.all(polished[k:k + 25] >= dense - 1e-9)

    def test_normalized_by_own_quadrature(self):
        # the law's mass: its panels' Gauss-Legendre sums of the density at
        # the nodes plus the analytic tail, e^(M v) in v through the first
        # node; its CDF at every panel edge is that running sum
        _, obs, st = model_observation(2)
        view = infer_profile(obs, st).w_dist
        law = view.law
        x, w = np.polynomial.legendre.leggauss(law.log_density.shape[-1])
        half = 0.5 * np.diff(law.edges)[:, None]
        v = 0.5 * (law.edges[1:] + law.edges[:-1])[:, None] + half * x
        # density in v: the density of u times du/dv = width cosh v
        dens_v = np.exp(law.log_density - np.max(law.log_density)) * law.width * np.cosh(v)
        panels = np.sum(half * w * dens_v, axis=1)
        tail = dens_v[0, 0] * math.exp(st.M * (law.edges[0] - v[0, 0])) / st.M
        total = tail + np.sum(panels)
        assert law.tail_mass == pytest.approx(tail / total, rel=1e-12)
        w_edges = st.V * np.exp(law.center + law.width * np.sinh(law.edges))
        cumulative = (tail + np.concatenate([[0.0], np.cumsum(panels)])) / total
        # the edges where W is a positive float
        representable = w_edges > 0.0
        assert np.sum(representable) >= len(panels) // 2
        np.testing.assert_allclose(view.cdf(w_edges[representable]), cumulative[representable],
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ["regular_small.json", "regular_large.json"])
    def test_w_over_z_is_the_transformed_w_law(self, name):
        # Z = V + W at the median, and the W/Z mean of the same law of u;
        # the quantiles of all three views are test_views_of_one_law's
        obs = load_observation(fixture_path(name))
        st = summarize(obs)
        rep = infer_profile(obs, st)
        np.testing.assert_allclose(rep.z_dist.quantile(0.5), st.V + rep.w_dist.quantile(0.5),
                                   rtol=1e-15)
        assert 0.0 < rep.w_over_z_dist.mean < 1.0

    def test_w_over_z_across_the_float_range(self):
        # masses 1e-200 .. 1e200: the W/Z q05 is about e^-1208, 0 in
        # float64, and the law of u holds it exactly
        obs = spread_observation()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = infer_profile(obs, summarize(obs))
            wz = rep.w_over_z_dist
            values = [wz.mean] + [wz.quantile(q) for q in (0.05, 0.5, 0.95)]
            u_05 = wz.law.u_quantile(0.05)
        assert np.all(np.isfinite(values))
        assert u_05 == pytest.approx(-1208.0, abs=2.0)
        assert values[1] == expit(u_05)
        assert values[1] <= values[2] < values[3] < 1.0
        assert math.isfinite(rep.w_dist.mean)

    def test_tiny_unsampled_base_measure(self):
        # Y = 1e-11 spreads the law of u over ~1e5 nats; its panels reach u
        # where e^u overflows, yet the W mean, taken in log space, is finite
        x = np.array([0.6, 0.4 - 1e-11, 1e-11])
        obs = Observation(domain_size=3, x=x, indices=np.array([0, 1]),
                          p_obs=np.array([2.0, 7.0]), counts=np.array([3, 2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = infer_profile(obs, summarize(obs))
            means = [rep.w_dist.mean, rep.w_over_z_dist.mean]
        law = rep.w_dist.law
        assert law.center + law.width * math.sinh(law.edges[-1]) > 710.0
        assert all(math.isfinite(m) and m > 0.0 for m in means)


def profile_gate_samples():
    """The samples of the profile law's exactness gates: three fixtures, a
    Gamma-Poisson draw with M = 193 over 20 000 equal points, and masses
    spanning 1e-200 .. 1e200."""
    samples = {name: load_observation(fixture_path(name + ".json"))
               for name in ("gt_example", "regular_small", "regular_large")}
    x = np.full(20_000, 1.0 / 20_000)
    samples["gamma_poisson"] = simulate_model(x, ModelParams(2000.0, 1.0, 0.1), "p-c",
                                              rng_seed=2).observe()
    samples["spread"] = spread_observation()
    return samples


PROFILE_GATE = profile_gate_samples()
LEVELS = np.array([0.05, 0.25, 0.5, 0.75, 0.95])


@pytest.mark.parametrize("name", list(PROFILE_GATE))
class TestProfileExactness:
    def report(self, name):
        obs = PROFILE_GATE[name]
        st = summarize(obs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return st, infer_profile(obs, st)

    def test_quantiles_against_quadrature_of_the_envelope(self, name):
        # the law's CDF at its reported quantiles, against scipy's quad of
        # the envelope between them (the package imports no scipy.integrate)
        st, rep = self.report(name)
        law = rep.w_dist.law
        column = inference._profile_column(st)
        top = float(np.max(law.log_density))

        def density(u):
            return math.exp(inference._profile_envelope(st, column, np.array([u]))[1][0] - top)

        cuts = [-np.inf, *law.u_quantile(LEVELS), np.inf]
        pieces = [integrate.quad(density, a, b, epsabs=0.0, epsrel=1e-11, limit=400)[0]
                  for a, b in zip(cuts[:-1], cuts[1:])]
        cdf = np.cumsum(pieces)[:-1] / np.sum(pieces)
        assert np.max(np.abs(cdf - LEVELS)) < 1e-6

    def test_doubling_the_panels(self, name, monkeypatch):
        st, rep = self.report(name)
        lower, upper = inference._PROFILE_PANELS
        monkeypatch.setattr(inference, "_PROFILE_PANELS", (2 * lower, 2 * upper))
        _, fine = self.report(name)
        np.testing.assert_allclose(fine.w_dist.law.u_quantile(LEVELS),
                                   rep.w_dist.law.u_quantile(LEVELS), rtol=0.0, atol=1e-8)
        for law, fine_law in ((rep.w_dist, fine.w_dist),
                              (rep.w_over_z_dist, fine.w_over_z_dist)):
            assert fine_law.mean == pytest.approx(law.mean, rel=1e-8)
            np.testing.assert_allclose(fine_law.quantile(LEVELS), law.quantile(LEVELS),
                                       rtol=1e-8)


def test_profile_panels_resolve_steep_flanks(monkeypatch):
    # small uneven samples whose envelope has a steep upper flank near
    # u = logit(Y): with the coarse panels halved, doubling the panels
    # moves no quantile by more than 1e-8 (9.3e-3 at 60 draws with a fixed
    # layout, on the 53rd)
    rng = np.random.default_rng(12345)
    draws = [random_observation(rng) for _ in range(60)]
    lower, upper = inference._PROFILE_PANELS
    moves = []
    for obs in draws:
        st = summarize(obs)
        base = infer_profile(obs, st).w_dist.law.u_quantile(LEVELS)
        monkeypatch.setattr(inference, "_PROFILE_PANELS", (2 * lower, 2 * upper))
        fine = infer_profile(obs, st).w_dist.law.u_quantile(LEVELS)
        monkeypatch.setattr(inference, "_PROFILE_PANELS", (lower, upper))
        moves.append(np.max(np.abs(fine - base)))
    assert max(moves) < 1e-8


class TestEquivariance:
    @pytest.mark.parametrize("method", ["mixed", "bayes", "profile"])
    def test_mass_rescaling_scales_quantiles(self, method):
        # p -> k p scales every W quantile by k, k spanning the float range
        _, obs, st = model_observation(1, d=20, alpha=4.0, lam=8.0)
        fn = {"mixed": infer_mixed, "bayes": infer_bayes,
              "profile": infer_profile}[method]
        rep = fn(obs, st)
        for k in (3.0, 1e-100, 1e100):
            scaled_obs = Observation(domain_size=obs.domain_size, x=obs.x,
                                     indices=obs.indices, p_obs=k * obs.p_obs,
                                     counts=obs.counts)
            rep_s = fn(scaled_obs, summarize(scaled_obs))
            for q in (0.1, 0.5, 0.9):
                assert rep_s.w_dist.quantile(q) == pytest.approx(
                    k * rep.w_dist.quantile(q), rel=1e-10)
                # W/Z = W / (V + W) does not move
                assert rep_s.w_over_z_dist.quantile(q) == pytest.approx(
                    rep.w_over_z_dist.quantile(q), rel=1e-10)
            assert rep_s.w_over_z_dist.mean == pytest.approx(rep.w_over_z_dist.mean, rel=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), d=hs.integers(3, 30),
       extra_counts=hs.integers(0, 12), log10_k=hs.floats(-100.0, 100.0))
def test_mixed_route_is_equivariant(seed, d, extra_counts, log10_k):
    # p -> k p keeps alpha and scales every W quantile by k, on both bases
    rng = np.random.default_rng(seed)
    obs = random_observation(rng, d=d, m=int(rng.integers(1, d)), extra_counts=extra_counts)
    k = 10.0 ** log10_k
    scaled = Observation(domain_size=obs.domain_size, x=obs.x, indices=obs.indices,
                         p_obs=k * obs.p_obs, counts=obs.counts)
    for base in ("L5", "L9"):
        rep = infer_mixed(obs, summarize(obs), base)
        rep_k = infer_mixed(scaled, summarize(scaled), base)
        assert rep_k.singular_case == rep.singular_case
        assert rep_k.alpha_summary == pytest.approx(rep.alpha_summary, rel=1e-10)
        np.testing.assert_allclose(rep_k.w_dist.quantile(LEVELS),
                                   k * rep.w_dist.quantile(LEVELS), rtol=1e-10, atol=0.0)


ROUTES = {"bayes": infer_bayes, "profile": infer_profile, "mixed": infer_mixed}


@pytest.mark.parametrize("case", ["regular_small", "regular_large"])
@pytest.mark.parametrize("route", list(ROUTES))
def test_views_of_one_law(route, case):
    # W, Z = V + W and W/Z = W / (V + W) are three views of one law of u
    obs, st = fixture_observation(case)
    rep = ROUTES[route](obs, st)
    w, z, w_over_z = rep.w_dist, rep.z_dist, rep.w_over_z_dist
    assert w.law is z.law is w_over_z.law
    w_q = w.quantile(LEVELS)
    assert z.quantile(LEVELS).tolist() == (st.V + w_q).tolist()
    assert [z.quantile(q) for q in LEVELS] == [st.V + w.quantile(q) for q in LEVELS]
    np.testing.assert_allclose(w_over_z.quantile(LEVELS), w_q / (st.V + w_q),
                               rtol=1e-12, atol=0.0)
    assert z.mean == st.V + w.mean
    for view in (w, z, w_over_z):
        np.testing.assert_allclose(view.cdf(view.quantile(LEVELS)), LEVELS, rtol=0.0, atol=1e-12)
