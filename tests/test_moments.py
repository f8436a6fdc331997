import json
import math
import sys

import numpy as np
import pytest

from conftest import FIXTURES, fixture_path, proportional_observation
from missmass import cli, inference, moments, simulate
from missmass.data import Observation, load_observation, summarize
from missmass.distributions import GammaDist
from missmass.estimators import rb_poisson_lambda
from missmass.inference import mle_alpha
from missmass.likelihoods import ModelParams, dlog_dalpha
from missmass.moments import (_ALPHA_SCAN, _distinct, _match_outer_alpha,
                              _solve_b_rho, _solve_c_b, match_A, match_B,
                              match_C, mle_full, moment_match)
from missmass.simulate import simulate_model
from missmass.solvers import solve_root
from missmass.verify import random_observation


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
        slope = dlog_dalpha("L11", st, p.alpha)
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

    def test_parameter_recovery_away_from_b_one(self):
        # the U equation carries E(X) log b; with log b alone in its place
        # the median fitted (alpha, b) here was (0.63, 1.11)
        fits = []
        for seed in range(40):
            obs, st = model_observation(200 + seed, d=300, alpha=3.0, b=5.0, lam=200.0)
            res = match_A(obs, st)
            if res.ok:
                fits.append((res.params.alpha, res.params.b))
        assert len(fits) >= 30
        alpha, b = np.median(fits, axis=0)
        assert alpha == pytest.approx(3.0, rel=0.25)
        assert b == pytest.approx(5.0, rel=0.25)

    def test_single_point_sample(self):
        # M = 1: the U residual does not change sign on the scan
        obs = load_observation(fixture_path("single_point.json"))
        res = match_A(obs, summarize(obs))
        assert res.params is None
        assert res.diagnostics["status"] == "no-root"


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
        alphas = np.array([0.5, 2.0, 11.0])
        bs, rhos = _solve_b_rho(*_distinct(obs.x_obs), alphas, st.N, st.V,
                                {"evals": 0})
        for alpha, b, rho in zip(alphas, bs, rhos):
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rate_past_the_float_range(self):
        # lambda = N / Z = 2e308 overflows, which is not the lambda = 0 of
        # an all-singleton sample
        obs = Observation(domain_size=5, x=np.full(5, 0.2), indices=np.arange(3),
                          p_obs=1e-306 * np.array([1.0, 2.0, 3.0]), counts=[400] * 3)
        res = match_C(obs, summarize(obs))
        assert res.params is None
        assert res.diagnostics["status"] == "lambda_overflow"


class TestSubnormalBaseMeasure:
    # x(0) = 5e-324 is a positive base measure, but alpha x(0) underflows to
    # 0 at every alpha <= 1/2, where digamma(alpha x(0)) has its pole
    X = [5e-324, 0.5, 0.5]

    def _obs(self):
        return Observation(domain_size=3, x=np.array(self.X), indices=np.array([0, 1]),
                           p_obs=np.array([1.0, 2.0]), counts=np.array([2, 1]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", [match_A, match_B, match_C, inference.infer_bayes,
                                       inference.infer_profile, inference.infer_mixed])
    def test_routes_refuse(self, route):
        obs = self._obs()
        with pytest.raises(ValueError, match="^digamma requires a positive argument$"):
            route(obs, summarize(obs))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cli_refuses(self, capsys, tmp_path):
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"domain_size": 3, "x": self.X, "entries": [
            {"i": 0, "p": 1.0, "c": 2}, {"i": 1, "p": 2.0, "c": 1}]}))
        code = cli.main(["infer", "--in", str(path), "--method", "moment-match",
                         "--strategy", "B"])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (
            1, "", "error: digamma requires a positive argument\n")


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
        mixed_alpha, _ = mle_alpha(st, "L5")
        res = match_B(obs, st)
        if res.ok and len(res.diagnostics["alpha_roots"]) > 1:
            picked = res.params.alpha
            dists = [abs(math.log(r / mixed_alpha))
                     for r in res.diagnostics["alpha_roots"]]
            assert abs(math.log(picked / mixed_alpha)) == pytest.approx(min(dists))


def five_valued_observation(seed=3):
    """M = 189, N = 197 over 20 000 points whose base measure takes five
    distinct values."""
    x = 1.0 + np.arange(20_000) % 5
    x /= x.sum()
    ds = simulate_model(x, ModelParams(2000.0, 1.0, 0.1), "p-c", rng_seed=seed)
    obs = ds.observe()
    return obs, summarize(obs)


def conditional_n_and_v_times_b(x_s, alpha, rho):
    """E(N | S) and b E(V | S) of strategy B, summed point by point."""
    a = alpha * x_s
    log1p_rho = math.log1p(rho)
    denom = -np.expm1(-a * log1p_rho)
    return (float(np.sum(rho * a / denom)),
            float(np.sum(a * -np.expm1(-(a + 1.0) * log1p_rho) / denom)))


class TestArrayInnerSolves:
    def test_b_and_c_meet_their_equations_at_every_scan_alpha(self):
        obs, st = five_valued_observation()
        assert st.M == 189
        values, counts = _distinct(obs.x_obs)
        assert len(values) == 5
        bs, rhos = _solve_b_rho(values, counts, _ALPHA_SCAN, st.N, st.V, {"evals": 0})
        lam = rb_poisson_lambda(obs)
        bs_c = _solve_c_b(values, counts, _ALPHA_SCAN, lam, st.V, {"evals": 0})
        for alpha, b, rho, b_c in zip(_ALPHA_SCAN, bs, rhos, bs_c):
            en, v_times_b = conditional_n_and_v_times_b(obs.x_obs, alpha, rho)
            assert en == pytest.approx(st.N, rel=1e-9)
            assert v_times_b / b == pytest.approx(st.V, rel=1e-9)
            _, v_times_b = conditional_n_and_v_times_b(obs.x_obs, alpha, lam / b_c)
            assert v_times_b / b_c == pytest.approx(st.V, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_bracket_failures_raise(self):
        # N < M: E(N | S) exceeds N for every rho, so no rho bracket exists
        with pytest.raises(ValueError, match="could not bracket rho"):
            _solve_b_rho(*_distinct(np.array([0.1, 0.2, 0.3])), np.array([0.5, 2.0]),
                         2, 1.0, {"evals": 0})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_c_brackets_b_over_the_float_range(self):
        # alpha X far below M e^-40 with lambda / b overflowing: b E(V | S)
        # is alpha X, so b = alpha X / V = e^-617
        alpha = math.exp(-7.0)
        b = _solve_c_b(*_distinct(np.array([1e-16, 2e-16, 3e-16])), np.array([alpha]),
                       1e200, 1e250, {"evals": 0})
        assert b[0] == pytest.approx(alpha * 6e-16 / 1e250, rel=1e-12)
        # at V = 1e-306, b lies in [alpha X, alpha X + M] / V: in the float
        # range for alpha = 1, past its maximum for alpha = 8000, where b is nan
        b = _solve_c_b(*_distinct(np.full(3, 0.2)), np.array([1.0, 8000.0]), 1e306, 1e-306,
                       {"evals": 0})
        _, v_times_b = conditional_n_and_v_times_b(np.full(3, 0.2), 1.0, 1e306 / b[0])
        assert v_times_b / b[0] == pytest.approx(1e-306, rel=1e-9)
        assert math.isnan(b[1])

    def test_solver_work_counter(self):
        # the nested scalar root finds these array passes replaced made 4081
        # (B) and 4673 (C) inner plus outer residual evaluations here
        obs = load_observation(fixture_path("regular_large.json"))
        st = summarize(obs)
        for strategy, nested in (("B", 4081), ("C", 4673)):
            res = moment_match(obs, st, strategy)
            assert res.ok
            assert 0 < res.diagnostics["evals"] < 0.1 * nested
        assert moment_match(obs, st, "A").diagnostics["evals"] > 0

    def test_solver_work_bound(self):
        # 35 / 239 / 306 evaluations when solve_root bisected every other step
        obs = load_observation(fixture_path("regular_large.json"))
        st = summarize(obs)
        for strategy, bound in (("A", 15), ("B", 100), ("C", 110)):
            res = moment_match(obs, st, strategy)
            assert res.ok
            assert res.diagnostics["evals"] <= bound

    def test_single_root_skips_mixed_alpha(self, monkeypatch):
        def unused(*args):
            raise AssertionError("mle_alpha called with one root to pick from")

        monkeypatch.setattr("missmass.moments.mle_alpha", unused)
        obs = load_observation(fixture_path("regular_large.json"))
        st = summarize(obs)
        for strategy in ("A", "B", "C"):
            res = moment_match(obs, st, strategy)
            assert res.ok and len(res.diagnostics["alpha_roots"]) == 1


class TestOuterAlpha:
    LOG_ROOTS = (-3.3, 1.7, 6.1)  # between scan points

    def residual(self, alpha):
        t = np.log(alpha)
        return np.prod([t - r for r in self.LOG_ROOTS], axis=0)

    @pytest.mark.parametrize("mixed_alpha, picked", [
        (math.exp(1.0), 1.7), (math.exp(-6.0), -3.3), (math.exp(5.0), 6.1),
        (math.inf, 6.1)])
    def test_every_root_reported_and_closest_picked(self, mixed_alpha, picked):
        diag = {}
        alpha = _match_outer_alpha(self.residual, self.residual(_ALPHA_SCAN),
                                   lambda: mixed_alpha, diag)
        assert diag["alpha_roots"] == pytest.approx(np.exp(self.LOG_ROOTS), rel=1e-9)
        assert alpha == pytest.approx(math.exp(picked), rel=1e-9)

    def test_no_sign_change_is_no_root(self):
        diag = {}
        positive = lambda alpha: 1.0 + alpha
        assert _match_outer_alpha(positive, positive(_ALPHA_SCAN), lambda: 1.0,
                                  diag) is None
        assert diag["alpha_roots"] == []


def scan_samples():
    rng = np.random.default_rng(2501)
    return ([load_observation(str(p)) for p in sorted(FIXTURES.glob("*.json"))]
            + [random_observation(rng, d=int(rng.integers(6, 14))) for _ in range(12)])


class TestSeededRootFinds:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scan_entries_are_one_alpha_residuals(self, monkeypatch):
        # the root finds take their bracket ends from the scan, so a scan
        # entry must be what a one-alpha call returns, bit for bit
        seen = []

        def spy(u_residual, scan_values, *rest):
            seen.append((u_residual, scan_values))
            return _match_outer_alpha(u_residual, scan_values, *rest)

        monkeypatch.setattr(moments, "_match_outer_alpha", spy)
        for obs in scan_samples():
            st = summarize(obs)
            for strategy in ("A", "B", "C"):
                seen.clear()
                moment_match(obs, st, strategy)
                for u_residual, scan_values in seen:
                    for k in range(0, len(_ALPHA_SCAN), 4):
                        one = u_residual(_ALPHA_SCAN[k:k + 1])[0]
                        assert one == scan_values[k] or (
                            math.isnan(one) and math.isnan(scan_values[k])), (strategy, k)

    def test_root_finds_do_not_evaluate_the_scan_points(self, monkeypatch):
        calls = []

        def spy(f, bracket, f_bracket=None):
            assert f_bracket is not None

            def counted(a):
                calls.append(a)
                return f(a)

            return solve_root(counted, bracket, f_bracket)

        monkeypatch.setattr(moments, "solve_root", spy)
        obs = load_observation(fixture_path("regular_large.json"))
        st = summarize(obs)
        for strategy in ("A", "B", "C"):
            assert moment_match(obs, st, strategy).ok
        assert calls and not set(calls) & set(_ALPHA_SCAN)

    @pytest.mark.parametrize("fixture, strategy, bound", [
        ("regular_small", "A", 7), ("full_coverage", "B", 69), ("gt_example", "C", 49)])
    def test_evals(self, fixture, strategy, bound):
        # B and C took 85 and 63 when each root find evaluated its bracket
        # ends afresh
        obs = load_observation(fixture_path(f"{fixture}.json"))
        res = moment_match(obs, summarize(obs), strategy)
        assert res.ok
        assert res.diagnostics["evals"] <= bound


def simulate_functions_called(fn) -> set[str]:
    """The names of the functions of simulate.py that fn() calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == simulate.__file__:
            called.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return called


class TestOneCopyOfTheExpectations:
    def test_strategies_solve_the_formulas_expected_values_evaluates(self):
        obs = load_observation(fixture_path("regular_small.json"))
        st = summarize(obs)
        params = ModelParams(2.0, 3.0, 15.0)
        prior = simulate_functions_called(
            lambda: simulate.expected_values(obs.x, params, "prior"))
        given_s = simulate_functions_called(
            lambda: simulate.expected_values(obs.x, params, "given_s", s=obs.indices))
        assert prior == {"expected_values", "_prior_n_v", "_prior_u", "_row_sums"}
        assert given_s == {"expected_values", "_given_s_n", "_given_s_v_times_b",
                           "_given_s_u", "_row_sums"}
        for match, formulas in ((match_A, prior), (match_B, given_s), (match_C, given_s)):
            assert match(obs, st).ok
            assert simulate_functions_called(lambda: match(obs, st)) == formulas - {
                "expected_values"}
        assert not hasattr(moments, "digamma")


def equivariance_samples():
    rng = np.random.default_rng(2901)
    return ([load_observation(str(p)) for p in sorted(FIXTURES.glob("*.json"))]
            + [random_observation(rng, d=int(rng.integers(6, 14))) for _ in range(10)])


@pytest.mark.parametrize("strategy", ["B", "C", "MLE"])
def test_scale_equivariance(strategy):
    # under p -> k p, alpha and the verdict stay and b and lambda scale by
    # 1/k (A is not equivariant: U moves by X log k, the log b term of its
    # equation by E(X) log k)
    for obs in equivariance_samples():
        base = moment_match(obs, summarize(obs), strategy)
        for k in (2.0 ** 40, 2.0 ** -40, 1e100, 1e-100):
            scaled = Observation(domain_size=obs.domain_size, x=obs.x, indices=obs.indices,
                                 p_obs=k * obs.p_obs, counts=obs.counts)
            res = moment_match(scaled, summarize(scaled), strategy)
            assert res.diagnostics["status"] == base.diagnostics["status"], k
            if base.params is not None:
                assert res.params.alpha == pytest.approx(base.params.alpha, rel=1e-9)
                assert res.params.b * k == pytest.approx(base.params.b, rel=1e-9)
                assert res.params.lam * k == pytest.approx(base.params.lam, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy", ["B", "C", "MLE"])
@pytest.mark.parametrize("count, scales", [(2, (1e-306, 1e-300, 1e300, 1e307)),
                                           (400, (1e-300, 1e300, 1e307))])
def test_scale_equivariance_at_the_float_extremes(strategy, count, scales):
    # p = s (1, 2, 3): b and lambda near the float limits, and for C b
    # E(V | S) / b past them on the way to the bracket
    def fit(s):
        obs = Observation(domain_size=5, x=np.full(5, 0.2), indices=np.arange(3),
                          p_obs=s * np.array([1.0, 2.0, 3.0]), counts=[count] * 3)
        return moment_match(obs, summarize(obs), strategy)

    base = fit(1.0)
    assert base.ok
    for s in scales:
        res = fit(s)
        assert res.ok, s
        assert res.params.alpha == pytest.approx(base.params.alpha, rel=1e-9), s
        assert res.params.b * s == pytest.approx(base.params.b, rel=1e-9), s
        assert res.params.lam * s == pytest.approx(base.params.lam, rel=1e-9), s


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strategy", ["A", "B", "C", "MLE"])
def test_a_rate_past_the_float_range_is_one_verdict(strategy):
    # p = 1e-306 (1, 2, 3) with counts 400 puts N / V = 2e308 past the
    # largest double: every strategy answers as C does, without parameters
    obs = Observation(domain_size=5, x=np.full(5, 0.2), indices=np.arange(3),
                      p_obs=1e-306 * np.array([1.0, 2.0, 3.0]), counts=[400] * 3)
    res = moment_match(obs, summarize(obs), strategy)
    assert res.params is None and res.w_dist is None and not res.ok
    assert res.diagnostics["status"] == "lambda_overflow"
    assert res.diagnostics["reason"] == "lambda = N / Z passes the float range"
