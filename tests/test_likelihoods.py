import inspect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import gammaln, polygamma, psi

from conftest import random_observation
from missmass import inference, likelihoods
from missmass.data import TERM_RUNS, Observation, summarize
from missmass.inference import mle_alpha
from missmass.likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha,
                                  log_L2, log_L3, log_L4, log_L5, log_L8,
                                  log_L9, log_L11, stationary_b_lambda)
from missmass.moments import moment_match
from missmass.verify import (alpha_slope_maxima, beta_identity_gap,
                             integrate_semi_infinite, kl_delta)

mp.mp.dps = 50


@pytest.fixture
def obs(rng):
    return random_observation(rng, d=9, m=4, extra_counts=3)


@pytest.fixture
def stats(obs):
    return summarize(obs)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, math.inf)


class TestL2L3:
    def test_l2_integrates_to_l3(self, obs, stats):
        params = ModelParams(1.3, 0.8, 2.1)
        quad = integrate_semi_infinite(lambda w: log_L2(stats, w, params), stats.V)
        assert quad == pytest.approx(log_L3(stats, params), abs=1e-8)

    def test_unit_shape_exponent(self, rng):
        # alpha Y = 1 leaves only the exponential W factor
        obs = random_observation(rng, d=6, m=2)
        stats = summarize(obs)
        alpha = 1.0 / stats.Y
        params = ModelParams(alpha, 0.7, 1.4)
        w1, w2 = 0.5, 2.5
        diff = log_L2(stats, w2, params) - log_L2(stats, w1, params)
        assert diff == pytest.approx(-(params.b + params.lam) * (w2 - w1), rel=1e-12)

    def test_high_precision_recompute(self):
        # fixed toy observation, params (1, 1, 1), W = 1
        obs = Observation(domain_size=4, x=np.array([0.4, 0.3, 0.2, 0.1]),
                          indices=np.array([0, 2]), p_obs=np.array([2.0, 0.5]),
                          counts=np.array([2, 1]))
        st = summarize(obs)
        params = ModelParams(1.0, 1.0, 1.0)
        a = [mp.mpf("0.4"), mp.mpf("0.2")]
        y = mp.mpf(1) - mp.mpf("0.4") - mp.mpf("0.2")
        u = mp.mpf("0.4") * mp.log(2) + mp.mpf("0.2") * mp.log(mp.mpf("0.5"))
        v, w = mp.mpf("2.5"), mp.mpf(1)
        expected = (-mp.loggamma(a[0]) - mp.loggamma(a[1])
                    + (y - 1) * mp.log(w) - mp.loggamma(y)
                    + 3 * mp.log(1) + u - 2 * (v + w))
        assert log_L2(st, 1.0, params) == pytest.approx(float(expected), rel=1e-12)

    def test_l3_decreasing_in_large_b(self, obs, stats):
        # beyond the stationary point the likelihood falls in b
        vals = [log_L3(stats, ModelParams(1.0, b, 1.0)) for b in (50.0, 80.0, 130.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_y_zero_l2_rejected(self):
        obs = Observation(domain_size=2, x=np.array([0.5, 0.5]),
                          indices=np.array([0, 1]), p_obs=np.array([1.0, 2.0]),
                          counts=np.array([1, 1]))
        st = summarize(obs)
        with pytest.raises(ValueError, match="point mass"):
            log_L2(st, 1.0, ModelParams(1.0, 1.0, 1.0))
        # L3 keeps its natural Y = 0 form
        assert math.isfinite(log_L3(st, ModelParams(1.0, 1.0, 1.0)))


class TestBetaIdentities:
    @pytest.mark.parametrize("alpha", [0.4, 1.0, 6.0])
    def test_l4_to_l5(self, obs, stats, alpha):
        assert beta_identity_gap("L4", stats, alpha) < 1e-7

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 6.0])
    def test_l8_to_l9(self, obs, stats, alpha):
        assert beta_identity_gap("L8", stats, alpha) < 1e-7


class TestDerivatives:
    @pytest.mark.parametrize("which", ["L4", "L5", "L8", "L9", "L11"])
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0, 100.0])
    def test_against_finite_differences(self, obs, stats, which, alpha):
        w = 0.8 if which in ("L4", "L8") else None
        fn = {"L4": lambda a: log_L4(stats, w, a),
              "L5": lambda a: log_L5(stats, a),
              "L8": lambda a: log_L8(stats, w, a),
              "L9": lambda a: log_L9(stats, a),
              "L11": lambda a: log_L11(stats, a)}[which]
        h = 1e-5 * alpha
        fd1 = (fn(alpha + h) - fn(alpha - h)) / (2 * h)
        fd2 = (fn(alpha + h) - 2 * fn(alpha) + fn(alpha - h)) / h ** 2
        d1 = dlog_dalpha(which, stats, alpha, w=w)
        d2 = d2log_dalpha2(which, stats, alpha, w=w)
        assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-6)

    def test_small_alpha_slope(self, obs, stats):
        # d/d alpha log L4 ~ M / alpha as alpha -> 0
        alpha = 1e-7
        d1 = dlog_dalpha("L4", stats, alpha, w=0.8)
        assert d1 == pytest.approx(stats.M / alpha, rel=1e-4)

    def test_l4_concave_everywhere(self, rng):
        grid = np.exp(np.linspace(-6, 6, 50))
        for _ in range(5):
            o = random_observation(rng)
            st = summarize(o)
            vals = d2log_dalpha2("L4", st, grid, w=0.6 * st.V)
            assert np.max(vals) <= 1e-12

    def test_l5_slope_brackets_mode(self, obs, stats):
        # concavity plus the end behavior forces one sign change
        grid = np.exp(np.linspace(-8, 8, 60))
        signs = np.sign(dlog_dalpha("L5", stats, grid))
        changes = np.sum(np.abs(np.diff(signs)) > 0)
        assert changes == 1


class TestAsymptotics:
    def test_slopes_at_large_alpha(self, rng):
        for _ in range(10):
            o = random_observation(rng)
            st = summarize(o)
            if st.delta_S == 0.0 or st.Y == 0.0:
                continue
            alpha = 1e4
            bound = 10.0 * st.M / alpha
            assert abs(dlog_dalpha("L5", st, alpha) + st.delta_S) <= bound
            w = 0.7 * st.V
            assert abs(dlog_dalpha("L4", st, alpha, w=w) + kl_delta(st, w)) <= bound

    def test_l4_l8_stirling_gap(self, obs, stats):
        # log L4 - log L8 = [lgamma(alpha) - alpha log alpha + alpha]
        #                 + [lgamma(N) - N log N + N]
        # and the alpha part tends to log sqrt(2 pi / alpha)
        n = stats.N
        n_part = float(mp.loggamma(n)) - n * math.log(n) + n
        for alpha in (1e3, 1e5):
            gap = (log_L4(stats, 0.9, alpha) - log_L8(stats, 0.9, alpha)
                   - n_part)
            assert gap == pytest.approx(0.5 * math.log(2 * math.pi / alpha), abs=1e-4)

    def test_l8_log_concave_on_grid(self, obs, stats):
        grid = np.exp(np.linspace(-5, 5, 40))
        vals = log_L8(stats, 0.9, grid)
        second = np.diff(vals, 2)
        # second differences on the alpha grid itself (uneven) just need
        # the analytic check; use it directly
        assert np.max(d2log_dalpha2("L8", stats, grid, w=0.9)) <= 1e-12


class TestNormalizedIdentity:
    def test_l4_over_l5_equals_l8_over_l9(self, obs, stats):
        ws = np.exp(np.linspace(-3, 3, 31))
        for alpha in (0.3, 1.7, 22.0):
            lhs = log_L4(stats, ws, alpha) - log_L5(stats, alpha)
            rhs = log_L8(stats, ws, alpha) - log_L9(stats, alpha)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_common_factor_cancels(self, obs, stats):
        # adding the dropped observation-only factor shifts L4 and L5 by
        # the same constant, leaving every normalized quantity unchanged
        factor = float(np.sum((obs.counts - 1) * np.log(obs.p_obs)
                              - [float(mp.loggamma(c + 1)) for c in obs.counts]))
        ws = np.array([0.3, 1.1, 4.2])
        alpha = 2.2
        base = log_L4(stats, ws, alpha) - log_L5(stats, alpha)
        shifted = ((log_L4(stats, ws, alpha) + factor)
                   - (log_L5(stats, alpha) + factor))
        assert np.allclose(base, shifted, rtol=0, atol=1e-12)


class TestL11:
    def test_stationary_pair(self, stats):
        b, lam = stationary_b_lambda(stats, 2.5)
        assert stats.N == pytest.approx(lam * 2.5 / b, rel=1e-12)

    def test_matches_l3_at_stationary_point(self, obs, stats):
        for alpha in (0.4, 3.3, 40.0):
            b, lam = stationary_b_lambda(stats, alpha)
            assert log_L11(stats, alpha) == pytest.approx(
                log_L3(stats, ModelParams(alpha, b, lam)), rel=1e-12)

    def test_x_to_zero_limit_second_derivative(self):
        # concentrate x off the sample: d2 -> -M/alpha^2 + (N/alpha)/(alpha+N),
        # which turns positive for alpha > M N / (N - M)
        eps = 1e-9
        x = np.array([eps, 1.0 - eps])
        obs = Observation(domain_size=2, x=x, indices=np.array([0]),
                          p_obs=np.array([1.0]), counts=np.array([2]))
        st = summarize(obs)
        alpha = 5.0
        limit = -st.M / alpha ** 2 + (st.N / alpha) / (alpha + st.N)
        assert limit > 0
        assert d2log_dalpha2("L11", st, alpha) == pytest.approx(limit, rel=1e-4)

    def test_full_coverage_matches_l9(self):
        # X = 1 collapses the stationary (b, lambda) onto the profile pair,
        # making L11 and L9 identical
        obs = Observation(domain_size=3, x=np.array([0.2, 0.5, 0.3]),
                          indices=np.arange(3), p_obs=np.array([1.0, 0.7, 2.2]),
                          counts=np.array([2, 1, 1]))
        st = summarize(obs)
        assert st.Y == 0.0
        for alpha in (0.5, 2.0, 17.0):
            assert log_L11(st, alpha) == pytest.approx(
                log_L9(st, alpha), rel=1e-12)


# -- the likelihoods on the sufficient statistics ---------------------------

def _direct(which, kind, obs, st, alpha, w=None, params=None):
    """log L``which`` (kind 0), its alpha slope (1) or curvature (2), with
    every sum over the sample taken point by point over obs.x_obs.

    Returns the exactly rounded sum of all terms (math.fsum) and the sum of
    their absolute values, the scale of the rounding error of any order of
    summation."""
    a_x = alpha * obs.x_obs
    n, xx, y, u, v = st.N, st.X, st.Y, st.U, st.V
    if kind == 0:
        terms = list(-gammaln(a_x))
        if w is not None:
            terms += [(alpha * y - 1) * math.log(w), -gammaln(alpha * y)]
        if which in ("L2", "L3"):
            b, lam = params.b, params.lam
            terms += [alpha * math.log(b), n * math.log(lam), alpha * u]
            terms += ([-(b + lam) * (v + w)] if which == "L2" else
                      [-(b + lam) * v, -alpha * y * math.log(b + lam)])
        elif which == "L11":
            log_scale = math.log(alpha * xx + n) - math.log(alpha + n) - math.log(v)
            terms += [alpha * math.log(alpha), alpha * log_scale, n * math.log(n),
                      n * log_scale, alpha * u, -(alpha * xx + n),
                      -alpha * y * (math.log(alpha * xx + n) - math.log(v))]
        else:
            terms += ([gammaln(alpha), gammaln(n)] if which in ("L4", "L5") else
                      [alpha * math.log(alpha), n * math.log(n), -alpha, -n])
            terms.append(alpha * u)
            terms += ([-(alpha + n) * math.log(v + w)] if which in ("L4", "L8") else
                      [-(alpha * xx + n) * math.log(v), gammaln(alpha * xx + n),
                       -gammaln(alpha + n)])
    elif kind == 1:
        terms = list(-obs.x_obs * psi(a_x))
        if which == "L11":
            terms += [-xx * math.log(v), xx * math.log(alpha * xx + n), u,
                      -math.log1p(n / alpha)]
        else:
            terms += [psi(alpha) if which in ("L4", "L5") else math.log(alpha), u]
            terms += ([-y * psi(alpha * y), y * math.log(w), -math.log(v + w)]
                      if which in ("L4", "L8") else
                      [-xx * math.log(v), xx * psi(alpha * xx + n), -psi(alpha + n)])
    else:
        terms = list(-obs.x_obs ** 2 * polygamma(1, a_x))
        if which == "L11":
            terms += [xx * xx / (alpha * xx + n), (n / alpha) / (alpha + n)]
        else:
            terms.append(polygamma(1, alpha) if which in ("L4", "L5") else 1.0 / alpha)
            terms += ([-y * y * polygamma(1, alpha * y)] if which in ("L4", "L8") else
                      [xx * xx * polygamma(1, alpha * xx + n), -polygamma(1, alpha + n)])
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _library(which, kind, st, alpha, w=None, params=None):
    if kind == 1:
        return dlog_dalpha(which, st, alpha, w=w)
    if kind == 2:
        return d2log_dalpha2(which, st, alpha, w=w)
    if which in ("L2", "L3"):
        return log_L2(st, w, params) if which == "L2" else log_L3(st, params)
    fn = {"L4": log_L4, "L5": log_L5, "L8": log_L8, "L9": log_L9,
          "L11": log_L11}[which]
    return fn(st, w, alpha) if which in ("L4", "L8") else fn(st, alpha)


# (likelihood, derivative order) pairs; W enters L2, L4, L8 and their slopes
_CASES = ([(name, 0) for name in ("L2", "L3", "L4", "L5", "L8", "L9", "L11")]
          + [(name, k) for name in ("L4", "L5", "L8", "L9", "L11") for k in (1, 2)])


@hs.composite
def sample_observations(draw):
    """A sample whose base measure takes ``levels`` distinct values over the
    domain (all distinct when levels is None), its entries in drawn order;
    at least one point stays unsampled, so Y > 0."""
    d = draw(hs.integers(2, 40))
    m = draw(hs.integers(1, d - 1))
    levels = draw(hs.one_of(hs.none(), hs.integers(1, 4)))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    if levels is None:
        raw = rng.dirichlet(np.ones(d))
    else:
        raw = rng.choice(rng.uniform(0.2, 5.0, levels), size=d)
    x = raw / raw.sum()
    idx = rng.permutation(rng.choice(d, size=m, replace=False))
    return Observation(domain_size=d, x=x, indices=idx,
                       p_obs=rng.lognormal(0.0, 1.0, m),
                       counts=1 + rng.poisson(1.0, m))


class TestSufficientStatistics:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(obs=sample_observations(), alpha=hs.floats(1e-3, 1e4),
           w_over_v=hs.floats(0.05, 20.0))
    def test_matches_direct_per_point_sums(self, obs, alpha, w_over_v):
        st = summarize(obs)
        assert st.x_counts.sum() == st.M
        assert np.dot(st.x_counts, st.x_values) == pytest.approx(st.X, rel=1e-12)
        params = ModelParams(alpha, 0.7, 1.9)
        for which, kind in _CASES:
            w = w_over_v * st.V if which in ("L2", "L4", "L8") else None
            want, scale = _direct(which, kind, obs, st, alpha, w, params)
            got = _library(which, kind, st, alpha, w, params)
            assert abs(got - want) <= 1e-12 * scale, (which, kind, got, want)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(obs=sample_observations())
    def test_entry_order_is_irrelevant(self, obs):
        st = summarize(obs)
        order = np.random.default_rng(obs.m).permutation(obs.m)
        shuffled = summarize(Observation(
            domain_size=obs.domain_size, x=obs.x, indices=obs.indices[order],
            p_obs=obs.p_obs[order], counts=obs.counts[order]))
        assert np.array_equal(shuffled.x_values, st.x_values)
        assert np.array_equal(shuffled.x_counts, st.x_counts)
        assert np.all(np.diff(st.x_values) > 0.0)


class TestScalarMatchesScan:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(obs=sample_observations())
    def test_grid_points_bit_for_bit(self, obs):
        # the root finds of alpha_slope_maxima take their bracket signs from
        # the scan and evaluate the slope at the bracket ends afresh, at
        # alpha = exp(t) of the grid's t
        st = summarize(obs)
        for which in ("L5", "L9", "L11"):
            grid, slopes, _ = alpha_slope_maxima(which, st)
            curvatures = d2log_dalpha2(which, st, grid)
            for k, t in enumerate(inference._SLOPE_SCAN_T):
                alpha = math.exp(t)
                assert alpha == grid[k]
                assert dlog_dalpha(which, st, alpha) == slopes[k], (which, k)
                assert d2log_dalpha2(which, st, alpha) == curvatures[k], (which, k)


class TestRescaling:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(obs=sample_observations())
    def test_alpha_mle_is_scale_free(self, obs):
        # p -> k p leaves alpha-hat alone and scales b and lambda by 1/k
        st = summarize(obs)
        alphas = [mle_alpha(st, base)[0] for base in ("L5", "L9")]
        mle = moment_match(obs, st, "MLE")
        for k in (1e-100, 3.0, 1e100):
            scaled = Observation(domain_size=obs.domain_size, x=obs.x,
                                 indices=obs.indices, p_obs=obs.p_obs * k,
                                 counts=obs.counts)
            sk = summarize(scaled)
            for base, alpha in zip(("L5", "L9"), alphas):
                assert mle_alpha(sk, base)[0] == pytest.approx(alpha, rel=1e-10)
            res = moment_match(scaled, sk, "MLE")
            assert res.diagnostics["status"] == mle.diagnostics["status"]
            if mle.params is not None:
                assert res.params.alpha == pytest.approx(mle.params.alpha, rel=1e-10)
                assert res.params.b == pytest.approx(mle.params.b / k, rel=1e-10)
                assert res.params.lam == pytest.approx(mle.params.lam / k, rel=1e-10)


class TestBlocking:
    def _all_values(self, st, grid):
        w = 0.8 * st.V
        out = [log_L4(st, w, grid), log_L5(st, grid), log_L8(st, w, grid),
               log_L9(st, grid), log_L11(st, grid)]
        for which in ("L4", "L5", "L8", "L9", "L11"):
            ww = w if which in ("L4", "L8") else None
            out += [dlog_dalpha(which, st, grid, w=ww),
                    d2log_dalpha2(which, st, grid, w=ww)]
        return out

    def test_row_blocks_are_bit_identical(self, rng, monkeypatch):
        # a block of two alpha rows splits the 50-point grid into 25 blocks
        st = summarize(random_observation(rng, d=30, m=9, extra_counts=5))
        # the slope terms of each likelihood: 9 x columns plus 0-3 others
        widths = {st.terms[0, runs[1]].size for runs in TERM_RUNS.values()}
        assert widths == {9, 10, 11, 12}
        grid = np.exp(np.linspace(-6.0, 9.0, 50))
        single = self._all_values(st, grid)
        blocks = []
        monkeypatch.setattr(likelihoods, "_BLOCK_ELEMS", 2 * max(widths))
        log_gamma, real, trigamma = likelihoods._TERM_FNS
        # the alpha-by-term blocks are the 2-D arguments
        monkeypatch.setattr(likelihoods, "_TERM_FNS", (log_gamma, lambda a: (
            np.ndim(a) == 2 and blocks.append(np.shape(a))) or real(a), trigamma))
        blocked = self._all_values(st, grid)
        assert blocks and set(blocks) == {(2, width) for width in widths}
        assert len(blocks) == 25 * 5  # one slope per likelihood
        for one, many in zip(single, blocked):
            assert np.array_equal(one, many)

    def test_column_blocks_split_one_row(self, rng, monkeypatch):
        # more terms than a block holds: each alpha row is summed in column
        # slices, which reorders the additions only
        st = summarize(random_observation(rng, d=30, m=9, extra_counts=5))
        assert len(st.x_values) == 9
        grid = np.exp(np.linspace(-6.0, 9.0, 7))
        # L11's run of the term table is the shape sum alone,
        # -sum_S log Gamma(alpha x), and its digamma and trigamma companions
        single = [likelihoods._term_sum(st, grid, order, "L11") for order in (0, 1, 2)]
        monkeypatch.setattr(likelihoods, "_BLOCK_ELEMS", 4)
        blocked = [likelihoods._term_sum(st, grid, order, "L11") for order in (0, 1, 2)]
        for order, (one, many) in enumerate(zip(single, blocked)):
            np.testing.assert_allclose(many, one, rtol=1e-14, atol=0.0)
            # a scalar alpha takes the same column slices
            assert likelihoods._term_sum(st, grid[3], order, "L11") == many[3]


class TestPositivityCheck:
    # x = (0.495, 0.495, 0.01) with the first two points sampled: Y = 0.01,
    # so at alpha = 1e-322 alpha Y underflows to 0 while alpha x does not
    ALL_RUNS = {(which, order) for which in TERM_RUNS for order in range(3)}
    RAISES = {0.0: ALL_RUNS, -1.0: ALL_RUNS, math.nan: ALL_RUNS, 5e-324: ALL_RUNS,
              1e-322: {(which, order) for which in ("L4", "L8") for order in range(3)},
              math.inf: {("L4", 0), ("L5", 0)}, 2.5: set()}

    @pytest.mark.parametrize("alpha", list(RAISES))
    def test_refuses_where_an_argument_is_not_positive(self, alpha):
        # the run's one-multiply check refuses a scalar alpha, or an array
        # holding it, exactly where some alpha s + o of the run is not
        # positive, with the message of the special function it guards
        st = summarize(Observation(domain_size=3, x=np.array([0.495, 0.495, 0.01]),
                                   indices=np.array([0, 1]), p_obs=np.array([1.0, 2.0]),
                                   counts=np.array([2, 1])))
        raised = set()
        for which, runs in TERM_RUNS.items():
            for order, cols in enumerate(runs):
                scales, offsets = st.terms[0, cols], st.terms[1, cols]
                fn_name = ("log_gamma", "digamma", "trigamma")[order]
                for arg in (alpha, np.array([2.0, alpha, 3.0])):
                    with np.errstate(invalid="ignore"):
                        positive = np.all(np.multiply.outer(arg, scales) + offsets > 0.0)
                    a = likelihoods._as_alpha(arg)
                    if positive:
                        with np.errstate(all="ignore"):  # inf - inf at alpha near 0
                            likelihoods._term_sum(st, a, order, which)
                        continue
                    raised.add((which, order))
                    with pytest.raises(ValueError,
                                       match=f"^{fn_name} requires a positive argument$"):
                        likelihoods._term_sum(st, a, order, which)
        assert raised == self.RAISES[alpha]
        if ("L4", 1) in raised:
            with pytest.raises(ValueError, match="^digamma requires a positive argument$"):
                dlog_dalpha("L4", st, alpha, w=st.V)


def test_likelihood_layer_takes_no_observation():
    # the reduced likelihoods see the data only through SummaryStats
    public = [fn for name, fn in vars(likelihoods).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == likelihoods.__name__]
    assert len(public) >= 10
    for fn in public + [mle_alpha, alpha_slope_maxima]:
        assert "obs" not in inspect.signature(fn).parameters, fn.__name__
