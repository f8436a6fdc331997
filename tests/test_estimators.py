import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq

from conftest import fixture_path, random_observation
from missmass import estimators
from missmass.data import Observation, load_observation
from missmass.estimators import (RBWeights, expected_phi, good_toulmin_rb,
                                 good_turing_classic, good_turing_rb,
                                 harmonic_mean, inclusion_probability,
                                 ipw_fixed_n, ipw_poisson, mixture_estimate,
                                 rb_exact, rb_poisson_lambda,
                                 rb_poisson_weights, rb_z_equation)
from missmass.solvers import solve_root
from missmass.verify import brute_force_rb, random_counts, saddle_point_gap


SPREAD_P = [1e-200, 1.0, 1e200]


def z_equations(obs):
    """Every self-consistent Z equation on obs, keyed by name: IPW, both
    Rao-Blackwellized variants, the nonlinear harmonic mean (h = p / 4 on
    the sample, H = V) and the gamma = 0.5 mixture (h = 0.4 p, H = 0.6 V)."""
    p, v = obs.p_obs, obs.v
    quarter = {int(i): 0.25 * float(x) for i, x in zip(obs.indices, p)}
    anchor = {int(i): 0.4 * float(x) for i, x in zip(obs.indices, p)}
    r = np.column_stack([0.4 * p, 0.6 * p])
    saddle, exact = rb_poisson_weights(obs), rb_exact(obs)
    return {
        "ipw-fixed-n": ipw_fixed_n(obs),
        "ipw-poisson": ipw_poisson(obs),
        "rb-z-V": rb_z_equation(obs, saddle, variant="V_over_Z"),
        "rb-z-M": rb_z_equation(obs, exact, variant="M_over_Z", pi="fixed-n"),
        "hm": harmonic_mean(obs, quarter, v, mode="ipw_nonlinear"),
        "mixture": mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor, H=0.6 * v).z,
    }


def make_obs(ps, cs, d=None, x=None):
    m = len(ps)
    d = d or m + 2
    if x is None:
        x = np.full(d, 1.0 / d)
    return Observation(domain_size=d, x=np.asarray(x, float),
                       indices=np.arange(m), p_obs=np.asarray(ps, float),
                       counts=np.asarray(cs))


def mpmath_rb(ps, n, dps=50):
    """log F_N and the exact v(i) by a 50-digit dynamic program: prefix and
    suffix products of the truncated series sum_{k>=1} p^k / k!."""
    with mpmath.workdps(dps):
        m = len(ps)
        fact = [mpmath.factorial(k) for k in range(n + 1)]
        series = [[mpmath.mpf(float(pj)) ** k / fact[k] for k in range(n + 1)]
                  for pj in ps]

        def times(a, j):
            return [mpmath.fsum(a[s] * series[j][t - s] for s in range(t))
                    for t in range(n + 1)]

        unit = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
        prefix = [unit]
        for j in range(m):
            prefix.append(times(prefix[-1], j))
        suffix = [unit]
        for j in reversed(range(m)):
            suffix.append(times(suffix[-1], j))
        suffix.reverse()
        g_n = prefix[m][n]
        v = []
        for i in range(m):
            a, b = prefix[i], suffix[i + 1]
            others = [mpmath.fsum(a[s] * b[t - s] for s in range(t + 1))
                      for t in range(n)]
            h = mpmath.fsum(series[i][k] * others[n - 1 - k] for k in range(n))
            v.append(float(series[i][1] * h / g_n))
        return float(mpmath.log(fact[n] * g_n)), np.array(v)


class TestIpw:
    def test_single_point_fixed_n(self):
        # Z = 1/(1 - (1 - 1/Z)^2) collapses to Z = 1
        res = ipw_fixed_n(make_obs([1.0], [2]))
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_all_singletons_infinite(self):
        obs = make_obs([1.0, 2.0], [1, 1])
        assert math.isinf(ipw_fixed_n(obs).value)
        assert math.isinf(ipw_poisson(obs).value)
        assert "singleton" in ipw_fixed_n(obs).diagnostics["reason"]

    def test_two_equal_points_vs_bisection(self):
        obs = make_obs([1.0, 1.0], [2, 2])

        def f(z):
            return 2.0 / (1.0 - (1.0 - 1.0 / z) ** 4) - z

        oracle = solve_root(f, (1.0 + 1e-12, 10.0))
        assert ipw_fixed_n(obs).value == pytest.approx(oracle, rel=1e-8)

    def test_poisson_single_point_vs_bisection(self):
        obs = make_obs([1.0], [2])
        oracle = solve_root(lambda z: z * (1 - math.exp(-2.0 / z)) - 1.0, (0.5, 50.0))
        assert ipw_poisson(obs).value == pytest.approx(oracle, rel=1e-8)

    def test_scale_equivariance(self, rng):
        # every search limit is relative to V, so rescaling p rescales Z and
        # keeps the verdict and the solver work; scaling by a power of two
        # is exact, while any other factor rounds p, which can move Brent's
        # last iterate onto or off an exact zero of the residual
        for _ in range(5):
            obs = random_observation(rng, extra_counts=4)
            base = z_equations(obs)
            for k in (float(rng.uniform(0.1, 20.0)), 1e-30, 1e30, 2.0 ** -100, 2.0 ** 100):
                scaled = make_obs(k * obs.p_obs, obs.counts, d=obs.domain_size, x=obs.x)
                exact = math.frexp(k)[0] == 0.5
                for name, res in z_equations(scaled).items():
                    ref = base[name]
                    assert res.value / k == pytest.approx(ref.value, rel=0 if exact else 1e-12)
                    assert res.diagnostics.get("reason") == ref.diagnostics.get("reason")
                    gap = abs(res.diagnostics["evals"] - ref.diagnostics["evals"])
                    assert gap <= (0 if exact else 1), name
        # h = 0 on the sample: the harmonic equation has no root, and the
        # search gives up at the same multiple of V at every scale
        for k in (1e-30, 1.0, 1e30):
            obs = make_obs([k, 2.0 * k, 3.0 * k], [2, 1, 3])
            res = harmonic_mean(obs, {0: 0.0, 1: 0.0, 2: 0.0}, k, mode="ipw_nonlinear")
            assert res.value == math.inf
            assert res.diagnostics["reason"] == "no finite solution"
            assert res.diagnostics["evals"] == 60

    def test_masses_spanning_the_float_range(self):
        # N p / Z underflows for the smallest point; each q / pi term takes
        # the limit q Z / (N p) instead of dividing by zero
        obs = make_obs(SPREAD_P, [1, 1, 3])
        mp_p = [mpmath.mpf(x) for x in SPREAD_P]
        forms = {
            "poisson": lambda z, p: -mpmath.expm1(-5 * p / z),
            "fixed-n": lambda z, p: -mpmath.expm1(5 * mpmath.log1p(-p / z)),
        }
        half = {i: 0.5 * x for i, x in enumerate(SPREAD_P)}
        weights = rb_exact(obs)
        v = [float(x) for x in weights.aligned(obs)]

        def root(g, dps=50):
            with mpmath.workdps(dps):
                return mpmath.findroot(g, (mpmath.mpf(1.01e200), mpmath.mpf(1e202)),
                                       solver="anderson")

        for (pi, incl), est in zip(forms.items(), (ipw_poisson, ipw_fixed_n)):
            res = est(obs)
            assert math.isfinite(res.value)
            oracle = root(lambda z: sum(p / incl(z, p) for p in mp_p) - z)
            assert abs(res.value / oracle - 1) <= 1e-10

            res = harmonic_mean(obs, half, 1e200, mode="ipw_nonlinear", pi=pi)
            oracle = root(lambda z: sum(p / 2 / incl(z, p) for p in mp_p) - mpmath.mpf(1e200),
                          dps=60)
            assert abs(res.value / oracle - 1) <= 1e-10
            assert res.diagnostics["variance_indicator"] == pytest.approx(
                float(2 * mpmath.mpf(1e200) / oracle), rel=1e-9)

            # pi / p keeps its limit N / Z in the M / Z variant
            res = rb_z_equation(obs, weights, variant="M_over_Z", pi=pi)
            oracle = root(lambda z: z / 5 * sum(c * incl(z, p) / p for c, p in zip(v, mp_p)) - 3)
            assert abs(res.value / oracle - 1) <= 1e-10

        # the component totals R(j) = sum_S r(i, j) / pi(i; Z) stay finite
        # although 1 / pi(i; Z) is past the float range for the smallest point
        mix = mixture_estimate(obs, np.column_stack([obs.p_obs / 2, obs.p_obs / 2]),
                               [1.0, 1.0], 0.0)
        assert mix.z.value == ipw_poisson(obs).value
        assert np.all(np.isfinite(mix.R))
        assert mix.R.sum() == pytest.approx(mix.z.value, rel=1e-12)


class TestRbExact:
    def test_two_equal_points(self):
        obs = make_obs([1.0, 1.0], [1, 2])
        w = rb_exact(obs)
        assert math.exp(w.log_f_n) == pytest.approx(6.0, rel=1e-12)
        assert w.v[0] == pytest.approx(1.5, rel=1e-12)
        assert w.v[1] == pytest.approx(1.5, rel=1e-12)

    def test_unequal_points_vs_enumeration(self):
        obs = make_obs([2.0, 1.0], [2, 1])
        w = rb_exact(obs)
        f_true, v_true = brute_force_rb([2.0, 1.0], 3)
        assert math.exp(w.log_f_n) == pytest.approx(f_true, rel=1e-12)
        assert w.aligned(obs) == pytest.approx(v_true, rel=1e-12)

    def test_all_singletons_weights_one(self):
        obs = make_obs([3.0, 1.0, 0.5], [1, 1, 1])
        w = rb_exact(obs)
        assert all(v == 1.0 for v in w.v.values())
        assert w.log_f_n == pytest.approx(math.log(6.0 * 1.5), rel=1e-15)

    def test_weight_invariants(self, rng):
        for _ in range(20):
            obs = random_observation(rng, d=8, m=int(rng.integers(1, 5)))
            w = rb_exact(obs)
            vals = w.aligned(obs)
            assert np.all(vals >= 1.0 - 1e-10)
            assert vals.sum() == pytest.approx(obs.n, abs=1e-8)

    def test_no_size_cap_single_point(self):
        w = rb_exact(make_obs([1.0], [100]))
        assert w.v[0] == 100.0
        assert w.log_f_n == 0.0

    def test_against_mpmath(self):
        # lognormal masses of three spreads over ten decades of scale,
        # plus masses spanning 1e-200..1e200, where lambda p(0) underflows
        rng = np.random.default_rng(11)
        cases = []
        for k in range(40):
            m = int(rng.integers(1, 14))
            n = int(rng.integers(m, 41))
            p = (rng.lognormal(0.0, (0.3, 1.0, 3.0)[k % 3], m)
                 * 10.0 ** rng.uniform(-5.0, 5.0))
            cases.append((p, random_counts(rng, m, n)))
        cases.append((np.array([1e-200, 1.0, 1e200]), np.array([1, 1, 3])))
        for p, c in cases:
            obs = make_obs(p, c)
            w = rb_exact(obs)
            log_f, v = mpmath_rb(p, obs.n)
            assert w.aligned(obs) == pytest.approx(v, rel=1e-13)
            assert w.log_f_n == pytest.approx(log_f, rel=1e-13, abs=1e-13)

    def test_large_sample(self):
        rng = np.random.default_rng(12)
        m, n = 200, 2000
        p = rng.lognormal(0.0, 1.0, m)
        obs = make_obs(p, random_counts(rng, m, n))
        start = time.perf_counter()
        vals = rb_exact(obs).aligned(obs)
        assert time.perf_counter() - start < 1.0
        scaled = rb_exact(make_obs(1e7 * p, obs.counts)).aligned(obs)
        assert vals.sum() == pytest.approx(n, rel=1e-12)
        assert np.all(vals >= 1.0)
        assert scaled == pytest.approx(vals, rel=1e-12)

    def test_column_blocks(self, monkeypatch):
        rng = np.random.default_rng(13)
        obs = make_obs(rng.lognormal(0.0, 1.0, 9), random_counts(rng, 9, 50))
        whole = rb_exact(obs)
        monkeypatch.setattr(estimators, "_BLOCK_ELEMS", 20)
        blocked = rb_exact(obs)
        assert blocked.aligned(obs) == pytest.approx(whole.aligned(obs), rel=1e-13)
        assert blocked.log_f_n == pytest.approx(whole.log_f_n, rel=1e-13)

    def test_large_rates(self):
        # lambda p(i) ~ 1000: exp(-lambda p z) overflows on the far half
        # of the circle.  Two points have a binomial closed form.
        n = 3000
        equal = make_obs([1.0] * 3, [1000] * 3)
        assert rb_exact(equal).aligned(equal) == pytest.approx([1000.0] * 3, rel=1e-13)
        with mpmath.workdps(30):
            terms = [mpmath.binomial(n, k) * mpmath.mpf(0.3) ** (n - k)
                     for k in range(1, n)]
            f_n = mpmath.fsum(terms)
            v0 = float(mpmath.fsum(k * t for k, t in zip(range(1, n), terms)) / f_n)
            log_f = float(mpmath.log(f_n))
        w = rb_exact(make_obs([1.0, 0.3], [n - 1, 1]))
        assert w.v[0] == pytest.approx(v0, rel=1e-14)
        assert w.v[0] + w.v[1] == pytest.approx(n, rel=1e-14)
        assert w.log_f_n == pytest.approx(log_f, rel=1e-14)

    def test_saddle_point_gap_falls_with_n(self):
        gaps = saddle_point_gap((48, 480, 4800))
        assert gaps[48] > gaps[480] > gaps[4800]

    def test_poisson_approximation_converges(self):
        # equal masses, N large: saddle point weights within 2 percent
        m, n = 4, 48
        obs = make_obs([1.0] * m, [n // m] * m)
        exact = rb_exact(obs).aligned(obs)
        approx = rb_poisson_weights(obs).aligned(obs)
        assert np.all(np.abs(approx / exact - 1.0) < 0.02)


class TestRbPoissonLambda:
    def test_single_point(self):
        lam = rb_poisson_lambda(make_obs([1.0], [2]))
        oracle = solve_root(lambda t: t / (1 - math.exp(-t)) - 2.0, (0.5, 10.0))
        assert lam == pytest.approx(oracle, rel=1e-9)
        assert lam == pytest.approx(1.5936, abs=2e-4)

    def test_all_singletons(self):
        assert rb_poisson_lambda(make_obs([1.0, 2.0], [1, 1])) == 0.0

    def test_inverse_scaling(self, rng):
        obs = random_observation(rng, extra_counts=5)
        s = 3.7
        scaled = make_obs(s * obs.p_obs, obs.counts, d=obs.domain_size, x=obs.x)
        assert rb_poisson_lambda(scaled) == pytest.approx(
            rb_poisson_lambda(obs) / s, rel=1e-8)

    @pytest.mark.parametrize("name", ["all_singletons", "dataset_model_draw", "delta_s_zero",
                                      "full_coverage", "gt_example", "regular_large",
                                      "regular_small", "single_point", "spread"])
    def test_is_the_poisson_ipw_rate(self, name):
        # with lambda = N / Z the rate equation is the Poisson IPW equation
        if name == "spread":
            obs = make_obs(SPREAD_P, [1, 1, 3])
        else:
            obs = load_observation(fixture_path(f"{name}.json"))
        lam = rb_poisson_lambda(obs)
        assert lam == obs.n / ipw_poisson(obs).value
        if lam > 0.0:
            assert np.sum(estimators._ztp_mean(lam * obs.p_obs)) == pytest.approx(
                obs.n, rel=1e-9)

    def test_large_counts(self):
        # every rate is large, so N = sum_S lambda p(i) holds at N / V only
        # to rounding: every pi(i; V) rounds to 1 and the root is Z = V
        for ps, cs in (([7.0], [61]), ([0.625, 0.419], [94, 93]),
                       ([1.292, 0.91, 0.772], [50, 73, 65])):
            obs = make_obs(ps, cs)
            lam = rb_poisson_lambda(obs)
            mu = lam * obs.p_obs
            assert np.sum(mu / -np.expm1(-mu)) == pytest.approx(obs.n, rel=1e-12)
            weights = rb_exact(obs).aligned(obs)
            assert weights.sum() == pytest.approx(obs.n, rel=1e-9)


class TestRbZEquation:
    def test_single_point_poisson(self):
        obs = make_obs([1.0], [2])
        w = rb_exact(obs)  # v = N = 2
        res = rb_z_equation(obs, w, variant="V_over_Z", pi="poisson")
        oracle = solve_root(lambda z: z * (1 - math.exp(-2.0 / z)) - 1.0, (0.5, 50.0))
        assert res.value == pytest.approx(oracle, rel=1e-8)

    def test_singletons_uninformative(self):
        obs = make_obs([1.0, 2.0], [1, 1])
        w = RBWeights(v={0: 1.0, 1: 1.0})
        for variant in ("V_over_Z", "M_over_Z"):
            assert math.isinf(rb_z_equation(obs, w, variant=variant).value)

    def test_constant_masses_variants_agree(self):
        # with p constant, pi/p is proportional to pi and both variants
        # solve the same equation
        obs = make_obs([2.0, 2.0, 2.0], [2, 1, 3])
        w = rb_exact(obs)
        a = rb_z_equation(obs, w, variant="V_over_Z").value
        b = rb_z_equation(obs, w, variant="M_over_Z").value
        assert a == pytest.approx(b, rel=1e-8)


class TestGoodTuring:
    def test_classic_plugin(self):
        # Phi_1 = 2, N = 5, V = 10
        obs = make_obs([4.0, 3.0, 3.0], [3, 1, 1])
        gt = good_turing_classic(obs)
        assert gt.w_over_z == pytest.approx(0.4)
        assert gt.z == pytest.approx(50.0 / 3.0)
        assert gt.w == pytest.approx(20.0 / 3.0)

    def test_no_singletons(self):
        obs = make_obs([1.0, 2.0], [2, 3])
        gt = good_turing_classic(obs)
        assert gt.w_over_z == 0.0 and gt.z == obs.v and gt.w == 0.0

    def test_all_singletons(self):
        gt = good_turing_classic(make_obs([1.0, 2.0], [1, 1]))
        assert gt.w_over_z == 1.0 and math.isinf(gt.z) and math.isinf(gt.w)

    def test_rb_singular(self):
        gtr = good_turing_rb(make_obs([1.0, 2.0], [1, 1]))
        assert math.isinf(gtr.z) and math.isinf(gtr.w) and gtr.w_over_z == 1.0

    def test_rb_consistency_z_equals_v_plus_w(self, rng):
        for _ in range(10):
            obs = random_observation(rng, extra_counts=6)
            gtr = good_turing_rb(obs)
            if math.isfinite(gtr.z):
                assert gtr.z == pytest.approx(obs.v + gtr.w, abs=1e-8 * gtr.z)

    def test_rb_masses_spanning_the_float_range(self):
        obs = make_obs(SPREAD_P, [1, 1, 3])
        gtr = good_turing_rb(obs)
        assert 0.0 < gtr.w_over_z < 1.0
        assert gtr.w == pytest.approx(gtr.z - obs.v, rel=1e-12)

    def test_rb_single_point_identity(self):
        obs = make_obs([1.0], [2])
        gtr = good_turing_rb(obs)
        assert gtr.w == pytest.approx(1.0 / (math.exp(2.0 / gtr.z) - 1.0), rel=1e-9)
        assert gtr.z - 1.0 == pytest.approx(gtr.w, rel=1e-8)

    def test_rb_symmetry_reduces_to_single_point(self):
        # equal masses and equal counts: W/Z matches the one-point case
        single = good_turing_rb(make_obs([2.0], [2]))
        double = good_turing_rb(make_obs([2.0, 2.0], [2, 2]))
        assert double.w_over_z == pytest.approx(single.w_over_z, rel=1e-9)
        assert double.z == pytest.approx(2.0 * single.z, rel=1e-9)

    def test_rb_equivariance(self, rng):
        obs = random_observation(rng, extra_counts=6)
        s = 2.6
        scaled = make_obs(s * obs.p_obs, obs.counts, d=obs.domain_size, x=obs.x)
        assert good_turing_rb(scaled).z == pytest.approx(
            s * good_turing_rb(obs).z, rel=1e-7)
        w_a, w_b = rb_exact(obs), rb_exact(scaled)
        # expected counts are invariant under a global mass rescale
        assert w_b.aligned(scaled) == pytest.approx(w_a.aligned(obs), rel=1e-9)
        za = rb_z_equation(obs, w_a).value
        zb = rb_z_equation(scaled, w_b).value
        assert zb == pytest.approx(s * za, rel=1e-7)


class TestGoodToulmin:
    def test_degenerate_lambda_zero(self):
        assert good_toulmin_rb(make_obs([1.0, 2.0], [1, 1]), 0.0) == 1.0

    def test_direct_evaluation(self):
        obs = make_obs([1.0], [2])
        lam = rb_poisson_lambda(obs)
        expected = (1 - math.exp(-lam / 2.0)) / (math.exp(lam) - 1.0)
        assert good_toulmin_rb(obs, lam) == pytest.approx(expected, rel=1e-12)

    def test_masses_spanning_the_float_range(self):
        # lambda p underflows to 0 at p = 1e-200, where the term (0 / 0 as
        # written) takes its limit 1 / N, as it does at p = 1
        obs = make_obs(SPREAD_P, [1, 1, 3])
        lam = rb_poisson_lambda(obs)
        assert lam * SPREAD_P[0] == 0.0
        lp = lam * SPREAD_P[2]
        expected = 2.0 / 5.0 - math.expm1(-lp / 5.0) / math.expm1(lp)
        assert good_toulmin_rb(obs, lam) == pytest.approx(expected, rel=1e-12)

    def test_joint_rescale_invariance(self, rng):
        obs = random_observation(rng, extra_counts=5)
        lam = rb_poisson_lambda(obs)
        s = 4.2
        scaled = make_obs(s * obs.p_obs, obs.counts, d=obs.domain_size, x=obs.x)
        assert good_toulmin_rb(scaled, lam / s) == pytest.approx(
            good_toulmin_rb(obs, lam), rel=1e-12)


class TestExpectedPhi:
    def test_sums_to_m_and_n(self, rng):
        for _ in range(8):
            obs = random_observation(rng, extra_counts=5)
            if obs.m == obs.n:
                continue
            lam = rb_poisson_lambda(obs)
            tot = sum(expected_phi(obs, lam, k) for k in range(1, 200))
            ntot = sum(k * expected_phi(obs, lam, k) for k in range(1, 200))
            assert tot == pytest.approx(obs.m, rel=1e-9)
            assert ntot == pytest.approx(obs.n, rel=1e-9)

    def test_unit_rate_point(self):
        obs = make_obs([1.0], [2])
        assert expected_phi(obs, 1.0, 1) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_masses_spanning_the_float_range(self):
        # lambda p underflows for the smallest point and falls below 1e-16
        # for the middle one; each term takes its small-rate limit, 1 for
        # k = 1 and 0 above, instead of NaN
        obs = make_obs(SPREAD_P, [1, 1, 3])
        lam = rb_poisson_lambda(obs)
        with mpmath.workdps(50):
            mu = [mpmath.mpf(lam) * mpmath.mpf(p) for p in SPREAD_P]
            for k in (1, 2, 3):
                oracle = mpmath.fsum(m ** k / mpmath.factorial(k) / mpmath.expm1(m)
                                     for m in mu)
                assert expected_phi(obs, lam, k) == pytest.approx(float(oracle), rel=1e-12)
        assert expected_phi(obs, lam, 1) == pytest.approx(2.1785606278779, rel=1e-12)


class TestHarmonicMean:
    @pytest.mark.parametrize("h0, big_h", [(0.5, math.nan), (0.5, math.inf), (0.5, 0.0),
                                            (math.nan, 1.0), (math.inf, 1.0), (-0.5, 1.0)])
    def test_anchor_must_be_finite(self, h0, big_h):
        # the harmonic mean and the mixture read the anchor through one check
        obs = make_obs([1.0, 2.0], [2, 1])
        anchor = {0: h0, 1: 0.25}
        r = np.column_stack([obs.p_obs / 2, obs.p_obs / 2])
        for estimate in (lambda: harmonic_mean(obs, anchor, big_h, mode="ipw_nonlinear"),
                         lambda: mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor, H=big_h)):
            with pytest.raises(ValueError, match="finite"):
                estimate()

    def test_classic_self_consistency(self):
        ps = np.array([1.0, 2.0, 3.0])
        z_true = 10.0
        obs = make_obs(ps, [1, 1, 1], d=8)
        h = {i: float(p / z_true) for i, p in enumerate(ps)}
        res = harmonic_mean(obs, h, 1.0, mode="classic")
        assert res.value == pytest.approx(z_true, rel=1e-12)

    def test_rb_linear_reduces_to_classic_for_singletons(self, rng):
        obs = random_observation(rng, m=4, extra_counts=0)
        h = {int(i): float(v) for i, v in zip(obs.indices, rng.uniform(0.1, 1, 4))}
        w = rb_exact(obs)
        a = harmonic_mean(obs, h, 2.0, mode="classic")
        b = harmonic_mean(obs, h, 2.0, mode="rb_linear", weights=w)
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_ipw_nonlinear_boundary(self):
        # h already sums to H on the sample: the equation pushes Z to 0
        obs = make_obs([1.0], [2])
        res = harmonic_mean(obs, {0: 1.0}, 1.0, mode="ipw_nonlinear")
        assert res.value == 0.0
        assert "boundary" in res.diagnostics["reason"]

    def test_ipw_nonlinear_regular(self):
        obs = make_obs([1.0, 2.0], [2, 2])
        h = {0: 0.2, 1: 0.3}
        res = harmonic_mean(obs, h, 2.0, mode="ipw_nonlinear")

        def f(z):
            return (0.2 / (1 - math.exp(-4.0 / z))
                    + 0.3 / (1 - math.exp(-8.0 / z))) - 2.0

        oracle = solve_root(f, (3.0, 1e6))
        assert res.value == pytest.approx(oracle, rel=1e-8)
        assert "variance_indicator" in res.diagnostics

    def test_zero_denominator(self):
        obs = make_obs([1.0, 2.0], [2, 1])
        res = harmonic_mean(obs, {0: 0.0, 1: 0.0}, 1.0, mode="classic")
        assert math.isinf(res.value)


def two_part_mixture(obs, rng):
    """Split p on S into a known part h = u p, u ~ U(0, 1), and the rest."""
    h = obs.p_obs * rng.uniform(0.0, 1.0, obs.m)
    r = np.column_stack([h, obs.p_obs - h])
    return r, {int(i): float(hi) for i, hi in zip(obs.indices, h)}, h


def mixture_rhs(obs, z, gamma, h, big_h, pi):
    """gamma H + sum_S (p - gamma h) / pi(i; Z) from the inclusion formula,
    at each Z of an array."""
    p = obs.p_obs[:, None]
    incl = inclusion_probability(p, obs.n, np.atleast_1d(z), pi)
    return gamma * big_h + np.sum((p - gamma * h[:, None]) / incl, axis=0)


class TestMixture:
    def test_gamma_zero_reduces_to_ipw(self, rng):
        for pi in ("poisson", "fixed-n"):
            obs = random_observation(rng, extra_counts=6)
            r = np.column_stack([obs.p_obs * 0.4, obs.p_obs * 0.6])
            mix = mixture_estimate(obs, r, [1.0, 1.0], 0.0, pi=pi)
            ref = (ipw_poisson if pi == "poisson" else ipw_fixed_n)(obs)
            assert mix.z.value == ref.value
            assert mix.z.diagnostics["evals"] == ref.diagnostics["evals"]

    def test_single_root(self):
        # gamma h <= p: the residual changes sign once, and the estimate is
        # that root
        rng = np.random.default_rng(31)
        for k in range(200):
            m = int(rng.integers(1, 8))
            obs = make_obs(rng.lognormal(0.0, 2.0, m),
                           random_counts(rng, m, m + int(rng.integers(1, 12))))
            r, h, hv = two_part_mixture(obs, rng)
            big_h = float(hv.sum() * rng.uniform(1.0, 4.0))
            gamma = float(rng.uniform(0.0, 1.0))
            pi = ("poisson", "fixed-n")[k % 2]

            def g(z):
                return mixture_rhs(obs, z, gamma, hv, big_h, pi) - z

            grid = obs.v * np.exp(np.linspace(0.0, math.log(1e12), 400))
            vals = g(grid)
            assert vals[0] >= 0.0 and vals[-1] < 0.0
            changes = np.nonzero(np.diff(np.signbit(vals)))[0]
            assert len(changes) == 1
            j = changes[0]
            root = brentq(lambda z: g(z)[0], grid[j], grid[j + 1], xtol=1e-300, rtol=1e-15)
            z = mixture_estimate(obs, r, [1.0, 1.0], gamma, h=h, H=big_h, pi=pi).z.value
            assert z == pytest.approx(root, rel=1e-10)

    def test_gamma_one_is_anchor_plus_ipw_remainder(self, rng):
        for pi in ("poisson", "fixed-n"):
            obs = random_observation(rng, extra_counts=6)
            r, h, hv = two_part_mixture(obs, rng)
            big_h = 2.0 * float(hv.sum())
            z = mixture_estimate(obs, r, [1.0, 1.0], 1.0, h=h, H=big_h, pi=pi).z.value
            assert z == pytest.approx(mixture_rhs(obs, z, 1.0, hv, big_h, pi)[0], rel=1e-10)

    def test_anchor_above_p_rejected(self, rng):
        obs = random_observation(rng, extra_counts=6)
        r = np.column_stack([obs.p_obs * 0.4, obs.p_obs * 0.6])
        h = {int(i): 2.0 * float(p) for i, p in zip(obs.indices, obs.p_obs)}
        big_h = 4.0 * obs.v
        with pytest.raises(ValueError, match="exceeds p"):
            mixture_estimate(obs, r, [1.0, 1.0], 0.75, h=h, H=big_h)
        # gamma h = 0.8 p stays within p
        assert math.isfinite(mixture_estimate(obs, r, [1.0, 1.0], 0.4, h=h, H=big_h).z.value)

    def test_single_component_recovers_z(self, rng):
        obs = random_observation(rng, extra_counts=6)
        r = obs.p_obs.reshape(-1, 1)
        mix = mixture_estimate(obs, r, [1.0], 0.0)
        assert mix.R[0] == pytest.approx(mix.z.value, rel=1e-6)

    def test_inconsistent_decomposition(self, rng):
        obs = random_observation(rng)
        r = np.column_stack([obs.p_obs, obs.p_obs])
        with pytest.raises(ValueError, match="inconsistent"):
            mixture_estimate(obs, r, [1.0, 1.0], 0.0)

    def test_singletons_infinite(self):
        # M = N: no finite root without the anchor, and the anchor alone
        # fixes one
        obs = make_obs([1.0, 2.0], [1, 1])
        r = obs.p_obs.reshape(-1, 1)
        h = {0: 1.0, 1: 1.0}
        assert math.isinf(mixture_estimate(obs, r, [1.0], 0.0).z.value)
        z = mixture_estimate(obs, r, [1.0], 0.5, h=h, H=4.0).z.value
        assert math.isfinite(z) and z >= obs.v
        assert z == pytest.approx(mixture_rhs(obs, z, 0.5, np.ones(2), 4.0, "poisson")[0],
                                  rel=1e-10)

    def test_gamma_requires_anchor(self, rng):
        obs = random_observation(rng)
        r = obs.p_obs.reshape(-1, 1)
        with pytest.raises(ValueError, match="anchor"):
            mixture_estimate(obs, r, [1.0], 0.5)

    def test_two_component_enumeration(self):
        # tiny enumerable mixture: replicate medians track the exact totals
        rng = np.random.default_rng(42)
        d = 8
        r_full = np.column_stack([rng.uniform(0.5, 1.5, d), rng.uniform(0.0, 2.0, d)])
        w = np.array([0.5, 0.5])
        p_full = r_full @ w
        z_exact = float(p_full.sum())
        r_exact = r_full.sum(axis=0)
        h_full = r_full[:, 0] * w[0]
        big_h = float(r_exact[0] * w[0])
        n = 40
        draws = []
        for k in range(300):
            c = np.random.default_rng(1000 + k).multinomial(n, p_full / z_exact)
            idx = np.nonzero(c >= 1)[0]
            draws.append(Observation(domain_size=d, x=np.full(d, 1 / d), indices=idx,
                                     p_obs=p_full[idx], counts=c[idx]))
        for gamma in (0.5, 1.0):
            z_est, r_est = [], []
            for obs in draws:
                idx = obs.indices
                mix = mixture_estimate(obs, r_full[idx], w, gamma,
                                       h={int(i): float(h_full[i]) for i in idx},
                                       H=big_h)
                if math.isfinite(mix.z.value):
                    z_est.append(mix.z.value)
                    r_est.append(mix.R)
            assert np.median(z_est) == pytest.approx(z_exact, rel=0.1)
            med_r = np.median(np.array(r_est), axis=0)
            assert med_r == pytest.approx(r_exact, rel=0.15)

    def test_rb_weighted_totals(self, rng):
        obs = random_observation(rng, extra_counts=6)
        r = np.column_stack([obs.p_obs * 0.4, obs.p_obs * 0.6])
        w = rb_exact(obs)
        mix = mixture_estimate(obs, r, [1.0, 1.0], 0.0, weights=w)
        assert mix.R_rb is not None and mix.R_rb.shape == (2,)


def test_solved_roots_have_tiny_residuals(rng):
    # every solved estimator equation reports its solver work and a
    # plugged-back residual that is negligible on the scale of the
    # equation: V, M for the M / Z variant, H for the harmonic mean, and
    # V + gamma H for the mixture
    for _ in range(25):
        obs = random_observation(rng, extra_counts=int(rng.integers(2, 10)))
        v = obs.v
        scales = {"ipw-fixed-n": v, "ipw-poisson": v, "rb-z-V": v, "rb-z-M": obs.m,
                  "hm": v, "mixture": 1.3 * v}
        for name, res in z_equations(obs).items():
            assert res.is_finite and "reason" not in res.diagnostics, name
            assert res.diagnostics["evals"] > 0 and res.diagnostics["iterations"] >= 0
            assert abs(res.diagnostics["residual"]) <= 1e-8 * scales[name], name


def reference_over_pi(p, n, form):
    """q / pi(i; Z) on inclusion_probability, with its small-rate limit
    q Z / (N p) where pi underflows: the residuals' reference."""
    def over_pi(q, z):
        incl = inclusion_probability(p, n, z, form)
        if incl[p.argmin()] >= np.finfo(float).tiny:
            return q / incl
        return np.divide(q, incl, out=q / p * (z / n), where=incl >= np.finfo(float).tiny)
    return over_pi


@hs.composite
def spread_observations(draw):
    """M = 1..60 points with p = 10^U(-300, 300) and counts 1..4."""
    m = draw(hs.integers(1, 60))
    log10_p = draw(hs.lists(hs.floats(-300.0, 300.0), min_size=m, max_size=m))
    counts = draw(hs.lists(hs.integers(1, 4), min_size=m, max_size=m))
    return make_obs(10.0 ** np.array(log10_p), counts)


class TestLeanResidual:
    """Each Z equation's residual, as handed to the solver, equals one built
    on inclusion_probability bit for bit, and the sample lookups equal the
    comprehensions they replace, errors included."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(obs=spread_observations(), form=hs.sampled_from(["poisson", "fixed-n"]),
           gamma=hs.floats(0.05, 1.0))
    def test_residuals_equal_the_reference(self, obs, form, gamma):
        p, n, v, m = obs.p_obs, obs.n, obs.v, obs.m
        over_pi = reference_over_pi(p, n, form)
        saddle = rb_poisson_weights(obs)
        w = saddle.aligned(obs)
        quarter = {int(i): 0.25 * float(x) for i, x in zip(obs.indices, p)}
        anchor = {int(i): 0.4 * float(x) for i, x in zip(obs.indices, p)}
        r = np.column_stack([0.4 * p, 0.6 * p])
        big_h = 0.6 * v
        q_mix = np.maximum(p - gamma * (0.4 * p), 0.0)
        cases = {
            "ipw": (lambda: estimators._ipw(obs, form, "ipw"),
                    lambda z: float(over_pi(p, z).sum()) - z),
            "mixture": (lambda: mixture_estimate(obs, r, [1.0, 1.0], gamma, h=anchor,
                                                 H=big_h, pi=form),
                        lambda z: gamma * big_h + float(over_pi(q_mix, z).sum()) - z),
            "rb-z-V": (lambda: rb_z_equation(obs, saddle, "V_over_Z", form),
                       lambda z: v - float(z / n * np.dot(
                           w, inclusion_probability(p, n, z, form)))),
            "rb-z-M": (lambda: rb_z_equation(obs, saddle, "M_over_Z", form),
                       lambda z: m - float(z / n * np.dot(w, 1.0 / over_pi(p, z)))),
            "hm": (lambda: harmonic_mean(obs, quarter, v, "ipw_nonlinear", pi=form),
                   lambda z: v - float(over_pi(0.25 * p, z).sum())),
        }
        # V, both lower limits of the search and points up to 1e18 V, the
        # cap, where every pi has underflowed for a wide enough spread
        zs = [v, v * 1e-12, max(float(p.max()) * (1 + 1e-12), v * 1e-12), 1.5 * v]
        zs += [v * 10.0 ** e for e in (1, 3, 6, 12, 18)]
        zs = [z for z in zs if math.isfinite(z) and (form == "poisson" or z > p.max())]
        for name, (estimate, reference) in cases.items():
            residuals = []
            solve = estimators._solve_z

            def capture(f, *args, **kwargs):
                residuals.append(f)
                return solve(f, *args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(estimators, "_solve_z", capture)
                estimate()
            assert len(residuals) == (0 if m == n and name in ("ipw", "rb-z-V", "rb-z-M")
                                      else 1), name
            for f in residuals:
                for z in zs:
                    assert f(z) == reference(z), (name, z)

    def test_lookups_equal_the_comprehensions(self):
        obs = Observation(domain_size=8, x=np.full(8, 0.125), indices=[1, 4, 6],
                          p_obs=[1.0, 2.0, 3.0], counts=[2, 1, 1])

        def outcome(fn):
            try:
                return fn()
            except Exception as exc:  # the type and text are compared
                return type(exc), str(exc)

        v = {1: 0.5, 4: 2.25, 6: 1.25, 7: 9.0}
        got = RBWeights(v=v).aligned(obs)
        assert got.dtype == float
        assert got.tolist() == np.array([v[int(i)] for i in obs.indices]).tolist()
        missing = {1: 0.5, 6: 1.25}
        assert outcome(lambda: RBWeights(v=missing).aligned(obs)) == (KeyError, "4")
        assert outcome(lambda: RBWeights(v=missing).aligned(obs)) == outcome(
            lambda: [missing[int(i)] for i in obs.indices])

        def old_anchor(h):
            hv = np.array([h[int(i)] for i in obs.indices], dtype=float)
            if not (hv.min() >= 0.0 and hv.max() < math.inf):
                raise ValueError("h must be finite and nonnegative")
            return hv.tolist()

        h = [0.0, 0.1, 0.0, 0.0, 0.2, 0.0, 0.3, 0.0]
        anchors = [dict(enumerate(h)), h, np.array(h), {1: 0.1, 6: 0.3},
                   {1: 0.1, 4: None, 6: 0.3}, {1: 0.1, 4: math.nan, 6: 0.3},
                   {1: 0.1, 4: -0.2, 6: 0.3}, {1: 0.1, 4: math.inf, 6: 0.3}]
        for anchor in anchors:
            want = outcome(lambda: old_anchor(anchor))
            assert outcome(lambda: estimators._anchor(obs, anchor, 1.0).tolist()) == want
        assert outcome(lambda: estimators._anchor(obs, anchors[4], 1.0)) == (
            ValueError, "h must be finite and nonnegative")


def test_inclusion_probability_forms():
    p = np.array([0.5, 1.0])
    pois = inclusion_probability(p, 4, 2.0, "poisson")
    assert pois == pytest.approx(-np.expm1(-4 * p / 2.0))
    fix = inclusion_probability(p, 4, 2.0, "fixed-n")
    assert fix == pytest.approx(1 - (1 - p / 2.0) ** 4)
    with pytest.raises(ValueError):
        inclusion_probability(p, 4, 2.0, "nope")


EMPTY = Observation(domain_size=3, x=np.array([0.2, 0.3, 0.5]),
                    indices=np.array([], dtype=int), p_obs=np.array([]),
                    counts=np.array([], dtype=int))


@pytest.mark.parametrize("estimate", [
    ipw_fixed_n, ipw_poisson, rb_exact, rb_poisson_lambda, rb_poisson_weights,
    good_turing_classic, good_turing_rb,
    lambda obs: good_toulmin_rb(obs, 1.0),
    lambda obs: rb_z_equation(obs, RBWeights(v={})),
    lambda obs: rb_z_equation(obs, RBWeights(v={}), variant="M_over_Z", pi="fixed-n"),
    lambda obs: harmonic_mean(obs, {}, 1.0, mode="classic"),
    lambda obs: harmonic_mean(obs, {}, 1.0, mode="rb_linear", weights=RBWeights(v={})),
    lambda obs: harmonic_mean(obs, {}, 1.0, mode="ipw_nonlinear"),
    lambda obs: mixture_estimate(obs, np.zeros((0, 1)), [1.0], 0.0),
], ids=["ipw-fixed-n", "ipw-poisson", "rb-exact", "rb-lambda", "rb-poisson",
        "gt", "gt-rb", "gtoulmin", "rb-z-V", "rb-z-M", "hm-classic",
        "hm-rb-linear", "hm-ipw", "mixture"])
def test_empty_sample_has_no_estimate(estimate):
    with pytest.raises(ValueError, match="^no observations$"):
        estimate(EMPTY)
