import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy.optimize import brentq

from conftest import fixture_path, random_observation
from missmass import cli, estimators
from missmass.data import Observation, load_observation
from missmass.estimators import (RBWeights, expected_phi, good_toulmin_rb,
                                 good_turing_classic, good_turing_rb,
                                 harmonic_mean, inclusion_probability,
                                 ipw_fixed_n, ipw_poisson, mixture_estimate,
                                 rb_exact, rb_poisson_lambda,
                                 rb_poisson_weights, rb_z_equation)
from missmass.likelihoods import ModelParams
from missmass.simulate import (effective_states, simulate_explicit, simulate_model,
                               toy_physics_dataset)
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


@hs.composite
def spread_observations(draw):
    """M = 1..60 points with p = 10^U(-300, 300) and counts 1..4."""
    m = draw(hs.integers(1, 60))
    log10_p = draw(hs.lists(hs.floats(-300.0, 300.0), min_size=m, max_size=m))
    counts = draw(hs.lists(hs.integers(1, 4), min_size=m, max_size=m))
    return make_obs(10.0 ** np.array(log10_p), counts)


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
        # every start and limit of a rate solve is relative to V, so
        # rescaling p rescales Z and keeps the verdict and the solver work;
        # scaling by a power of two is exact, while any other factor rounds
        # p, which can move the last Newton iterate onto or off the stop
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
        # verdict and the work done to reach it are the same at every scale
        evals = set()
        for k in (1e-30, 1.0, 1e30):
            obs = make_obs([k, 2.0 * k, 3.0 * k], [2, 1, 3])
            res = harmonic_mean(obs, {0: 0.0, 1: 0.0, 2: 0.0}, k, mode="ipw_nonlinear")
            assert res.value == math.inf
            assert res.diagnostics["reason"] == "no finite solution"
            evals.add(res.diagnostics["evals"])
        assert len(evals) == 1

    @pytest.mark.filterwarnings("error")
    def test_root_past_the_float_range(self):
        # Z = 6.6 s passes the largest double at s = 3e307, so the rate
        # solve falls below its floor: the no-finite-solution verdict
        obs = make_obs([3e307, 3e307, 3e307], [1, 1, 2])
        r = obs.p_obs.reshape(-1, 1)
        for res in (ipw_poisson(obs), good_turing_rb(obs),
                    mixture_estimate(obs, r, [1.0], 0.0).z):
            assert res.value == math.inf
            assert res.diagnostics["reason"] == "no finite solution"
        assert ipw_poisson(make_obs([1.0, 1.0, 1.0], [1, 1, 2])).value == pytest.approx(
            6.6022, abs=1e-4)

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


def units_exponent(obs):
    """e of the units every Z equation runs in: the binary exponent of V
    where V is below 2^-900, else 0."""
    return math.frexp(obs.v)[1] if obs.v < 2.0 ** -900 else 0


# the most evaluations a rate solve took on test_newton_reaches_every_root's
# draws, over both forms
EVAL_BOUND = {"ipw": 6, "mixture": 6, "rb-z-V": 6, "rb-z-M": 6, "hm": 4}


def rate_equations(obs, form):
    """Every Z equation on obs under form, with the terms of its rate
    equation at a rate lambda in the units of _units: IPW, the gamma = 0.5
    mixture (h = 0.4 p, H = 0.6 V), both Rao-Blackwellized variants with
    the saddle-point weights, and the nonlinear harmonic mean (h = p / 4,
    H = V)."""
    e = units_exponent(obs)
    p, v, n = np.ldexp(obs.p_obs, -e), math.ldexp(obs.v, -e), obs.n
    saddle = rb_poisson_weights(obs).aligned(obs)
    anchor = {int(i): 0.4 * float(x) for i, x in zip(obs.indices, obs.p_obs)}
    quarter = {int(i): 0.25 * float(x) for i, x in zip(obs.indices, obs.p_obs)}
    r = np.column_stack([0.4 * obs.p_obs, 0.6 * obs.p_obs])
    q, c = p - 0.5 * np.ldexp(0.4 * obs.p_obs, -e), 0.5 * math.ldexp(0.6 * obs.v, -e)

    def h(lam):
        return reference_h(p, n, lam, form)[0]

    return {
        "ipw": ((ipw_poisson if form == "poisson" else ipw_fixed_n)(obs),
                lambda lam: [*(h(lam)), -n]),
        "mixture": (mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor, H=0.6 * obs.v,
                                     pi=form).z,
                    lambda lam: [c * lam, *(q / p * h(lam)), -n]),
        "rb-z-V": (rb_z_equation(obs, rb_poisson_weights(obs), "V_over_Z", form),
                   lambda lam: [v, *(-saddle * p / h(lam))]),
        "rb-z-M": (rb_z_equation(obs, rb_poisson_weights(obs), "M_over_Z", form),
                   lambda lam: [obs.m, *(-saddle / h(lam))]),
        "hm": (harmonic_mean(obs, quarter, obs.v, "ipw_nonlinear", pi=form),
               lambda lam: [-v * lam, *(np.ldexp(0.25 * obs.p_obs, -e) / p * h(lam))]),
    }


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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(obs=spread_observations(), form=hs.sampled_from(["poisson", "fixed-n"]))
    def test_newton_reaches_every_root(self, obs, form):
        # every Z equation is one Newton solve in the rate, without a
        # bracket, on masses over the float range: its rate equation, summed
        # exactly at lambda = N / Z, vanishes to 1e-12 of its largest terms,
        # within EVAL_BOUND evaluations (the most seen on these draws)
        for name, (res, terms) in rate_equations(obs, form).items():
            reason = res.diagnostics.get("reason")
            if reason is not None:
                assert reason in (estimators._SINGLETONS, estimators._BOUNDARY), name
                continue
            assert res.diagnostics["evals"] <= EVAL_BOUND[name], (name, res.diagnostics)
            lam = obs.n / math.ldexp(res.value, -units_exponent(obs))
            parts = terms(lam)
            assert abs(math.fsum(parts)) <= 1e-12 * math.fsum(np.abs(parts)), name

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(obs=spread_observations())
    def test_newton_reaches_the_saddle_point(self, obs):
        # the rate solve needs no bracket and ends within six evaluations at
        # sum_S h(lambda p) = N, exactly summed, on masses over the float range
        res = ipw_poisson(obs)
        if obs.m == obs.n:
            assert math.isinf(res.value)
            return
        assert res.diagnostics["evals"] <= 6
        mu = rb_poisson_lambda(obs) * obs.p_obs
        assert abs(math.fsum(estimators._ztp_mean(mu)) / obs.n - 1.0) <= 1e-13

    @pytest.mark.parametrize("seed", range(4))
    def test_rb_z_equation_shares_the_ipw_root(self, seed):
        # at Z = N / lambda, sum_S v pi = sum_S lambda p = lambda V for the
        # saddle-point weights, so the V / Z equation's root, found from
        # N / V, is the one the IPW solve finds from the Good-Turing rate
        rng = np.random.default_rng(seed)
        draws = [random_observation(rng, extra_counts=int(rng.integers(1, 10)))
                 for _ in range(20)]
        draws += [make_obs(10.0 ** rng.uniform(-300.0, 300.0, m), rng.integers(1, 5, m))
                  for m in rng.integers(1, 40, 20)]
        for obs in draws:
            z = ipw_poisson(obs).value
            rb = rb_z_equation(obs, rb_poisson_weights(obs)).value
            assert rb == z if math.isinf(z) else abs(rb / z - 1.0) <= 1e-10

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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(obs=spread_observations())
    def test_seeded_roots_equal_the_unseeded(self, obs):
        # weights of obs itself start a Poisson-form solve at the rate of
        # their tilt, the same values as a bare mapping at N / V.  Each
        # solve stops within a Newton step of 1e-14 of its root, from
        # either side, and the M / Z residual sums M terms near 1, whose
        # rounding blurs the root by a few more ulps
        for weights in (rb_exact(obs), rb_poisson_weights(obs)):
            bare = RBWeights(v=weights.v, log_f_n=weights.log_f_n)
            for variant in ("V_over_Z", "M_over_Z"):
                for pi in ("poisson", "fixed-n"):
                    seeded = rb_z_equation(obs, weights, variant, pi)
                    plain = rb_z_equation(obs, bare, variant, pi)
                    assert seeded.diagnostics.get("reason") == plain.diagnostics.get("reason")
                    assert seeded.value == pytest.approx(plain.value, rel=4e-14, abs=0.0)
                    assert seeded.diagnostics.get("evals", 0) <= plain.diagnostics.get("evals", 0)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e295, 1e300])
    def test_no_finite_solution_near_the_float_limit(self, scale):
        # h = 0 on the sample: the rate equation's only root is lambda = 0,
        # and the verdict comes without forming Z, or the cap times V + H
        obs = make_obs([scale, 2.0 * scale, 3.0 * scale], [2, 1, 3])
        res = harmonic_mean(obs, {0: 0.0, 1: 0.0, 2: 0.0}, 1e295, mode="ipw_nonlinear")
        assert res.value == math.inf
        assert res.diagnostics["reason"] == "no finite solution"


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

    @pytest.mark.parametrize("s", [1.0, 1e-305, 1e-309])
    def test_checks_are_relative_at_every_scale(self, s):
        # r @ w = 0.9 p and gamma h = 1.1 p are refused, the exact
        # decomposition and gamma h = p accepted, however small p is
        obs = make_obs([s, 2.0 * s, 3.0 * s], [2, 1, 3])
        p = obs.p_obs
        exact = np.column_stack([0.4 * p, 0.6 * p])
        with pytest.raises(ValueError, match="inconsistent"):
            mixture_estimate(obs, np.column_stack([0.45 * p, 0.45 * p]), [1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="exceeds p"):
            mixture_estimate(obs, exact, [1.0, 1.0], 1.0, h=dict(enumerate(1.1 * p)), H=obs.v)
        anchor = dict(enumerate(p))
        assert math.isfinite(mixture_estimate(obs, exact, [1.0, 1.0], 0.0).z.value)
        assert math.isfinite(mixture_estimate(obs, exact, [1.0, 1.0], 1.0, h=anchor,
                                              H=2.0 * obs.v).z.value)

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


@pytest.mark.filterwarnings("error")
def test_poisson_estimates_scale_to_the_float_limit():
    # N p overflows at s = 1e307 (6 * 3e307); every form, Poisson and
    # fixed-n, works on lambda p = p (N / Z), which stays in range, so Z / s
    # does not move.  Every root lies below 9 s, within the float range at
    # s = 1e307.
    def estimates(s):
        obs = make_obs([s, 2.0 * s, 3.0 * s], [2, 2, 2])
        p, v = obs.p_obs, obs.v
        anchor = {i: 0.75 * float(x) for i, x in enumerate(p)}
        r = np.column_stack([0.4 * p, 0.6 * p])
        gt_rb = good_turing_rb(obs)
        return {
            "ipw": ipw_poisson(obs).value / s,
            "gt-rb": gt_rb.value / s,
            "gt-rb W": gt_rb.w / s,
            "gtoulmin": good_toulmin_rb(obs, rb_poisson_lambda(obs)),
            "rb-poisson": rb_z_equation(obs, rb_poisson_weights(obs)).value / s,
            "rb-exact": rb_z_equation(obs, rb_exact(obs)).value / s,
            "rb-z-M": rb_z_equation(obs, rb_exact(obs), variant="M_over_Z").value / s,
            "hm": harmonic_mean(obs, anchor, v, mode="ipw_nonlinear").value / s,
            "mixture-0": mixture_estimate(obs, r, [1.0, 1.0], 0.0).z.value / s,
            "mixture-0.5": mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor,
                                            H=v).z.value / s,
            "ipw-fixed-n": ipw_fixed_n(obs).value / s,
            "mixture-fixed-n": mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor, H=v,
                                                pi="fixed-n").z.value / s,
            **{f"rb-z-{variant} fixed-n": rb_z_equation(obs, rb_exact(obs), variant,
                                                        "fixed-n").value / s
               for variant in ("V_over_Z", "M_over_Z")},
            "hm fixed-n": harmonic_mean(obs, anchor, v, "ipw_nonlinear",
                                        pi="fixed-n").value / s,
        }

    base = estimates(1.0)
    assert base["ipw"] == pytest.approx(7.7023, abs=1e-4)
    for s in (1e300, 1e307):
        for name, value in estimates(s).items():
            assert value == pytest.approx(base[name], rel=1e-12), (name, s)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pi", ["poisson", "fixed-n"])
def test_an_anchor_past_the_float_range_from_v_stays_finite(pi):
    # H / V = 1.7e309 passes the largest double, so no power of two puts
    # both near 1; the scale keeps H finite, and Z, far above V, is in
    # range.  Every lambda p underflows at the root, where pi = lambda p.
    obs = make_obs(1e-280 * np.array([1.0, 2.0, 3.0]), [2, 2, 2])
    p, big_h = obs.p_obs, 1e30
    h, half = dict(enumerate(p)), dict(enumerate(p / 2))
    # N H / sum_S c h / p, and N H / M where every pi takes its small-rate limit
    assert harmonic_mean(obs, h, big_h, "classic", pi=pi).value == pytest.approx(
        big_h, rel=1e-12)
    assert harmonic_mean(obs, h, big_h, "ipw_nonlinear", pi=pi).value == pytest.approx(
        obs.n * big_h / obs.m, rel=1e-12)
    # gamma = 1: Z = H + sum_S (p / 2) / pi = H + Z M / (2 N)
    mix = mixture_estimate(obs, p.reshape(-1, 1), [1.0], 1.0, h=half, H=big_h, pi=pi)
    assert mix.z.value == pytest.approx(big_h / (1.0 - obs.m / (2.0 * obs.n)), rel=1e-12)
    assert mix.R[0] == pytest.approx(2.0 * (mix.z.value - big_h), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s, count", [(1e-300, 2), (1e-306, 400), (1e-309, 2), (1e-288, 2),
                                      (1e-304, 2), (1e-306, 2), (1e-307, 2), (1e-308, 2)])
def test_poisson_estimates_scale_to_the_smallest_masses(s, count):
    # N / V passes the float range at s = 1e-306 with counts 400 (N / V =
    # 2e308) and at s = 1e-309 (subnormal masses); every equation, Poisson
    # and fixed-n, runs on masses scaled by a power of two where
    # V < 2^-900, and lambda p is formed from the rate in those units
    def estimates(s):
        obs = make_obs([s, 2.0 * s, 3.0 * s], [count] * 3)
        p, v = obs.p_obs, obs.v
        anchor = {i: 0.75 * float(x) for i, x in enumerate(p)}
        fifth = {i: 0.2 * s for i in range(3)}
        r = np.column_stack([0.4 * p, 0.6 * p])
        gt_rb, saddle, exact = good_turing_rb(obs), rb_poisson_weights(obs), rb_exact(obs)
        closed = {mode: harmonic_mean(obs, fifth, s, mode, weights=saddle)
                  for mode in ("classic", "rb_linear")}
        return {
            "ipw": ipw_poisson(obs).value / s,
            "gt-rb": gt_rb.value / s,
            "gt-rb W": gt_rb.w / s,
            "gtoulmin": cli.ESTIMATES["gtoulmin"](obs, None).w_over_z,
            "rb-poisson": rb_z_equation(obs, saddle).value / s,
            "rb-exact": rb_z_equation(obs, exact).value / s,
            "rb-z-M": rb_z_equation(obs, exact, variant="M_over_Z").value / s,
            "hm": harmonic_mean(obs, anchor, v, mode="ipw_nonlinear").value / s,
            "mixture-0": mixture_estimate(obs, r, [1.0, 1.0], 0.0).z.value / s,
            "mixture-0.5": mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor,
                                            H=v).z.value / s,
            "ipw-fixed-n": ipw_fixed_n(obs).value / s,
            "mixture-fixed-n": mixture_estimate(obs, r, [1.0, 1.0], 0.5, h=anchor, H=v,
                                                pi="fixed-n").z.value / s,
            **{f"rb-z-{variant} {pi}": rb_z_equation(obs, saddle, variant, pi).value / s
               for variant, pi in (("V_over_Z", "fixed-n"), ("M_over_Z", "poisson"),
                                   ("M_over_Z", "fixed-n"))},
            **{f"hm {pi}": harmonic_mean(obs, anchor, v, "ipw_nonlinear", pi=pi).value / s
               for pi in ("poisson", "fixed-n")},
            **{f"hm {mode}": res.value / s for mode, res in closed.items()},
            **{f"hm {mode} W/Z": res.w_over_z for mode, res in closed.items()},
            **{f"rb-poisson v{i}": x for i, x in enumerate(saddle.aligned(obs))},
            **{f"rb-exact v{i}": x for i, x in enumerate(exact.aligned(obs))},
        }

    base = estimates(1.0)
    for name, value in estimates(s).items():
        assert value == pytest.approx(base[name], rel=1e-12, abs=1e-12), name
    obs = make_obs([s, 2.0 * s, 3.0 * s], [count] * 3)
    if count == 400:
        assert rb_poisson_lambda(obs) == math.inf
    # a residual in Z units is scaled back with its root
    quarter = {i: 0.25 * float(x) for i, x in enumerate(obs.p_obs)}
    for res in (ipw_poisson(obs), ipw_fixed_n(obs), rb_z_equation(obs, rb_exact(obs)),
                harmonic_mean(obs, quarter, obs.v, "ipw_nonlinear")):
        assert abs(res.diagnostics["residual"]) <= 1e-8 * res.value, res.method


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_forms_scale_to_the_float_limit():
    # V N, N H and the mixture's R_rb times Z overflow near the float
    # maximum; each ratio is taken first
    def estimates(s, counts):
        obs = make_obs([s, 2.0 * s, 3.0 * s], counts)
        h = {i: 0.75 * float(x) for i, x in enumerate(obs.p_obs)}
        r = np.column_stack([0.4 * obs.p_obs, 0.6 * obs.p_obs])
        gt, saddle = good_turing_classic(obs), rb_poisson_weights(obs)
        r_rb = mixture_estimate(obs, r, [1.0, 1.0], 0.0, weights=saddle).R_rb / s
        return {
            "gt": gt.value / s, "gt W": gt.w / s,
            "hm classic": harmonic_mean(obs, h, obs.v).value / s,
            "hm rb_linear": harmonic_mean(obs, h, obs.v, mode="rb_linear",
                                          weights=saddle).value / s,
            "R_rb 0": r_rb[0], "R_rb 1": r_rb[1],
        }

    for counts in ([2, 2, 2], [1, 2, 3]):
        base = estimates(1.0, counts)
        assert base["hm classic"] == pytest.approx(8.0, rel=1e-15)
        for s in (1e300, 1e307):
            for name, value in estimates(s, counts).items():
                assert value == pytest.approx(base[name], rel=1e-12), (name, s, counts)


def calibration_draws(seed0: int, reps: int):
    """Observations of Gamma-Poisson draws, (alpha, b, lambda) = (2, 1, 5) and
    (2, 1, 20) in turn, with x uniform on 50 points (expected N = 10 and 40);
    draws with no sampled point are left out."""
    x = np.full(50, 1.0 / 50)
    params = [ModelParams(2.0, 1.0, 5.0), ModelParams(2.0, 1.0, 20.0)]
    for k in range(reps):
        ds = simulate_model(x, params[k % 2], "p-c", rng_seed=seed0 + k)
        if ds.c.sum():
            yield ds.observe()


def assert_point_estimates_consistent(obs):
    """Sum_S v = N for both Rao-Blackwell weightings, Z = V + W for both
    Good-Turing estimators, 0 <= W/Z <= 1 for Good-Toulmin, and Z > 0 or
    +inf from every Z equation, each to 1e-12."""
    n, v = obs.n, obs.v
    zs = [ipw_fixed_n(obs).value, ipw_poisson(obs).value]
    for weights in (rb_poisson_weights(obs), rb_exact(obs)):
        assert math.fsum(weights.v.values()) == pytest.approx(n, rel=1e-12)
        zs.append(rb_z_equation(obs, weights).value)
    for res in (good_turing_classic(obs), good_turing_rb(obs)):
        zs.append(res.value)
        if math.isinf(res.value):
            assert math.isinf(res.w) and res.w_over_z == 1.0
        else:
            assert res.value == pytest.approx(v + res.w, rel=1e-12)
    assert 0.0 <= good_toulmin_rb(obs, rb_poisson_lambda(obs)) <= 1.0
    assert all(z > 0.0 for z in zs), zs


class TestCalibrationDesign:
    """The per-request checks of the calibration Monte Carlo design, on
    draws seeded here, at 1e-12."""

    def test_replicates(self):
        draws = list(calibration_draws(610000, 2100))
        assert len(draws) >= 2000
        for obs in draws:
            assert_point_estimates_consistent(obs)

    @pytest.mark.parametrize("ps, cs", [
        ([0.02, 0.05, 0.01], [1, 1, 1]),                      # M = N
        ([0.03], [7]),                                        # M = 1
        (list(np.linspace(0.01, 0.2, 30)), [2] + [1] * 29),   # N = M + 1
        ([5e-324, 0.04, 0.02], [1, 3, 2]),                    # lambda p subnormal
    ], ids=["M=N", "M=1", "N=M+1", "subnormal-rate"])
    def test_edge_cases(self, ps, cs):
        assert_point_estimates_consistent(make_obs(ps, cs, d=50))

    def test_a_subnormal_rate_is_sampled(self):
        obs = make_obs([5e-324, 0.04, 0.02], [1, 3, 2], d=50)
        assert 0.0 < rb_poisson_lambda(obs) * 5e-324 < np.finfo(float).tiny

    def test_toy_medians(self):
        # the toy mixture's medians over 24 draws, at gamma = 0 and 1 and
        # for the classic harmonic mean, stay within 15 % of the enumerated Z
        toy = toy_physics_dataset(4096, [3.0, 1.0, 0.5])
        n = int(4 * effective_states(toy.dataset.p))
        h_all = toy.r[:, 0] * toy.w[0]
        big_h = float(toy.r_totals[0] * toy.w[0])
        for group in range(2):
            found = {0.0: [], 1.0: [], "hm": []}
            for k in range(24):
                obs = simulate_explicit(toy.dataset.p, n=n, rng_seed=620000 + 24 * group + k,
                                        x=toy.dataset.x).observe()
                h = {int(i): float(h_all[i]) for i in obs.indices}
                for gamma in (0.0, 1.0):
                    found[gamma].append(mixture_estimate(obs, toy.r[obs.indices], toy.w,
                                                         gamma, h=h, H=big_h).z.value)
                found["hm"].append(harmonic_mean(obs, h, big_h).value)
            for key, zs in found.items():
                assert abs(np.median(zs) / toy.z_exact - 1.0) <= 0.15, key


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


def reference_h(p, n, lam, form):
    """h(mu) = mu / pi(mu) and s = 1 - mu h'(mu) / h at mu = lambda p, with
    h's limit 1 where lambda p underflows: for Poisson sampling _ztp_mean's
    formula and s = h - mu, under fixed-n from t = 1 - mu / N, kept below
    1, and s = h t^(N - 1)."""
    tiny = np.finfo(float).tiny
    if form == "poisson":
        mu = np.maximum(lam * p, tiny)
        h = mu / -np.expm1(-mu)
        return h, h - mu
    x = np.clip(p * (lam / n), tiny, 1.0 - 2.0 ** -53)
    log_t = np.log1p(-x)
    h = n * x / -np.expm1(n * log_t)
    return h, np.exp((n - 1) * log_t) * h


def reference_rate(p, n, form, w, c, target=0.0, per_mass=False):
    """G(lambda) = c lambda + sum_S w f(lambda p) - target, lambda G'(lambda)
    and their difference, with f = h, or per mass pi / p = lambda / h, from
    reference_h and d = h - mu h' = h s: the rate equations' reference."""
    def rate(lam):
        h, s = reference_h(p, n, lam, form)
        if per_mass:
            w_inv, w_d = float(np.dot(w, 1.0 / h)), float(np.dot(w, s * (1.0 / h)))
            return (lam * (c + w_inv) - target, lam * (c + w_d),
                    target + lam * (w_d - w_inv))
        d = s * h
        total, wd = c * lam + float(np.dot(w, h)), float(np.dot(w, d))
        slope = total - wd if c >= 0.0 else c * lam + float(np.dot(w, h - d))
        return total - target, slope, target - wd
    return rate


# one explicit sample whose V lies below 2^-900, with a subnormal mass
SMALL_V_OBS = make_obs([1e-300, 3e-305, 2e-309], [2, 1, 3])


class TestLeanResidual:
    """Each Z equation's rate map, as handed to _solve_rate, equals one
    built on reference_h, bit for bit, on the masses and rates the solve
    runs on: scaled by 2^-e, e the binary exponent of V, where V is below
    2^-900, with the anchors scaled alike.  And the sample lookups equal
    the comprehensions they replace, errors included."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(obs=spread_observations(), form=hs.sampled_from(["poisson", "fixed-n"]),
           gamma=hs.floats(0.05, 1.0))
    @example(obs=SMALL_V_OBS, form="poisson", gamma=0.5)
    @example(obs=SMALL_V_OBS, form="fixed-n", gamma=0.5)
    def test_residuals_equal_the_reference(self, obs, form, gamma):
        e = math.frexp(obs.v)[1] if obs.v < 2.0 ** -900 else 0

        def scaled(x):
            return np.ldexp(x, -e)

        p, v, n, m = scaled(obs.p_obs), float(scaled(obs.v)), obs.n, obs.m
        saddle = rb_poisson_weights(obs)
        w = saddle.aligned(obs)
        quarter = {int(i): 0.25 * float(x) for i, x in zip(obs.indices, obs.p_obs)}
        anchor = {int(i): 0.4 * float(x) for i, x in zip(obs.indices, obs.p_obs)}
        r = np.column_stack([0.4 * obs.p_obs, 0.6 * obs.p_obs])
        big_h = 0.6 * obs.v
        q_mix = np.maximum(p - gamma * scaled(0.4 * obs.p_obs), 0.0)
        c_mix = gamma * float(scaled(big_h))
        cases = {
            "ipw": (lambda: estimators._ipw(obs, form),
                    reference_rate(p, n, form, p / p, 0.0, n)),
            "mixture": (lambda: mixture_estimate(obs, r, [1.0, 1.0], gamma, h=anchor,
                                                 H=big_h, pi=form),
                        reference_rate(p, n, form, q_mix / p, c_mix, n)),
            "rb-z-V": (lambda: rb_z_equation(obs, saddle, "V_over_Z", form),
                       reference_rate(p, n, form, -w * p, v, per_mass=True)),
            "rb-z-M": (lambda: rb_z_equation(obs, saddle, "M_over_Z", form),
                       reference_rate(p, n, form, -w, m, per_mass=True)),
            "hm": (lambda: harmonic_mean(obs, quarter, obs.v, "ipw_nonlinear", pi=form),
                   reference_rate(p, n, form, scaled(0.25 * obs.p_obs) / p, -v)),
        }
        # the rates of Z from V to 1e18 V, the cap, where every pi has
        # underflowed for a wide enough spread, and of both lower limits of
        # Z, within mu <= N under fixed-n
        zs = [v, v * 1e-12, max(float(p.max()) * (1 + 1e-12), v * 1e-12), 1.5 * v]
        zs += [v * 10.0 ** k for k in (1, 3, 6, 12, 18)]
        lams = [n / z for z in zs if math.isfinite(z) and (form == "poisson" or z >= p.max())]
        for name, (estimate, reference) in cases.items():
            found = []
            with pytest.MonkeyPatch.context() as patch:
                def capture(f, *args, solve=estimators._solve_rate):
                    found.append(f)
                    return solve(f, *args)

                patch.setattr(estimators, "_solve_rate", capture)
                estimate()
            assert len(found) == (0 if m == n and name in ("ipw", "rb-z-V", "rb-z-M")
                                  else 1), name
            for f in found:
                for lam in lams:
                    assert f(lam) == reference(lam), (name, lam)

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
            assert outcome(lambda: estimators._anchor(obs, anchor, 1.0)[3].tolist()) == want
        assert outcome(lambda: estimators._anchor(obs, anchors[4], 1.0)) == (
            ValueError, "h must be finite and nonnegative")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=hs.integers(1, 10 ** 6), x=hs.floats(1e-12, 1.0))
@example(n=1, x=1.0)
@example(n=10 ** 6, x=1.0)
def test_fixed_n_kernel_is_increasing_and_convex(n, x):
    # h_N(mu) = mu / (1 - (1 - mu/N)^N) on 0 < mu <= N is increasing and
    # convex, and d = h - mu h' >= 0: at 40 digits these hold, and
    # the float kernel matches to 1e-12 and keeps them to 4e-15 relative
    def exact(mu):
        return mu / (1 - (1 - mu / n) ** n)

    mu = n * x
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        value, slope, curve = (mpmath.diff(exact, m, k) if m < n else
                               mpmath.diff(exact, m, k, direction=-1) for k in range(3))
        # to the 40-digit noise of the numerical derivatives
        noise = mpmath.mpf(10) ** -30 * value
        assert slope >= -noise and curve >= -noise and value - m * slope >= -noise
    delta = 1e-3 * min(mu, n - mu) if mu < n else 1e-3 * mu
    mus = np.array([mu - delta, mu, mu + delta] if mu < n else [mu - 2 * delta, mu - delta, mu])
    h, s = (k.copy() for k in estimators._kernel(mus, n, "fixed-n")(1.0))
    d = h * s
    k = 1 if mu < n else 2
    assert h[k] == pytest.approx(float(value), rel=1e-12)
    assert d[k] == pytest.approx(float(value - m * slope), rel=1e-9, abs=1e-12 * float(value))
    assert np.all(np.diff(h) >= -4e-15 * h[1:])
    assert h[0] + h[2] - 2.0 * h[1] >= -4e-15 * h[1]
    assert np.all(d >= 0.0) and np.all(d <= h * (1 + 4e-15))


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
