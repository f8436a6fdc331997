"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN ...: PASS/FAIL`` line.  The suite is
deterministic (fixed seeds) and uses only independent oracles: brute-force
enumeration, series expansion, quadrature, Monte Carlo and exact ground
truth from enumerable models.
"""

import math
import time

import mpmath as mp
import numpy as np

from conftest import proportional_observation, random_observation
from missmass.data import Dataset, Observation, kl_delta, summarize
from missmass.distributions import PointMass
from missmass.estimators import good_turing_rb, ipw_fixed_n, ipw_poisson, rb_exact
from missmass.inference import (ALPHA_T_BOUNDS, infer_bayes, infer_mixed,
                                infer_profile, mle_alpha)
from missmass.likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha,
                                  log_L4, log_L5, log_L8, log_L9)
from missmass.moments import match_C
from missmass.simulate import (expected_values, sample_count_given_s_p,
                               sample_given_s, simulate_model_batch)
from missmass.solvers import integrate_semi_infinite
from missmass.special import log_beta
from missmass.verify import (brute_force_rb, chi_square_equivalence, random_counts,
                             toy_physics_errors)


def _report(num: int, label: str, passed: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


def test_criterion_01_rb_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        p = rng.lognormal(0.0, 1.0, m)
        obs = Observation(domain_size=m + 1, x=np.full(m + 1, 1 / (m + 1)),
                          indices=np.arange(m), p_obs=p,
                          counts=random_counts(rng, m, n))
        w = rb_exact(obs)
        f_n, v = brute_force_rb(p, n)
        ok &= abs(w.log_f_n - math.log(f_n)) < 1e-10
        ok &= bool(np.max(np.abs(w.aligned(obs) - v)) < 1e-10)
    elapsed = time.perf_counter() - start
    _report(1, f"RB exactness vs enumeration, {elapsed:.2f}s",
            ok and elapsed < 5.0)


def test_criterion_02_generating_function():
    rng = np.random.default_rng(102)
    ok = True
    for m in (1, 2, 3):
        for n in range(m, 7):
            p = rng.lognormal(0.0, 0.7, m)
            series = np.zeros(n + 1)
            series[0] = 1.0
            for pj in p:
                term = np.array([pj ** k / math.factorial(k) for k in range(n + 1)])
                term[0] = 0.0
                series = np.convolve(series, term)[:n + 1]
            f_n = math.factorial(n) * series[n]
            obs = Observation(domain_size=m + 1, x=np.full(m + 1, 1 / (m + 1)),
                              indices=np.arange(m), p_obs=p,
                              counts=random_counts(rng, m, n))
            ok &= abs(math.expm1(rb_exact(obs).log_f_n - math.log(f_n))) < 1e-12
    _report(2, "generating-function identity", ok)


def test_criterion_03_beta_identity_quadrature():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(20):
        obs = random_observation(rng, d=int(rng.integers(6, 14)))
        st = summarize(obs)
        alpha = float(np.exp(rng.uniform(-1.0, 3.2)))
        if alpha * st.Y < 0.03:
            alpha = 0.05 / st.Y
        quad4 = integrate_semi_infinite(lambda w: log_L4(st, w, alpha), st.V)
        quad8 = integrate_semi_infinite(lambda w: log_L8(st, w, alpha), st.V)
        ok &= abs(math.expm1(quad4 - log_L5(st, alpha))) < 1e-7
        ok &= abs(math.expm1(quad8 - log_L9(st, alpha))) < 1e-7
    _report(3, "L4->L5 and L8->L9 Beta identities", ok)


def _mp_curvature(which, obs, st, alpha):
    """d^2 log L5 or L9 / d alpha^2 at 60 digits, from the same float inputs."""
    with mp.workdps(60):
        a = mp.mpf(float(alpha))
        big_x = mp.mpf(st.X)
        lead = mp.psi(1, a) if which == "L5" else 1 / a
        shapes = sum(mp.mpf(xi) ** 2 * mp.psi(1, a * mp.mpf(xi))
                     for xi in obs.x_obs)
        return (lead - shapes + big_x ** 2 * mp.psi(1, a * big_x + st.N)
                - mp.psi(1, a + st.N))


def test_criterion_04_concavity_suite():
    # L4 and L8 are provably log-concave in alpha: L4's curvature is that of
    # the log inverse Dirichlet normalizer, and L8 swaps psi'(alpha) for the
    # smaller 1/alpha.  L5 and L9 are not (README, "Tests and acceptance
    # suite"): draws 9, 17 and 18 curve upward at 66 grid points, every one
    # matching 60-digit mpmath to a relative 4e-13, and draw 17's L9 has two
    # local maxima (alpha ~ 3.9 and ~ 189).  For L5 and L9 the criterion
    # therefore checks what mle_alpha relies on: each upward curvature is
    # real, not rounding, and the slope scan returns the global maximum.
    rng = np.random.default_rng(104)
    grid = np.exp(np.linspace(-6.0, 6.0, 50))
    dense = np.exp(np.linspace(*ALPHA_T_BOUNDS, 40_001))
    worst = {"L4": 0.0, "L8": 0.0}
    upward = {"L5": [], "L9": []}
    max_up = {"L5": 0.0, "L9": 0.0}
    unconfirmed, missed = [], []
    for draw in range(20):
        obs = random_observation(rng)
        st = summarize(obs)
        w = 0.7 * st.V
        for which in worst:
            vals = d2log_dalpha2(which, st, grid, w=w)
            worst[which] = max(worst[which], float(np.max(vals)))
        for which, fn in (("L5", log_L5), ("L9", log_L9)):
            vals = d2log_dalpha2(which, st, grid)
            positive = vals > 1e-12
            if positive.any():
                upward[which].append(draw)
                max_up[which] = max(max_up[which], float(np.max(vals)))
            for a, v in zip(grid[positive], vals[positive]):
                ref = _mp_curvature(which, obs, st, a)
                if not (ref > 0 and abs(v - float(ref)) <= 1e-8 * float(ref)):
                    unconfirmed.append(f"{which} draw {draw} alpha {a:.3g}")
            a_hat, _ = mle_alpha(st, which)
            gap = fn(st, a_hat) - np.max(fn(st, dense))
            if not gap >= -1e-9:
                missed.append(f"{which} draw {draw} ({gap:.2e})")
    violators = [f"{k} (max d2 = {v:.2e})" for k, v in worst.items() if v > 1e-12]
    # constructed X -> 0 instance where the L11 profile curves upward
    eps = 1e-9
    obs = Observation(domain_size=2, x=np.array([eps, 1.0 - eps]),
                      indices=np.array([0]), p_obs=np.array([1.0]),
                      counts=np.array([2]))
    st = summarize(obs)
    l11_positive = d2log_dalpha2("L11", st, 5.0) > 0.0
    label = ("log-concavity of L4, L8 with L11 counterexample; "
             + ", ".join(f"{k} curves upward on draws {v} (max d2 = "
                         f"{max_up[k]:.2e})" for k, v in upward.items())
             + ", each checked against 60-digit mpmath; MLE checked against "
             "a dense-grid maximum")
    if violators:
        label += "; violated by " + ", ".join(violators)
    if not l11_positive:
        label += "; L11 counterexample no longer curves upward"
    if unconfirmed:
        label += (f"; mpmath disagrees at {len(unconfirmed)} points, first "
                  + ", ".join(unconfirmed[:3]))
    if missed:
        label += "; MLE below the dense-grid maximum for " + ", ".join(missed)
    _report(4, label, not (violators or unconfirmed or missed) and l11_positive)


def test_criterion_05_asymptotic_slopes():
    rng = np.random.default_rng(105)
    alpha = 1e4
    ok = True
    checked = 0
    while checked < 12:
        obs = random_observation(rng)
        st = summarize(obs)
        if st.is_proportional or st.Y == 0.0:
            continue
        checked += 1
        bound = 10.0 * st.M / alpha
        ok &= abs(dlog_dalpha("L5", st, alpha) + st.delta_S) <= bound
        w = 0.7 * st.V
        ok &= abs(dlog_dalpha("L4", st, alpha, w=w) + kl_delta(st, w)) <= bound
    _report(5, "asymptotic alpha slopes match -Delta_S and -Delta", ok)


def test_criterion_06_ipw_unbiasedness():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    d, n, reps = 20, 30, 100_000
    p = rng.lognormal(0.0, 1.0, d)
    z_true = p.sum()
    pi = 1.0 - (1.0 - p / z_true) ** n
    counts = rng.multinomial(n, p / z_true, size=reps)
    est = ((counts >= 1) * (p / pi)).sum(axis=1)
    se = est.std(ddof=1) / math.sqrt(reps)
    elapsed = time.perf_counter() - start
    ok = abs(est.mean() - z_true) <= 4.0 * se and elapsed < 30.0
    _report(6, f"IPW unbiasedness at true Z ({elapsed:.1f}s)", ok)


def test_criterion_07_mixed_closed_form():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(20):
        alpha = float(np.exp(rng.uniform(-0.5, 3.0)))
        x_frac = float(rng.uniform(0.15, 0.9))
        n = int(rng.integers(3, 80))
        y = 1.0 - x_frac
        if alpha * y < 0.03:
            alpha = 0.05 / y
        a, b = alpha * y, alpha * x_frac + n
        log_norm = integrate_semi_infinite(
            lambda t: (a - 1.0) * np.log(t) - (a + b) * np.log1p(t),
            a / max(b - 1.0, 1.0))
        log_mean = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b) * np.log1p(t),
            (a + 1.0) / max(b - 2.0, 1.0))
        mean_wv = math.exp(log_mean - log_norm)
        target_wv = a / (b - 1.0)
        ok &= abs(mean_wv - target_wv) <= 1e-8 * max(1.0, target_wv)
        # W/Z = t/(1+t) under the same kernel gives the Beta mean
        log_mean_z = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b + 1.0) * np.log1p(t),
            a / max(b, 1.0))
        mean_wz = math.exp(log_mean_z - log_norm)
        ok &= abs(mean_wz - a / (a + b)) <= 1e-8
        ok &= abs(math.expm1(log_norm - log_beta(a, b))) < 1e-8
    _report(7, "mixed-method closed-form moments vs quadrature", ok)


def test_criterion_08_singular_cases():
    rng = np.random.default_rng(108)
    ok = True
    for scale in (0.5, 3.0):
        obs = proportional_observation(rng, scale=scale)
        st = summarize(obs)
        for fn in (infer_mixed, infer_bayes, infer_profile):
            rep = fn(obs, st)
            ok &= rep.singular_case == "DeltaS_zero"
            ok &= isinstance(rep.w_dist, PointMass)
            ok &= abs(rep.w_dist.value - st.Y * scale) < 1e-10 * max(1.0, scale)
    singles = Observation(domain_size=6, x=np.full(6, 1 / 6),
                          indices=np.array([0, 3, 5]),
                          p_obs=np.array([1.0, 0.4, 2.2]),
                          counts=np.array([1, 1, 1]))
    ok &= math.isinf(ipw_fixed_n(singles).value)
    ok &= math.isinf(ipw_poisson(singles).value)
    gtr = good_turing_rb(singles)
    ok &= math.isinf(gtr.z) and math.isinf(gtr.w) and gtr.w_over_z == 1.0
    res_c = match_C(singles, summarize(singles))
    ok &= res_c.diagnostics.get("status") == "lambda_zero"
    ok &= res_c.diagnostics.get("lambda") == 0.0
    _report(8, "singular-case verdicts (Delta_S = 0 and M = N)", ok)


def test_criterion_09_generative_equivalence():
    x = np.array([0.5, 0.3, 0.2])
    params = ModelParams(1.5, 1.0, 4.0)
    keys = []
    for k, order in enumerate(("p-c", "z-dirichlet", "c-p")):
        batch = simulate_model_batch(x, params, order, 100_000, rng_seed=900 + k)
        keys.append(np.stack([batch["M"], np.minimum(batch["N"], 15),
                              np.minimum(np.round(10 * batch["V"]).astype(int), 60)],
                             axis=1))
    p_value = chi_square_equivalence(keys)
    _report(9, f"three generative orders equivalent (p = {p_value:.4f})",
            p_value > 0.001)


def test_criterion_10_expectation_oracle():
    x = np.full(8, 1 / 8)
    params = ModelParams(2.0, 1.0, 5.0)
    reps = 100_000
    ok = True

    batch = simulate_model_batch(x, params, "p-c", reps, rng_seed=1000)
    for key, target in expected_values(x, params, "prior").items():
        vals = batch[key]
        se = max(vals.std(ddof=1) / math.sqrt(reps), 1e-12)
        ok &= abs(vals.mean() - target) <= 4.0 * se

    s = [0, 2, 5]
    cond = sample_given_s(x, params, s, reps, rng_seed=1001)
    for key, target in expected_values(x, params, "given_s", s=s).items():
        vals = cond[key]
        se = max(vals.std(ddof=1) / math.sqrt(reps), 1e-12)
        ok &= abs(vals.mean() - target) <= 4.0 * se

    p_s = np.array([0.5, 1.2, 0.3])
    ns = sample_count_given_s_p(p_s, params.lam, reps, rng_seed=1002).astype(float)
    target = expected_values(x, params, "given_sp", s=s, p_s=p_s)["N"]
    se = ns.std(ddof=1) / math.sqrt(reps)
    ok &= abs(ns.mean() - target) <= 4.0 * se
    _report(10, "every expectation formula vs Monte Carlo (4 SE)", ok)


def test_criterion_11_mixed_method_calibration():
    # fails at this expected N = 10 by the method, not the code (README,
    # "Tests and acceptance suite").  48 of the 500 replicates have M = 1,
    # get the DeltaS_zero point mass at Y r and cover 0 of 48, which caps
    # the overall rate at 0.904.  The other 452 cover at 0.737 with alpha
    # estimated from ~10 draws (5-95% range 0.61-35 against a true 2), and
    # at 0.916 with the same Beta-prime law at the true alpha.  The
    # criterion runs as stated and reports both parts of its rate.
    start = time.perf_counter()
    params = ModelParams(2.0, 1.0, 5.0)
    x = np.full(50, 1 / 50)
    from missmass.simulate import _draw_model, _rng

    hits = used = 0
    single = single_hits = 0
    seed = 0
    while used < 500:
        seed += 1
        p, c = _draw_model(x, params, "p-c", _rng(seed, 0), None)
        if c.sum() == 0:
            continue
        used += 1
        ds = Dataset(x=x, p=p, c=c)
        st = summarize(ds.observe())
        rep = infer_mixed(ds.observe(), st)
        w_true = ds.z - st.V
        lo = rep.w_dist.quantile(0.05)
        hi = rep.w_dist.quantile(0.95)
        hit = int(lo <= w_true <= hi)
        hits += hit
        if st.M == 1:
            single += 1
            single_hits += hit
    rate = hits / used
    rate_multi = (hits - single_hits) / (used - single)
    elapsed = time.perf_counter() - start
    _report(11, f"mixed-method 90% coverage = {rate:.3f} in [0.80, 0.98]; "
                f"{single} single-point replicates, {rate_multi:.3f} over "
                f"M >= 2 ({elapsed:.0f}s)",
            0.80 <= rate <= 0.98 and elapsed < 300.0)


def test_criterion_12_toy_physics_ground_truth():
    errors = toy_physics_errors(4096, 200, 2000)
    ok = all(abs(err) <= 0.10 for err in errors.values())
    label = ", ".join(f"gamma {g:g} {err:+.2%}" for g, err in errors.items())
    _report(12, f"gamma-weighted mixture estimator on enumerable ground truth: "
                f"median error {label}", ok)
