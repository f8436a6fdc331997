"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN ...: PASS/FAIL`` line.  The suite is
deterministic (fixed seeds) and uses only independent oracles: brute-force
enumeration, series expansion, quadrature, Monte Carlo and exact ground
truth from enumerable models.
"""

import time

import mpmath as mp
import numpy as np

from missmass.data import Dataset, Observation, kl_delta, summarize
from missmass.inference import ALPHA_T_BOUNDS, infer_mixed, mle_alpha
from missmass.likelihoods import ModelParams, d2log_dalpha2, dlog_dalpha, log_L5, log_L9
from missmass.verify import (check_beta_identity, check_expectations,
                             check_generating_function, check_ipw_unbiased,
                             check_mixed_closed_form, check_rb_exact,
                             check_singular_cases, concavity_worst,
                             generative_order_p_value, random_observation,
                             toy_physics_errors)


def _report(num: int, label: str, passed: bool) -> None:
    print(f"criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label}) failed"


def test_criterion_01_rb_exactness():
    start = time.perf_counter()
    ok = check_rb_exact(np.random.default_rng(101), 100)
    elapsed = time.perf_counter() - start
    _report(1, f"RB exactness vs enumeration, {elapsed:.2f}s",
            ok and elapsed < 5.0)


def test_criterion_02_generating_function():
    _report(2, "generating-function identity",
            check_generating_function(np.random.default_rng(102), 6))


def test_criterion_03_beta_identity_quadrature():
    _report(3, "L4->L5 and L8->L9 Beta identities",
            check_beta_identity(np.random.default_rng(103), 20))


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
    # real, not rounding, and the slope scan returns the global maximum, on
    # the same 20 draws and grid as concavity_worst.
    worst = concavity_worst(np.random.default_rng(104), 20)
    rng = np.random.default_rng(104)
    grid = np.exp(np.linspace(-6.0, 6.0, 50))
    dense = np.exp(np.linspace(*ALPHA_T_BOUNDS, 40_001))
    upward = {"L5": [], "L9": []}
    max_up = {"L5": 0.0, "L9": 0.0}
    unconfirmed, missed = [], []
    for draw in range(20):
        obs = random_observation(rng)
        st = summarize(obs)
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
    start = time.perf_counter()
    ok = check_ipw_unbiased(np.random.default_rng(106), 100_000)
    elapsed = time.perf_counter() - start
    _report(6, f"IPW unbiasedness at true Z ({elapsed:.1f}s)", ok and elapsed < 30.0)


def test_criterion_07_mixed_closed_form():
    _report(7, "mixed-method closed-form moments vs quadrature",
            check_mixed_closed_form(np.random.default_rng(107), 20))


def test_criterion_08_singular_cases():
    _report(8, "singular-case verdicts (Delta_S = 0 and M = N)",
            check_singular_cases(np.random.default_rng(108)))


def test_criterion_09_generative_equivalence():
    p_value = generative_order_p_value(900, 100_000)
    _report(9, f"three generative orders equivalent (p = {p_value:.4f})",
            p_value > 0.001)


def test_criterion_10_expectation_oracle():
    _report(10, "every expectation formula vs Monte Carlo (4 SE)",
            check_expectations(1000, 100_000))


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
