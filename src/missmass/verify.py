"""Self-verification suites behind the ``verify`` CLI subcommand.

Each check reruns one of the package's oracle comparisons at a size that
keeps the whole table under a minute (pass ``--full`` for the full-size
versions used by the acceptance tests).  Returns (name, passed, error)
triples; error is empty unless the check raised, and then names the
exception's type and message.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .data import Dataset, Observation, summarize
from .distributions import PointMass
from .estimators import (good_turing_rb, ipw_fixed_n, ipw_poisson,
                         mixture_estimate, rb_exact, rb_poisson_weights)
from .inference import infer_bayes, infer_mixed, infer_profile
from .likelihoods import ModelParams, d2log_dalpha2, log_L4, log_L5, log_L8, log_L9
from .moments import match_C
from .simulate import (effective_states, expected_values, simulate_explicit,
                       simulate_model_batch, toy_physics_dataset)
from .solvers import integrate_semi_infinite
from .special import log_beta


def _random_observation(rng, d=10, m=None) -> Observation:
    x = rng.dirichlet(np.ones(d))
    m = m or int(rng.integers(2, min(d, 7)))
    idx = rng.choice(d, size=m, replace=False)
    p = rng.lognormal(0.0, 1.0, m)
    c = 1 + rng.poisson(0.8, m)
    return Observation(domain_size=d, x=x, indices=np.sort(idx),
                       p_obs=p, counts=c)


def brute_force_rb(p: np.ndarray, n: int) -> tuple[float, np.ndarray]:
    """Enumerate the truncated multinomial: normalizer and expected counts."""
    m = len(p)
    total = 0.0
    exp_counts = np.zeros(m)

    def rec(i, left, counts):
        nonlocal total, exp_counts
        if i == m - 1:
            vec = counts + [left]
            weight = math.factorial(n)
            for pj, k in zip(p, vec):
                weight *= pj ** k / math.factorial(k)
            total += weight
            exp_counts += weight * np.array(vec, dtype=float)
            return
        for k in range(1, left - (m - i - 1) + 1):
            rec(i + 1, left - k, counts + [k])

    rec(0, n, [])
    return total, exp_counts / total


def check_rb_exact(rng, draws=25) -> bool:
    for _ in range(draws):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        p = rng.lognormal(0.0, 1.0, m)
        obs = Observation(domain_size=m + 1, x=np.full(m + 1, 1 / (m + 1)),
                          indices=np.arange(m), p_obs=p,
                          counts=random_counts(rng, m, n))
        w = rb_exact(obs)
        f_true, v_true = brute_force_rb(p, n)
        if abs(w.log_f_n - math.log(f_true)) > 1e-10:
            return False
        if np.max(np.abs(w.aligned(obs) - v_true)) > 1e-10:
            return False
    return True


def saddle_point_gap(n_values=(48, 480, 4800), m=20, sigma=1.0, seed=0) -> dict:
    """max |v_saddle / v - 1| of rb_poisson_weights against rb_exact, per N,
    for one lognormal(0, sigma) set of M masses.  A study, not a check: the
    paper only asserts that the gap vanishes as N grows."""
    p = np.random.default_rng(seed).lognormal(0.0, sigma, m)
    gaps = {}
    for n in n_values:
        obs = Observation(domain_size=m, x=np.full(m, 1 / m), indices=np.arange(m),
                          p_obs=p, counts=random_counts(np.random.default_rng(n), m, n))
        exact = rb_exact(obs).aligned(obs)
        gaps[n] = float(np.max(np.abs(rb_poisson_weights(obs).aligned(obs) / exact - 1)))
    return gaps


def random_counts(rng, m: int, n: int) -> np.ndarray:
    """Counts of m sampled points summing to n: one each, the rest at random."""
    c = np.ones(m, dtype=np.int64)
    for _ in range(n - m):
        c[rng.integers(0, m)] += 1
    return c


def check_generating_function(rng) -> bool:
    """F_N = N! [lambda^N] prod (exp(lambda p) - 1), by series expansion."""
    for m, n in product((1, 2, 3), (1, 2, 4, 6)):
        if n < m:
            continue
        p = rng.lognormal(0.0, 0.7, m)
        series = np.zeros(n + 1)
        series[0] = 1.0
        for pj in p:
            term = np.array([pj ** k / math.factorial(k) for k in range(n + 1)])
            term[0] = 0.0
            series = np.convolve(series, term)[:n + 1]
        f_series = math.factorial(n) * series[n]
        obs = Observation(domain_size=m + 1, x=np.full(m + 1, 1 / (m + 1)),
                          indices=np.arange(m), p_obs=p, counts=random_counts(rng, m, n))
        w = rb_exact(obs)
        if f_series <= 0 or abs(w.log_f_n - math.log(f_series)) > 1e-12:
            return False
    return True


def check_beta_identity(rng, pairs=4) -> bool:
    for _ in range(pairs):
        obs = _random_observation(rng)
        st = summarize(obs)
        alpha = float(np.exp(rng.uniform(-1.0, 3.0)))
        if alpha * st.Y < 0.03:
            alpha = 0.05 / st.Y
        for lw, lmarg in ((log_L4, log_L5), (log_L8, log_L9)):
            quad = integrate_semi_infinite(
                lambda w: lw(st, w, alpha), st.V)
            if abs(math.expm1(quad - lmarg(st, alpha))) > 1e-7:
                return False
    return True


def check_concavity(rng, n_obs=4) -> bool:
    # L4 and L8 are provably log-concave; L5 and L9 are not in general
    # (see the acceptance suite), so only the universal claims are checked
    grid = np.exp(np.linspace(-6.0, 6.0, 30))
    for _ in range(n_obs):
        obs = _random_observation(rng)
        st = summarize(obs)
        for which in ("L4", "L8"):
            vals = d2log_dalpha2(which, st, grid, w=0.7 * st.V)
            if np.max(vals) > 1e-12:
                return False
    return True


def check_singular_cases() -> bool:
    x = np.array([0.1, 0.2, 0.3, 0.4])
    r = 2.5
    obs = Observation(domain_size=4, x=x, indices=np.array([1, 3]),
                      p_obs=r * x[[1, 3]], counts=np.array([2, 1]))
    st = summarize(obs)
    ok = st.delta_S == 0.0
    for fn in (infer_mixed, infer_bayes, infer_profile):
        rep = fn(obs, st)
        ok &= (rep.singular_case == "DeltaS_zero"
               and isinstance(rep.w_dist, PointMass)
               and abs(rep.w_dist.value - st.Y * r) < 1e-12)
    singles = Observation(domain_size=4, x=x, indices=np.array([0, 2]),
                          p_obs=np.array([1.0, 2.0]), counts=np.array([1, 1]))
    ok &= math.isinf(ipw_fixed_n(singles).value)
    ok &= math.isinf(ipw_poisson(singles).value)
    ok &= math.isinf(good_turing_rb(singles).z)
    res_c = match_C(singles, summarize(singles))
    ok &= res_c.diagnostics.get("status") == "lambda_zero"
    return bool(ok)


def check_ipw_unbiased(rng, reps=20_000) -> bool:
    d, n = 20, 30
    p = rng.lognormal(0.0, 1.0, d)
    z_true = p.sum()
    pi = -np.expm1(n * np.log1p(-p / z_true))
    counts = rng.multinomial(n, p / z_true, size=reps)
    est = ((counts >= 1) * (p / pi)).sum(axis=1)
    se = est.std(ddof=1) / math.sqrt(reps)
    return abs(est.mean() - z_true) < 4.0 * se


def check_mixed_closed_form(rng, draws=5) -> bool:
    for _ in range(draws):
        alpha = float(np.exp(rng.uniform(-0.5, 3.0)))
        x_frac = float(rng.uniform(0.2, 0.9))
        n = int(rng.integers(3, 60))
        y = 1.0 - x_frac
        if alpha * y < 0.03:
            alpha = 0.05 / y
        a, b = alpha * y, alpha * x_frac + n
        log_norm = integrate_semi_infinite(
            lambda t: (a - 1.0) * np.log(t) - (a + b) * np.log1p(t), a / max(b - 1, 1))
        if abs(log_norm - log_beta(a, b)) > 1e-8:
            return False
        log_mean = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b) * np.log1p(t), a / max(b - 1, 1))
        mean_wv = math.exp(log_mean - log_norm)
        if abs(mean_wv - a / (b - 1.0)) > 1e-8 * max(1.0, a / (b - 1.0)):
            return False
        log_mean_z = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b + 1.0) * np.log1p(t), a / max(b, 1))
        mean_wz = math.exp(log_mean_z - log_norm)
        if abs(mean_wz - a / (a + b)) > 1e-8:
            return False
    return True


def check_generative_equivalence(rng, reps=20_000) -> bool:
    x = np.array([0.5, 0.3, 0.2])
    params = ModelParams(1.5, 1.0, 4.0)
    keys = []
    for k, order in enumerate(("p-c", "z-dirichlet", "c-p")):
        batch = simulate_model_batch(x, params, order, reps, rng_seed=137 + k)
        keys.append(np.stack([batch["M"], np.minimum(batch["N"], 12),
                              np.minimum(np.round(10 * batch["V"]), 40)], axis=1))
    return chi_square_equivalence(keys) > 0.001


def chi_square_equivalence(keys: list[np.ndarray]) -> float:
    """p-value of a chi-square homogeneity test across key samples."""
    from scipy.stats import chi2

    all_rows = np.concatenate(keys, axis=0)
    cats, inverse = np.unique(all_rows, axis=0, return_inverse=True)
    n_groups = len(keys)
    counts = np.zeros((n_groups, len(cats)))
    start = 0
    for g, rows in enumerate(keys):
        idx = inverse[start:start + len(rows)]
        counts[g] = np.bincount(idx, minlength=len(cats))
        start += len(rows)
    col = counts.sum(axis=0)
    expected_col = col / counts.sum()
    # pool rare categories so expected cells stay above 5
    row_tot = counts.sum(axis=1, keepdims=True)
    keep = (expected_col * row_tot.min()) >= 5.0
    pooled = np.concatenate([counts[:, keep],
                             counts[:, ~keep].sum(axis=1, keepdims=True)], axis=1)
    pooled = pooled[:, pooled.sum(axis=0) > 0]
    exp = (pooled.sum(axis=1, keepdims=True)
           * pooled.sum(axis=0, keepdims=True) / pooled.sum())
    stat = float(np.sum((pooled - exp) ** 2 / exp))
    dof = (pooled.shape[0] - 1) * (pooled.shape[1] - 1)
    return float(chi2.sf(stat, dof))


def check_expectations(rng, reps=30_000) -> bool:
    x = np.full(8, 1 / 8)
    params = ModelParams(2.0, 1.0, 5.0)
    batch = simulate_model_batch(x, params, "p-c", reps, rng_seed=23)
    ev = expected_values(x, params, "prior")
    for key, target in ev.items():
        vals = batch[key]
        se = max(vals.std(ddof=1) / math.sqrt(reps), 1e-12)
        if abs(vals.mean() - target) > 4.0 * se:
            return False
    return True


def check_coverage_oracle(rng, reps=200) -> bool:
    """The conditional law of W given S at the true parameters is exactly
    Gamma(alpha Y, b + lambda); its 90% interval must cover at the nominal
    rate.  This validates the simulation and quantile plumbing that the
    calibration criterion builds on."""
    from scipy.special import gammaincinv

    params = ModelParams(2.0, 1.0, 5.0)
    alpha, b, lam = params.alpha, params.b, params.lam
    x = np.full(50, 1 / 50)
    hits = 0
    used = 0
    seed = 0
    while used < reps:
        seed += 1
        ds = Dataset(x=x, **{k: v for k, v in zip(
            ("p", "c"), _model_draw(x, params, seed))})
        if ds.c.sum() == 0:
            continue
        used += 1
        st = summarize(ds.observe())
        w_true = ds.z - st.V
        ay = alpha * st.Y
        lo = float(gammaincinv(ay, 0.05)) / (b + lam)
        hi = float(gammaincinv(ay, 0.95)) / (b + lam)
        hits += int(lo <= w_true <= hi)
    rate = hits / reps
    return 0.84 <= rate <= 0.96


def _model_draw(x, params, seed):
    from .simulate import _draw_model, _rng
    return _draw_model(np.asarray(x, float), params, "p-c", _rng(seed, 0), None)


def toy_physics_errors(n_states: int, reps: int, seed0: int) -> dict[float, float]:
    """Median relative error of the mixture estimate of Z, per gamma, on an
    enumerable Ising toy (field seed 5) over reps draws seeded seed0 + k."""
    toy = toy_physics_dataset(n_states, [3.0, 1.0, 0.5], coupling=1.0, rng_seed=5)
    p = toy.dataset.p
    n = max(8, int(4 * effective_states(p)))
    h_all = toy.r[:, 0] * toy.w[0]
    big_h = float(toy.r_totals[0] * toy.w[0])
    estimates: dict[float, list] = {gamma: [] for gamma in (0.0, 0.5, 1.0)}
    for k in range(reps):
        obs = simulate_explicit(p, n=n, rng_seed=seed0 + k, x=toy.dataset.x).observe()
        h = {int(i): float(h_all[i]) for i in obs.indices}
        for gamma in estimates:
            mix = mixture_estimate(obs, toy.r[obs.indices], toy.w, gamma, h=h, H=big_h)
            estimates[gamma].append(mix.z.value)
    return {gamma: float(np.median(z)) / toy.z_exact - 1.0
            for gamma, z in estimates.items()}


def check_toy_physics(rng, reps=40) -> bool:
    return all(abs(err) <= 0.15 for err in toy_physics_errors(512, reps, 1000).values())


def run_verification(fast: bool = True, seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    scale = 1 if fast else 5
    checks = [
        ("rb exact vs enumeration", lambda: check_rb_exact(rng, 25 * scale)),
        ("generating function identity", lambda: check_generating_function(rng)),
        ("beta identity quadrature", lambda: check_beta_identity(rng, 4 * scale)),
        ("log-concavity (L4, L8)", lambda: check_concavity(rng, 4 * scale)),
        ("singular cases", check_singular_cases),
        ("ipw unbiasedness", lambda: check_ipw_unbiased(rng, 20_000 * scale)),
        ("mixed closed form", lambda: check_mixed_closed_form(rng, 5 * scale)),
        ("generative equivalence", lambda: check_generative_equivalence(rng, 20_000 * scale)),
        ("expectation formulas", lambda: check_expectations(rng, 30_000 * scale)),
        ("coverage oracle (true-parameter law)", lambda: check_coverage_oracle(rng, 200 * scale)),
        ("toy physics ground truth", lambda: check_toy_physics(rng, 40 * scale)),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append((name, bool(fn()), ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
