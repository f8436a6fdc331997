"""Oracle checks shared by the acceptance criteria and the ``verify`` CLI
subcommand, and the oracles they compare against.

Each check compares the package with an independent oracle: brute-force
enumeration, series expansion, quadrature or Monte Carlo.  It is written
once, as a function that computes the check's figure from an rng or seed
and a size, plus a thin ``check_*`` that applies the bound.  The acceptance
criteria call them with their own seeds and sizes; ``run_verification``
(``missmass verify``) runs the same code at small sizes, and with
``--full`` at the criteria's sizes.  It returns (name, passed, error)
triples; error is empty unless the check raised, and then names the
exception's type and message.

The oracles that no route calls live here too, where only the checks and
the tests load them: the quadrature over (0, inf), done entirely in log
space, the scaled KL divergence Delta(W) (kl_delta) and the list of every
local alpha maximum (alpha_slope_maxima).  The densities the quadrature
integrates have power-law behavior at 0 and exponential or power tails at
infinity; the substitution t = log(u) turns both ends into exponentially
decaying tails that composite Gauss-Legendre panels resolve, laid out from
the mode that one array scan in t finds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import betaln, gammaincinv

from .data import Observation, SummaryStats, summarize
from .distributions import PointMass
from .estimators import (good_turing_rb, ipw_fixed_n, ipw_poisson,
                         mixture_estimate, rb_exact, rb_poisson_weights)
from .inference import (_SLOPE_SCAN_ALPHA, _alpha_maximum, infer_bayes,
                        infer_mixed, infer_profile)
from .likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha, log_L4,
                          log_L5, log_L8, log_L9)
from .moments import match_C
from .simulate import (_rng, effective_states, expected_values, simulate_explicit,
                       simulate_model, simulate_model_batch, toy_physics_dataset)
from .solvers import ConvergenceError

# ---------------------------------------------------------------------------
# random samples


def random_observation(rng, d=10, m=None, extra_counts=None) -> Observation:
    """A generic observation: Dirichlet base measure, lognormal masses,
    counts of 1 plus a few repeats."""
    x = rng.dirichlet(np.ones(d))
    if m is None:
        m = int(rng.integers(2, min(d, 7)))
    idx = np.sort(rng.choice(d, size=m, replace=False))
    p = rng.lognormal(0.0, 1.0, m)
    c = np.ones(m, dtype=np.int64)
    if extra_counts is None:
        extra_counts = int(rng.integers(0, 2 * m))
    for _ in range(extra_counts):
        c[rng.integers(0, m)] += 1
    return Observation(domain_size=d, x=x, indices=idx, p_obs=p, counts=c)


def proportional_observation(rng, d=8, m=3, scale=3.0) -> Observation:
    """p = scale * x on the sample: the Delta_S = 0 singular case."""
    x = rng.dirichlet(np.ones(d))
    idx = np.sort(rng.choice(d, size=m, replace=False))
    c = np.ones(m, dtype=np.int64)
    c[0] += 1
    return Observation(domain_size=d, x=x, indices=idx,
                       p_obs=scale * x[idx], counts=c)


def random_counts(rng, m: int, n: int) -> np.ndarray:
    """Counts of m sampled points summing to n: one each, the rest at random."""
    c = np.ones(m, dtype=np.int64)
    for _ in range(n - m):
        c[rng.integers(0, m)] += 1
    return c


def _uniform_observation(p: np.ndarray, counts: np.ndarray, d: int) -> Observation:
    """The first len(p) of d equal-weight points, sampled with these counts."""
    return Observation(domain_size=d, x=np.full(d, 1 / d), indices=np.arange(len(p)),
                       p_obs=p, counts=counts)


# ---------------------------------------------------------------------------
# oracles


class DivergenceError(RuntimeError):
    """Integrand is not integrable (tail decays too slowly or grows)."""


# Gauss-Legendre nodes per quadrature panel
_QUAD_POINTS = 257


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_QUAD_POINTS)


# panel layout in t: a cluster of narrow panels around the mode, then
# geometrically widening panels outward so that slowly decaying tails
# (rate s: integrand ~ exp(s*t)) are covered in O(log(1/s)) panels
_CENTER_HALF = 1.0
_CENTER_SPLIT = 5
_GROWTH = 1.5
_MAX_PANELS = 200
_LOG_CUTOFF = math.log(1e-12)
# keep exp(t) finite and nonzero; below -740 the argument u is not
# representable in float64 at all
_T_EVAL_MAX = 705.0
_T_EVAL_MIN = -740.0


def integrate_semi_infinite(log_f: Callable[[np.ndarray], np.ndarray],
                            mode_hint: float) -> float:
    """log of integral_0^inf f(u) du for a unimodal integrable density.

    ``log_f`` must accept numpy arrays.  The mode in t = log u is the
    argmax of log f(e^t) + t on one array pass over a t grid around
    ``mode_hint``; an argmax at the grid's top is the "increases toward
    infinity" verdict.  Composite Gauss-Legendre panels are laid outward
    from the mode until the tail panels contribute less than 1e-12 of the
    running total.
    """
    # the mode scan: t from log(mode_hint) - 90 to the larger of 50 and
    # log(mode_hint) + 60, at steps of at most 1/8
    t_init = math.log(mode_hint) if mode_hint > 0 else 0.0
    t_lo, t_hi = t_init - 90.0, max(50.0, t_init + 60.0)
    t = np.linspace(t_lo, t_hi, math.ceil(8.0 * (t_hi - t_lo)) + 1)
    g = np.asarray(log_f(np.exp(np.clip(t, _T_EVAL_MIN, _T_EVAL_MAX)))) + t
    g[np.isnan(g)] = -math.inf
    k = int(np.argmax(g))
    if g[k] == -math.inf:
        raise ConvergenceError("integrate_semi_infinite: no finite values found")
    if k == len(t) - 1:
        raise DivergenceError("integrand increases toward infinity")
    t_star = float(t[k])

    nodes, weights = _gauss_legendre()
    log_w = np.log(weights)

    def panel(t_left: float, t_right: float) -> float:
        half = 0.5 * (t_right - t_left)
        mid = 0.5 * (t_right + t_left)
        t = mid + half * nodes
        u = np.exp(np.clip(t, _T_EVAL_MIN, _T_EVAL_MAX))
        vals = np.asarray(log_f(u)) + t + log_w
        m = np.max(vals)
        if m == math.inf:
            raise DivergenceError("integrand is unbounded")
        if not np.isfinite(m):
            return -math.inf
        return m + math.log(np.sum(np.exp(vals - m))) + math.log(half)

    # center cluster
    edges = np.linspace(t_star - _CENTER_HALF, t_star + _CENTER_HALF,
                        _CENTER_SPLIT + 1)
    log_total = -math.inf
    for k in range(_CENTER_SPLIT):
        log_total = np.logaddexp(log_total, panel(edges[k], edges[k + 1]))

    for direction in (+1, -1):
        edge = t_star + direction * _CENTER_HALF
        width = 2.0 * _CENTER_HALF / _CENTER_SPLIT
        for k in range(_MAX_PANELS):
            width *= _GROWTH
            nxt = edge + direction * width
            contrib = panel(*((edge, nxt) if direction > 0 else (nxt, edge)))
            log_total = np.logaddexp(log_total, contrib)
            edge = nxt
            if contrib < log_total + _LOG_CUTOFF:
                break
        else:
            raise DivergenceError(
                "tail did not decay within the panel budget "
                f"(direction {direction:+d})")
    return float(log_total)


def kl_delta(stats: SummaryStats, w):
    """Scaled KL divergence Delta between (x on S, Y) and (p on S, W)/Z.

    Delta = T + Y log Y - U - Y log W + log(V + W), with the 0 log 0
    convention when Y = 0.  W = 0 with Y > 0 gives +inf (the divergence is
    infinite, not an error).  Vectorized over w.  The alpha slope of log L4
    tends to -Delta(W) as alpha grows (acceptance criterion 5).
    """
    w_arr = np.asarray(w, dtype=float)
    scalar = w_arr.ndim == 0
    w_arr = np.atleast_1d(w_arr)
    if np.any(w_arr < 0):
        raise ValueError("W must be nonnegative")
    if stats.Y == 0.0:
        if np.any(w_arr != 0):
            raise ValueError("Y = 0 requires W = 0")
        val = np.full(w_arr.shape, stats.T - stats.U + np.log(stats.V))
    else:
        ylogy = stats.Y * np.log(stats.Y)
        with np.errstate(divide="ignore"):
            val = (stats.T + ylogy - stats.U
                   - stats.Y * np.log(w_arr) + np.log(stats.V + w_arr))
    return float(val[0]) if scalar else val


def alpha_slope_maxima(which: str, stats: SummaryStats
                       ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Every local maximum in alpha of log L``which`` inside
    inference.ALPHA_T_BOUNDS, as inference._alpha_maximum finds them.
    Returns (grid, slopes on the grid, maxima in grid order)."""
    slopes = np.asarray(dlog_dalpha(which, stats, _SLOPE_SCAN_ALPHA))
    return _SLOPE_SCAN_ALPHA, slopes, _alpha_maximum(which, stats, slopes).maxima



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


def within_4se(values, target: float) -> bool:
    """Whether the mean of values lies within 4 standard errors of target
    (the standard error floored at 1e-12, for a constant sample)."""
    values = np.asarray(values, dtype=float)
    se = max(values.std(ddof=1) / math.sqrt(len(values)), 1e-12)
    return bool(abs(values.mean() - target) <= 4.0 * se)


def sample_given_s(x, params: ModelParams, s, n_reps: int,
                   rng_seed: int = 0) -> dict[str, np.ndarray]:
    """Replicates of (N, U, V, W, Z) conditional on the sample set S.

    Points in S draw counts from the zero-truncated negative binomial and
    masses from Gamma(a + c, b + lambda); points outside S draw masses
    from Gamma(a, b + lambda), their law given c = 0.
    """
    x = np.asarray(x, dtype=float)
    alpha, b, lam = params.alpha, params.b, params.lam
    mask = np.zeros(len(x), dtype=bool)
    mask[np.asarray(s)] = True
    a_in, a_out = alpha * x[mask], alpha * x[~mask]
    rng = _rng(rng_seed, 0)

    c = rng.negative_binomial(a_in, b / (b + lam), size=(n_reps, len(a_in)))
    for _ in range(10_000):
        zero = c == 0
        if not zero.any():
            break
        c[zero] = rng.negative_binomial(np.broadcast_to(a_in, c.shape)[zero],
                                        b / (b + lam))
    else:
        raise RuntimeError("zero-truncated negative binomial rejection stalled")
    p_in = rng.gamma(a_in + c, 1.0 / (b + lam))
    p_out = rng.gamma(a_out, 1.0 / (b + lam), size=(n_reps, len(a_out)))

    v = p_in.sum(axis=1)
    w = p_out.sum(axis=1)
    u = (x[mask] * np.log(p_in)).sum(axis=1)
    return {"N": c.sum(axis=1), "U": u, "V": v, "W": w, "Z": v + w}


def sample_count_given_s_p(p_s, lam: float, n_reps: int,
                           rng_seed: int = 0) -> np.ndarray:
    """Replicates of N given (S, p on S): zero-truncated Poisson counts."""
    p_s = np.asarray(p_s, dtype=float)
    rng = _rng(rng_seed, 0)
    c = rng.poisson(lam * p_s, size=(n_reps, len(p_s)))
    for _ in range(10_000):
        zero = c == 0
        if not zero.any():
            break
        c[zero] = rng.poisson(np.broadcast_to(lam * p_s, c.shape)[zero])
    else:
        raise RuntimeError("zero-truncated Poisson rejection stalled")
    return c.sum(axis=1)


def chi_square_equivalence(keys: list[np.ndarray]) -> float:
    """p-value of a chi-square homogeneity test across samples of integer
    key rows."""
    from scipy.stats import chi2

    # one mixed-radix code per row, in the rows' lexicographic order: a 1-d
    # unique is several times faster than np.unique(axis=0)
    codes = np.zeros(sum(len(rows) for rows in keys), dtype=np.int64)
    for column in np.concatenate(keys, axis=0).T:
        values, rank = np.unique(column, return_inverse=True)
        codes = codes * len(values) + rank
    cats, inverse = np.unique(codes, return_inverse=True)
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


# ---------------------------------------------------------------------------
# checks: the figure, then the bound


def rb_exact_error(rng, draws: int) -> float:
    """Largest absolute error of rb_exact's log F_N and weights v(i) against
    brute-force enumeration, over draws samples of M <= 4 points, N <= 8."""
    errors = []
    for _ in range(draws):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        p = rng.lognormal(0.0, 1.0, m)
        obs = _uniform_observation(p, random_counts(rng, m, n), m + 1)
        w = rb_exact(obs)
        f_n, v = brute_force_rb(p, n)
        errors += [abs(w.log_f_n - math.log(f_n)),
                   float(np.max(np.abs(w.aligned(obs) - v)))]
    return float(np.max(errors))


def check_rb_exact(rng, draws: int) -> bool:
    return rb_exact_error(rng, draws) < 1e-10


def generating_function_error(rng, n_max: int) -> float:
    """Largest relative error of rb_exact's F_N against the series
    N! [lambda^N] prod (exp(lambda p) - 1), for M = 1, 2, 3 and M <= N <= n_max."""
    errors = []
    for m in (1, 2, 3):
        for n in range(m, n_max + 1):
            p = rng.lognormal(0.0, 0.7, m)
            series = np.zeros(n + 1)
            series[0] = 1.0
            for pj in p:
                term = np.array([pj ** k / math.factorial(k) for k in range(n + 1)])
                term[0] = 0.0
                series = np.convolve(series, term)[:n + 1]
            f_n = math.factorial(n) * series[n]
            obs = _uniform_observation(p, random_counts(rng, m, n), m + 1)
            errors.append(abs(math.expm1(rb_exact(obs).log_f_n - math.log(f_n))))
    return float(np.max(errors))


def check_generating_function(rng, n_max: int) -> bool:
    return generating_function_error(rng, n_max) < 1e-12


def beta_identity_gap(which: str, st, alpha: float) -> float:
    """Relative error of the quadrature over W of L4 (which = "L4") or L8
    against its closed-form marginal L5 or L9 at one alpha."""
    log_l, log_marginal = {"L4": (log_L4, log_L5), "L8": (log_L8, log_L9)}[which]
    quad = integrate_semi_infinite(lambda w: log_l(st, w, alpha), st.V)
    return abs(math.expm1(quad - log_marginal(st, alpha)))


def beta_identity_error(rng, draws: int) -> float:
    """Largest beta_identity_gap of L4 and L8 at one random alpha on each of
    draws samples."""
    errors = []
    for _ in range(draws):
        st = summarize(random_observation(rng, d=int(rng.integers(6, 14))))
        alpha = float(np.exp(rng.uniform(-1.0, 3.2)))
        if alpha * st.Y < 0.03:
            alpha = 0.05 / st.Y
        errors += [beta_identity_gap(which, st, alpha) for which in ("L4", "L8")]
    return float(np.max(errors))


def check_beta_identity(rng, draws: int) -> bool:
    return beta_identity_error(rng, draws) < 1e-7


def concavity_worst(rng, draws: int) -> dict[str, float]:
    """Largest d^2 log L / d alpha^2 of L4 and L8 (the same at every W) over
    50 alphas in e^-6..e^6, on draws samples.  Both are provably
    log-concave; L5 and L9 are not in general (see the acceptance suite)."""
    grid = np.exp(np.linspace(-6.0, 6.0, 50))
    worst = {"L4": -math.inf, "L8": -math.inf}
    for _ in range(draws):
        st = summarize(random_observation(rng))
        for which in worst:
            worst[which] = float(np.maximum(worst[which], np.max(d2log_dalpha2(which, st, grid))))
    return worst


def check_concavity(rng, draws: int) -> bool:
    return all(v <= 1e-12 for v in concavity_worst(rng, draws).values())


def singular_case_failures(rng) -> list[str]:
    """The singular-case verdicts that do not hold: every inference route's
    point mass W = Y r on two proportional samples p = r x (Delta_S = 0), and
    the no-finite-Z verdicts on an all-singleton sample (M = N)."""
    failures = []
    for scale in (0.5, 3.0):
        obs = proportional_observation(rng, scale=scale)
        st = summarize(obs)
        for fn in (infer_mixed, infer_bayes, infer_profile):
            rep = fn(obs, st)
            if not (rep.singular_case == "DeltaS_zero"
                    and isinstance(rep.w_dist, PointMass)
                    and abs(rep.w_dist.value - st.Y * scale) < 1e-10 * max(1.0, scale)):
                failures.append(f"{fn.__name__} at r = {scale:g}")
    singles = Observation(domain_size=6, x=np.full(6, 1 / 6),
                          indices=np.array([0, 3, 5]),
                          p_obs=np.array([1.0, 0.4, 2.2]),
                          counts=np.array([1, 1, 1]))
    gtr = good_turing_rb(singles)
    res_c = match_C(singles, summarize(singles))
    verdicts = {
        "ipw_fixed_n": math.isinf(ipw_fixed_n(singles).value),
        "ipw_poisson": math.isinf(ipw_poisson(singles).value),
        "good_turing_rb": (math.isinf(gtr.z) and math.isinf(gtr.w)
                           and gtr.w_over_z == 1.0),
        "match_C": (res_c.diagnostics.get("status") == "lambda_zero"
                    and res_c.diagnostics.get("lambda") == 0.0),
    }
    return failures + [name for name, held in verdicts.items() if not held]


def check_singular_cases(rng) -> bool:
    return not singular_case_failures(rng)


def ipw_estimates(rng, reps: int) -> tuple[np.ndarray, float]:
    """reps IPW estimates of Z at the true inclusion probabilities, from
    N = 30 multinomial draws over 20 lognormal masses, and the true Z."""
    d, n = 20, 30
    p = rng.lognormal(0.0, 1.0, d)
    z_true = p.sum()
    pi = 1.0 - (1.0 - p / z_true) ** n
    counts = rng.multinomial(n, p / z_true, size=reps)
    return ((counts >= 1) * (p / pi)).sum(axis=1), float(z_true)


def check_ipw_unbiased(rng, reps: int) -> bool:
    return within_4se(*ipw_estimates(rng, reps))


def beta_prime_moment_error(rng, draws: int) -> float:
    """Largest error of the mixed route's closed forms against quadrature of
    the Beta-prime kernel t^(a-1) (1+t)^-(a+b) in t = W/V, at draws random
    (alpha, X, N): the normalizer B(a, b) (relative), E(W/V) = a/(b-1)
    (relative above 1) and E(W/Z) = a/(a+b) (absolute)."""
    errors = []
    for _ in range(draws):
        alpha = float(np.exp(rng.uniform(-0.5, 3.0)))
        x_frac = float(rng.uniform(0.15, 0.9))
        n = int(rng.integers(3, 80))
        y = 1.0 - x_frac
        if alpha * y < 0.03:
            alpha = 0.05 / y
        a, b = alpha * y, alpha * x_frac + n
        # the kernels' modes lie near a / b, well inside the quadrature's
        # mode scan from a hint of 1
        log_norm = integrate_semi_infinite(
            lambda t: (a - 1.0) * np.log(t) - (a + b) * np.log1p(t), 1.0)
        log_mean = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b) * np.log1p(t), 1.0)
        # W/Z = t/(1+t) under the same kernel gives the Beta mean
        log_mean_z = integrate_semi_infinite(
            lambda t: a * np.log(t) - (a + b + 1.0) * np.log1p(t), 1.0)
        mean_wv = a / (b - 1.0)
        errors += [abs(math.expm1(log_norm - betaln(a, b))),
                   abs(math.exp(log_mean - log_norm) - mean_wv) / max(1.0, mean_wv),
                   abs(math.exp(log_mean_z - log_norm) - a / (a + b))]
    return float(np.max(errors))


def check_mixed_closed_form(rng, draws: int) -> bool:
    return beta_prime_moment_error(rng, draws) <= 1e-8


def generative_order_p_value(seed: int, reps: int) -> float:
    """Chi-square homogeneity p-value of the keys (M, N capped at 15,
    round(10 V) capped at 60) across reps draws from each generative order,
    seeded seed, seed + 1 and seed + 2."""
    x = np.array([0.5, 0.3, 0.2])
    params = ModelParams(1.5, 1.0, 4.0)
    keys = []
    for k, order in enumerate(("p-c", "z-dirichlet", "c-p")):
        batch = simulate_model_batch(x, params, order, reps, rng_seed=seed + k)
        keys.append(np.stack([batch["M"], np.minimum(batch["N"], 15),
                              np.minimum(np.round(10 * batch["V"]).astype(int), 60)],
                             axis=1))
    return chi_square_equivalence(keys)


def check_generative_equivalence(seed: int, reps: int) -> bool:
    return generative_order_p_value(seed, reps) > 0.001


def expectation_misses(seed: int, reps: int, conds=("prior", "given_s", "given_sp"),
                       params: ModelParams = ModelParams(2.0, 1.0, 5.0)) -> list[str]:
    """The expectations ("cond:key") whose Monte Carlo mean over reps draws
    lies more than 4 standard errors from the formula, on 8 equal points at
    ``params`` (alpha, b, lambda).  "prior" draws with seed, "given_s" (S =
    {0, 2, 5}) with seed + 1, "given_sp" (p on S = 0.5, 1.2, 0.3) with seed + 2."""
    x = np.full(8, 1 / 8)
    s, p_s = [0, 2, 5], np.array([0.5, 1.2, 0.3])
    draws = {
        "prior": lambda: simulate_model_batch(x, params, "p-c", reps, rng_seed=seed),
        "given_s": lambda: sample_given_s(x, params, s, reps, rng_seed=seed + 1),
        "given_sp": lambda: {"N": sample_count_given_s_p(p_s, params.lam, reps,
                                                         rng_seed=seed + 2)},
    }
    misses = []
    for cond in conds:
        batch = draws[cond]()
        for key, target in expected_values(x, params, cond, s=s, p_s=p_s).items():
            if not within_4se(batch[key], target):
                misses.append(f"{cond}:{key}")
    return misses


def check_expectations(seed: int, reps: int) -> bool:
    return not expectation_misses(seed, reps)


def check_coverage_oracle(seed0: int, reps: int) -> bool:
    """The conditional law of W given S at the true parameters is exactly
    Gamma(alpha Y, b + lambda); its 90% interval must cover at the nominal
    rate over draws seeded seed0, seed0 + 1, ...  This validates the
    simulation and quantile plumbing that the calibration criterion builds
    on."""
    params = ModelParams(2.0, 1.0, 5.0)
    alpha, b, lam = params.alpha, params.b, params.lam
    x = np.full(50, 1 / 50)
    hits = 0
    used = 0
    seed = seed0 - 1
    while used < reps:
        seed += 1
        ds = simulate_model(x, params, rng_seed=seed)
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


def check_toy_physics(seed0: int, reps: int) -> bool:
    return all(abs(err) <= 0.15 for err in toy_physics_errors(512, reps, seed0).values())


def saddle_point_gap(n_values=(48, 480, 4800), m=20, sigma=1.0, seed=0) -> dict:
    """max |v_saddle / v - 1| of rb_poisson_weights against rb_exact, per N,
    for one lognormal(0, sigma) set of M masses.  A study, not a check: the
    paper only asserts that the gap vanishes as N grows."""
    p = np.random.default_rng(seed).lognormal(0.0, sigma, m)
    gaps = {}
    for n in n_values:
        obs = _uniform_observation(p, random_counts(np.random.default_rng(n), m, n), m)
        exact = rb_exact(obs).aligned(obs)
        gaps[n] = float(np.max(np.abs(rb_poisson_weights(obs).aligned(obs) / exact - 1)))
    return gaps


def run_verification(fast: bool = True, seed: int = 0) -> list[tuple[str, bool, str]]:
    """Every check, at its small size or (fast=False) at the size of its
    acceptance criterion; the rng-driven ones share one stream from seed,
    the seeded ones run at seed plus their constant."""
    rng = np.random.default_rng(seed)

    def size(small, criterion):
        return small if fast else criterion

    checks = [
        ("rb exact vs enumeration", lambda: check_rb_exact(rng, size(25, 100))),
        ("generating function identity",
         lambda: check_generating_function(rng, size(4, 6))),
        ("beta identity quadrature", lambda: check_beta_identity(rng, size(4, 20))),
        ("log-concavity (L4, L8)", lambda: check_concavity(rng, size(4, 20))),
        ("singular cases", lambda: check_singular_cases(rng)),
        ("ipw unbiasedness", lambda: check_ipw_unbiased(rng, size(20_000, 100_000))),
        ("mixed closed form", lambda: check_mixed_closed_form(rng, size(5, 20))),
        ("generative equivalence",
         lambda: check_generative_equivalence(137 + seed, size(20_000, 100_000))),
        ("expectation formulas", lambda: check_expectations(23 + seed, size(10_000, 100_000))),
        ("coverage oracle (true-parameter law)",
         lambda: check_coverage_oracle(1 + seed, size(200, 500))),
        ("toy physics ground truth", lambda: check_toy_physics(1000 + seed, size(40, 200))),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append((name, bool(fn()), ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
