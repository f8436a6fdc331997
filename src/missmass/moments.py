"""Parameter determination by full maximum likelihood and moment matching.

Routes that pin the nuisance triple (alpha, b, lambda) from the data and
then read the missing mass law off the model: given the parameters, W is
Gamma(alpha Y, b + lambda) with mean alpha Y / (b + lambda).

Strategies:

  MLE -- maximize L11(alpha) = L3 at the stationary b(alpha), lambda(alpha).
         Unlike the Bayes-marginal and profile objectives, L11 is not
         guaranteed concave, so the search is safeguarded by multi-start.
  A   -- match observed (N, U, V) to their unconditional model priors,
         summing over the whole domain.
  B   -- match (N, U, V) to their conditional expectations given S.
  C   -- match N to E(N | S, p on S), which fixes lambda alone (the same
         equation as the Rao-Blackwell Poisson rate), then (alpha, b)
         from strategy B's U and V equations at that lambda.

The moment systems are solved by nesting: the N equation pins one ratio in
closed form or by a scalar solve, the V equation then gives b in closed
form, and the outer scalar root find runs over alpha on the U equation.
The U equation may admit several roots; all brackets found are reported
and the root closest to the mixed-method alpha is returned.

These strategies are experimental: they are exact on their defining
moment equations but have no optimality backing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Observation, SummaryStats
from .distributions import GammaDist, PointMass
from .estimators import rb_poisson_lambda
from .inference import alpha_slope_maxima, mle_alpha
from .likelihoods import ModelParams, dlog_dalpha, log_L11, stationary_b_lambda
from .solvers import solve_root
from .special import digamma

RESIDUAL_TOL = 1e-8

_ALPHA_SCAN = np.exp(np.linspace(-7.0, 9.0, 65))


@dataclass(frozen=True)
class MomentMatchResult:
    params: ModelParams | None
    residuals: np.ndarray
    strategy: str
    w_dist: object = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return (self.params is not None
                and bool(np.all(np.abs(self.residuals) < RESIDUAL_TOL)))


def _w_law(stats: SummaryStats, params: ModelParams):
    if stats.Y == 0.0:
        return PointMass(0.0)
    return GammaDist(shape=params.alpha * stats.Y, rate=params.b + params.lam)


def _result(strategy: str, stats: SummaryStats, params: ModelParams | None,
            residuals, diagnostics: dict) -> MomentMatchResult:
    w = _w_law(stats, params) if params is not None else None
    return MomentMatchResult(params=params, residuals=np.asarray(residuals, float),
                             strategy=strategy, w_dist=w, diagnostics=diagnostics)


def mle_full(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Plain maximum likelihood: maximize L11 over alpha, safeguarded.

    The profile is not guaranteed concave, so every local maximum on a
    dense log-alpha slope scan is a candidate (alpha_slope_maxima, a
    dense-grid version of multi-starting), and the best L11 value wins.
    A slope still positive at the upper search bound is the
    maximum-at-infinity boundary verdict, and proportional data
    (Delta_S = 0) is that boundary case by construction, so it is decided
    up front rather than hunted numerically.
    """
    if stats.is_proportional:
        return _result("MLE", stats, None, [math.nan],
                       {"status": "boundary",
                        "reason": "maximum at alpha -> infinity (Delta_S = 0)"})
    grid, slopes, candidates = alpha_slope_maxima("L11", obs, stats)
    if not candidates:
        if slopes[-1] > 0.0:
            return _result("MLE", stats, None, [math.nan],
                           {"status": "boundary",
                            "reason": "maximum at alpha -> infinity"})
        # slope negative everywhere: the maximum sits at the lower bound
        return _result("MLE", stats, None, [math.nan],
                       {"status": "boundary",
                        "reason": "maximum at alpha -> 0"})
    values = [float(log_L11(obs, stats, a)) for a in candidates]
    tail_escapes = slopes[-1] > 0.0
    if tail_escapes and float(log_L11(obs, stats, grid[-1])) > max(values):
        return _result("MLE", stats, None, [math.nan],
                       {"status": "boundary",
                        "reason": "maximum at alpha -> infinity"})
    alpha = candidates[int(np.argmax(values))]
    b, lam = stationary_b_lambda(stats, alpha)
    slope = float(dlog_dalpha("L11", obs, stats, alpha))
    residuals = [slope * alpha / max(1.0, abs(max(values)))]
    return _result("MLE", stats, ModelParams(alpha, b, lam), residuals,
                   {"status": "ok", "log_l11": max(values),
                    "n_local_maxima": len(candidates)})


def _match_outer_alpha(u_residual, mixed_alpha: float,
                       diagnostics: dict) -> float | None:
    """Scan the alpha grid for sign changes of the U residual and return
    the root closest (in log) to the mixed-method alpha."""
    vals = np.array([u_residual(a) for a in _ALPHA_SCAN])
    roots = []
    for k in range(len(_ALPHA_SCAN) - 1):
        if not (np.isfinite(vals[k]) and np.isfinite(vals[k + 1])):
            continue
        if vals[k] == 0.0 or (vals[k] < 0) != (vals[k + 1] < 0):
            roots.append(solve_root(u_residual,
                                    (_ALPHA_SCAN[k], _ALPHA_SCAN[k + 1])))
    diagnostics["alpha_roots"] = list(roots)
    if not roots:
        return None
    if math.isinf(mixed_alpha):
        return max(roots)
    return min(roots, key=lambda r: abs(math.log(r / mixed_alpha)))


def match_A(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their before-sampling expectations.

    The N equation gives lambda/b = N/alpha, the V equation then yields b
    in closed form, and alpha is the root of the U equation, all with sums
    over the full domain.
    """
    x = obs.x
    pos = x > 0
    n, u, v = stats.N, stats.U, stats.V

    def b_of(alpha: float) -> float:
        a = alpha * x[pos]
        q1 = np.exp(-(a + 1.0) * math.log1p(n / alpha))
        return alpha / v * (1.0 - float(np.dot(x[pos], q1)))

    def u_residual(alpha: float) -> float:
        a = alpha * x[pos]
        log1p_rho = math.log1p(n / alpha)
        q = np.exp(-a * log1p_rho)
        b = b_of(alpha)
        model_u = (-math.log(b) + log1p_rho * float(np.dot(x[pos], q))
                   + float(np.dot(x[pos] * digamma(a), -np.expm1(-a * log1p_rho))))
        return model_u - u

    diag: dict = {}
    mixed_alpha, _ = mle_alpha(obs, stats, "L5")
    alpha = _match_outer_alpha(u_residual, mixed_alpha, diag)
    if alpha is None:
        diag["status"] = "no-root"
        return _result("A", stats, None, [math.nan] * 3, diag)
    b = b_of(alpha)
    lam = n / alpha * b
    params = ModelParams(alpha, b, lam)
    diag["status"] = "ok"
    return _result("A", stats, params, _residuals_a(obs, stats, params), diag)


def _residuals_a(obs: Observation, stats: SummaryStats, params: ModelParams) -> list[float]:
    """Relative plug-back residuals of strategy A's three moment equations."""
    x = obs.x
    pos = x > 0
    a = params.alpha * x[pos]
    rho = params.lam / params.b
    log1p_rho = math.log1p(rho)
    q = np.exp(-a * log1p_rho)
    q1 = np.exp(-(a + 1.0) * log1p_rho)
    en = params.lam * params.alpha / params.b
    eu = (-math.log(params.b) + log1p_rho * float(np.dot(x[pos], q))
          + float(np.dot(x[pos] * digamma(a), -np.expm1(-a * log1p_rho))))
    ev = params.alpha / params.b * (1.0 - float(np.dot(x[pos], q1)))
    return [(en - stats.N) / stats.N, (eu - stats.U) / max(1.0, abs(stats.U)),
            (ev - stats.V) / stats.V]


def _b_conditional_moments(x_s: np.ndarray, alpha: float, rho: float):
    """E(N|S)/lambda*b terms, E(U|S) pieces and E(V|S)*b for strategy B.

    Returns (n_factor, u_without_logb, v_times_b) where
      E(N|S) = rho * n_factor, E(U|S) = u_without_logb - X log b,
      E(V|S) = v_times_b / b.
    """
    a = alpha * x_s
    log1p_rho = math.log1p(rho)
    denom = -np.expm1(-a * log1p_rho)          # 1 - (1+rho)^-a
    n_factor = float(np.sum(a / denom))
    numer = -np.expm1(-(a + 1.0) * log1p_rho)  # 1 - (1+rho)^-(a+1)
    v_times_b = float(np.sum(a * numer / denom))
    # log(1+rho) / ((1+rho)^a - 1); the ratio -> 0 when the power overflows
    with np.errstate(over="ignore"):
        growth = np.expm1(a * log1p_rho)
    u_no_logb = float(np.dot(x_s, digamma(a) + log1p_rho / growth))
    return n_factor, u_no_logb, v_times_b


def _solve_b_rho(x_s: np.ndarray, alpha: float, n: int,
                 v: float) -> tuple[float, float]:
    """Inner solve of strategy B: rho from the N equation (increasing in
    rho from M), then b from the V equation in closed form."""
    m = len(x_s)
    if n == m:
        # rho -> 0 limit: each N term -> 1; V and U equations keep finite limits
        rho = 0.0
        a = alpha * x_s
        b = float(np.sum(a + 1.0)) / v
        return b, rho

    def f(log_rho: float) -> float:
        rho = math.exp(log_rho)
        n_factor, _, _ = _b_conditional_moments(x_s, alpha, rho)
        return rho * n_factor - n

    x_sum = float(np.sum(x_s))
    hi = math.log(n / (alpha * x_sum))  # rho * alpha * X bounds the sum below
    lo = hi - 30.0
    while f(lo) > 0.0:
        lo -= 30.0
        if lo < -700.0:
            raise ValueError("could not bracket rho")
    rho = math.exp(solve_root(f, (lo, hi)))
    _, _, v_times_b = _b_conditional_moments(x_s, alpha, rho)
    return v_times_b / v, rho


def match_B(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their expectations conditional on S."""
    x_s = obs.x_obs
    n, u, v = stats.N, stats.U, stats.V

    def u_residual(alpha: float) -> float:
        b, rho = _solve_b_rho(x_s, alpha, n, v)
        if rho == 0.0:
            a = alpha * x_s
            model_u = float(np.dot(x_s, digamma(a) + 1.0 / a)) - stats.X * math.log(b)
        else:
            _, u_no_logb, _ = _b_conditional_moments(x_s, alpha, rho)
            model_u = u_no_logb - stats.X * math.log(b)
        return model_u - u

    diag: dict = {}
    mixed_alpha, _ = mle_alpha(obs, stats, "L5")
    alpha = _match_outer_alpha(u_residual, mixed_alpha, diag)
    if alpha is None:
        diag["status"] = "no-root"
        return _result("B", stats, None, [math.nan] * 3, diag)
    b, rho = _solve_b_rho(x_s, alpha, n, v)
    lam = rho * b
    diag["status"] = "ok" if lam > 0 else "lambda_zero"
    if lam <= 0:
        return _result("B", stats, None, [math.nan] * 3, diag)
    params = ModelParams(alpha, b, lam)
    return _result("B", stats, params, _residuals_b(obs, stats, params), diag)


def _residuals_b(obs: Observation, stats: SummaryStats, params: ModelParams) -> list[float]:
    x_s = obs.x_obs
    rho = params.lam / params.b
    n_factor, u_no_logb, v_times_b = _b_conditional_moments(x_s, params.alpha, rho)
    en = rho * n_factor
    eu = u_no_logb - stats.X * math.log(params.b)
    ev = v_times_b / params.b
    return [(en - stats.N) / stats.N, (eu - stats.U) / max(1.0, abs(stats.U)),
            (ev - stats.V) / stats.V]


def match_C(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """lambda from N = E(N | S, p on S), then (alpha, b) from strategy B's
    U and V equations at that lambda.

    The lambda equation is exactly the Rao-Blackwell Poisson rate
    equation; M = N forces lambda = 0 and the strategy degenerates.
    """
    lam = rb_poisson_lambda(obs)
    diag: dict = {"lambda": lam}
    if lam == 0.0:
        diag["status"] = "lambda_zero"
        diag["reason"] = "all sampled points are singletons"
        return _result("C", stats, None, [math.nan] * 3, diag)
    x_s = obs.x_obs
    u, v = stats.U, stats.V

    def b_of(alpha: float) -> float:
        # V equation at fixed lambda: decreasing in b, unique crossing
        def f(log_b: float) -> float:
            b = math.exp(log_b)
            _, _, v_times_b = _b_conditional_moments(x_s, alpha, lam / b)
            return v_times_b / b - v

        scale = math.log((alpha * stats.X + len(x_s)) / v)
        lo, hi = scale - 40.0, scale + 40.0
        flo, fhi = f(lo), f(hi)
        while flo < 0.0:
            lo -= 40.0
            flo = f(lo)
            if lo < -600.0:
                raise ValueError("could not bracket b")
        while fhi > 0.0:
            hi += 40.0
            fhi = f(hi)
            if hi > 600.0:
                raise ValueError("could not bracket b")
        return math.exp(solve_root(f, (lo, hi)))

    def u_residual(alpha: float) -> float:
        b = b_of(alpha)
        _, u_no_logb, _ = _b_conditional_moments(x_s, alpha, lam / b)
        return u_no_logb - stats.X * math.log(b) - u

    mixed_alpha, _ = mle_alpha(obs, stats, "L5")
    alpha = _match_outer_alpha(u_residual, mixed_alpha, diag)
    if alpha is None:
        diag["status"] = "no-root"
        return _result("C", stats, None, [math.nan] * 3, diag)
    b = b_of(alpha)
    params = ModelParams(alpha, b, lam)
    diag["status"] = "ok"
    # N residual restates the lambda equation in p-space
    lp = lam * obs.p_obs
    en = float(np.sum(lp / -np.expm1(-lp)))
    resid_b = _residuals_b(obs, stats, params)
    residuals = [(en - stats.N) / stats.N, resid_b[1], resid_b[2]]
    return _result("C", stats, params, residuals, diag)


def moment_match(obs: Observation, stats: SummaryStats,
                 strategy: str) -> MomentMatchResult:
    """Dispatch on strategy name: A, B, C or MLE."""
    fn = {"A": match_A, "B": match_B, "C": match_C, "MLE": mle_full}.get(strategy)
    if fn is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    return fn(obs, stats)
