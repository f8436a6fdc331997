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

Each strategy reduces its system to a residual of the U equation in alpha:
the N equation pins rho = lambda / b (A: N / alpha; B: an inner solve in
log rho) and the V equation gives b (A, B: closed form; C, at its fixed
lambda: an inner solve in log b).  The residual takes an array of alphas,
and the inner solves are bracketed Newton steps on analytic slopes for all
of them at once, so the alpha scan is one array pass; sums over points run
over the distinct x values, row by row, so each scan entry is the one-alpha
residual bit for bit.  Each sign change on the scan is refined by a scalar
root find seeded with the scan's values at its ends.  The U equation may
admit several roots; all are reported and the root closest to the
mixed-method alpha is returned.
``evals`` counts residual evaluations, inner and outer, an array pass once.

These strategies are experimental: they are exact on their defining
moment equations but have no optimality backing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Observation, SummaryStats
from .distributions import GammaDist, PointMass
from .estimators import _ztp_mean, rb_poisson_lambda
from .inference import _alpha_maximum, mle_alpha
from .likelihoods import (_BLOCK_ELEMS, ModelParams, dlog_dalpha,
                          stationary_b_lambda)
from .solvers import newton_bracketed, solve_root
from .special import digamma

RESIDUAL_TOL = 1e-8

# the scan is evaluated in row blocks of at most _BLOCK_ELEMS alpha-by-x
# elements, as the likelihood sums are
_ALPHA_SCAN = np.exp(np.linspace(-7.0, 9.0, 65))
# the inner Newton solves in log rho and log b stop at this step
_LOG_TOL = 1e-12


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

    The profile is not guaranteed concave, so every local maximum on the
    slope scan of the alpha search the inference routes share
    (inference._alpha_maximum, a dense-grid version of multi-starting) is
    a candidate, and the best L11 value wins.  The verdict reads slopes
    only, as for L5 and L9: without an interior maximum, a slope still
    positive at the upper search bound is the maximum-at-infinity boundary
    verdict, and any other slope the maximum at alpha -> 0.  Proportional
    data (Delta_S = 0) is that boundary case by construction, so it is
    decided up front rather than hunted numerically.  The diagnostic
    ``evals`` counts the scalar slope evaluations of the root finds.
    """
    if stats.is_proportional:
        return _result("MLE", stats, None, [math.nan],
                       {"status": "boundary", "evals": 0,
                        "reason": "maximum at alpha -> infinity (Delta_S = 0)"})
    best = _alpha_maximum("L11", stats)
    if best.reason is not None:
        return _result("MLE", stats, None, [math.nan],
                       {"status": "boundary", "evals": best.evals,
                        "reason": best.reason})
    alpha = best.alpha
    b, lam = stationary_b_lambda(stats, alpha)
    slope = float(dlog_dalpha("L11", stats, alpha))
    residuals = [slope * alpha / max(1.0, abs(best.value))]
    return _result("MLE", stats, ModelParams(alpha, b, lam), residuals,
                   {"status": "ok", "log_l11": best.value,
                    "n_local_maxima": len(best.maxima), "evals": best.evals})


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every moment sum adds a function of x(i) alone over the points, so it
    # runs over the distinct values of x weighted by their multiplicities;
    # summarize keeps those of the sample as stats.x_values / x_counts
    values, counts = np.unique(x, return_counts=True)
    return values, counts.astype(float)


def _row_sums(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    # row by row, unlike a matrix product, so a scan entry is bit for bit
    # the one-alpha value
    return np.add.reduce(m * w, axis=-1)


def _scan(u_residual, width: int) -> np.ndarray:
    """``u_residual`` on _ALPHA_SCAN, in row blocks that keep each
    alpha-by-x temporary within _BLOCK_ELEMS elements."""
    rows = max(1, _BLOCK_ELEMS // width)
    return np.concatenate([u_residual(_ALPHA_SCAN[k:k + rows])
                           for k in range(0, len(_ALPHA_SCAN), rows)])


def _match_outer_alpha(u_residual, scan_values: np.ndarray,
                       mixed_alpha: Callable[[], float],
                       diagnostics: dict) -> float | None:
    """Refine every sign change of the U residual on the alpha scan
    (``scan_values``) by solve_root, seeded with the scan's values at the
    bracket ends and calling ``u_residual`` on one alpha at a time, and
    return the root closest (in log) to the mixed-method alpha.
    ``mixed_alpha`` computes that alpha; it is called only when there are
    two roots or more to choose from."""
    lo, hi = scan_values[:-1], scan_values[1:]
    change = np.isfinite(lo) & np.isfinite(hi) & ((lo == 0.0) | ((lo < 0) != (hi < 0)))
    roots = [solve_root(lambda a: float(u_residual(np.array([a]))[0]),
                        (_ALPHA_SCAN[k], _ALPHA_SCAN[k + 1]), (lo[k], hi[k]))
             for k in np.nonzero(change)[0]]
    diagnostics["alpha_roots"] = roots
    if len(roots) < 2:
        return roots[0] if roots else None
    target = mixed_alpha()
    if math.isinf(target):
        return max(roots)
    return min(roots, key=lambda r: abs(math.log(r / target)))


def _widen(fn, end: np.ndarray, step: float, limit: float, wrong_sign: float,
           what: str) -> np.ndarray:
    """Move each bracket end by ``step`` while fn there has ``wrong_sign``;
    a move past ``limit`` means there is no bracket."""
    wrong = np.sign(fn(end)[0]) == wrong_sign
    while np.any(wrong):
        end = np.where(wrong, end + step, end)
        if np.any((end[wrong] - limit) * step > 0.0):
            raise ValueError(f"could not bracket {what}")
        wrong = np.sign(fn(end)[0]) == wrong_sign
    return end


def _check_digamma(values: np.ndarray) -> None:
    """Refuse x values at which digamma(alpha x) would be called on 0: the
    smallest alpha any residual sees times the smallest x must be positive
    (float multiplication is monotone, so every alpha x then is)."""
    if not _ALPHA_SCAN[0] * values.min() > 0.0:
        raise ValueError("digamma requires a positive argument")


def _no_params(strategy: str, stats: SummaryStats, diag: dict, status: str = "no-root",
               reason: str = "the U residual does not change sign on the alpha scan "
               f"[{_ALPHA_SCAN[0]:.4g}, {_ALPHA_SCAN[-1]:.4g}]") -> MomentMatchResult:
    diag.update(status=status, reason=reason)
    return _result(strategy, stats, None, [math.nan] * 3, diag)


def _relative_residuals(stats: SummaryStats, en: float, eu: float,
                        ev: float) -> list[float]:
    return [(en - stats.N) / stats.N, (eu - stats.U) / max(1.0, abs(stats.U)),
            (ev - stats.V) / stats.V]


def _a_moments(values: np.ndarray, weights: np.ndarray, alpha: np.ndarray,
               rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(U) + log b and b E(V) of strategy A at arrays alpha, rho = lambda/b:
    with a = alpha x and q = (1 + rho)^-a over the domain, these are
    sum x (log(1 + rho) q + psi(a) (1 - q)) and
    alpha (1 - sum x q / (1 + rho)); ``weights`` are x times multiplicity."""
    log1p_rho = np.log1p(rho)
    a = np.multiply.outer(alpha, values)
    la = a * log1p_rho[:, None]
    sum_q = _row_sums(np.exp(-la), weights)
    u_plus_logb = log1p_rho * sum_q + _row_sums(digamma(a) * -np.expm1(-la), weights)
    return u_plus_logb, alpha * (1.0 - sum_q / (1.0 + rho))


def match_A(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their before-sampling expectations.

    The N equation gives lambda/b = N/alpha, the V equation then yields b
    in closed form, and alpha is the root of the U equation, all with sums
    over the full domain.
    """
    values, counts = _distinct(obs.x[obs.x > 0])
    _check_digamma(values)
    weights = values * counts
    n, u, v = stats.N, stats.U, stats.V
    diag: dict = {"evals": 0}

    def u_residual(alpha: np.ndarray) -> np.ndarray:
        diag["evals"] += 1
        u_plus_logb, v_times_b = _a_moments(values, weights, alpha, n / alpha)
        return u_plus_logb - np.log(v_times_b / v) - u

    alpha = _match_outer_alpha(u_residual, _scan(u_residual, len(values)),
                               lambda: mle_alpha(stats, "L5")[0], diag)
    if alpha is None:
        return _no_params("A", stats, diag)
    u_plus_logb, v_times_b = (float(m[0]) for m in _a_moments(
        values, weights, np.array([alpha]), np.array([n / alpha])))
    b = v_times_b / v
    params = ModelParams(alpha, b, n / alpha * b)
    diag["status"] = "ok"
    return _result("A", stats, params, _relative_residuals(
        stats, params.lam * alpha / b, u_plus_logb - math.log(b), v_times_b / b), diag)


def _b_expected_n(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                  rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(N | S) of strategy B and its log-rho slope at arrays alpha, rho > 0:
    sum r and sum r (1 - r e / (1 + rho)), with a = alpha x,
    e = (1 + rho)^-a and r = a rho / (1 - e).  No digamma is needed."""
    a = np.multiply.outer(alpha, values)
    la = a * np.log1p(rho)[:, None]
    r = a * rho[:, None] / -np.expm1(-la)
    en = _row_sums(r, counts)
    return en, en - _row_sums(r * r * np.exp(-la), counts) / (1.0 + rho)


def _b_v_times_b(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                 rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b E(V | S) of strategy B and its log-rho slope at arrays alpha, rho:
    sum a (1 - e / (1 + rho)) / (1 - e), its terms a + 1 at rho = 0, and
    rho / (1 + rho)^2 sum a e ((1 - e) - a rho) / (1 - e)^2."""
    a = np.multiply.outer(alpha, values)
    log1p_rho = np.log1p(rho)[:, None]
    e, one_minus_e = np.exp(-a * log1p_rho), -np.expm1(-a * log1p_rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(log1p_rho > 0.0,
                     a * -np.expm1(-(a + 1.0) * log1p_rho) / one_minus_e, a + 1.0)
        dt = a * e * (one_minus_e - a * rho[:, None]) / one_minus_e ** 2
        return _row_sums(t, counts), rho / (1.0 + rho) / (1.0 + rho) * _row_sums(dt, counts)


def _b_conditional_u(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                     rho: np.ndarray) -> np.ndarray:
    """E(U | S) + X log b of strategy B at arrays alpha, rho:
    sum x (psi(a) + log(1 + rho) / ((1 + rho)^a - 1)), the ratio being
    1/a at rho = 0 and 0 once the power overflows."""
    a = np.multiply.outer(alpha, values)
    log1p_rho = np.log1p(rho)[:, None]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail = np.where(log1p_rho > 0.0, log1p_rho / np.expm1(a * log1p_rho), 1.0 / a)
    return _row_sums(digamma(a) + tail, values * counts)


def _solve_b_rho(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                 n: int, v: float, diag: dict) -> tuple[np.ndarray, np.ndarray]:
    """Inner solve of strategy B at every alpha of an array: rho from the N
    equation (increasing in log rho, from M at rho -> 0), then b from the V
    equation in closed form.  Returns (b, rho)."""
    rho = np.zeros_like(alpha)  # the M = N limit
    if n != counts.sum():
        def g(log_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            diag["evals"] += 1
            en, slope = _b_expected_n(values, counts, alpha, np.exp(log_rho))
            return en - n, slope

        hi = np.log(n / (alpha * (values @ counts)))  # E(N | S) > rho alpha X
        lo = _widen(g, hi - 30.0, -30.0, -700.0, 1.0, "rho")
        rho = np.exp(newton_bracketed(g, hi, lo, hi, increasing=True, tol=_LOG_TOL))
    return _b_v_times_b(values, counts, alpha, rho)[0] / v, rho


def match_B(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their expectations conditional on S."""
    values, counts = stats.x_values, stats.x_counts
    _check_digamma(values)
    n, u, v = stats.N, stats.U, stats.V
    diag: dict = {"evals": 0}

    def u_residual(alpha: np.ndarray) -> np.ndarray:
        diag["evals"] += 1
        b, rho = _solve_b_rho(values, counts, alpha, n, v, diag)
        return _b_conditional_u(values, counts, alpha, rho) - stats.X * np.log(b) - u

    alpha = _match_outer_alpha(u_residual, _scan(u_residual, len(values)),
                               lambda: mle_alpha(stats, "L5")[0], diag)
    if alpha is None:
        return _no_params("B", stats, diag)
    b, rho = (float(m[0]) for m in _solve_b_rho(values, counts, np.array([alpha]),
                                                n, v, diag))
    if rho * b <= 0:
        return _no_params("B", stats, diag, "lambda_zero",
                          "all sampled points are singletons")
    params = ModelParams(alpha, b, rho * b)
    diag["status"] = "ok"
    return _result("B", stats, params, _residuals_b(values, counts, stats, params), diag)


def _residuals_b(values: np.ndarray, counts: np.ndarray, stats: SummaryStats,
                 params: ModelParams) -> list[float]:
    alpha, rho = np.array([params.alpha]), np.array([params.lam / params.b])
    en = float(_b_expected_n(values, counts, alpha, rho)[0][0])
    v_times_b = float(_b_v_times_b(values, counts, alpha, rho)[0][0])
    eu = (float(_b_conditional_u(values, counts, alpha, rho)[0])
          - stats.X * math.log(params.b))
    return _relative_residuals(stats, en, eu, v_times_b / params.b)


def _solve_c_b(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               lam: float, v: float, diag: dict) -> np.ndarray:
    """Inner solve of strategy C at every alpha of an array: b from the V
    equation at fixed lambda, decreasing in log b."""
    def f(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diag["evals"] += 1
        b = np.exp(log_b)
        v_times_b, slope = _b_v_times_b(values, counts, alpha, lam / b)
        return v_times_b / b - v, -(v_times_b + slope) / b

    scale = np.log((alpha * (values @ counts) + counts.sum()) / v)
    lo = _widen(f, scale - 40.0, -40.0, -600.0, -1.0, "b")
    hi = _widen(f, scale + 40.0, 40.0, 600.0, 1.0, "b")
    return np.exp(newton_bracketed(f, scale, lo, hi, increasing=False, tol=_LOG_TOL))


def match_C(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """lambda from N = E(N | S, p on S), then (alpha, b) from strategy B's
    U and V equations at that lambda.

    The lambda equation is exactly the Rao-Blackwell Poisson rate
    equation; M = N forces lambda = 0 and the strategy degenerates.
    """
    lam = rb_poisson_lambda(obs)
    diag: dict = {"lambda": lam, "evals": 0}
    if lam == 0.0:
        return _no_params("C", stats, diag, "lambda_zero",
                          "all sampled points are singletons")
    values, counts = stats.x_values, stats.x_counts
    _check_digamma(values)
    u, v = stats.U, stats.V

    def u_residual(alpha: np.ndarray) -> np.ndarray:
        diag["evals"] += 1
        b = _solve_c_b(values, counts, alpha, lam, v, diag)
        return _b_conditional_u(values, counts, alpha, lam / b) - stats.X * np.log(b) - u

    alpha = _match_outer_alpha(u_residual, _scan(u_residual, len(values)),
                               lambda: mle_alpha(stats, "L5")[0], diag)
    if alpha is None:
        return _no_params("C", stats, diag)
    b = float(_solve_c_b(values, counts, np.array([alpha]), lam, v, diag)[0])
    params = ModelParams(alpha, b, lam)
    diag["status"] = "ok"
    # N residual restates the lambda equation in p-space
    en = float(np.sum(_ztp_mean(lam * obs.p_obs)))
    resid_b = _residuals_b(values, counts, stats, params)
    residuals = [(en - stats.N) / stats.N, resid_b[1], resid_b[2]]
    return _result("C", stats, params, residuals, diag)


def moment_match(obs: Observation, stats: SummaryStats,
                 strategy: str) -> MomentMatchResult:
    """Dispatch on strategy name: A, B, C or MLE."""
    fn = {"A": match_A, "B": match_B, "C": match_C, "MLE": mle_full}.get(strategy)
    if fn is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    return fn(obs, stats)
