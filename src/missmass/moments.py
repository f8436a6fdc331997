"""Parameter determination by full maximum likelihood and moment matching.

Routes that pin the nuisance triple (alpha, b, lambda) from the data and
then read the missing mass law off the model: given the parameters, W is
Gamma(alpha Y, b + lambda) with mean alpha Y / (b + lambda).

Strategies:

  MLE -- maximize L11(alpha) = L3 at the stationary b(alpha), lambda(alpha).
         Unlike the Bayes-marginal and profile objectives, L11 is not
         guaranteed concave, so the search is safeguarded by multi-start.
  A   -- match observed (N, U, V) to their unconditional model priors,
         summing over the whole domain.  Its U equation carries
         E(X) log b where the observed U carries X log b, so unlike B, C
         and the MLE it is not equivariant under p -> k p.
  B   -- match (N, U, V) to their conditional expectations given S.
  C   -- match N to E(N | S, p on S), which fixes lambda alone (the same
         equation as the Rao-Blackwell Poisson rate), then (alpha, b)
         from strategy B's U and V equations at that lambda.

The expectations are simulate.py's formulas, the ones expected_values
evaluates, and one routine (_fit) fits every strategy to them.  Each
strategy pins rho = lambda / b by its N equation (A: N / alpha; B: an
inner solve in log rho) and b by its V equation (A, B: closed form; C, at
its fixed lambda: an inner solve in log b), leaving a residual of the U
equation in alpha.  The residual takes an array of alphas, and the inner
solves are bracketed Newton steps on analytic slopes for all of them at
once, so the alpha scan is one array pass; each scan entry is the
one-alpha residual bit for bit.  The scan is the grid every alpha search
shares, inference._SLOPE_SCAN_ALPHA.  Each sign change on the scan is
refined by a scalar root find seeded with the scan's values at its ends.
The U equation may admit several roots; all are reported and the root
closest to the mixed-method alpha is returned.  B and C decide M = N
(lambda = 0) and Delta_S = 0 up front, as the MLE decides Delta_S = 0:
their U residual then tends to 0 only as alpha -> infinity.
``evals`` counts residual evaluations, inner and outer, an array pass once.

These strategies are experimental: they are exact on their defining
moment equations but have no optimality backing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .data import Observation, SummaryStats
from .distributions import GammaDist, PointMass
from .estimators import _ztp_mean, rb_poisson_lambda
from .inference import _SLOPE_SCAN_ALPHA, _alpha_maximum, mle_alpha
from .likelihoods import (_BLOCK_ELEMS, ModelParams, dlog_dalpha,
                          stationary_b_lambda)
from .simulate import (_given_s_n, _given_s_u, _given_s_v_times_b, _prior_n_v,
                       _prior_u)
from .solvers import newton_bracketed, solve_root

RESIDUAL_TOL = 1e-8

# the inner Newton solves in log rho and log b stop at this step
_LOG_TOL = 1e-12
# the verdicts of every strategy where lambda passes the float range, and
# of B and C where M = N forces it to 0
_OVERFLOW = ("lambda_overflow", "lambda = N / Z passes the float range")
_SINGLETONS = ("lambda_zero", "all sampled points are singletons")
# B's and C's verdict on proportional data
_PROPORTIONAL = ("no-root", "the U residual tends to 0 only as alpha -> infinity "
                 "(Delta_S = 0)")
# strategy C's b is a normal float: log b lies in this range
_LOG_B = np.log([np.finfo(float).tiny, np.finfo(float).max])


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
    decided up front rather than hunted numerically.  A stationary lambda
    past the float range is the lambda_overflow verdict.  The diagnostic
    ``evals`` counts the scalar slope evaluations of the root finds.
    """
    if stats.is_proportional:
        return _no_params("MLE", stats, {"status": "boundary", "evals": 0}, "boundary",
                          "maximum at alpha -> infinity (Delta_S = 0)")
    best = _alpha_maximum("L11", stats)
    if best.reason is not None:
        return _no_params("MLE", stats, {"status": "boundary", "evals": best.evals},
                          "boundary", best.reason)
    alpha = best.alpha
    b, lam = stationary_b_lambda(stats, alpha)
    if not math.isfinite(lam):
        return _no_params("MLE", stats, {"evals": best.evals}, *_OVERFLOW)
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


def _scan(u_residual, width: int) -> np.ndarray:
    """``u_residual`` on inference._SLOPE_SCAN_ALPHA, in row blocks that
    keep each alpha-by-x temporary within _BLOCK_ELEMS elements, as the
    likelihood sums do."""
    rows = max(1, _BLOCK_ELEMS // width)
    return np.concatenate([u_residual(_SLOPE_SCAN_ALPHA[k:k + rows])
                           for k in range(0, len(_SLOPE_SCAN_ALPHA), rows)])


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
                        (_SLOPE_SCAN_ALPHA[k], _SLOPE_SCAN_ALPHA[k + 1]), (lo[k], hi[k]))
             for k in np.nonzero(change)[0]]
    diagnostics["alpha_roots"] = roots
    if len(roots) < 2:
        return roots[0] if roots else None
    target = mixed_alpha()
    if math.isinf(target):
        return max(roots)
    return min(roots, key=lambda r: abs(math.log(r / target)))


def _widen(fn, end: np.ndarray, step: float, limit: float,
           wrong_sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Move each bracket end by ``step``, but not past ``limit``, while fn
    there has ``wrong_sign``.  Returns the ends and a mask of those where fn
    has the wrong sign at ``limit``: there is no bracket."""
    clamp = np.maximum if step < 0.0 else np.minimum
    end = clamp(end, limit)
    wrong = np.sign(fn(end)[0]) == wrong_sign
    while np.any(wrong & (end != limit)):
        end = clamp(np.where(wrong, end + step, end), limit)
        wrong = np.sign(fn(end)[0]) == wrong_sign
    return end, wrong


def _check_digamma(values: np.ndarray) -> None:
    """Refuse x values at which digamma(alpha x) would be called on 0: the
    smallest alpha any residual sees times the smallest x must be positive
    (float multiplication is monotone, so every alpha x then is)."""
    if not _SLOPE_SCAN_ALPHA[0] * values.min() > 0.0:
        raise ValueError("digamma requires a positive argument")


def _no_params(strategy: str, stats: SummaryStats, diag: dict, status: str = "no-root",
               reason: str = "the U residual does not change sign on the alpha scan "
               f"[{_SLOPE_SCAN_ALPHA[0]:.4g}, {_SLOPE_SCAN_ALPHA[-1]:.4g}]") -> MomentMatchResult:
    diag.update(status=status, reason=reason)
    return _result(strategy, stats, None, [math.nan] * (1 if strategy == "MLE" else 3), diag)


def _fit(strategy: str, stats: SummaryStats, values: np.ndarray, pin, expect_u,
         expect_nv, diag: dict, lam: float | None = None) -> MomentMatchResult:
    """The fit every strategy shares.  ``pin`` maps an array of alphas to
    the (b, rho) its N and V equations give, ``expect_u`` maps (alpha, rho)
    to E(U) + X log b and the X that term carries (observed, or E(X) before
    sampling), and ``expect_nv`` to E(N) and b E(V).  The U residual
    E(U) - U is scanned on inference._SLOPE_SCAN_ALPHA, over the distinct
    x ``values``, and its roots refined (_match_outer_alpha).  At the chosen
    alpha the parameters are (alpha, b, rho b), or ``lam`` where lambda is
    fixed, and the residuals are those of the N, U and V equations relative
    to the observed values.  A fitted lambda past the float range gets
    strategy C's lambda_overflow verdict, without parameters."""
    def u_residual(alpha: np.ndarray) -> np.ndarray:
        diag["evals"] += 1
        b, rho = pin(alpha)
        eu, x = expect_u(alpha, rho)
        return eu - x * np.log(b) - stats.U

    _check_digamma(values)
    alpha = _match_outer_alpha(u_residual, _scan(u_residual, len(values)),
                               lambda: mle_alpha(stats, "L5")[0], diag)
    if alpha is None:
        return _no_params(strategy, stats, diag)
    b, rho = (float(m[0]) for m in pin(np.array([alpha])))
    lam = rho * b if lam is None else lam
    if not math.isfinite(lam):
        return _no_params(strategy, stats, diag, *_OVERFLOW)
    params = ModelParams(alpha, b, lam)
    one, rho = np.array([alpha]), np.array([lam / b])
    eu, x = expect_u(one, rho)
    en, v_times_b = (float(m[0]) for m in expect_nv(one, rho))
    diag["status"] = "ok"
    return _result(strategy, stats, params, [
        (en - stats.N) / stats.N,
        (float((eu - x * math.log(b))[0]) - stats.U) / max(1.0, abs(stats.U)),
        (v_times_b / b - stats.V) / stats.V], diag)


def match_A(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their before-sampling expectations.

    The N equation gives lambda/b = N/alpha, the V equation then yields b
    in closed form, and alpha is the root of the U equation, all with sums
    over the full domain.
    """
    values, counts = _distinct(obs.x[obs.x > 0])

    def pin(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rho = stats.N / alpha
        # b is +inf where it passes the float range, as in strategy B
        with np.errstate(over="ignore"):
            return _prior_n_v(values, counts, alpha, rho)[1] / stats.V, rho

    return _fit("A", stats, values, pin, partial(_prior_u, values, counts),
                partial(_prior_n_v, values, counts), {"evals": 0})


def _solve_b_rho(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                 n: int, v: float, diag: dict) -> tuple[np.ndarray, np.ndarray]:
    """Inner solve of strategy B at every alpha of an array: rho from the N
    equation (increasing in log rho, from M at rho -> 0, so N > M), then b
    from the V equation in closed form, +inf where it passes the float range
    (where the U residual is then -inf).  Returns (b, rho)."""
    def g(log_rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diag["evals"] += 1
        en, slope = _given_s_n(values, counts, alpha, np.exp(log_rho))
        return en - n, slope

    hi = np.log(n / (alpha * (values @ counts)))  # E(N | S) > rho alpha X
    lo, unbracketed = _widen(g, hi - 30.0, -30.0, -700.0, 1.0)
    if np.any(unbracketed):
        raise ValueError("could not bracket rho")
    rho = np.exp(newton_bracketed(g, hi, lo, hi, increasing=True, tol=_LOG_TOL))
    with np.errstate(over="ignore"):
        return _given_s_v_times_b(values, counts, alpha, rho)[0] / v, rho


def _given_s_expectations(stats: SummaryStats):
    """expect_u and expect_nv of _fit for strategy B, and the expect_u of C."""
    values, counts = stats.x_values, stats.x_counts
    return (lambda alpha, rho: (_given_s_u(values, counts, alpha, rho), stats.X),
            lambda alpha, rho: (_given_s_n(values, counts, alpha, rho)[0],
                                _given_s_v_times_b(values, counts, alpha, rho)[0]))


def match_B(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """Match observed (N, U, V) to their expectations conditional on S."""
    values, counts = stats.x_values, stats.x_counts
    diag: dict = {"evals": 0}
    if stats.N == stats.M:
        return _no_params("B", stats, diag, *_SINGLETONS)
    if stats.is_proportional:
        return _no_params("B", stats, diag, *_PROPORTIONAL)
    return _fit("B", stats, values, lambda alpha: _solve_b_rho(
        values, counts, alpha, stats.N, stats.V, diag), *_given_s_expectations(stats), diag)


def _solve_c_b(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               lam: float, v: float, diag: dict) -> np.ndarray:
    """Inner solve of strategy C at every alpha of an array: b from the V
    equation at fixed lambda, decreasing in log b.  The bracket widens from
    log((alpha X + M) / V) within _LOG_B; where the root lies past it, b
    is nan, and so is the U residual at that alpha."""
    def f(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        diag["evals"] += 1
        # lambda / b and b E(V | S) / b may overflow; inf keeps f's sign
        with np.errstate(over="ignore"):
            b = np.exp(log_b)
            v_times_b, slope = _given_s_v_times_b(values, counts, alpha, lam / b)
            return v_times_b / b - v, -(v_times_b + slope) / b

    with np.errstate(over="ignore"):
        scale = np.clip(np.log((alpha * (values @ counts) + counts.sum()) / v), *_LOG_B)
    lo, below = _widen(f, scale - 40.0, -40.0, _LOG_B[0], -1.0)
    hi, above = _widen(f, scale + 40.0, 40.0, _LOG_B[1], 1.0)
    log_b = newton_bracketed(f, scale, lo, hi, increasing=False, tol=_LOG_TOL)
    return np.where(below | above, np.nan, np.exp(log_b))


def match_C(obs: Observation, stats: SummaryStats) -> MomentMatchResult:
    """lambda from N = E(N | S, p on S), then (alpha, b) from strategy B's
    U and V equations at that lambda.

    The lambda equation is exactly the Rao-Blackwell Poisson rate
    equation; M = N forces lambda = 0 and the strategy degenerates.
    """
    lam = rb_poisson_lambda(obs)
    diag: dict = {"lambda": lam, "evals": 0}
    if lam == 0.0:
        return _no_params("C", stats, diag, *_SINGLETONS)
    if lam == math.inf:
        return _no_params("C", stats, diag, *_OVERFLOW)
    if stats.is_proportional:
        return _no_params("C", stats, diag, *_PROPORTIONAL)
    values, counts = stats.x_values, stats.x_counts

    def pin(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = _solve_c_b(values, counts, alpha, lam, stats.V, diag)
        return b, lam / b

    expect_u, expect_nv = _given_s_expectations(stats)
    # the N residual restates the lambda equation in p-space
    return _fit("C", stats, values, pin, expect_u, lambda alpha, rho: (
        [np.sum(_ztp_mean(lam * obs.p_obs))], expect_nv(alpha, rho)[1]), diag, lam)


def moment_match(obs: Observation, stats: SummaryStats,
                 strategy: str) -> MomentMatchResult:
    """Dispatch on strategy name: A, B, C or MLE."""
    fn = {"A": match_A, "B": match_B, "C": match_C, "MLE": mle_full}.get(strategy)
    if fn is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    return fn(obs, stats)
