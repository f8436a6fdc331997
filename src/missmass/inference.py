"""Posterior laws for the missing mass W, Z = V + W, and W/Z.

Every reduced likelihood with W kept factors into an alpha-marginal times
one closed-form law,

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, scale V),
    L8(W, alpha) = L9(alpha) BetaPrime(W; alpha Y, alpha X + N, scale V),

so the three routes are one alpha-indexed Beta-prime family (W/Z is the
matching Beta(alpha Y, alpha X + N)) under three weightings of alpha:

  * bayes    -- the mixture over alpha with weights L5(alpha) / alpha (the
                1/alpha prior; b, lambda are integrated out inside L5);
  * profile  -- the envelope over alpha of L9(alpha) BetaPrime(W; alpha)
                (b, lambda profiled out inside L9), tabulated on a W grid
                and normalized by its own quadrature;
  * mixed    -- the single atom at the maximum-likelihood alpha of L5 (or
                L9).

The routes read the data only through its SummaryStats.  ``obs`` stays in
their signatures so that every inference entry point is called as
(obs, stats), moment matching included, which reads the unsampled x and
the masses from it.

Singular cases are detected up front: Y = 0 pins W at 0 exactly, and
p proportional to x on the sample (Delta_S = 0) collapses every posterior
to the point mass at Y * r, r = V / X.  With M >= 2 sampled points that
is the alpha -> infinity limit.  A single point (M = 1) is proportional
trivially and maps to the same point mass by convention, not because
alpha-hat is infinite: L5 is flat in alpha there when N = 1 and peaks at
alpha -> 0 when N >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Observation, SummaryStats
from .distributions import (BetaDist, BetaPrimeDist, GriddedDist, PointMass,
                            ShiftedDist)
from .likelihoods import (d2log_dalpha2, dlog_dalpha, log_L5, log_L8,
                          log_L9)
from .solvers import newton_bracketed, solve_root
from .special import log_beta

DEFAULT_GRID_POINTS = 201

# alpha search window in log alpha before declaring the maximum at infinity,
# and the log-alpha grid on which the likelihood slopes are scanned; alpha
# is exp(t) by math.exp, as the root finds in t evaluate it, so a slope at
# a grid point is the scan's entry bit for bit
ALPHA_T_BOUNDS = (-30.0, 50.0)
_SLOPE_SCAN_T = np.linspace(*ALPHA_T_BOUNDS, 241)
_SLOPE_SCAN_ALPHA = np.array([math.exp(t) for t in _SLOPE_SCAN_T])
_SLOPE_SCAN_T.setflags(write=False)
_SLOPE_SCAN_ALPHA.setflags(write=False)

# the profile W grid spans these mixed-method quantiles, widened by a
# factor 2, then by factors of 8 at most _SPAN_STEPS times per end until
# the per-log-W envelope is _SPAN_NATS below its value at the mixed median
_GRID_Q_LO = 1e-4
_GRID_Q_HI = 1.0 - 1e-4
_SPAN_STEPS = 12
_SPAN_NATS = 30.0
# and starts no lower than V times this: below it W/Z nears the subnormal
# floats, and the W/Z density, which can grow as (W/Z)^-1, overflows
_MIN_W_OVER_V = 1e-300
# the profile's log-alpha grid over ALPHA_T_BOUNDS, and the log-alpha step
# at which its Newton polish (and that of the Bayes alpha mode) stops
_PROFILE_ALPHA_POINTS = 241
_PROFILE_T_TOL = 1e-12

# Bayes alpha nodes: scan ALPHA_T_BOUNDS at _SCAN_POINTS, keep the window
# within _WINDOW_NATS of the L5 maximum, cover it with BAYES_PANELS
# Gauss-Legendre panels of _PANEL_NODES nodes (the checks on the window are
# in _alpha_window_nodes)
_SCAN_POINTS = 801
_WINDOW_NATS = 40.0
BAYES_PANELS = 16
_PANEL_NODES = 16
_TAIL_SHARE = 1e-12
_JITTER_STEP = 1e-10
_JITTER_NATS = 1.0
# mass_check integrates the W density between the quantiles at these levels
# by panels of _MASS_NODES Gauss-Legendre nodes in log W
_MASS_LEVELS = (1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99, 0.999)
_MASS_NODES = 32


@dataclass(frozen=True)
class InferenceReport:
    method: str
    w_dist: object
    z_dist: object
    w_over_z_dist: object
    alpha_summary: float
    singular_case: str | None = None
    diagnostics: dict = field(default_factory=dict, compare=False)


def _slope_scan(which: str, stats: SummaryStats) -> tuple[np.ndarray, list[float], int]:
    """alpha_slope_maxima's slopes on the scan grid and maxima, plus the
    number of scalar slope evaluations its root finds made."""
    slopes = np.asarray(dlog_dalpha(which, stats, _SLOPE_SCAN_ALPHA))
    evals = 0

    def slope(t: float) -> float:
        nonlocal evals
        evals += 1
        return dlog_dalpha(which, stats, math.exp(t))

    maxima = [math.exp(solve_root(slope, (_SLOPE_SCAN_T[k], _SLOPE_SCAN_T[k + 1])))
              for k in np.nonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))[0]]
    return slopes, maxima, evals


def alpha_slope_maxima(which: str, stats: SummaryStats
                       ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Every local maximum in alpha of log L``which`` inside ALPHA_T_BOUNDS.

    The analytic slope is scanned on a log-alpha grid, and each descending
    zero crossing is refined by a root find in log alpha.  The slope is
    used rather than the value because the likelihoods lose all precision
    to cancellation at huge alpha, while their digamma-based slopes stay
    accurate.  Returns (grid, slopes on the grid, maxima in grid order).
    """
    slopes, maxima, _ = _slope_scan(which, stats)
    return _SLOPE_SCAN_ALPHA, slopes, maxima


def _mle_alpha(stats: SummaryStats, base: str) -> tuple[float, bool, int]:
    """mle_alpha, plus the scalar slope evaluations of its root finds."""
    if base not in ("L5", "L9"):
        raise ValueError("base must be L5 or L9")
    if stats.is_proportional:
        return math.inf, True, 0
    slopes, maxima, evals = _slope_scan(base, stats)
    return (*_highest_maximum(base, stats, slopes, maxima), evals)


def mle_alpha(stats: SummaryStats, base: str = "L5") -> tuple[float, bool]:
    """Maximum likelihood alpha from L5 or L9.

    Proportional data (Delta_S = 0) returns the sentinel (inf, True).
    With M >= 2 the maximum is then at alpha -> infinity; a single point
    (M = 1) gets the sentinel by convention, since L5 is flat there
    (N = 1) or peaks at alpha -> 0 (N >= 2).  Away from that case the
    maximum is interior, but the objectives are not always log-concave
    (small samples with uneven base measure can carry two local maxima),
    so every local maximum (alpha_slope_maxima) is a candidate and the
    highest wins.
    """
    return _mle_alpha(stats, base)[:2]


def _highest_maximum(base: str, stats: SummaryStats, slopes: np.ndarray,
                     candidates: list[float]) -> tuple[float, bool]:
    """mle_alpha read off the slope scan of log L``base`` (_slope_scan)."""
    if not candidates:
        # slope everywhere positive is the near-singular escape; anything
        # else leaves the boundary of the search window
        if slopes[-1] > 0.0:
            return math.inf, True
        return float(_SLOPE_SCAN_ALPHA[0]), False
    fn = log_L5 if base == "L5" else log_L9
    values = [float(fn(stats, a)) for a in candidates]
    return candidates[int(np.argmax(values))], True


def _singular_report(method: str, stats: SummaryStats) -> InferenceReport | None:
    if stats.Y == 0.0:
        w = PointMass(0.0)
        return InferenceReport(method=method, w_dist=w,
                               z_dist=PointMass(stats.V),
                               w_over_z_dist=PointMass(0.0),
                               alpha_summary=math.nan,
                               singular_case="Y_zero")
    if stats.is_proportional:
        r = stats.proportional_scale
        w_val = stats.Y * r
        return InferenceReport(method=method, w_dist=PointMass(w_val),
                               z_dist=PointMass(stats.V + w_val),
                               w_over_z_dist=PointMass(stats.Y),
                               alpha_summary=math.inf,
                               singular_case="DeltaS_zero")
    return None


def _mixed_w_dist(stats: SummaryStats, alpha: float) -> BetaPrimeDist:
    return BetaPrimeDist(a=alpha * stats.Y, b=alpha * stats.X + stats.N,
                         scale=stats.V)


def infer_mixed(obs: Observation, stats: SummaryStats,
                base: str = "L5") -> InferenceReport:
    """Closed-form conditional law at the maximum-likelihood alpha.

    W/V ~ Beta-prime(alpha Y, alpha X + N) and W/Z ~ Beta(alpha Y,
    alpha X + N), with means alpha Y V / (alpha X + N - 1) and
    alpha Y / (alpha + N).  The diagnostic ``evals`` counts the scalar
    slope evaluations of the alpha root finds.
    """
    singular = _singular_report("mixed", stats)
    if singular is not None:
        return singular
    alpha, converged, evals = _mle_alpha(stats, base)
    w_dist = _mixed_w_dist(stats, alpha)
    diag = {"base": base, "converged": converged, "evals": evals,
            "mean_w_over_z": alpha * stats.Y / (alpha + stats.N)}
    if alpha * stats.X + stats.N <= 1.0:
        diag["mean_undefined"] = True
    return InferenceReport(method="mixed", w_dist=w_dist,
                           z_dist=ShiftedDist(w_dist, stats.V),
                           w_over_z_dist=BetaDist(alpha * stats.Y,
                                                  alpha * stats.X + stats.N),
                           alpha_summary=alpha,
                           diagnostics=diag)


def _w_over_z_gridded(grid: np.ndarray, log_density: np.ndarray,
                      v: float) -> GriddedDist:
    """Law of s = W / (V + W) from a log density of W tabulated on a grid.

    The Jacobian dW/ds = (V + W)^2 / V is applied in log space, with
    log(V + W) taken by logaddexp, so masses spanning the float range
    cannot overflow it.
    """
    log_w, log_v = np.log(grid), math.log(v)
    log_z = np.logaddexp(log_v, log_w)
    return GriddedDist.from_log_density(np.exp(log_w - log_z),
                                        log_density + 2.0 * log_z - log_v)


def _alpha_window_nodes(stats: SummaryStats) -> tuple[np.ndarray, np.ndarray, float]:
    """Node set of the Bayes alpha integral: (alpha_j, weights, log evidence).

    The window in t = log alpha is where log L5 lies within _WINDOW_NATS of
    its maximum on a scan of ALPHA_T_BOUNDS, widened by one scan step each
    side; BAYES_PANELS Gauss-Legendre panels of _PANEL_NODES nodes cover it.
    The 1/alpha prior is the flat measure in t, so the weights are
    L5(alpha_j) times the node weights, normalized; the log of their sum is
    the evidence.  The call fails with a stated reason when the window
    reaches the upper end of the scan (L5 has not decayed there); when log
    L5 in the window moves by more than _JITTER_NATS under a relative alpha
    step of _JITTER_STEP (near-proportional samples put the window at alpha
    so large that log L5 is rounding noise); or when L5 at the lower end
    exceeds _TAIL_SHARE of the evidence: below that end L5 falls as
    alpha^(M-1), M >= 2, so the tail it drops is smaller still.
    """
    scan = np.linspace(*ALPHA_T_BOUNDS, _SCAN_POINTS)
    log_scan = np.asarray(log_L5(stats, np.exp(scan)))
    inside = np.nonzero(log_scan >= np.max(log_scan) - _WINDOW_NATS)[0]
    if inside[-1] == len(scan) - 1:
        raise ValueError(
            "L5 does not decay inside the log-alpha window "
            f"{ALPHA_T_BOUNDS}: the sample is too close to proportional")
    alpha_in = np.exp(scan[inside])
    jitter = float(np.max(np.abs(
        log_L5(stats, alpha_in * (1.0 + _JITTER_STEP)) - log_scan[inside])))
    if jitter > _JITTER_NATS:
        raise ValueError(
            f"log L5 changes by {jitter:.3g} nats under a relative alpha step "
            f"of {_JITTER_STEP:g}: at alpha up to {alpha_in[-1]:.3g} it is "
            "rounding noise, the sample being too close to proportional")
    edges = np.linspace(scan[max(inside[0] - 1, 0)],
                        scan[inside[-1] + 1], BAYES_PANELS + 1)
    nodes, node_weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    t = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * nodes).ravel()
    log_terms = log_L5(stats, np.exp(t)) + np.log(half * node_weights).ravel()
    log_evidence = float(np.logaddexp.reduce(log_terms))
    if log_scan[0] - log_evidence > math.log(_TAIL_SHARE):
        raise ValueError(
            "the alpha posterior keeps mass below the log-alpha window "
            f"{ALPHA_T_BOUNDS}: L5 there is "
            f"{math.exp(log_scan[0] - log_evidence):.3g} of the evidence")
    return np.exp(t), np.exp(log_terms - log_evidence), log_evidence


def _mass_check(w_dist: BetaPrimeDist) -> float:
    """Total mass of the W law, found apart from its CDF formula.

    The density is integrated over log W by Gauss-Legendre panels between
    the law's quantiles at _MASS_LEVELS (floored at W = V e^-700, below
    which the density of a small-alpha spike is not representable); the
    two tails outside those cut points are added from the CDF.
    """
    cuts = np.maximum(w_dist.quantile(np.array(_MASS_LEVELS)),
                      w_dist.scale * math.exp(-700.0))
    log_cuts = np.log(cuts)
    nodes, node_weights = np.polynomial.legendre.leggauss(_MASS_NODES)
    total = float(w_dist.cdf(cuts[0])) + float(1.0 - w_dist.cdf(cuts[-1]))
    # one panel at a time keeps the nodes-by-atoms density array small
    for lo, hi in zip(log_cuts[:-1], log_cuts[1:]):
        half = 0.5 * (hi - lo)
        x = 0.5 * (lo + hi) + half * nodes
        total += half * float(np.exp(w_dist.log_pdf(np.exp(x)) + x) @ node_weights)
    return float(total)


def _alpha_marginal_mode(stats: SummaryStats, slopes: np.ndarray,
                         alpha_star: float) -> float:
    """Mode of the alpha posterior L5(alpha) / alpha.

    It is a root of alpha dlogL5/dalpha - 1 in t = log alpha: the
    descending crossing nearest ``alpha_star`` on the L5 slope scan
    (``slopes`` from _slope_scan), polished by bracketed
    Newton steps on the analytic curvature.  A scan with no such crossing
    puts the mode at an end of ALPHA_T_BOUNDS.
    """
    t_grid = _SLOPE_SCAN_T
    h = _SLOPE_SCAN_ALPHA * slopes - 1.0
    down = np.nonzero((h[:-1] > 0.0) & (h[1:] <= 0.0))[0]
    if not len(down):
        return math.inf if h[-1] > 0.0 else float(_SLOPE_SCAN_ALPHA[0])
    k = down[np.argmin(np.abs(t_grid[down] - math.log(alpha_star)))]

    def h_and_slope(t):
        alpha = np.exp(t)
        slope = alpha * dlog_dalpha("L5", stats, alpha)
        return slope - 1.0, slope + alpha * alpha * d2log_dalpha2("L5", stats, alpha)

    t = newton_bracketed(h_and_slope, [0.5 * (t_grid[k] + t_grid[k + 1])],
                         [t_grid[k]], [t_grid[k + 1]], increasing=False,
                         tol=_PROFILE_T_TOL)
    return float(np.exp(t[0]))


def infer_bayes(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Fully Bayesian posterior for W under the (alpha b lambda)^-1 prior.

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, V), so the
    posterior of W is the mixture of these Beta-prime laws over the alpha
    posterior L5(alpha) / alpha, and W/Z the same mixture of
    Beta(alpha Y, alpha X + N): the mixed method's law, averaged over
    alpha instead of taken at one alpha.  The alpha integral runs on a
    fixed Gauss-Legendre node set in log alpha (_alpha_window_nodes), so
    CDF, mean and quantiles are exact for that node set.
    """
    singular = _singular_report("bayes", stats)
    if singular is not None:
        return singular
    slopes, maxima, _ = _slope_scan("L5", stats)
    alpha_star, _ = _highest_maximum("L5", stats, slopes, maxima)
    alphas, weights, log_evidence = _alpha_window_nodes(stats)
    a, b = alphas * stats.Y, alphas * stats.X + stats.N
    w_dist = BetaPrimeDist(a, b, stats.V, weights=weights)
    diag = {"mass_check": _mass_check(w_dist), "log_evidence": log_evidence,
            "alpha_mle": alpha_star, "alpha_nodes": len(alphas)}
    mode = _alpha_marginal_mode(stats, slopes, alpha_star)
    return InferenceReport(method="bayes", w_dist=w_dist,
                           z_dist=ShiftedDist(w_dist, stats.V),
                           w_over_z_dist=BetaDist(a, b, weights=weights),
                           alpha_summary=mode, diagnostics=diag)


def _profile_envelope(stats: SummaryStats,
                      w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max over alpha of log L8(W, alpha) at every W of ``w``.

    Returns (argmax alpha, max log L8, argmax at the top of the window).
    log L8 = log L9(alpha) + log BetaPrime(W; alpha Y, alpha X + N, V) is
    evaluated as one alpha-by-W matrix on a log-alpha grid over
    ALPHA_T_BOUNDS.  L8 is log-concave in alpha, so each column's maximum
    lies between the grid neighbours of its argmax; bracketed Newton steps
    in log alpha on the analytic slope and curvature polish every column at
    once.
    """
    t_grid = np.linspace(*ALPHA_T_BOUNDS, _PROFILE_ALPHA_POINTS)
    grid = np.exp(t_grid)
    ay, bx = grid * stats.Y, grid * stats.X + stats.N
    surface = np.multiply.outer(ay - 1.0, np.log(w / stats.V))
    surface -= np.multiply.outer(ay + bx, np.log1p(w / stats.V))
    surface += (log_L9(stats, grid) - log_beta(ay, bx))[:, None]
    k = np.argmax(surface, axis=0)

    def slope_and_curvature(t):
        alpha = np.exp(t)
        return (dlog_dalpha("L8", stats, alpha, w=w),
                alpha * d2log_dalpha2("L8", stats, alpha))

    t = newton_bracketed(slope_and_curvature, t_grid[k],
                         t_grid[np.maximum(k - 1, 0)],
                         t_grid[np.minimum(k + 1, len(t_grid) - 1)],
                         increasing=False, tol=_PROFILE_T_TOL)
    alpha = np.exp(t)
    return alpha, log_L8(stats, w, alpha), k == len(t_grid) - 1


def infer_profile(obs: Observation, stats: SummaryStats,
                  grid_points: int = DEFAULT_GRID_POINTS) -> InferenceReport:
    """Profile likelihood posterior: sup over alpha of L8 at every W.

    The log-W grid spans the mixed method's quantiles at the L9 maximum,
    widened by 2; profiling alpha fattens the tails, so each end is pushed
    outward by factors of 8 until the per-unit-log-W envelope has fallen
    _SPAN_NATS below its value at the mixed median, the lower end stopping
    at V * _MIN_W_OVER_V.  All probes, then all grid points, are profiled
    at once (_profile_envelope).  The curve is normalized by its own
    quadrature, being an unnormalized density by construction.  The
    diagnostics give how far the envelope at each grid end sits below its
    median value (span_drop_lo_nats, span_drop_hi_nats); status
    "short_span" flags a drop under _SPAN_NATS, where the law depends on
    where the grid is cut.
    """
    singular = _singular_report("profile", stats)
    if singular is not None:
        return singular
    alpha_star, _ = mle_alpha(stats, "L9")

    ref = _mixed_w_dist(stats, alpha_star)
    median = ref.quantile(0.5)
    steps = 8.0 ** np.arange(_SPAN_STEPS)
    lo_probes = ref.quantile(_GRID_Q_LO) / 2.0 / steps
    hi_probes = ref.quantile(_GRID_Q_HI) * 2.0 * steps
    probes = np.concatenate([[median], lo_probes, hi_probes])
    _, env, _ = _profile_envelope(stats, probes)
    per_log_w = env + np.log(probes)
    low_enough = per_log_w <= per_log_w[0] - _SPAN_NATS

    def span_end(probe_values, below, factor):
        hit = np.nonzero(below)[0]
        return probe_values[hit[0]] if len(hit) else probe_values[-1] * factor

    lo = max(span_end(lo_probes, low_enough[1:_SPAN_STEPS + 1], 1.0 / 8.0),
             stats.V * _MIN_W_OVER_V)
    hi = span_end(hi_probes, low_enough[_SPAN_STEPS + 1:], 8.0)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), grid_points))

    alphas, log_l10, at_top = _profile_envelope(stats, grid)
    if np.any(at_top):
        raise ArithmeticError(
            "profile maximization diverged at finite W with Delta_S > 0")

    w_dist = GriddedDist.from_log_density(grid, log_l10)
    mode_alpha = float(alphas[int(np.argmax(log_l10))])
    drop_lo, drop_hi = per_log_w[0] - (log_l10[[0, -1]] + np.log(grid[[0, -1]]))
    short = min(drop_lo, drop_hi) < _SPAN_NATS
    return InferenceReport(method="profile", w_dist=w_dist,
                           z_dist=ShiftedDist(w_dist, stats.V),
                           w_over_z_dist=_w_over_z_gridded(grid, log_l10, stats.V),
                           alpha_summary=mode_alpha,
                           diagnostics={"status": "short_span" if short else "ok",
                                        "span_drop_lo_nats": float(drop_lo),
                                        "span_drop_hi_nats": float(drop_hi),
                                        "alpha_mle": alpha_star,
                                        "alpha_at_mode": mode_alpha})
