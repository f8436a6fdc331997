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

Every route, and the plain MLE of L11 in moments.py, finds its alpha by
one search on one log-alpha grid (_alpha_maximum), with one verdict:
interior, alpha -> infinity, or the lower end.  The Bayes alpha mode is
the same search on the L5 slopes shifted by -1/alpha, and the same grid
carries the Bayes window's log L5 and the profile's alpha column.

The routes read the data only through its SummaryStats.  ``obs`` stays in
their signatures so that every inference entry point is called as
(obs, stats), moment matching included, which reads the unsampled x and
the masses from it.

Singular cases are detected up front: Y = 0 pins W at 0 exactly, and
p proportional to x on the sample (Delta_S = 0) collapses every posterior
to the point mass at Y * r, r = V / X.  With M >= 2 sampled points that
is the alpha -> infinity limit, which the mixed route also reports
(singular case "alpha_infinite") when its alpha search finds the maximum
at infinity.  A single point (M = 1) is proportional trivially and maps to
the same point mass by convention, not because alpha-hat is infinite: L5
is flat in alpha there when N = 1 and peaks at alpha -> 0 when N >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Observation, SummaryStats
from .distributions import (BetaDist, BetaPrimeDist, GriddedDist, PointMass,
                            ShiftedDist)
from .likelihoods import (d2log_dalpha2, dlog_dalpha, log_L5, log_L8,
                          log_L9, log_L11)
from .solvers import newton_bracketed, solve_root
from .special import log_beta

# alpha search window in log alpha before declaring the maximum at infinity,
# and the log-alpha grid of every alpha search, of the Bayes window and of
# the profile's alpha column; alpha is exp(t) by math.exp, as the root
# finds in t evaluate it, so a slope at a grid point is the scan's entry
# bit for bit
ALPHA_T_BOUNDS = (-30.0, 50.0)
_SLOPE_SCAN_T = np.linspace(*ALPHA_T_BOUNDS, 241)
_SLOPE_SCAN_ALPHA = np.array([math.exp(t) for t in _SLOPE_SCAN_T])
_SLOPE_SCAN_T.setflags(write=False)
_SLOPE_SCAN_ALPHA.setflags(write=False)
# the two verdicts of an alpha search without an interior maximum
_AT_INFINITY = "maximum at alpha -> infinity"
_AT_LOWER_END = "maximum at alpha -> 0"

# the profile W grid has _W_GRID_POINTS points spanning these mixed-method
# quantiles, widened by a factor 2, then by factors of 8 at most
# _SPAN_STEPS times per end until the per-log-W envelope is _SPAN_NATS
# below its value at the mixed median
_W_GRID_POINTS = 201
_GRID_Q_LO = 1e-4
_GRID_Q_HI = 1.0 - 1e-4
_SPAN_STEPS = 12
_SPAN_NATS = 30.0
# and starts no lower than V times this: below it W/Z nears the subnormal
# floats, and the W/Z density, which can grow as (W/Z)^-1, overflows
_MIN_W_OVER_V = 1e-300
# the log-alpha step at which the profile's Newton polish stops
_PROFILE_T_TOL = 1e-12

# Bayes alpha nodes: keep the window where log L5 on the scan grid is
# within _WINDOW_NATS of its maximum, cover it with BAYES_PANELS
# Gauss-Legendre panels of _PANEL_NODES nodes (the checks on the window are
# in _alpha_window_nodes)
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


class AlphaMaximum(NamedTuple):
    """The answer of an alpha search (_alpha_maximum)."""

    alpha: float
    value: float
    maxima: list[float]
    evals: int
    reason: str | None = None


def _alpha_maximum(which: str, stats: SummaryStats, slopes: np.ndarray | None = None,
                   prior: float = 0.0) -> AlphaMaximum:
    """The highest maximum in alpha of log L``which`` - ``prior`` log alpha.

    Every descending zero crossing of ``slopes`` - prior / alpha (slopes:
    dlog_dalpha(which) on the scan grid, computed when not given) is
    refined by a root find in t = log alpha.  The slope is read rather than
    the value, for the maxima and the verdict alike, because the
    likelihoods lose all precision to cancellation at huge alpha while
    their digamma-based slopes stay accurate.  Without a crossing the
    ``reason`` is _AT_INFINITY (alpha = inf) when the slope is positive at
    the top of ALPHA_T_BOUNDS, else _AT_LOWER_END, and ``value`` is nan.
    """
    if slopes is None:
        slopes = np.asarray(dlog_dalpha(which, stats, _SLOPE_SCAN_ALPHA))
    if prior:
        slopes = slopes - prior / _SLOPE_SCAN_ALPHA
    evals = 0

    def slope(t: float) -> float:
        nonlocal evals
        evals += 1
        alpha = math.exp(t)
        return dlog_dalpha(which, stats, alpha) - prior / alpha

    maxima = [math.exp(solve_root(slope, (_SLOPE_SCAN_T[k], _SLOPE_SCAN_T[k + 1])))
              for k in np.nonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))[0]]
    if not maxima:
        if slopes[-1] > 0.0:
            return AlphaMaximum(math.inf, math.nan, maxima, evals, _AT_INFINITY)
        return AlphaMaximum(float(_SLOPE_SCAN_ALPHA[0]), math.nan, maxima, evals,
                            _AT_LOWER_END)
    log_l = {"L5": log_L5, "L9": log_L9, "L11": log_L11}[which]
    values = [float(log_l(stats, a)) - prior * math.log(a) for a in maxima]
    k = int(np.argmax(values))
    return AlphaMaximum(maxima[k], values[k], maxima, evals)


def alpha_slope_maxima(which: str, stats: SummaryStats
                       ) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Every local maximum in alpha of log L``which`` inside ALPHA_T_BOUNDS,
    as _alpha_maximum finds them.  Returns (grid, slopes on the grid,
    maxima in grid order)."""
    slopes = np.asarray(dlog_dalpha(which, stats, _SLOPE_SCAN_ALPHA))
    return _SLOPE_SCAN_ALPHA, slopes, _alpha_maximum(which, stats, slopes).maxima


def mle_alpha(stats: SummaryStats, base: str = "L5") -> tuple[float, bool]:
    """Maximum likelihood alpha from L5 or L9.

    Proportional data (Delta_S = 0) returns the sentinel (inf, True).
    With M >= 2 the maximum is then at alpha -> infinity; a single point
    (M = 1) gets the sentinel by convention, since L5 is flat there
    (N = 1) or peaks at alpha -> 0 (N >= 2).  Away from that case the
    maximum is interior, but the objectives are not always log-concave
    (small samples with uneven base measure can carry two local maxima),
    so every local maximum is a candidate and the highest wins
    (_alpha_maximum).
    """
    if base not in ("L5", "L9"):
        raise ValueError("base must be L5 or L9")
    if stats.is_proportional:
        return math.inf, True
    best = _alpha_maximum(base, stats)
    return best.alpha, best.reason != _AT_LOWER_END


def _singular_report(method: str, stats: SummaryStats) -> InferenceReport | None:
    if stats.Y == 0.0:
        w = PointMass(0.0)
        return InferenceReport(method=method, w_dist=w,
                               z_dist=PointMass(stats.V),
                               w_over_z_dist=PointMass(0.0),
                               alpha_summary=math.nan,
                               singular_case="Y_zero")
    if stats.is_proportional:
        return _alpha_infinity_report(method, stats, "DeltaS_zero", {})
    return None


def _alpha_infinity_report(method: str, stats: SummaryStats, case: str,
                           diagnostics: dict) -> InferenceReport:
    """The alpha -> infinity limit of BetaPrime(alpha Y, alpha X + N;
    V): the point mass at W = Y V / X, with Z = V + W and W/Z = Y."""
    w_val = stats.Y * stats.proportional_scale
    return InferenceReport(method=method, w_dist=PointMass(w_val),
                           z_dist=PointMass(stats.V + w_val),
                           w_over_z_dist=PointMass(stats.Y),
                           alpha_summary=math.inf, singular_case=case,
                           diagnostics=diagnostics)


def _mixed_w_dist(stats: SummaryStats, alpha: float) -> BetaPrimeDist:
    return BetaPrimeDist(a=alpha * stats.Y, b=alpha * stats.X + stats.N,
                         scale=stats.V)


def infer_mixed(obs: Observation, stats: SummaryStats,
                base: str = "L5") -> InferenceReport:
    """Closed-form conditional law at the maximum-likelihood alpha.

    W/V ~ Beta-prime(alpha Y, alpha X + N) and W/Z ~ Beta(alpha Y,
    alpha X + N), with means alpha Y V / (alpha X + N - 1) and
    alpha Y / (alpha + N).  The diagnostic ``evals`` counts the scalar
    slope evaluations of the alpha root finds.  A maximum at alpha ->
    infinity gives that limit's point mass, singular case
    "alpha_infinite", with the verdict as ``reason``.
    """
    if base not in ("L5", "L9"):
        raise ValueError("base must be L5 or L9")
    singular = _singular_report("mixed", stats)
    if singular is not None:
        return singular
    best = _alpha_maximum(base, stats)
    alpha = best.alpha
    if best.reason == _AT_INFINITY:
        return _alpha_infinity_report("mixed", stats, "alpha_infinite", {
            "base": base, "evals": best.evals, "reason": best.reason})
    w_dist = _mixed_w_dist(stats, alpha)
    diag = {"base": base, "converged": best.reason is None, "evals": best.evals,
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


def _alpha_window_nodes(stats: SummaryStats, best: AlphaMaximum
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Node set of the Bayes alpha integral: (alpha_j, weights, log evidence).

    The window in t = log alpha is where log L5 lies within _WINDOW_NATS of
    its maximum ``best``; root finds bracketed by the scan grid place its
    ends, and BAYES_PANELS Gauss-Legendre panels of _PANEL_NODES nodes
    cover it.  The 1/alpha prior is the flat measure in t, so the weights
    are L5(alpha_j) times the node weights, normalized; the log of their
    sum is the evidence.  The call fails with a stated reason when the
    maximum is not interior or the window reaches the upper end of the
    grid (L5 has not decayed there); when log L5 in the window moves by
    more than _JITTER_NATS under a relative alpha step of _JITTER_STEP
    (near-proportional samples put the window at alpha so large that log
    L5 is rounding noise); or when L5 at the lower end exceeds _TAIL_SHARE
    of the evidence: below that end L5 falls as alpha^(M-1), M >= 2, so
    the tail it drops is smaller still.
    """
    # the scan grid with the maximum inserted in order; no point is inside
    # without an interior maximum, whose value is then nan
    level, t_star = best.value - _WINDOW_NATS, math.log(best.alpha)
    at = int(np.searchsorted(_SLOPE_SCAN_T, t_star))
    t_scan = np.insert(_SLOPE_SCAN_T, at, t_star)
    log_scan = np.insert(log_L5(stats, _SLOPE_SCAN_ALPHA), at, best.value)
    inside = np.nonzero(log_scan >= level)[0]
    if not len(inside) or inside[-1] == len(t_scan) - 1:
        raise ValueError(
            "L5 does not decay inside the log-alpha window "
            f"{ALPHA_T_BOUNDS}: the sample is too close to proportional")
    alpha_in = np.exp(t_scan[inside])
    jitter = float(np.max(np.abs(
        log_L5(stats, alpha_in * (1.0 + _JITTER_STEP)) - log_scan[inside])))
    if jitter > _JITTER_NATS:
        raise ValueError(
            f"log L5 changes by {jitter:.3g} nats under a relative alpha step "
            f"of {_JITTER_STEP:g}: at alpha up to {alpha_in[-1]:.3g} it is "
            "rounding noise, the sample being too close to proportional")

    def excess(t: float) -> float:
        return float(log_L5(stats, math.exp(t))) - level

    lo = t_scan[0] if inside[0] == 0 else solve_root(
        excess, (t_scan[inside[0] - 1], t_scan[inside[0]]))
    hi = solve_root(excess, (t_scan[inside[-1]], t_scan[inside[-1] + 1]))
    edges = np.linspace(lo, hi, BAYES_PANELS + 1)
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


def infer_bayes(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Fully Bayesian posterior for W under the (alpha b lambda)^-1 prior.

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, V), so the
    posterior of W is the mixture of these Beta-prime laws over the alpha
    posterior L5(alpha) / alpha, and W/Z the same mixture of
    Beta(alpha Y, alpha X + N): the mixed method's law, averaged over
    alpha instead of taken at one alpha.  The alpha integral runs on a
    fixed Gauss-Legendre node set in log alpha (_alpha_window_nodes), so
    CDF, mean and quantiles are exact for that node set.  The reported
    alpha is the mode of L5(alpha) / alpha, found by the alpha search on
    the same L5 slopes as the maximum-likelihood alpha, shifted by
    -1/alpha.
    """
    singular = _singular_report("bayes", stats)
    if singular is not None:
        return singular
    slopes = np.asarray(dlog_dalpha("L5", stats, _SLOPE_SCAN_ALPHA))
    best = _alpha_maximum("L5", stats, slopes)
    alphas, weights, log_evidence = _alpha_window_nodes(stats, best)
    a, b = alphas * stats.Y, alphas * stats.X + stats.N
    w_dist = BetaPrimeDist(a, b, stats.V, weights=weights)
    diag = {"mass_check": _mass_check(w_dist), "log_evidence": log_evidence,
            "alpha_mle": best.alpha, "alpha_nodes": len(alphas)}
    mode = _alpha_maximum("L5", stats, slopes, prior=1.0).alpha
    return InferenceReport(method="bayes", w_dist=w_dist,
                           z_dist=ShiftedDist(w_dist, stats.V),
                           w_over_z_dist=BetaDist(a, b, weights=weights),
                           alpha_summary=mode, diagnostics=diag)


def _profile_envelope(stats: SummaryStats, column: np.ndarray,
                      w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """max over alpha of log L8(W, alpha) at every W of ``w``.

    Returns (argmax alpha, max log L8, argmax at the top of the window).
    log L8 = log L9(alpha) + log BetaPrime(W; alpha Y, alpha X + N, V) is
    evaluated as one alpha-by-W matrix on the scan grid, whose alpha
    column log L9 - log B(alpha Y, alpha X + N) is ``column``.  L8 is
    log-concave in alpha, so each W's maximum lies between the grid
    neighbours of its argmax; bracketed Newton steps in log alpha on the
    analytic slope and curvature polish every W at once.
    """
    ay = _SLOPE_SCAN_ALPHA * stats.Y
    bx = _SLOPE_SCAN_ALPHA * stats.X + stats.N
    surface = np.multiply.outer(ay - 1.0, np.log(w / stats.V))
    surface -= np.multiply.outer(ay + bx, np.log1p(w / stats.V))
    surface += column[:, None]
    k = np.argmax(surface, axis=0)

    def slope_and_curvature(t):
        alpha = np.exp(t)
        return (dlog_dalpha("L8", stats, alpha, w=w),
                alpha * d2log_dalpha2("L8", stats, alpha))

    t_grid = _SLOPE_SCAN_T
    t = newton_bracketed(slope_and_curvature, t_grid[k],
                         t_grid[np.maximum(k - 1, 0)],
                         t_grid[np.minimum(k + 1, len(t_grid) - 1)],
                         increasing=False, tol=_PROFILE_T_TOL)
    alpha = np.exp(t)
    return alpha, log_L8(stats, w, alpha), k == len(t_grid) - 1


def infer_profile(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Profile likelihood posterior: sup over alpha of L8 at every W.

    The log-W grid of _W_GRID_POINTS points spans the mixed method's
    quantiles at the L9 maximum, widened by 2; profiling alpha fattens the
    tails, so each end is pushed outward by factors of 8 until the
    per-unit-log-W envelope has fallen _SPAN_NATS below its value at the
    mixed median, the lower end stopping at V * _MIN_W_OVER_V.  All
    probes, then all grid points, are profiled at once (_profile_envelope)
    against one alpha column.  The curve is normalized by its own
    quadrature, being an unnormalized density by construction.  The
    diagnostics give how far the envelope at each grid end sits below its
    median value (span_drop_lo_nats, span_drop_hi_nats); status
    "short_span" flags a drop under _SPAN_NATS, where the law depends on
    where the grid is cut.  An L9 maximum at alpha -> infinity fails with
    that verdict as the reason.
    """
    singular = _singular_report("profile", stats)
    if singular is not None:
        return singular
    best = _alpha_maximum("L9", stats)
    if best.reason == _AT_INFINITY:
        raise ValueError(f"profile likelihood L9 has its {best.reason}: the "
                         "sample is too close to proportional")
    alpha_star = best.alpha
    column = (log_L9(stats, _SLOPE_SCAN_ALPHA)
              - log_beta(_SLOPE_SCAN_ALPHA * stats.Y,
                         _SLOPE_SCAN_ALPHA * stats.X + stats.N))

    ref = _mixed_w_dist(stats, alpha_star)
    median = ref.quantile(0.5)
    steps = 8.0 ** np.arange(_SPAN_STEPS)
    lo_probes = ref.quantile(_GRID_Q_LO) / 2.0 / steps
    hi_probes = ref.quantile(_GRID_Q_HI) * 2.0 * steps
    probes = np.concatenate([[median], lo_probes, hi_probes])
    _, env, _ = _profile_envelope(stats, column, probes)
    per_log_w = env + np.log(probes)
    low_enough = per_log_w <= per_log_w[0] - _SPAN_NATS

    def span_end(probe_values, below, factor):
        hit = np.nonzero(below)[0]
        return probe_values[hit[0]] if len(hit) else probe_values[-1] * factor

    lo = max(span_end(lo_probes, low_enough[1:_SPAN_STEPS + 1], 1.0 / 8.0),
             stats.V * _MIN_W_OVER_V)
    hi = span_end(hi_probes, low_enough[_SPAN_STEPS + 1:], 8.0)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _W_GRID_POINTS))

    alphas, log_l10, at_top = _profile_envelope(stats, column, grid)
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
