"""Posterior laws for the missing mass W, Z = V + W, and W/Z.

Every reduced likelihood with W kept factors into an alpha-marginal times
one closed-form law,

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, scale V),
    L8(W, alpha) = L9(alpha) BetaPrime(W; alpha Y, alpha X + N, scale V),

so the three routes are one alpha-indexed Beta-prime family under three
weightings of alpha.  Each route builds one law of u = log(W / V) (W/Z =
expit(u) is Beta(alpha Y, alpha X + N) at each alpha) and reports its W,
Z = V + W and W/Z views (distributions.LawView):

  * bayes    -- the mixture over alpha with weights L5(alpha) / alpha (the
                1/alpha prior; b, lambda are integrated out inside L5);
  * profile  -- the envelope over alpha of L9(alpha) BetaPrime(W; alpha)
                (b, lambda profiled out inside L9): one continuous law of
                u = log(W / V), on panels with an analytic lower tail;
  * mixed    -- the single Beta atom at the maximum-likelihood alpha of
                L5 (or L9).

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
from .distributions import VIEWS, LawView, LogScaleDist, PointMass, _BetaAtoms
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

# the profile law's panels in v = asinh((u - mode) / width) end a probe
# past the last within _PROFILE_DROP nats of the top (above the mode, for
# the mean's weight W times the density), the lower no lower than where
# alpha falls under _TAIL_ALPHA (L9 ~ alpha^M: a power-law tail beyond);
# edges on each side end * expm1(s k / P) / expm1(s), s = _PANEL_STRETCH;
# alpha polishes stop at a step of _PROFILE_T_TOL, the error its square; a
# panel whose two highest Chebyshev terms exceed _PANEL_TOL of the mass is
# halved, for up to _PANEL_ROUNDS rounds
_PROFILE_PROBES = np.arange(-32.0, 33.0, 2.0)
_PROFILE_DROP = 40.0
_TAIL_ALPHA = 1e-8
_PROFILE_PANELS = (8, 5)
_PROFILE_NODES = 16
_PANEL_STRETCH = 1.8
_PROFILE_T_TOL = 1e-6
_PANEL_TOL = 1e-10
_PANEL_ROUNDS = 8

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

    # the root finds start from the scan's slopes at the bracket ends, which
    # a scalar evaluation reproduces bit for bit
    maxima = [math.exp(solve_root(slope, (_SLOPE_SCAN_T[k], _SLOPE_SCAN_T[k + 1]),
                                  (slopes[k], slopes[k + 1])))
              for k in np.nonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))[0]]
    if not maxima:
        if slopes[-1] > 0.0:
            return AlphaMaximum(math.inf, math.nan, maxima, evals, _AT_INFINITY)
        return AlphaMaximum(float(_SLOPE_SCAN_ALPHA[0]), math.nan, maxima, evals,
                            _AT_LOWER_END)
    log_l = {"L5": log_L5, "L9": log_L9, "L11": log_L11}[which]
    values = [float(log_l(stats, a)) - prior * math.log(a) for a in maxima]
    k = max(range(len(values)), key=values.__getitem__)  # the first on ties
    return AlphaMaximum(maxima[k], values[k], maxima, evals)


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


def _law_report(method: str, law, stats: SummaryStats, alpha: float,
                diagnostics: dict) -> InferenceReport:
    """The W, Z and W/Z views of one law of u = log(W / V)."""
    w, z, w_over_z = (LawView(law, stats.V, which) for which in VIEWS)
    return InferenceReport(method=method, w_dist=w, z_dist=z, w_over_z_dist=w_over_z,
                           alpha_summary=alpha, diagnostics=diagnostics)


def infer_mixed(obs: Observation, stats: SummaryStats,
                base: str = "L5") -> InferenceReport:
    """Closed-form conditional law at the maximum-likelihood alpha.

    W/V ~ Beta-prime(alpha Y, alpha X + N) and W/Z ~ Beta(alpha Y,
    alpha X + N), one Beta atom in u = logit(W/Z), with means
    alpha Y V / (alpha X + N - 1) and alpha Y / (alpha + N).  The
    diagnostic ``evals`` counts the scalar slope evaluations of the alpha
    root finds.  A maximum at alpha ->
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
    diag = {"base": base, "converged": best.reason is None, "evals": best.evals}
    if alpha * stats.X + stats.N <= 1.0:
        diag["mean_undefined"] = True
    return _law_report("mixed", _BetaAtoms(alpha * stats.Y, alpha * stats.X + stats.N),
                       stats, alpha, diag)


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

    def window_end(i: int) -> float:
        # a grid point's excess is the scan's entry bit for bit; the
        # inserted maximum's is not, as exp(log(alpha)) may differ from alpha
        seeds = None if at in (i, i + 1) else (log_scan[i] - level, log_scan[i + 1] - level)
        return solve_root(excess, (t_scan[i], t_scan[i + 1]), seeds)

    lo = t_scan[0] if inside[0] == 0 else window_end(inside[0] - 1)
    hi = window_end(inside[-1])
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


def infer_bayes(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Fully Bayesian posterior for W under the (alpha b lambda)^-1 prior.

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, V), so the
    posterior of W is the mixture of these Beta-prime laws over the alpha
    posterior L5(alpha) / alpha, and W/Z the same mixture of
    Beta(alpha Y, alpha X + N): the mixed method's law, averaged over
    alpha instead of taken at one alpha.  The alpha integral runs on a
    fixed Gauss-Legendre node set in log alpha (_alpha_window_nodes), so
    CDF, mean and quantiles are exact for that node set; the views share
    the mixture's one CDF table in u = log(W / V), which brackets their
    quantile solves and places the panels of its mass check:
    ``mass_check`` is the total mass by quadrature of the density, and
    ``mass_check_worst`` the largest |quadrature - CDF step| over one table
    interval.  The reported alpha is the mode of L5(alpha) / alpha, found
    by the alpha search on the same L5 slopes as the maximum-likelihood
    alpha, shifted by -1/alpha.
    """
    singular = _singular_report("bayes", stats)
    if singular is not None:
        return singular
    slopes = np.asarray(dlog_dalpha("L5", stats, _SLOPE_SCAN_ALPHA))
    best = _alpha_maximum("L5", stats, slopes)
    alphas, weights, log_evidence = _alpha_window_nodes(stats, best)
    a, b = alphas * stats.Y, alphas * stats.X + stats.N
    law = _BetaAtoms(a, b, weights)
    mass, worst = law.mass_check()
    diag = {"mass_check": mass, "mass_check_worst": worst, "log_evidence": log_evidence,
            "alpha_mle": best.alpha, "alpha_nodes": len(alphas)}
    mode = _alpha_maximum("L5", stats, slopes, prior=1.0).alpha
    return _law_report("bayes", law, stats, mode, diag)


def _profile_column(stats: SummaryStats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c(alpha) = log L9 - log B(alpha Y, alpha X + N) on the scan grid, its
    alpha-slope (that of log L8 at W = V, plus log 2) and its t-slope."""
    a, b = _SLOPE_SCAN_ALPHA * stats.Y, _SLOPE_SCAN_ALPHA * stats.X + stats.N
    return (log_L9(stats, _SLOPE_SCAN_ALPHA) - log_beta(a, b),
            dlog_dalpha("L8", stats, _SLOPE_SCAN_ALPHA, w=stats.V) + math.log(2.0),
            _SLOPE_SCAN_ALPHA * d2log_dalpha2("L8", stats, _SLOPE_SCAN_ALPHA))


def _profile_envelope(stats: SummaryStats, column: tuple, u: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(argmax, max, argmax at the top of the grid) over alpha of the per-u
    log density g = log L8 + log W + const = c + a u - (a + b) softplus(u),
    a = alpha Y, b = alpha X + N, at every u = log(W / V), forming no W.
    dg/dalpha falls (L8 is log-concave), so grid slopes bracket the
    maximum; Newton steps in log alpha with interpolated curvature polish."""
    _, slope, curvature = column
    softplus = np.logaddexp(0.0, u)
    target = softplus - stats.Y * u
    top = len(_SLOPE_SCAN_T) - 1
    k = np.searchsorted(-slope, -target) - 1
    lo = np.clip(k, 0, top - 1)
    (e_lo, e_hi), (d_lo, d_hi) = slope[[lo, lo + 1]] - target, curvature[[lo, lo + 1]]
    t_lo, step = _SLOPE_SCAN_T[lo], _SLOPE_SCAN_T[1] - _SLOPE_SCAN_T[0]

    def excess_and_slope(t):
        return (dlog_dalpha("L8", stats, np.exp(t), w=stats.V) + math.log(2.0) - target,
                d_lo + (d_hi - d_lo) * (t - t_lo) / step)

    start = t_lo + step * np.clip(e_lo / np.where(e_lo > e_hi, e_lo - e_hi, 1.0), 0.0, 1.0)
    alpha = np.exp(newton_bracketed(excess_and_slope, start, t_lo, t_lo + step,
                                    increasing=False, tol=_PROFILE_T_TOL))
    ay = alpha * stats.Y
    g = (log_L8(stats, stats.V, alpha) + math.log(stats.V) + ay * u
         - (ay + alpha * stats.X + stats.N) * (softplus - math.log(2.0)))
    return alpha, g, k == top


def _profile_mode(stats: SummaryStats, column: tuple) -> float:
    """The alpha of the envelope at the mode of the per-u density: g peaks
    at u = log(a / b), leaving h = c + a log a + b log b - (a + b) log(a + b)
    to maximize in alpha."""
    alpha = _SLOPE_SCAN_ALPHA
    a, b = alpha * stats.Y, alpha * stats.X + stats.N
    h = column[0] + a * np.log(a) + b * np.log(b) - (a + b) * np.log(a + b)
    slopes = column[1] + stats.Y * np.log(a) + stats.X * np.log(b) - np.log(a + b)
    down = np.nonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))[0]
    if not len(down):
        return float(alpha[np.argmax(h)])
    k = down[np.argmax(h[down])]
    return math.exp(solve_root(lambda t: _profile_mode_slope(stats, t),
                               (_SLOPE_SCAN_T[k], _SLOPE_SCAN_T[k + 1]),
                               (slopes[k], slopes[k + 1])))


def _profile_mode_slope(stats: SummaryStats, t: float) -> float:
    """The alpha-slope of _profile_mode's h at one alpha = exp(t): at a grid
    point, the scan's entry bit for bit."""
    alpha = math.exp(t)
    a, b = alpha * stats.Y, alpha * stats.X + stats.N
    return (dlog_dalpha("L8", stats, alpha, w=stats.V) + math.log(2.0)
            + stats.Y * math.log(a) + stats.X * math.log(b) - math.log(a + b))


def _envelope_at(stats: SummaryStats, column: tuple, u: np.ndarray) -> np.ndarray:
    """The envelope's log density at u; ArithmeticError where its alpha
    reaches the top of the grid."""
    _, log_density, at_top = _profile_envelope(stats, column, u)
    if np.any(at_top):
        raise ArithmeticError("profile maximization diverged at finite W with Delta_S > 0")
    return log_density


def infer_profile(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Profile likelihood posterior: sup over alpha of L8 at every W.

    One law of u = log(W / V) (LogScaleDist) with views W = V e^u, Z = V + W
    and W/Z = expit(u): the envelope at Gauss-Legendre nodes on panels in
    v = asinh((u - u_mode) / width), width^-2 its curvature at the mode.
    Below the mode it falls as (u_mode - u)^-(M+1) (L9 ~ alpha^M, the
    maximizing alpha ~ 1 / (u_mode - u)), carried analytically past the
    panels as ``tail_mass``.  A panel whose polynomial does not resolve the
    envelope (a steep flank near u = logit(Y) on small uneven samples) is
    halved.  An L9 maximum at alpha -> infinity fails with
    that verdict, one of the envelope at the grid top with ArithmeticError.
    """
    singular = _singular_report("profile", stats)
    if singular is not None:
        return singular
    best = _alpha_maximum("L9", stats)
    if best.reason == _AT_INFINITY:
        raise ValueError(f"profile likelihood L9 has its {best.reason}: the "
                         "sample is too close to proportional")
    column = _profile_column(stats)
    mode_alpha = _profile_mode(stats, column)
    a, b = mode_alpha * stats.Y, mode_alpha * stats.X + stats.N
    # the envelope's curvature in u: g's, eased by the move of the alpha
    width = (a * b / (a + b) + (stats.Y - a / (a + b)) ** 2
             / d2log_dalpha2("L8", stats, mode_alpha)) ** -0.5
    center = math.log(a / b)

    v = _PROFILE_PROBES
    u = center + width * np.sinh(v)
    alphas, log_v, _ = _profile_envelope(stats, column, u)
    log_v += np.log(np.cosh(v))
    kept = np.nonzero(log_v + np.maximum(u - center, 0.0) > np.max(log_v) - _PROFILE_DROP)[0]
    step = v[1] - v[0]
    ends = (min(max(v[kept[0]] - step, v[alphas >= _TAIL_ALPHA][0]), -step),
            v[kept[-1]] + step)
    lower, upper = (end * np.expm1(_PANEL_STRETCH * np.linspace(0.0, 1.0, panels + 1))
                    / math.expm1(_PANEL_STRETCH) for end, panels in zip(ends, _PROFILE_PANELS))
    edges = np.concatenate([lower[::-1], upper[1:]])
    log_density = _envelope_at(stats, column,
                               LogScaleDist.nodes(center, width, edges, _PROFILE_NODES))
    law = LogScaleDist(center, width, edges, log_density, stats.M)
    # halve each panel whose two highest Chebyshev terms exceed _PANEL_TOL
    # of the mass (a flank too steep for its polynomial), with one envelope
    # call at the new panels' nodes per round
    for _ in range(_PANEL_ROUNDS):
        half = 0.5 * np.diff(edges)
        coarse = np.max(np.abs(law._dens[:, -2:]), axis=1) * half > _PANEL_TOL
        if not np.any(coarse):
            break
        edges = np.insert(edges, np.nonzero(coarse)[0] + 1, edges[:-1][coarse] + half[coarse])
        fresh = np.repeat(coarse, np.where(coarse, 2, 1))
        log_density = np.repeat(log_density, np.where(coarse, 2, 1), axis=0)
        log_density[fresh] = _envelope_at(
            stats, column, LogScaleDist.nodes(center, width, edges, _PROFILE_NODES)[fresh])
        law = LogScaleDist(center, width, edges, log_density, stats.M)
    return _law_report("profile", law, stats, mode_alpha,
                       {"tail_mass": law.tail_mass, "alpha_mle": best.alpha})
