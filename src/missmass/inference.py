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
one search on one log-alpha grid (_scan_maximum), with one verdict:
interior, alpha -> infinity, or the lower end; the Bayes alpha mode and
the profile's alpha at its mode are that search on other slopes.  The
grid carries the Bayes window's log L5 and the profile's one alpha column,
the L8 slope at W = V, which brackets the envelope's alpha for secant steps.

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
from scipy.special import betainc, expit

from .data import Observation, SummaryStats
from .distributions import VIEWS, LawView, LogScaleDist, PointMass, _BetaAtoms
from .likelihoods import (d2log_dalpha2, dlog_dalpha, log_L5, log_L8,
                          log_L9, log_L11)
from .solvers import newton_bracketed, solve_root

# alpha search window in log alpha before declaring the maximum at infinity,
# and the log-alpha grid of every alpha search, of the Bayes window and of
# the profile's slope column; alpha is exp(t) by math.exp, as the root
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
# alpha's secant polish stops at a step of _PROFILE_T_TOL, the envelope's
# error about its square (g is stationary in alpha at the maximum); a
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

# Bayes alpha nodes: the window in t = log alpha where log L5 is within
# _WINDOW_NATS of its maximum, walked on the scan grid outward from the
# maximum in blocks of _FIRST_BLOCK, twice that, ... points a side; on it the
# trapezoidal rule from _FIRST_NODES nodes, doubled up to BAYES_NODES until a
# doubling moves the log evidence, the W/Z mean (relative) and the CDF at the
# _PROBE_SDS probes by less than _GATE_MOVE (the checks on the window are in
# _alpha_window)
_WINDOW_NATS = 40.0
_FIRST_BLOCK = 2
_FIRST_NODES = 16
BAYES_NODES = 256
_GATE_MOVE = 1e-8
_PROBE_SDS = np.array([-2.0, 0.0, 2.0])
_TAIL_SHARE = 1e-12
_JITTER_STEP = 1e-10
_JITTER_NATS = 1.0
_NO_DECAY = ("L5 does not decay inside the log-alpha window "
             f"{ALPHA_T_BOUNDS}: the sample is too close to proportional")


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
    """The highest maximum in alpha of log L``which`` - ``prior`` log alpha
    (_scan_maximum); ``slopes`` are dlog_dalpha(which) on the scan grid."""
    if slopes is None:
        slopes = np.asarray(dlog_dalpha(which, stats, _SLOPE_SCAN_ALPHA))
    if prior:
        slopes = slopes - prior / _SLOPE_SCAN_ALPHA
    log_l = {"L5": log_L5, "L9": log_L9, "L11": log_L11}[which]

    def slope(t: float) -> float:
        alpha = math.exp(t)
        return dlog_dalpha(which, stats, alpha) - prior / alpha

    return _scan_maximum(slopes, slope,
                         lambda a: float(log_l(stats, a)) - prior * math.log(a))


def _scan_maximum(slopes: np.ndarray, slope, value) -> AlphaMaximum:
    """The highest maximum in alpha of a function given by its ``slopes`` on
    the scan grid, its slope ``slope(t)`` at t = log alpha and ``value(alpha)``.

    Every descending zero crossing of ``slopes`` is refined by a root find
    in t, and ``value`` picks among the maxima; ``evals`` counts the calls
    of ``slope``.  The slope is read rather than the value, for the maxima
    and the verdict alike, because the likelihoods lose all precision to
    cancellation at huge alpha while their digamma-based slopes stay
    accurate.  Without a crossing the ``reason`` is _AT_INFINITY (alpha =
    inf) when the slope is positive at the top of ALPHA_T_BOUNDS, else
    _AT_LOWER_END, and ``value`` is nan.
    """
    evals = 0

    def counted(t: float) -> float:
        nonlocal evals
        evals += 1
        return slope(t)

    # the root finds start from the scan's slopes at the bracket ends, which
    # a scalar evaluation reproduces bit for bit
    maxima = [math.exp(solve_root(counted, (_SLOPE_SCAN_T[k], _SLOPE_SCAN_T[k + 1]),
                                  (slopes[k], slopes[k + 1])))
              for k in np.nonzero((slopes[:-1] > 0.0) & (slopes[1:] <= 0.0))[0]]
    if not maxima:
        if slopes[-1] > 0.0:
            return AlphaMaximum(math.inf, math.nan, maxima, evals, _AT_INFINITY)
        return AlphaMaximum(float(_SLOPE_SCAN_ALPHA[0]), math.nan, maxima, evals,
                            _AT_LOWER_END)
    values = [value(a) for a in maxima]
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
        return _point_mass_report(method, stats, 0.0, math.nan, "Y_zero", {})
    if stats.is_proportional:
        return _point_mass_report(method, stats, stats.Y * stats.proportional_scale,
                                  math.inf, "DeltaS_zero", {})
    return None


def _point_mass_report(method: str, stats: SummaryStats, w: float, alpha: float,
                       case: str, diagnostics: dict) -> InferenceReport:
    """The point mass at W = ``w``, with Z = V + W and W/Z = Y: W = 0 where
    Y = 0, and W = Y V / X in the alpha -> infinity limit of
    BetaPrime(alpha Y, alpha X + N; V)."""
    return InferenceReport(method=method, w_dist=PointMass(w),
                           z_dist=PointMass(stats.V + w),
                           w_over_z_dist=PointMass(stats.Y),
                           alpha_summary=alpha, singular_case=case,
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
        return _point_mass_report("mixed", stats, stats.Y * stats.proportional_scale,
                                  math.inf, "alpha_infinite",
                                  {"base": base, "evals": best.evals, "reason": best.reason})
    diag = {"base": base, "converged": best.reason is None, "evals": best.evals}
    if alpha * stats.X + stats.N <= 1.0:
        diag["mean_undefined"] = True
    return _law_report("mixed", _BetaAtoms(alpha * stats.Y, alpha * stats.X + stats.N),
                       stats, alpha, diag)


def _walk(stats: SummaryStats, order: range, level: float, monotone: np.ndarray
          ) -> list[tuple[float, float]]:
    """(t, log L5) at the scan-grid points ``order``, outward from the
    maximum, up to the first below ``level`` from which ``monotone`` says L5
    falls on outward to the grid's end: every point above the level on that
    side is among them.  Evaluated in blocks of _FIRST_BLOCK, twice that,
    ... points."""
    walked, start, size = [], 0, _FIRST_BLOCK
    while start < len(order):
        block = np.array(order[start:start + size])
        values = log_L5(stats, _SLOPE_SCAN_ALPHA[block])
        walked += zip(_SLOPE_SCAN_T[block].tolist(), values.tolist())
        done = np.nonzero((values < level) & monotone[block])[0]
        if len(done):
            return walked[:start + done[0] + 1]
        start, size = start + size, 2 * size
    return walked


def _alpha_window(stats: SummaryStats, best: AlphaMaximum, slopes: np.ndarray
                  ) -> tuple[float, float, float]:
    """The Bayes window (lo, hi) in t = log alpha, where log L5 lies within
    _WINDOW_NATS of its maximum ``best``, and log L5 at the lowest grid point
    walked.

    log L5 is evaluated on the scan grid outward from the maximum's cell
    (_walk); a side stops at the first point below the level from which the
    scan's L5 ``slopes`` show L5 falling to the end of the grid, so every
    grid point above the level is walked, and root finds bracketed by the
    grid place the ends.  The call fails with a stated reason when the
    maximum is not interior or the window reaches the upper end of the grid
    (L5 has not decayed there); or when log L5 at the walked points above
    the level moves by more than _JITTER_NATS under a relative alpha step of
    _JITTER_STEP (near-proportional samples put the window at alpha so large
    that log L5 is rounding noise).
    """
    if best.reason is not None:
        raise ValueError(_NO_DECAY)
    level, t_star = best.value - _WINDOW_NATS, math.log(best.alpha)
    at = int(np.searchsorted(_SLOPE_SCAN_T, t_star))
    # L5 falls from each grid point to the top of the grid / rises to it
    # from the bottom
    falls = np.logical_and.accumulate(slopes[::-1] <= 0.0)[::-1]
    rises = np.logical_and.accumulate(slopes >= 0.0)
    falls[-1] = rises[0] = True
    peak = (t_star, best.value)
    up = [peak] + _walk(stats, range(at, len(slopes)), level, falls)
    down = [peak] + _walk(stats, range(at - 1, -1, -1), level, rises)
    if up[-1][1] >= level:
        raise ValueError(_NO_DECAY)
    inside = [p for p in down[:0:-1] + up if p[1] >= level]
    alpha_in = np.exp([t for t, _ in inside])
    jitter = float(np.max(np.abs(
        log_L5(stats, alpha_in * (1.0 + _JITTER_STEP)) - [v for _, v in inside])))
    if jitter > _JITTER_NATS:
        raise ValueError(
            f"log L5 changes by {jitter:.3g} nats under a relative alpha step "
            f"of {_JITTER_STEP:g}: at alpha up to {alpha_in[-1]:.3g} it is "
            "rounding noise, the sample being too close to proportional")

    def excess(t: float) -> float:
        return float(log_L5(stats, math.exp(t))) - level

    def window_end(side: list) -> float:
        # between the farthest point above the level and the next one out; a
        # grid point's excess is the walk's entry bit for bit, the maximum's
        # is not, as exp(log(alpha)) may differ from alpha
        k = max(i for i, (_, v) in enumerate(side) if v >= level)
        (t_in, v_in), (t_out, v_out) = side[k], side[k + 1]
        seeds = None if k == 0 else (v_in - level, v_out - level)
        if t_out < t_in:
            (t_in, t_out), seeds = (t_out, t_in), seeds and seeds[::-1]
        return solve_root(excess, (t_in, t_out), seeds)

    lo = down[-1][0] if down[-1][1] >= level else window_end(down)
    return lo, window_end(up), down[-1][1]


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """old[0], new[0], old[1], new[1], ... along the first axis."""
    out = np.empty((2 * len(old),) + old.shape[1:])
    out[0::2], out[1::2] = old, new
    return out


def _alpha_window_nodes(stats: SummaryStats, best: AlphaMaximum, slopes: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, float]:
    """Node set of the Bayes alpha integral: (alpha_j, weights, log evidence).

    The 1/alpha prior is the flat measure in t = log alpha, so on the
    window (_alpha_window) the integral is the trapezoidal rule in t:
    equally spaced nodes from its lower end, weighted by L5 (half at that
    end) and normalized; the log of their sum times the spacing is the
    evidence.  The upper end, where L5 is e^-_WINDOW_NATS of its maximum,
    is left out, so a halving of the spacing keeps every node and doubles
    their count.  L5 at the lower end is as small, or, where the window
    reaches the grid bottom, below _TAIL_SHARE of the evidence, and the
    rule's error on an analytic integrand that vanishes at both ends falls
    geometrically in the node count: each halving at least squares it.  So
    the rule starts at _FIRST_NODES nodes and doubles, up to
    BAYES_NODES, until one doubling moves the log evidence, the W/Z mean
    (relative) and the CDF of W/Z at three probes by less than _GATE_MOVE:
    the next doubling would move them by about its square.  The probes sit
    at _PROBE_SDS logit-scale widths from the center of the Beta law at the
    maximum.  The call fails, with a stated reason, on the window's checks,
    or when L5 at the lowest grid point walked, which bounds L5 at the
    bottom of the grid, exceeds _TAIL_SHARE of the evidence: below that end
    L5 falls as alpha^(M-1), M >= 2, so the tail it drops is smaller still.
    """
    lo, hi, log_low = _alpha_window(stats, best, slopes)
    a_top, b_top = best.alpha * stats.Y, best.alpha * stats.X + stats.N
    probes = expit(math.log(a_top / b_top)
                   + _PROBE_SDS * math.sqrt(1.0 / a_top + 1.0 / b_top))

    def sample(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # log L5 and the integrands of the W/Z mean and the probe CDFs
        alpha = np.exp(t)
        a, b = alpha * stats.Y, alpha * stats.X + stats.N
        return log_L5(stats, alpha), np.column_stack(
            [a / (a + b), betainc(a[:, None], b[:, None], probes)])

    def rule(log_l: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        log_terms = np.concatenate([[log_l[0] - math.log(2.0)], log_l[1:]])
        log_sum = float(np.logaddexp.reduce(log_terms))
        weights = np.exp(log_terms - log_sum)
        return log_sum, weights, weights @ g

    nodes = _FIRST_NODES
    t = lo + (hi - lo) / nodes * np.arange(nodes)
    log_l, g = sample(t)
    log_sum, weights, answers = rule(log_l, g)
    while nodes < BAYES_NODES:
        fresh = t + 0.5 * (hi - lo) / nodes
        fresh_l, fresh_g = sample(fresh)
        t, log_l, g = _interleave(t, fresh), _interleave(log_l, fresh_l), _interleave(g, fresh_g)
        nodes *= 2
        coarse, coarse_answers = log_sum, answers
        log_sum, weights, answers = rule(log_l, g)
        moves = (abs(log_sum - coarse - math.log(2.0)), abs(answers[0] / coarse_answers[0] - 1.0),
                 *np.abs(answers[1:] - coarse_answers[1:]))
        if max(moves) < _GATE_MOVE:
            break
    log_evidence = log_sum + math.log((hi - lo) / nodes)
    if log_low - log_evidence > math.log(_TAIL_SHARE):
        raise ValueError(
            "the alpha posterior keeps mass below the log-alpha window "
            f"{ALPHA_T_BOUNDS}: L5 there is "
            f"{math.exp(log_low - log_evidence):.3g} of the evidence")
    return np.exp(t), weights, log_evidence


def infer_bayes(obs: Observation, stats: SummaryStats) -> InferenceReport:
    """Fully Bayesian posterior for W under the (alpha b lambda)^-1 prior.

    L4(W, alpha) = L5(alpha) BetaPrime(W; alpha Y, alpha X + N, V), so the
    posterior of W is the mixture of these Beta-prime laws over the alpha
    posterior L5(alpha) / alpha, and W/Z the same mixture of
    Beta(alpha Y, alpha X + N): the mixed method's law, averaged over
    alpha instead of taken at one alpha.  The alpha integral runs on a
    trapezoidal node set in log alpha (_alpha_window_nodes), so CDF, mean
    and quantiles are exact for that node set; the views share
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
    alphas, weights, log_evidence = _alpha_window_nodes(stats, best, slopes)
    a, b = alphas * stats.Y, alphas * stats.X + stats.N
    law = _BetaAtoms(a, b, weights)
    mass, worst = law.mass_check()
    diag = {"mass_check": mass, "mass_check_worst": worst, "log_evidence": log_evidence,
            "alpha_mle": best.alpha, "alpha_nodes": len(alphas)}
    mode = _alpha_maximum("L5", stats, slopes, prior=1.0).alpha
    return _law_report("bayes", law, stats, mode, diag)


def _profile_column(stats: SummaryStats, alpha: np.ndarray = _SLOPE_SCAN_ALPHA):
    """The profile's one alpha column: the alpha-slope of log L8 at W = V,
    plus log 2, on the scan grid (or at ``alpha``)."""
    return dlog_dalpha("L8", stats, alpha, w=stats.V) + math.log(2.0)


def _profile_envelope(stats: SummaryStats, column: np.ndarray, u: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(argmax, max, argmax at the top of the grid) over alpha of the per-u
    log density g = log L8 + log W + const = log L8(V) + a u - (a + b)
    (softplus(u) - log 2), a = alpha Y, b = alpha X + N, at every
    u = log(W / V), forming no W.  dg/dalpha falls (L8 is log-concave), so
    the slope ``column`` brackets the maximum; secant steps in log alpha
    polish it, each through the u's previous point, first the bracket's
    lower end (a column entry)."""
    softplus = np.logaddexp(0.0, u)
    target = softplus - stats.Y * u
    top = len(_SLOPE_SCAN_T) - 1
    k = np.searchsorted(-column, -target) - 1
    lo = np.clip(k, 0, top - 1)
    e_lo, e_hi = column[[lo, lo + 1]] - target
    t_lo, step = _SLOPE_SCAN_T[lo], _SLOPE_SCAN_T[1] - _SLOPE_SCAN_T[0]
    last = [t_lo, e_lo]

    def excess_and_secant(t):
        excess = _profile_column(stats, np.exp(t)) - target
        # a repeated point gives a non-finite slope: newton_bracketed bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = (excess - last[1]) / (t - last[0])
        last[:] = t, excess
        return excess, secant

    start = t_lo + step * np.clip(e_lo / np.where(e_lo > e_hi, e_lo - e_hi, 1.0), 0.0, 1.0)
    alpha = np.exp(newton_bracketed(excess_and_secant, start, t_lo, t_lo + step,
                                    increasing=False, tol=_PROFILE_T_TOL))
    ay = alpha * stats.Y
    g = (log_L8(stats, stats.V, alpha) + math.log(stats.V) + ay * u
         - (ay + alpha * stats.X + stats.N) * (softplus - math.log(2.0)))
    return alpha, g, k == top


def _profile_mode(stats: SummaryStats, column: np.ndarray) -> float:
    """The alpha of the envelope at the mode of the per-u density: g peaks
    at u = log(a / b), leaving h = log L8(V a / b) + log(a / b) (from log L8
    at W = V) to maximize by the alpha search; without an interior maximum,
    the grid end with the larger h."""
    y, x, n = stats.Y, stats.X, stats.N

    def h(alpha: float) -> float:
        a, b = alpha * y, alpha * x + n
        return (float(log_L8(stats, stats.V, alpha)) + a * math.log(a) + b * math.log(b)
                - (a + b) * (math.log(a + b) - math.log(2.0)))

    def slope(t: float) -> float:
        # at a grid point, the scan's entry bit for bit
        alpha = math.exp(t)
        a, b = alpha * y, alpha * x + n
        return _profile_column(stats, alpha) + y * math.log(a) + x * math.log(b) - math.log(a + b)

    a, b = _SLOPE_SCAN_ALPHA * y, _SLOPE_SCAN_ALPHA * x + n
    best = _scan_maximum(column + y * np.log(a) + x * np.log(b) - np.log(a + b), slope, h)
    if best.reason is None:
        return best.alpha
    return max(_SLOPE_SCAN_ALPHA[[0, -1]].tolist(), key=h)


def _envelope_at(stats: SummaryStats, column: np.ndarray, u: np.ndarray) -> np.ndarray:
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
    that verdict, as does a mode whose L8 curvature in alpha is not
    negative (rounding noise at huge alpha); one of the envelope at the grid
    top fails with ArithmeticError.
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
    # the envelope's curvature in u: g's, eased by the move of the alpha,
    # which needs L8 strictly concave in alpha there
    curvature = d2log_dalpha2("L8", stats, mode_alpha)
    eased = (a * b / (a + b) + (stats.Y - a / (a + b)) ** 2 / curvature
             if curvature < 0.0 else math.nan)
    if not 0.0 < eased < math.inf:
        raise ValueError(f"profile likelihood L8 has no curvature in alpha at the "
                         f"mode's alpha {mode_alpha:.3g}: the sample is too close "
                         "to proportional")
    width = eased ** -0.5
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
