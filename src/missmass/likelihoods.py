"""Reduced log-likelihoods of the Gamma-Poisson mass model.

The model draws p(i) ~ Gamma(alpha x(i), b) independently and counts
c(i) ~ Poisson(lambda p(i)); sampled points reveal (p(i), c(i)).  The
chain of reduced likelihoods evaluated here, all in log space:

    L2(W; alpha, b, lambda)   joint with the unseen mass W kept explicit
    L3(alpha, b, lambda)      W marginalized out
    L4(W; alpha), L5(alpha)   b, lambda integrated against the (b lambda)^-1 prior
    L8(W; alpha), L9(alpha)   b, lambda profiled out (maximized)
    L11(alpha)                L3 at the stationary b(alpha), lambda(alpha)

Every value drops the common factor prod_S p(i)^(c(i)-1)/c(i)!, which is
constant in (W, alpha, b, lambda) and cancels from all normalized
quantities.  What is left depends on the data only through the reduced
statistics (the multiset of x on the sample, N, V, U, X, Y), so every
function takes the SummaryStats alone.  Functions are vectorized over
alpha or W (one at a time), since the inference routes evaluate them on
quadrature grids.

First and second alpha-derivatives are analytic, via digamma/trigamma.

Each log-likelihood here is sum_j w_j log Gamma(alpha s_j + o_j) plus
terms elementary in alpha (alpha U, alpha log alpha, (alpha + N)
log(V + W), ...).  The log-Gamma terms are the shape sum over the distinct
sampled x, log Gamma(alpha), log Gamma(alpha X + N), log Gamma(alpha + N),
the constant log Gamma(N) and log Gamma(alpha Y): one term table per
SummaryStats (data.TERM_RUNS), of which each likelihood uses one run of
columns.  A value, slope or curvature is then one scipy.special call
(gammaln, psi or zeta(2, .)) on the alpha-by-term arguments, reduced with
the weights w, w s or w s^2, and the elementary terms are added after.
One multiply checks that every argument is positive: a column with o > 0
is positive at any alpha > 0, and float multiplication is monotone, so
all of alpha s + o are positive exactly when min(alpha) s_min > 0, s_min
the smallest scale of the run's o = 0 columns (data.TermRun).  A scalar
L5 slope costs about 6 us on the 2-vCPU benchmark container, down
from about 13 us through the array path with an elementwise check, and
34 us as four special-function calls (the shape sum, psi(alpha),
psi(alpha X + N), psi(alpha + N)), each with its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SummaryStats
from .special import digamma, log_gamma, trigamma

# sums over the log-Gamma terms run in blocks of at most this many
# alpha-by-term elements (1 MB per float64 temporary)
_BLOCK_ELEMS = 1 << 17


@dataclass(frozen=True)
class ModelParams:
    """Nuisance parameters: Gamma shape total alpha, rate b, Poisson rate lambda."""

    alpha: float
    b: float
    lam: float

    def __post_init__(self):
        for name in ("alpha", "b", "lam"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite")


def _as_alpha(alpha):
    """alpha as a float array, or as a numpy float when it is a scalar: the
    same rounding, without the array overhead on every elementary term."""
    return np.asarray(alpha, dtype=float)[()]


# f_k of the k-th alpha derivative's term sum (data.SummaryStats); the
# functions check no argument, so the run's one multiply (_term_sum) is
# the positivity check
_TERM_FNS = (log_gamma, digamma, trigamma)
_TERM_FN_NAMES = ("log_gamma", "digamma", "trigamma")


def _term_sum(stats: SummaryStats, alpha, order: int, which: str):
    """sum_j w_j s_j^k f(alpha s_j + o_j) over the run of term-table columns
    of log L``which`` (data.TERM_RUNS), at every alpha of an array: f is
    log Gamma (order k = 0), digamma (1) or trigamma (2), and the sum the
    log-Gamma part of log L``which`` or of its k-th alpha derivative.
    ``alpha`` is a numpy array or float (_as_alpha).

    A scalar alpha is one call on the run's vectors.  An array runs in
    blocks of at most _BLOCK_ELEMS alpha-by-term elements: whole rows of
    alpha while one row fits in a block, so a row's sum does not depend on
    the block size and equals the scalar sum bit for bit, else column
    slices of one row at a time, added left to right.  Every x distinct
    keeps the cost O(M) per alpha.
    """
    run = stats.term_run(which, order)
    scales, offsets, weights = run.scales, run.offsets, run.weights
    width = len(scales)
    if alpha.ndim == 0:
        lo = hi = alpha
    else:
        lo, hi = alpha.min(initial=math.inf), alpha.max(initial=-math.inf)
    if not (lo * run.s_min > 0.0 and (hi < math.inf or not run.has_constant)):
        raise ValueError(f"{_TERM_FN_NAMES[order]} requires a positive argument")
    fn = _TERM_FNS[order]
    if alpha.ndim == 0 and width <= _BLOCK_ELEMS:
        return np.add.reduce(fn(alpha * scales + offsets) * weights)
    cols = min(width, _BLOCK_ELEMS)
    rows = max(1, _BLOCK_ELEMS // cols)
    # a run that fits in one block is used whole, and a single block's sums
    # are not copied: on a small table that bookkeeping would cost more
    # than the sum itself
    parts = ([(scales, offsets, weights)] if cols == width else
             [(scales[j:j + cols], offsets[j:j + cols], weights[j:j + cols])
              for j in range(0, width, cols)])
    column = alpha.reshape(-1, 1)
    sums = []
    for k in range(0, len(column), rows):
        block = column[k:k + rows]
        part_sums = [np.add.reduce(fn(block * s + o) * w, axis=-1) for s, o, w in parts]
        sums.append(sum(part_sums[1:], part_sums[0]))
    total = np.concatenate(sums) if len(sums) > 1 else sums[0]
    return total.reshape(alpha.shape)[()]


def _w_kernel(stats: SummaryStats, w, alpha):
    """(alpha Y - 1) log W, the W factor of L4 and L8 besides the
    log Gamma(alpha Y) of their term runs; requires Y > 0."""
    if stats.Y <= 0.0:
        raise ValueError("degenerate: Y = 0, the mass law is a point mass at W = 0")
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("W must be positive when Y > 0")
    return (alpha * stats.Y - 1.0) * np.log(w)


def _maybe_scalar(val):
    return float(val) if val.ndim == 0 else val


def log_L2(stats: SummaryStats, w, params: ModelParams):
    """Joint reduced likelihood with the missing mass W explicit."""
    a, b, lam = _as_alpha(params.alpha), params.b, params.lam
    kernel = _w_kernel(stats, w, a)
    # the log-Gamma terms of L2 are those of L8, and L3's those of L11
    val = (_term_sum(stats, a, 0, "L8") + kernel
           + a * math.log(b) + stats.N * math.log(lam)
           + a * stats.U - (b + lam) * (stats.V + np.asarray(w, float)))
    return _maybe_scalar(val)


def log_L3(stats: SummaryStats, params: ModelParams):
    """Reduced likelihood with W marginalized out entirely."""
    a, b, lam = _as_alpha(params.alpha), params.b, params.lam
    val = (_term_sum(stats, a, 0, "L11") + a * math.log(b) + stats.N * math.log(lam)
           + a * stats.U - (b + lam) * stats.V
           - a * stats.Y * math.log(b + lam))
    return float(val)


def log_L4(stats: SummaryStats, w, alpha):
    """Bayes-marginal likelihood of (W, alpha); b, lambda integrated out."""
    alpha = _as_alpha(alpha)
    kernel = _w_kernel(stats, w, alpha)
    val = (_term_sum(stats, alpha, 0, "L4") + kernel + alpha * stats.U
           - (alpha + stats.N) * np.log(stats.V + np.asarray(w, float)))
    return _maybe_scalar(val)


def log_L5(stats: SummaryStats, alpha):
    """Bayes-marginal likelihood of alpha alone."""
    alpha = _as_alpha(alpha)
    val = (_term_sum(stats, alpha, 0, "L5") + alpha * stats.U_rel
           - stats.N * math.log(stats.V))
    return _maybe_scalar(val)


def log_L8(stats: SummaryStats, w, alpha):
    """Profile likelihood of (W, alpha): L2 at b = alpha/(V+W), lambda = N/(V+W)."""
    alpha = _as_alpha(alpha)
    n = stats.N
    kernel = _w_kernel(stats, w, alpha)
    val = (_term_sum(stats, alpha, 0, "L8") + kernel
           + alpha * stats.U + alpha * np.log(alpha) + n * math.log(n)
           - alpha - n - (alpha + n) * np.log(stats.V + np.asarray(w, float)))
    return _maybe_scalar(val)


def log_L9(stats: SummaryStats, alpha):
    """Integral of L8 over W (profile analogue of L5)."""
    alpha = _as_alpha(alpha)
    n = stats.N
    val = (_term_sum(stats, alpha, 0, "L9") + alpha * stats.U_rel
           + alpha * np.log(alpha) + n * (math.log(n) - math.log(stats.V)) - alpha - n)
    return _maybe_scalar(val)


def stationary_b_lambda(stats: SummaryStats, alpha: float) -> tuple[float, float]:
    """The (b, lambda) maximizing L3 at fixed alpha; satisfies N = lambda alpha / b."""
    scale = (alpha * stats.X + stats.N) / (alpha + stats.N) / stats.V
    return alpha * scale, stats.N * scale


def log_L11(stats: SummaryStats, alpha):
    """L3 profiled over (b, lambda): the plain-MLE objective in alpha."""
    alpha = _as_alpha(alpha)
    n = stats.N
    ax_n = alpha * stats.X + n
    # b + lambda = (alpha X + N)/V, b = alpha scale, lambda = N scale
    log_scale = np.log(ax_n) - np.log(alpha + n) - math.log(stats.V)
    val = (_term_sum(stats, alpha, 0, "L11")
           + alpha * (np.log(alpha) + log_scale)
           + n * (math.log(n) + log_scale)
           + alpha * stats.U - ax_n
           - alpha * stats.Y * (np.log(ax_n) - math.log(stats.V)))
    return _maybe_scalar(val)


def _check_derivative(which: str, stats: SummaryStats) -> None:
    if which not in ("L4", "L5", "L8", "L9", "L11"):
        raise ValueError(f"no alpha derivative for {which!r}")
    if which in ("L4", "L8") and stats.Y <= 0.0:
        raise ValueError("degenerate: Y = 0")


def dlog_dalpha(which: str, stats: SummaryStats, alpha, w=None):
    """d/d alpha of the chosen reduced log-likelihood (analytic)."""
    if which in ("L4", "L8") and w is None:
        raise ValueError(f"{which} derivative needs W")
    _check_derivative(which, stats)
    alpha = _as_alpha(alpha)
    val = _term_sum(stats, alpha, 1, which)
    if which in ("L8", "L9"):
        val = val + np.log(alpha)
    if which in ("L4", "L8"):
        w = np.asarray(w, dtype=float)
        val = val + (stats.U + stats.Y * np.log(w) - np.log(stats.V + w))
    else:
        val = val + stats.U_rel
        if which == "L11":
            val = (val + stats.X * np.log(alpha * stats.X + stats.N)
                   - np.log1p(stats.N / alpha))
    return _maybe_scalar(val)


def d2log_dalpha2(which: str, stats: SummaryStats, alpha):
    """d^2/d alpha^2 of the chosen reduced log-likelihood (analytic), at any W."""
    _check_derivative(which, stats)
    alpha = _as_alpha(alpha)
    val = _term_sum(stats, alpha, 2, which)
    if which in ("L8", "L9"):
        val = val + 1.0 / alpha
    elif which == "L11":
        val = val + (stats.X * stats.X / (alpha * stats.X + stats.N)
                     + (stats.N / alpha) / (alpha + stats.N))
    return _maybe_scalar(val)
