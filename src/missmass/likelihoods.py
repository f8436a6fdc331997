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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SummaryStats
from .special import digamma, log_gamma, trigamma

# sums over the sampled points run in blocks of at most this many
# alpha-by-x elements (1 MB per float64 temporary)
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


def _x_sum(stats: SummaryStats, alpha, fn, weights: np.ndarray):
    """sum over the distinct sampled x of weights * fn(alpha x), at every
    alpha of an array.

    The sum runs in blocks of at most _BLOCK_ELEMS alpha-by-x elements:
    whole rows of alpha while one row fits in a block, so a row's sum does
    not depend on the block size, else column slices of one row at a time,
    added left to right.  Every x distinct keeps the cost O(M) per alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    values = stats.x_values
    cols = min(len(values), _BLOCK_ELEMS)
    rows = max(1, _BLOCK_ELEMS // cols)
    column = alpha.reshape(-1, 1)
    total = np.zeros(len(column))
    for k in range(0, len(column), rows):
        block, out = column[k:k + rows], total[k:k + rows]
        for j in range(0, len(values), cols):
            out += np.add.reduce(fn(block * values[j:j + cols]) * weights[j:j + cols],
                                 axis=-1)
    return total.reshape(alpha.shape)


def _shape_sum(stats: SummaryStats, alpha):
    """-sum_S log Gamma(alpha x(i)), vectorized over alpha."""
    return -_x_sum(stats, alpha, log_gamma, stats.x_counts)


def _digamma_sum(stats: SummaryStats, alpha):
    """sum_S x(i) psi(alpha x(i)), vectorized over alpha."""
    return _x_sum(stats, alpha, digamma, stats.x_counts * stats.x_values)


def _trigamma_sum(stats: SummaryStats, alpha):
    """sum_S x(i)^2 psi'(alpha x(i)), vectorized over alpha."""
    return _x_sum(stats, alpha, trigamma, stats.x_counts * stats.x_values ** 2)


def _w_kernel(stats: SummaryStats, w, alpha):
    """(alpha Y - 1) log W - log Gamma(alpha Y); requires Y > 0."""
    if stats.Y <= 0.0:
        raise ValueError("degenerate: Y = 0, the mass law is a point mass at W = 0")
    ay = np.asarray(alpha, dtype=float) * stats.Y
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("W must be positive when Y > 0")
    return (ay - 1.0) * np.log(w) - log_gamma(ay)


def _maybe_scalar(val, *inputs):
    if all(np.asarray(v).ndim == 0 for v in inputs):
        return float(np.asarray(val).reshape(()))
    return val


def log_L2(stats: SummaryStats, w, params: ModelParams):
    """Joint reduced likelihood with the missing mass W explicit."""
    a, b, lam = params.alpha, params.b, params.lam
    val = (_shape_sum(stats, a) + _w_kernel(stats, w, a)
           + a * math.log(b) + stats.N * math.log(lam)
           + a * stats.U - (b + lam) * (stats.V + np.asarray(w, float)))
    return _maybe_scalar(val, w)


def log_L3(stats: SummaryStats, params: ModelParams):
    """Reduced likelihood with W marginalized out entirely."""
    a, b, lam = params.alpha, params.b, params.lam
    val = (_shape_sum(stats, a) + a * math.log(b) + stats.N * math.log(lam)
           + a * stats.U - (b + lam) * stats.V
           - a * stats.Y * math.log(b + lam))
    return float(np.asarray(val).reshape(()))


def log_L4(stats: SummaryStats, w, alpha):
    """Bayes-marginal likelihood of (W, alpha); b, lambda integrated out."""
    alpha = np.asarray(alpha, dtype=float)
    val = (_shape_sum(stats, alpha) + _w_kernel(stats, w, alpha)
           + alpha * stats.U + log_gamma(alpha) + log_gamma(float(stats.N))
           - (alpha + stats.N) * np.log(stats.V + np.asarray(w, float)))
    return _maybe_scalar(val, w, alpha)


def log_L5(stats: SummaryStats, alpha):
    """Bayes-marginal likelihood of alpha alone."""
    alpha = np.asarray(alpha, dtype=float)
    ax = alpha * stats.X
    val = (_shape_sum(stats, alpha) + alpha * stats.U
           + log_gamma(alpha) + log_gamma(float(stats.N))
           - (ax + stats.N) * math.log(stats.V)
           + log_gamma(ax + stats.N) - log_gamma(alpha + stats.N))
    return _maybe_scalar(val, alpha)


def log_L8(stats: SummaryStats, w, alpha):
    """Profile likelihood of (W, alpha): L2 at b = alpha/(V+W), lambda = N/(V+W)."""
    alpha = np.asarray(alpha, dtype=float)
    n = stats.N
    val = (_shape_sum(stats, alpha) + _w_kernel(stats, w, alpha)
           + alpha * stats.U + alpha * np.log(alpha) + n * math.log(n)
           - alpha - n - (alpha + n) * np.log(stats.V + np.asarray(w, float)))
    return _maybe_scalar(val, w, alpha)


def log_L9(stats: SummaryStats, alpha):
    """Integral of L8 over W (profile analogue of L5)."""
    alpha = np.asarray(alpha, dtype=float)
    n = stats.N
    ax = alpha * stats.X
    val = (_shape_sum(stats, alpha) + alpha * stats.U
           + alpha * np.log(alpha) + n * math.log(n) - alpha - n
           - (ax + n) * math.log(stats.V)
           + log_gamma(ax + n) - log_gamma(alpha + n))
    return _maybe_scalar(val, alpha)


def stationary_b_lambda(stats: SummaryStats, alpha: float) -> tuple[float, float]:
    """The (b, lambda) maximizing L3 at fixed alpha; satisfies N = lambda alpha / b."""
    scale = (alpha * stats.X + stats.N) / (alpha + stats.N) / stats.V
    return alpha * scale, stats.N * scale


def log_L11(stats: SummaryStats, alpha):
    """L3 profiled over (b, lambda): the plain-MLE objective in alpha."""
    alpha = np.asarray(alpha, dtype=float)
    n = stats.N
    ax_n = alpha * stats.X + n
    # b + lambda = (alpha X + N)/V, b = alpha scale, lambda = N scale
    log_scale = np.log(ax_n) - np.log(alpha + n) - math.log(stats.V)
    val = (_shape_sum(stats, alpha)
           + alpha * (np.log(alpha) + log_scale)
           + n * (math.log(n) + log_scale)
           + alpha * stats.U - ax_n
           - alpha * stats.Y * (np.log(ax_n) - math.log(stats.V)))
    return _maybe_scalar(val, alpha)


def dlog_dalpha(which: str, stats: SummaryStats, alpha, w=None):
    """d/d alpha of the chosen reduced log-likelihood (analytic)."""
    alpha = np.asarray(alpha, dtype=float)
    n, x, y = stats.N, stats.X, stats.Y
    if which in ("L4", "L8"):
        if w is None:
            raise ValueError(f"{which} derivative needs W")
        if y <= 0.0:
            raise ValueError("degenerate: Y = 0")
        w = np.asarray(w, dtype=float)
        lead = digamma(alpha) if which == "L4" else np.log(alpha)
        val = (lead - _digamma_sum(stats, alpha) - y * digamma(alpha * y)
               + stats.U + y * np.log(w) - np.log(stats.V + w))
    elif which in ("L5", "L9"):
        lead = digamma(alpha) if which == "L5" else np.log(alpha)
        val = (lead - _digamma_sum(stats, alpha) + stats.U
               - x * math.log(stats.V)
               + x * digamma(alpha * x + n) - digamma(alpha + n))
    elif which == "L11":
        ax_n = alpha * x + n
        val = (-_digamma_sum(stats, alpha) - x * math.log(stats.V)
               + x * np.log(ax_n) + stats.U - np.log1p(n / alpha))
    else:
        raise ValueError(f"no alpha derivative for {which!r}")
    return _maybe_scalar(val, alpha, 0.0 if w is None else w)


def d2log_dalpha2(which: str, stats: SummaryStats, alpha, w=None):
    """d^2/d alpha^2 of the chosen reduced log-likelihood (analytic)."""
    alpha = np.asarray(alpha, dtype=float)
    n, x, y = stats.N, stats.X, stats.Y
    if which in ("L4", "L8"):
        if y <= 0.0:
            raise ValueError("degenerate: Y = 0")
        lead = trigamma(alpha) if which == "L4" else 1.0 / alpha
        val = lead - _trigamma_sum(stats, alpha) - y * y * trigamma(alpha * y)
    elif which in ("L5", "L9"):
        lead = trigamma(alpha) if which == "L5" else 1.0 / alpha
        val = (lead - _trigamma_sum(stats, alpha)
               + x * x * trigamma(alpha * x + n) - trigamma(alpha + n))
    elif which == "L11":
        ax_n = alpha * x + n
        val = (-_trigamma_sum(stats, alpha) + x * x / ax_n
               + (n / alpha) / (alpha + n))
    else:
        raise ValueError(f"no alpha derivative for {which!r}")
    return _maybe_scalar(val, alpha)
