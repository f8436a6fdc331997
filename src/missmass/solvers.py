"""Scalar numerics shared by the estimators and the inference routes.

Root finding on a bracket by Brent's method (inverse quadratic
interpolation, secant and bisection steps on a shrinking bracket, stopping
once the bracket is within _REL_TOL relative to the root), maximization of
unimodal functions in log-argument space, and quadrature over (0, inf)
done entirely in log space.  The densities this package integrates have
power-law behavior at 0 and exponential or power tails at infinity; the
substitution t = log(u) turns both ends into exponentially decaying tails
that composite Gauss-Legendre panels resolve.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np


class BracketError(RuntimeError):
    """The supplied bracket does not straddle a root."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


class DivergenceError(RuntimeError):
    """Integrand is not integrable (tail decays too slowly or grows)."""


# relative bracket width at which the root finders and the golden-section
# search stop, their iteration budget, and the Gauss-Legendre nodes per
# quadrature panel
_REL_TOL = 1e-10
_MAX_ITER = 200
_QUAD_POINTS = 257

# expansion limits in t = log(argument); hitting the upper limit while the
# function still ascends is the "maximum at infinity" verdict
T_LOWER = -30.0
T_UPPER = 50.0


def solve_root(f: Callable[[float], float], bracket: tuple[float, float],
               f_bracket: tuple[float, float] | None = None) -> float:
    """Root of f on [lo, hi] by Brent's method.

    Requires f(lo) * f(hi) <= 0; ``f_bracket`` gives (f(lo), f(hi)) when
    the caller holds them already (a scan's entries), and f is then not
    called at the ends.  Each step interpolates, inversely quadratic
    through the last three points or by the secant through the last two,
    and is taken when it stays within three quarters of the bracket and
    moves less than half as far as the step before last; otherwise the
    bracket is bisected.  No step is shorter than half the stopping width.
    Iteration stops when the bracket that holds the sign change is within
    _REL_TOL relative to the root location, and returns its end with the
    smaller |f|; an end point or iterate where f is exactly zero is
    returned at once.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not a < b:
        raise BracketError(f"empty bracket ({a}, {b})")
    fa, fb = (f(a), f(b)) if f_bracket is None else map(float, f_bracket)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(
            f"no sign change on bracket ({a}, {b}): f = ({fa}, {fb})")

    # b is the best iterate, c the bracket end of opposite sign, a the
    # iterate before b
    c, fc = a, fa
    step = prev_step = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _REL_TOL * max(abs(b), abs(c), 1e-300)
        half = 0.5 * (c - b)
        if abs(half) <= tol:
            return b
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            # the interpolated step from b is p / q
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q), abs(prev_step * q)):
                prev_step, step = step, p / q
            else:
                prev_step = step = half
        else:
            prev_step = step = half
        a, fa = b, fb
        b += step if abs(step) > tol else math.copysign(tol, half)
        fb = f(b)
        if fb == 0.0:
            return b
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            step = prev_step = b - a
    raise ConvergenceError("solve_root: max_iter exceeded")


def newton_bracketed(fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                     x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     increasing: bool, tol: float) -> np.ndarray:
    """Roots of monotone functions, elementwise, by bracketed Newton steps.

    ``fn(x)`` returns (g, dg/dx) for an array of points; on each
    [lo, hi] the function g changes sign, rising if ``increasing`` and
    falling otherwise, and x starts inside it.  Every evaluation shrinks the
    bracket.  A Newton step is taken when slope and step are finite, the
    step stays in the bracket and is at most half the step before it;
    otherwise the bracket is bisected.  An element stops once its step or
    its bracket is within ``tol``.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    last_step = hi - lo
    active = np.ones(x.shape, dtype=bool)
    for _ in range(_MAX_ITER):
        g, slope = fn(x)
        root_above = g < 0 if increasing else g > 0
        lo = np.where(root_above, x, lo)
        hi = np.where(root_above, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - g / slope
        newton = (np.isfinite(slope) & np.isfinite(nxt) & (nxt >= lo) & (nxt <= hi)
                  & (np.abs(nxt - x) <= 0.5 * last_step))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        last_step = np.abs(nxt - x)
        x = np.where(active, nxt, x)
        active &= (last_step > tol) & (hi - lo > tol)
        if not np.any(active):
            return x
    raise ConvergenceError("newton_bracketed: max_iter exceeded")


def maximize_unimodal(g: Callable[[float], float],
                      t_init: float = 0.0,
                      t_bounds: tuple[float, float] = (T_LOWER, T_UPPER),
                      ) -> tuple[float, float]:
    """Maximize a unimodal function of u > 0 supplied as g(t), t = log u.

    Returns (argmax_u, max_value).  If the bracket expansion reaches the
    upper t bound while g still ascends, the maximum is at infinity and the
    sentinel (math.inf, boundary value) is returned.  Hitting the lower
    bound returns the boundary point itself.
    """
    t_lo, t_hi = t_bounds
    t0 = min(max(float(t_init), t_lo), t_hi)
    g0 = g(t0)
    if not np.isfinite(g0):
        # find a finite starting point on a coarse scan
        grid = np.linspace(t_lo, t_hi, 41)
        vals = np.array([g(t) for t in grid])
        if not np.any(np.isfinite(vals)):
            raise ConvergenceError("maximize_unimodal: no finite values found")
        k = int(np.nanargmax(np.where(np.isfinite(vals), vals, -np.inf)))
        t0, g0 = float(grid[k]), float(vals[k])

    # walk uphill with doubling steps until a descent on both sides
    step = 1.0
    a, b, c = t0 - step, t0, t0 + step
    ga, gb, gc = g(max(a, t_lo)), g0, g(min(c, t_hi))
    a, c = max(a, t_lo), min(c, t_hi)
    it = 0
    while not (gb >= ga and gb >= gc):
        it += 1
        if it > _MAX_ITER:
            raise ConvergenceError("maximize_unimodal: bracketing failed")
        if gc > gb:
            a, ga = b, gb
            b, gb = c, gc
            step *= 2.0
            c = b + step
            if c >= t_hi:
                gc_hi = g(t_hi)
                if gc_hi >= gb:
                    return math.inf, gc_hi
                c, gc = t_hi, gc_hi
            else:
                gc = g(c)
        else:
            c, gc = b, gb
            b, gb = a, ga
            step *= 2.0
            a = b - step
            if a <= t_lo:
                ga_lo = g(t_lo)
                if ga_lo >= gb:
                    return math.exp(t_lo), ga_lo
                a, ga = t_lo, ga_lo
            else:
                ga = g(a)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(_MAX_ITER):
        if (c - a) <= _REL_TOL:
            break
        if f1 >= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - invphi * (c - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (c - a)
            f2 = g(x2)
    t_star = x1 if f1 >= f2 else x2
    return math.exp(t_star), max(f1, f2)


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

    ``log_f`` must accept numpy arrays.  The mode is located near
    ``mode_hint`` in t = log u space; composite Gauss-Legendre panels are
    laid outward from it until the tail panels contribute less than 1e-12
    of the running total.
    """
    def g_scalar(t: float) -> float:
        u = math.exp(min(max(t, _T_EVAL_MIN), _T_EVAL_MAX))
        val = log_f(np.asarray([u]))
        return float(np.asarray(val).ravel()[0]) + t

    t_init = math.log(mode_hint) if mode_hint > 0 else 0.0
    u_star, _ = maximize_unimodal(g_scalar, t_init=t_init,
                                  t_bounds=(t_init - 90.0, max(T_UPPER, t_init + 60.0)))
    if math.isinf(u_star):
        raise DivergenceError("integrand increases toward infinity")
    t_star = math.log(u_star)

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
