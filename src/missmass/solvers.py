"""Root finders shared by the estimators and the inference routes.

Root finding on a bracket by Brent's method (inverse quadratic
interpolation, secant and bisection steps on a shrinking bracket, stopping
once the bracket is within _REL_TOL relative to the root), and bracketed
Newton steps for arrays of monotone functions.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class BracketError(RuntimeError):
    """The supplied bracket does not straddle a root."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


# relative bracket width at which the root finders stop, and their
# iteration budget
_REL_TOL = 1e-10
_MAX_ITER = 200


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
