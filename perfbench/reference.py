"""Independent reference for the Bayes posterior CDF of W.

    F_ref(w) = int L5(a) BetaPrimeCDF(w; a Y, a X + N, V) dlog a
               / int L5(a) dlog a

L5 is written out here from its closed form with scipy.special.gammaln, and
the Beta-prime CDF is scipy.special.betainc, so nothing in the reference
shares code with the package.  The alpha integral is a trapezoid sum on a
dense uniform log-alpha grid that spans the region where L5 is within
TAIL_NATS of its maximum.  ``quad_cdf`` evaluates the same integral with
scipy.integrate.quad, for the self-check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaincinv, gammaln

TAIL_NATS = 50.0
COARSE_T = np.linspace(-30.0, 50.0, 4001)
DENSE_POINTS = 4001


def _log_l5(st: dict, t: np.ndarray) -> np.ndarray:
    a = np.exp(np.asarray(t, float))
    n, x = st["N"], st["X"]
    return (-np.sum(gammaln(np.multiply.outer(a, st["x_s"])), axis=-1)
            + a * st["U"] + gammaln(a) - (a * x + n) * math.log(st["V"])
            + gammaln(a * x + n) - gammaln(a + n))


class BayesReference:
    """F_ref for one observation with Y > 0 and a non-proportional sample,
    given its (x on S, N, V, U, X, Y) as ``st``."""

    def __init__(self, st: dict):
        self.st = st
        coarse = _log_l5(st, COARSE_T)
        top = float(np.max(coarse))
        keep = np.nonzero(coarse >= top - TAIL_NATS)[0]
        if keep[0] == 0 or keep[-1] == len(COARSE_T) - 1:
            raise ValueError("L5 does not decay inside the log-alpha window")
        self.t_lo = float(COARSE_T[keep[0] - 1])
        self.t_hi = float(COARSE_T[keep[-1] + 1])
        self.t_mode = float(COARSE_T[int(np.argmax(coarse))])
        self.t = np.linspace(self.t_lo, self.t_hi, DENSE_POINTS)
        log_l = _log_l5(st, self.t)
        self.log_top = float(np.max(log_l))
        w = np.exp(log_l - self.log_top)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.weights = w / np.sum(w)
        a = np.exp(self.t)
        self.shape_a = a * st["Y"]
        self.shape_b = a * st["X"] + st["N"]

    def cdf(self, w) -> np.ndarray:
        w = np.atleast_1d(np.asarray(w, float))
        s = w / (self.st["V"] + w)
        return betainc(self.shape_a[:, None], self.shape_b[:, None],
                       s[None, :]).T @ self.weights

    def quad_cdf(self, w: float) -> float:
        st = self.st

        def density(t):
            return math.exp(float(_log_l5(st, np.array([t]))[0]) - self.log_top)

        def integrand(t):
            a = math.exp(t)
            return density(t) * float(betainc(a * st["Y"], a * st["X"] + st["N"],
                                              w / (st["V"] + w)))

        opts = dict(points=[self.t_mode], limit=400, epsabs=0.0, epsrel=1e-11)
        num, _ = integrate.quad(integrand, self.t_lo, self.t_hi, **opts)
        den, _ = integrate.quad(density, self.t_lo, self.t_hi, **opts)
        return num / den

    def probe_points(self) -> np.ndarray:
        """Five W values spread over the posterior: the closed-form
        Beta-prime quantiles at the L5 mode."""
        a = math.exp(self.t_mode)
        st = self.st
        s = betaincinv(a * st["Y"], a * st["X"] + st["N"],
                       np.array([0.05, 0.25, 0.5, 0.75, 0.95]))
        return st["V"] * s / (1.0 - s)


def self_check(references: dict[str, BayesReference]) -> dict[str, float]:
    """Largest |F_ref - F_quad| over five probe points, per reference."""
    out = {}
    for name, ref in references.items():
        probes = ref.probe_points()
        quad = np.array([ref.quad_cdf(float(w)) for w in probes])
        out[name] = float(np.max(np.abs(ref.cdf(probes) - quad)))
    return out
