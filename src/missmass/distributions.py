"""Probability laws for the missing mass and derived quantities.

Closed forms (point mass, Gamma, Beta, Beta-prime), weighted mixtures of
Beta or Beta-prime atoms (the Bayes posterior is one), and a continuous
law of u = log(W / scale) given by its density on Gauss-Legendre panels
(the profile curve), seen as the law of W or of W/Z.  Every law exposes
``mean`` and ``quantile(q)``; Beta, Beta-prime and panel laws also take an
array of levels and expose ``log_pdf``, and Beta-prime and panel laws
expose ``cdf``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, expit, gammaincinv, log_expit

from .solvers import newton_bracketed
from .special import log_beta, log_gamma

# mixture quantiles are solved in u = logit(s) to this width, a relative
# 1e-12 in W / scale; expit(-+_U_END) is exactly 0 and 1 in float64
_U_TOL = 1e-12
_U_END = 750.0


@dataclass(frozen=True)
class PointMass:
    value: float

    @property
    def mean(self) -> float:
        return self.value

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return self.value


@dataclass(frozen=True)
class GammaDist:
    """Gamma law with shape and rate (mean = shape / rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        if self.shape <= 0 or self.rate <= 0:
            raise ValueError("shape and rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return float(gammaincinv(self.shape, q)) / self.rate

    def log_pdf(self, w):
        w = np.asarray(w, dtype=float)
        return (self.shape * math.log(self.rate) - log_gamma(self.shape)
                + (self.shape - 1.0) * np.log(w) - self.rate * w)


class _BetaAtoms:
    """A Beta(a, b) law of s in (0, 1), or a weighted mixture of Beta laws.

    With ``weights`` None, ``a`` and ``b`` are numbers: one atom, with
    closed-form quantiles.  With ``weights``, ``a``, ``b`` and ``weights``
    are equal-length vectors and the weights are normalized to sum to 1.
    Mixture quantiles are solved in u = logit(s), which is log(W / scale)
    in the Beta-prime view.
    """

    def _check_atoms(self, what: str) -> None:
        if self.weights is None:
            if self.a <= 0 or self.b <= 0:
                raise ValueError(f"{what} parameters must be positive")
            return
        a, b, w = (np.array(v, dtype=float) for v in (self.a, self.b, self.weights))
        if a.ndim != 1 or a.shape != b.shape or a.shape != w.shape or not len(a):
            raise ValueError("a, b and weights must be equal-length vectors")
        if not (np.all(a > 0) and np.all(b > 0)
                and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError(f"{what} parameters must be positive")
        if not (np.all(w >= 0) and np.all(np.isfinite(w)) and np.sum(w) > 0):
            raise ValueError("weights must be nonnegative with a positive sum")
        w /= np.sum(w)
        for name, val in (("a", a), ("b", b), ("weights", w),
                          ("_log_b", log_beta(a, b))):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    def _at_atoms(self, x):
        """x as a float array, with a last axis over the atoms of a mixture."""
        x = np.asarray(x, dtype=float)
        return x if self.weights is None else x[..., None]

    def _atom_log_b(self):
        return log_beta(self.a, self.b) if self.weights is None else self._log_b

    def _mix(self, log_atoms):
        """Weighted sum over the atoms of per-atom log densities."""
        if self.weights is None:
            return log_atoms
        with np.errstate(divide="ignore"):
            return np.logaddexp.reduce(log_atoms + np.log(self.weights), axis=-1)

    def _cdf_s(self, s):
        """sum_j w_j I_s(a_j, b_j), vectorized over s."""
        if self.weights is None:
            return betainc(self.a, self.b, s)
        s = np.asarray(s, dtype=float)
        return (self.weights @ betainc(self.a[:, None], self.b[:, None],
                                       s.reshape(1, -1))).reshape(s.shape)

    def _logit_quantile(self, q) -> np.ndarray:
        """u = logit(s) at which the mixture CDF reaches each level of q.

        The mixture quantile lies between the smallest and the largest atom
        quantile; where those bracket ends fail (an atom quantile that
        underflows, or betaincinv rounding) they fall back to +-_U_END,
        where the CDF is exactly 0 and 1.  Bracketed Newton steps on dF/du
        then end for every level in (0, 1); a level whose quantile lies
        below the smallest positive s ends at the underflow threshold.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        a, b = self.a[:, None], self.b[:, None]
        with np.errstate(divide="ignore"):
            s_atoms = betaincinv(a, b, q)
            u_atoms = np.log(s_atoms) - np.log1p(-s_atoms)
        lo = np.clip(np.min(u_atoms, axis=0), -_U_END, _U_END)
        hi = np.clip(np.max(u_atoms, axis=0), -_U_END, _U_END)
        lo = np.where(self._cdf_s(expit(lo)) <= q, lo, -_U_END)
        hi = np.where(self._cdf_s(expit(hi)) >= q, hi, _U_END)

        def excess_and_slope(u):
            # dF/du = sum_j w_j s^a_j (1 - s)^b_j / B(a_j, b_j)
            slope = self.weights @ np.exp(a * log_expit(u) + b * log_expit(-u)
                                          - self._log_b[:, None])
            return self._cdf_s(expit(u)) - q, slope

        return newton_bracketed(excess_and_slope, 0.5 * (lo + hi), lo, hi,
                                increasing=True, tol=_U_TOL)


def _levels(q):
    """Validate quantile levels: a number or an array, each in (0, 1)."""
    if np.ndim(q) == 0:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return q
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("quantile level must be in (0, 1)")
    return q


def _like_levels(val, q):
    """A float for a single level, an array for an array of levels."""
    return float(np.asarray(val).reshape(())) if np.ndim(q) == 0 else np.asarray(val)


@dataclass(frozen=True, eq=False)
class BetaDist(_BetaAtoms):
    """Beta(a, b), or the mixture sum_j w_j Beta(a_j, b_j) (see _BetaAtoms)."""

    a: float
    b: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        self._check_atoms("Beta")

    @property
    def mean(self) -> float:
        if self.weights is None:
            return self.a / (self.a + self.b)
        return float(self.weights @ (self.a / (self.a + self.b)))

    def quantile(self, q):
        q = _levels(q)
        if self.weights is None:
            return _like_levels(betaincinv(self.a, self.b, q), q)
        return _like_levels(expit(self._logit_quantile(q)), q)

    def log_pdf(self, s):
        s = self._at_atoms(s)
        return self._mix((self.a - 1.0) * np.log(s) + (self.b - 1.0) * np.log1p(-s)
                         - self._atom_log_b())


@dataclass(frozen=True, eq=False)
class BetaPrimeDist(_BetaAtoms):
    """Scaled Beta-prime: W = scale * t with density t^(a-1) (1+t)^(-a-b),
    or the mixture of such laws with one common scale (see _BetaAtoms).

    W / (scale + W) then follows the Beta law with the same atoms.
    """

    a: float
    b: float
    scale: float = 1.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("Beta-prime parameters must be positive")
        self._check_atoms("Beta-prime")

    @property
    def mean(self) -> float:
        if np.any(self.b <= 1.0):
            return math.inf
        if self.weights is None:
            return self.scale * self.a / (self.b - 1.0)
        return float(self.scale * (self.weights @ (self.a / (self.b - 1.0))))

    def quantile(self, q):
        q = _levels(q)
        if self.weights is None:
            s = betaincinv(self.a, self.b, q)
            return _like_levels(self.scale * s / (1.0 - s), q)
        return _like_levels(self.scale * np.exp(self._logit_quantile(q)), q)

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        return self._cdf_s(w / (self.scale + w))

    def log_pdf(self, w):
        t = self._at_atoms(w) / self.scale
        return self._mix((self.a - 1.0) * np.log(t) - (self.a + self.b) * np.log1p(t)
                         - self._atom_log_b()) - math.log(self.scale)


@functools.lru_cache(maxsize=None)
def _panel_rule(n: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes and weights; node values -> Chebyshev
    coefficients of the polynomial through them, and of its integral."""
    x, w = np.polynomial.legendre.leggauss(n)
    to_chebyshev = np.linalg.inv(np.polynomial.chebyshev.chebvander(x, n - 1)).T
    rule = (x, w, to_chebyshev,
            to_chebyshev @ np.polynomial.chebyshev.chebint(np.eye(n), lbnd=-1, axis=1))
    for val in rule:
        val.setflags(write=False)
    return rule


@dataclass(frozen=True, eq=False)
class LogScaleDist:
    """Law of W = scale e^u, or with ``w_over_z`` of W/Z = expit(u): the
    log density of u (up to a constant) at the ``nodes``, Gauss-Legendre
    nodes of panels between ``edges`` in v = asinh((u - center) / width),
    where the density of v is a polynomial.  Below the panels it is the
    exponential of rate ``tail_rate`` through the first node, the tail
    (center - u)^-(tail_rate + 1) of mass ``tail_mass``; above, zero.
    """

    center: float
    width: float
    edges: np.ndarray
    log_density: np.ndarray
    tail_rate: float
    scale: float = 1.0
    w_over_z: bool = False

    @staticmethod
    def nodes(center: float, width: float, edges, n: int) -> np.ndarray:
        """The u of n Gauss-Legendre nodes on each panel, a row per panel."""
        edges = np.asarray(edges, dtype=float)
        v = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (1.0 + _panel_rule(n)[0])
        return center + width * np.sinh(v)

    def __post_init__(self):
        edges = np.array(self.edges, dtype=float)
        log_u = np.array(self.log_density, dtype=float)
        if np.any(np.diff(edges) <= 0) or log_u.shape[:-1] != (len(edges) - 1,):
            raise ValueError("edges must increase, with one row of node values per panel")
        x, w, to_chebyshev, to_integral = _panel_rule(log_u.shape[-1])
        half = 0.5 * np.diff(edges)[:, None]
        v = edges[:-1, None] + half * (1.0 + x)
        # the density of v at the nodes (du/dv = width cosh v), then the
        # Chebyshev coefficients of each panel's density and CDF in xi
        dens = np.exp(log_u - np.max(log_u)) * np.cosh(v)
        tail = dens[0, 0] * math.exp(self.tail_rate * (edges[0] - v[0, 0])) / self.tail_rate
        total = tail + np.sum(dens * half * w)
        integral = dens * half @ to_integral / total
        starts = tail / total + np.concatenate([[0.0], np.cumsum(integral.sum(axis=1))])
        # the CDF at the nodes, where the quantile solves start
        at_nodes = starts[:-1, None] + integral @ np.cos(
            np.outer(np.arange(len(x) + 1), np.arccos(x)))
        for name, val in (("edges", edges), ("log_density", log_u), ("_v", v),
                          ("_dens", dens @ to_chebyshev / total), ("_integral", integral),
                          ("_starts", starts), ("_at_nodes", at_nodes),
                          ("_weights", dens * half * w / total), ("tail_mass", tail / total)):
            object.__setattr__(self, name, val)

    def _at(self, v, j=None):
        """CDF and density of v at each v: by the polynomials of panel j,
        or of the panel of v, with the tail below and nothing above."""
        edges, at_j = self.edges, j
        if j is None:
            j = np.clip(np.searchsorted(edges, v, side="right") - 1, 0, len(edges) - 2)
        xi = np.clip(2.0 * (v - edges[j]) / (edges[j + 1] - edges[j]) - 1.0, -1.0, 1.0)
        terms = np.cos(np.multiply.outer(np.arccos(xi), np.arange(self._integral.shape[1])))
        cdf = self._starts[j] + np.sum(terms * self._integral[j], axis=-1)
        density = np.sum(terms[..., :-1] * self._dens[j], axis=-1)
        if at_j is not None:
            return cdf, density
        tail = self.tail_mass * np.exp(self.tail_rate * np.minimum(v - edges[0], 0.0))
        below, above = v < edges[0], v >= edges[-1]
        return (np.where(below, tail, np.where(above, 1.0, cdf)),
                np.where(below, self.tail_rate * tail, np.where(above, 0.0, density)))

    def _v_of(self, x):
        with np.errstate(divide="ignore"):
            u = np.log(x) - np.log1p(-x) if self.w_over_z else np.log(x / self.scale)
        return np.arcsinh((u - self.center) / self.width)

    def u_quantile(self, q):
        """u = log(W / scale) at each level of q, by Newton steps in v from
        the CDF interpolated between nodes (closed form in the tail)."""
        q = _levels(q)
        levels = np.atleast_1d(q)
        start = np.interp(levels, np.append(self._at_nodes, 1.0), np.append(self._v, self.edges[-1]))
        j = np.clip(np.searchsorted(self._starts, levels, side="right") - 1,
                    0, len(self.edges) - 2)

        def excess_and_slope(v):
            cdf, density = self._at(v, j)
            return cdf - levels, density

        v = newton_bracketed(excess_and_slope, start, self.edges[j], self.edges[j + 1],
                             increasing=True, tol=_U_TOL)
        with np.errstate(divide="ignore"):
            v_tail = self.edges[0] + np.log(levels / self.tail_mass) / self.tail_rate
        v = np.where(levels < self.tail_mass, v_tail, v)
        return _like_levels(self.center + self.width * np.sinh(v), q)

    def quantile(self, q):
        u = self.u_quantile(q)
        return _like_levels(expit(u) if self.w_over_z else self.scale * np.exp(u), q)

    def cdf(self, x):
        return self._at(self._v_of(np.asarray(x, dtype=float)))[0][()]

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        v = self._v_of(x)
        with np.errstate(divide="ignore"):
            return (np.log(np.maximum(self._at(v)[1], 0.0)) - np.log(self.width * np.cosh(v))
                    - np.log(x) - (np.log1p(-x) if self.w_over_z else 0.0))[()]

    @property
    def mean(self) -> float:
        u = self.center + self.width * np.sinh(self._v)
        if self.w_over_z:
            return float(np.sum(self._weights * expit(u)))
        # in log space: e^u alone can overflow where the weight is tiny
        with np.errstate(divide="ignore"):
            return float(np.exp(np.logaddexp.reduce(np.log(self._weights) + u, axis=None))
                         * self.scale)


@dataclass(frozen=True)
class ShiftedDist:
    """A law translated by a constant offset; quantiles shift exactly.

    Used for Z = V + W so that z-quantiles equal w-quantiles plus V.
    """

    base: object
    shift: float

    @property
    def mean(self) -> float:
        return self.base.mean + self.shift

    def quantile(self, q: float) -> float:
        return self.base.quantile(q) + self.shift

