"""Probability laws for the missing mass and derived quantities.

W, Z = V + W and W/Z are fixed maps of one random variable u = log(W / V):
W = V e^u, Z = V + W and W/Z = expit(u).  A posterior is one law of u,
read through ``LawView``s, one per quantity.  There are two laws of u: a
Beta law of s = W/Z = expit(u) or a weighted mixture of them (the mixed
route's single atom, the Bayes posterior), and a continuous law given by
its density on Gauss-Legendre panels (``LogScaleDist``, the profile
curve).  Each law answers its CDF and density in u, ``u_quantile`` and
the means of V e^u and expit(u); a view maps those to the ``quantile``,
``cdf``, ``mean`` and ``log_pdf`` of its quantity.  ``cdf_table``
tabulates the exact CDF of a law in u: a mixture solves its quantiles
between the rows of its own table and checks its mass on them
(``mass_check``), and the CLI writes its posterior CSV from one.  Point
masses (singular cases) and Gamma laws (moment matching) stand alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, expit, gammaincinv, gammaln, logit, psi, zeta

from .solvers import newton_bracketed

# mixture quantiles are solved in u = logit(s) to this width, a relative
# 1e-12 in W / scale; expit(-+_U_END) is exactly 0 and 1 in float64
_U_TOL = 1e-12
_U_END = 750.0
# a mixture's CDF table starts from _START_ROWS rows over +-_START_SD
# standard deviations of u and bisects down to CDF steps of _TABLE_STEP;
# any table also bisects an interval whose trapezoid of end densities
# misses its CDF step by more than _TABLE_FIT of the step bound, so that
# Gauss-Legendre panels on its intervals resolve the density
_START_ROWS = 9
_START_SD = 8.0
_TABLE_STEP = 1.0 / 8.0
_TABLE_FIT = 1.0 / 16.0
# _stirling_remainder's switch from gammaln to the asymptotic series
_STIRLING_SWITCH = 20.0
# mass_check integrates the density on the CDF table's intervals between
# the rows at _MASS_TAIL and 1 - _MASS_TAIL, from no lower than
# _MASS_FLOOR: below it s = W / Z nears the float underflow, and the mass
# that small-alpha atoms put at s^(alpha Y) there is read from the CDF;
# _MASS_NODES Gauss-Legendre nodes per interval, _MASS_CHUNK intervals per
# density pass, which keeps its nodes-by-atoms arrays small
_MASS_TAIL = 1e-3
_MASS_FLOOR = -700.0
_MASS_NODES = 32
_MASS_CHUNK = 4


@dataclass(frozen=True)
class PointMass:
    value: float

    @property
    def mean(self) -> float:
        return self.value

    def quantile(self, q):
        q = _levels(q)
        return _like_levels(np.full(np.shape(q), self.value), q)


@dataclass(frozen=True)
class GammaDist:
    """Gamma law with shape and rate (mean = shape / rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):  # a nan fails too
            raise ValueError("shape and rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    def quantile(self, q):
        q = _levels(q)
        return _like_levels(gammaincinv(self.shape, q) / self.rate, q)

    def log_pdf(self, w):
        w = np.asarray(w, dtype=float)
        return (self.shape * math.log(self.rate) - gammaln(self.shape)
                + (self.shape - 1.0) * np.log(w) - self.rate * w)


@dataclass(frozen=True, eq=False)
class _BetaAtoms:
    """A Beta(a, b) law of s = W / Z, or a weighted mixture of Beta laws,
    as the law of u = logit(s) = log(W / V).

    With ``weights`` None, ``a`` and ``b`` are numbers: one atom, with
    closed-form quantiles.  With ``weights``, ``a``, ``b`` and ``weights``
    are equal-length vectors and the weights are normalized to sum to 1; a
    mixture's quantiles are solved in u between the rows of its CDF table
    (``table``), built once per law.
    """

    a: float
    b: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        # the density terms and the CDF table, built at first use
        object.__setattr__(self, "_cache", {})
        if self.weights is None:
            if not (self.a > 0 and self.b > 0):  # a nan fails too
                raise ValueError("Beta parameters must be positive")
            return
        a, b, w = (np.array(v, dtype=float) for v in (self.a, self.b, self.weights))
        if a.ndim != 1 or a.shape != b.shape or a.shape != w.shape or not len(a):
            raise ValueError("a, b and weights must be equal-length vectors")
        if not (np.all(a > 0) and np.all(b > 0)
                and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("Beta parameters must be positive")
        if not (np.all(w >= 0) and np.all(np.isfinite(w)) and np.sum(w) > 0):
            raise ValueError("weights must be nonnegative with a positive sum")
        w /= np.sum(w)
        for name, val in (("a", a), ("b", b), ("weights", w)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    def _at_atoms(self, x):
        """x as a float array, with a last axis over the atoms of a mixture."""
        x = np.asarray(x, dtype=float)
        return x if self.weights is None else x[..., None]

    def _sum_atoms(self, per_atom):
        """sum_j w_j per_atom_j over the last axis; a row's sum does not
        depend on the other rows, so a level solves alike alone or in an
        array."""
        return per_atom if self.weights is None else np.sum(per_atom * self.weights, axis=-1)

    def _cdf_s(self, s):
        """sum_j w_j I_s(a_j, b_j), vectorized over s."""
        return self._sum_atoms(betainc(self.a, self.b, self._at_atoms(s)))

    def _u_density(self, u):
        """dF/du = sum_j w_j s^a_j (1 - s)^b_j / B(a_j, b_j), s = expit(u).

        Each term is exp(c - b d - (a + b) log(1 + q (e^-d - 1))) in
        d = u - log(a / b), q = b / (a + b), with c its log at d = 0 from
        Stirling remainders: the terms of size a log s that cancel in the
        plain form never appear.  Where q (e^-d - 1) < -1/2 the log is
        taken of a / (a + b) + q e^-d instead, which keeps the digits of a
        where q rounds to 1 (a below b times the float epsilon).
        """
        if "density" not in self._cache:
            self._cache["density"] = _beta_density_terms(self.a, self.b)
        mode, q, share, c = self._cache["density"]
        # in place on the nodes-by-atoms arrays, which the mass check makes
        # large: log1p(q expm1(-d)) with e^-d kept finite (past -d = 700 the
        # exponent falls as -a (-d - 700) to rounding, so u = -inf gives 0),
        # then the exponent
        minus_d = np.atleast_1d(mode - self._at_atoms(u))
        far = np.maximum(minus_d - 700.0, 0.0)
        np.minimum(minus_d, 700.0, out=minus_d)
        log_term = q * np.expm1(minus_d)
        low = log_term < -0.5
        # both forms on every element: cheaper than gathering the low ones
        from_a = np.exp(minus_d)
        from_a *= q
        from_a += share
        with np.errstate(divide="ignore"):  # log1p(-1) where q rounds to 1
            np.log(from_a, out=from_a)
            np.log1p(log_term, out=log_term)
        np.copyto(log_term, from_a, where=low)
        log_term *= self.a + self.b
        minus_d *= self.b
        minus_d += c
        minus_d -= log_term
        far *= self.a
        minus_d -= far
        return self._sum_atoms(np.exp(minus_d, out=minus_d)).reshape(np.shape(u))

    def _u_cdf(self, u):
        """The CDF of u = logit(s) and its density, at each u."""
        return self._cdf_s(expit(u)), self._u_density(u)

    def _start_rows(self) -> np.ndarray:
        """u rows a table starts from: _START_ROWS rows over +-_START_SD
        standard deviations about the mean of u (per atom psi(a) - psi(b)
        with variance psi'(a) + psi'(b)), and +-_U_END."""
        weights = 1.0 if self.weights is None else self.weights
        means = psi(self.a) - psi(self.b)
        mean = np.sum(weights * means)
        sd = min(math.sqrt(np.sum(weights * (zeta(2.0, self.a) + zeta(2.0, self.b)
                                             + (means - mean) ** 2))), _U_END)
        rows = np.clip(mean + sd * np.linspace(-_START_SD, _START_SD, _START_ROWS),
                       -_U_END, _U_END)
        return np.unique(np.concatenate([[-_U_END], rows, [_U_END]]))

    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The law's CDF table, cdf_table(self, _TABLE_STEP), built once."""
        if "table" not in self._cache:
            self._cache["table"] = cdf_table(self, _TABLE_STEP)
        return self._cache["table"]

    def u_quantile(self, q):
        """u = logit(s) at each level of q.

        One atom: from betaincinv.  A mixture: each level lies between two
        rows of ``table``; bracketed Newton steps on the exact mixture CDF
        start from the step off the row nearer in level (by that row's
        density) and end within _U_TOL.  A level whose quantile lies below
        the smallest positive s ends at the underflow threshold.
        """
        q = _levels(q)
        if self.weights is None:
            return _like_levels(logit(betaincinv(self.a, self.b, q)), q)
        levels = np.atleast_1d(q)
        u, cdf, density = self.table()
        k = np.clip(np.searchsorted(cdf, levels, side="right") - 1, 0, len(u) - 2)
        lo, hi = u[k], u[k + 1]
        near = np.where(levels - cdf[k] <= cdf[k + 1] - levels, k, k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            start = u[near] + (levels - cdf[near]) / density[near]
        start = np.where((start > lo) & (start < hi), start, 0.5 * (lo + hi))

        def excess_and_slope(x):
            cdf_x, density_x = self._u_cdf(x)
            return cdf_x - levels, density_x

        return _like_levels(newton_bracketed(excess_and_slope, start, lo, hi,
                                             increasing=True, tol=_U_TOL), q)

    def mean_exp(self, scale: float) -> float:
        """E[scale e^u] = scale sum_j w_j a_j / (b_j - 1); inf if any
        b_j <= 1."""
        if np.any(self.b <= 1.0):
            return math.inf
        if self.weights is None:
            return scale * self.a / (self.b - 1.0)
        return float(scale * (self.weights @ (self.a / (self.b - 1.0))))

    def mean_expit(self) -> float:
        """E[expit(u)] = sum_j w_j a_j / (a_j + b_j)."""
        if self.weights is None:
            return self.a / (self.a + self.b)
        return float(self.weights @ (self.a / (self.a + self.b)))

    def mass_check(self) -> tuple[float, float]:
        """Total mass of the law, found apart from its CDF formula, and the
        worst |integral of the density - CDF step| over one table interval.

        The density of u is integrated by _MASS_NODES Gauss-Legendre nodes
        on each interval of the law's CDF table from its last row at or
        below _MASS_TAIL (or its first at or above u = _MASS_FLOOR, if
        higher) to its first at or above 1 - _MASS_TAIL; the two tails
        outside are the table's CDF there.
        """
        u, cdf, _ = self.table()
        lo = max(int(np.searchsorted(cdf, _MASS_TAIL, side="right")) - 1,
                 int(np.searchsorted(u, _MASS_FLOOR)))
        hi = max(int(np.searchsorted(cdf, 1.0 - _MASS_TAIL)), lo + 1)
        nodes, node_weights = _panel_rule(_MASS_NODES)[:2]
        half = 0.5 * np.diff(u[lo:hi + 1])[:, None]
        x = 0.5 * (u[lo:hi] + u[lo + 1:hi + 1])[:, None] + half * nodes
        pieces = np.concatenate([(self._u_density(x[k:k + _MASS_CHUNK]) * half[k:k + _MASS_CHUNK])
                                 @ node_weights for k in range(0, len(x), _MASS_CHUNK)])
        worst = float(np.max(np.abs(pieces - np.diff(cdf[lo:hi + 1]))))
        return float(cdf[lo] + np.sum(pieces) + (1.0 - cdf[hi])), worst


def _stirling_remainder(x):
    """log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2, x > 0: from
    gammaln below _STIRLING_SWITCH, by four terms of its asymptotic series
    (error below 2e-15) above."""
    small = np.minimum(x, _STIRLING_SWITCH)
    big = np.maximum(x, _STIRLING_SWITCH)
    inv2 = big ** -2.0
    return np.where(x < _STIRLING_SWITCH,
                    gammaln(small) - (small - 0.5) * np.log(small) + small
                    - 0.5 * math.log(2.0 * math.pi),
                    (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))
                    / big)


def _beta_density_terms(a, b):
    """(log(a / b), b / n, a / n, log of the u density of Beta(a, b) at
    d = 0), n = a + b, for _BetaAtoms._u_density."""
    n = a + b
    log_peak = (0.5 * np.log(a * b / (2.0 * math.pi * n)) + _stirling_remainder(n)
                - _stirling_remainder(a) - _stirling_remainder(b))
    return np.log(a / b), b / n, a / n, log_peak


def cdf_table(law, max_step: float, levels=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (u, F(u), dF/du) of a law of u = log(W / V), rising in u, with
    every CDF step at most ``max_step``.

    The rows start at the law's start rows, or at its quantiles at the two
    ``levels``; then every interval whose CDF step exceeds ``max_step``, or
    whose trapezoid of end densities misses that step by more than
    ``max_step`` * _TABLE_FIT, is bisected in u, with one CDF-and-density
    pass per round over the new midpoints.  Each F is the law's exact CDF
    at the row's u.  A CDF or density that is not finite, which no
    bisection can resolve, raises ArithmeticError.
    """
    u = law._start_rows() if levels is None else np.atleast_1d(law.u_quantile(levels))
    cdf, density = law._u_cdf(u)
    while True:
        if not (np.all(np.isfinite(cdf)) and np.all(np.isfinite(density))):
            raise ArithmeticError("the law's CDF or density is not finite on its table rows")
        step = np.diff(cdf)
        trapezoid = 0.5 * (density[:-1] + density[1:]) * np.diff(u)
        split = np.nonzero((step > max_step)
                           | (np.abs(trapezoid - step) > max_step * _TABLE_FIT))[0]
        mid = 0.5 * (u[split] + u[split + 1])
        inside = (mid > u[split]) & (mid < u[split + 1])
        split, mid = split[inside], mid[inside]
        if not len(split):
            return u, cdf, density
        cdf_mid, density_mid = law._u_cdf(mid)
        u, cdf, density = (np.insert(rows, split + 1, new) for rows, new in
                           ((u, mid), (cdf, cdf_mid), (density, density_mid)))


def _single(q) -> bool:
    """Whether q is one level; a float is checked first because np.ndim of
    a Python float costs a microsecond, a third of a one-atom quantile."""
    return isinstance(q, float) or np.ndim(q) == 0


def _levels(q):
    """Validate quantile levels: a number or an array, each in (0, 1)."""
    if _single(q):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        return q
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("quantile level must be in (0, 1)")
    return q


def _like_levels(val, q):
    """A float for a single level, an array for an array of levels."""
    return float(np.asarray(val).reshape(())) if _single(q) else np.asarray(val)


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
    """Law of u = log(W / V) given by the log density of u (up to a
    constant) at the ``nodes``, Gauss-Legendre nodes of panels between
    ``edges`` in v = asinh((u - center) / width), where the density of v is
    a polynomial.  Below the panels it is the exponential of rate
    ``tail_rate`` through the first node, the tail
    (center - u)^-(tail_rate + 1) of mass ``tail_mass``; above, zero.
    """

    center: float
    width: float
    edges: np.ndarray
    log_density: np.ndarray
    tail_rate: float

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

    def _u_cdf(self, u):
        """The CDF of u and its density dF/du, at each u."""
        v = np.arcsinh((np.asarray(u, dtype=float) - self.center) / self.width)
        cdf, density = self._at(v)
        return cdf, density / (self.width * np.cosh(v))

    def _u_density(self, u):
        """dF/du at each u."""
        return self._u_cdf(u)[1]

    def u_quantile(self, q):
        """u at each level of q, by Newton steps in v from the CDF
        interpolated between nodes (closed form in the tail)."""
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

    def _node_u(self):
        return self.center + self.width * np.sinh(self._v)

    def mean_exp(self, scale: float) -> float:
        """E[scale e^u], in log space: e^u alone can overflow where the
        weight is tiny."""
        with np.errstate(divide="ignore"):
            return float(np.exp(np.logaddexp.reduce(np.log(self._weights) + self._node_u(),
                                                    axis=None)) * scale)

    def mean_expit(self) -> float:
        """E[expit(u)]."""
        return float(np.sum(self._weights * expit(self._node_u())))


# the quantities a LawView shows: W = V e^u, Z = V + W and W/Z = expit(u)
VIEWS = ("W", "Z", "W/Z")


@dataclass(frozen=True, eq=False)
class LawView:
    """The law of W = scale e^u, Z = scale + W or W/Z = expit(u)
    (``which``) for u drawn from ``law``, a law of u = log(W / scale).

    A view is only that map: it answers ``quantile``, ``cdf``,
    ``log_pdf`` and ``mean`` of its quantity.  The views of one law share
    it, and with it its CDF table; what belongs to the law (its parameters,
    ``u_quantile``, ``table``, ``mass_check``) is read from ``law``.
    """

    law: object
    scale: float
    which: str = "W"

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.which not in VIEWS:
            raise ValueError(f"which must be one of {VIEWS}")

    def quantile(self, q):
        # u is a float for a single level, an array for an array of levels
        u = self.law.u_quantile(q)
        if self.which == "W/Z":
            x = expit(u)
        else:
            x = self.scale * np.exp(u)
            if self.which == "Z":
                x = self.scale + x
        return float(x) if isinstance(u, float) else x

    def _u_and_log_slope(self, x):
        """u at x and log |dx/du|: log W for W and Z, log(s (1 - s)) for
        s = W/Z."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            if self.which == "W/Z":
                log_s, log_1ms = np.log(x), np.log1p(-x)
                return log_s - log_1ms, log_s + log_1ms
            w = x if self.which == "W" else x - self.scale
            return np.log(w / self.scale), np.log(w)

    def cdf(self, x):
        return self.law._u_cdf(self._u_and_log_slope(x)[0])[0][()]

    def log_pdf(self, x):
        u, log_slope = self._u_and_log_slope(x)
        with np.errstate(divide="ignore"):
            return (np.log(np.maximum(self.law._u_density(u), 0.0)) - log_slope)[()]

    @property
    def mean(self) -> float:
        if self.which == "W/Z":
            return self.law.mean_expit()
        w = self.law.mean_exp(self.scale)
        return w if self.which == "W" else w + self.scale
