"""Probability laws for the missing mass and derived quantities.

Closed forms (point mass, Gamma, Beta, Beta-prime), weighted mixtures of
Beta or Beta-prime atoms (the Bayes posterior is one), and a gridded
density (the profile curve).  Every law exposes ``mean`` and
``quantile(q)``; Beta and Beta-prime laws also take an array of levels,
Beta-prime laws expose ``cdf``, and gridded laws expose their density and
CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, expit, gammaincinv, log_expit

from .solvers import newton_bracketed
from .special import log_beta, log_gamma

GRID_NORM_TOL = 1e-6

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


@dataclass(frozen=True, eq=False)
class GriddedDist:
    """Density tabulated on a strictly increasing grid, trapezoid-normalized.

    ``log_norm`` records the log of the raw integral that was divided out,
    so callers can recover the unnormalized scale (e.g. an evidence value).
    """

    w_grid: np.ndarray
    density: np.ndarray
    log_norm: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.w_grid, dtype=float)
        dens = np.asarray(self.density, dtype=float)
        if grid.ndim != 1 or grid.shape != dens.shape or len(grid) < 3:
            raise ValueError("grid and density must be equal-length vectors")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        total = float(np.trapezoid(dens, grid))
        if abs(total - 1.0) > GRID_NORM_TOL:
            raise ValueError(f"density integrates to {total}, not 1")
        grid.setflags(write=False)
        dens.setflags(write=False)
        object.__setattr__(self, "w_grid", grid)
        object.__setattr__(self, "density", dens)
        # cumulative trapezoid, clipped monotone into [0, 1]
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "_cdf", cdf)

    @classmethod
    def from_log_density(cls, w_grid, log_density) -> "GriddedDist":
        grid = np.asarray(w_grid, dtype=float)
        logd = np.asarray(log_density, dtype=float)
        m = float(np.max(logd))
        if not np.isfinite(m):
            raise ValueError("log density has no finite values")
        raw = np.exp(logd - m)
        total = float(np.trapezoid(raw, grid))
        return cls(w_grid=grid, density=raw / total,
                   log_norm=math.log(total) + m)

    @property
    def cdf(self) -> np.ndarray:
        return self._cdf  # type: ignore[attr-defined]

    @property
    def mean(self) -> float:
        return float(np.trapezoid(self.w_grid * self.density, self.w_grid))

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError("quantile level must be in (0, 1)")
        cdf = self.cdf
        j = int(np.searchsorted(cdf, q, side="left"))
        j = min(max(j, 1), len(cdf) - 1)
        c0, c1 = cdf[j - 1], cdf[j]
        w0, w1 = self.w_grid[j - 1], self.w_grid[j]
        if c1 == c0:
            return float(w1)
        return float(w0 + (q - c0) / (c1 - c0) * (w1 - w0))


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

