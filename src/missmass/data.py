"""Domain containers: synthetic truth, observations, summary statistics.

A Dataset is the full synthetic truth (base measure x, masses p, counts c
over the whole domain).  An Observation is what the analyst sees: the
domain size, the base measure, and (index, mass, count) for every point
sampled at least once.  All types are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# proportionality detection: max-min spread of log(p(i)/x(i)) over the
# sample below this tolerance is treated as the singular case
PROPORTIONALITY_TOL = 1e-10

_X_SUM_TOL = 1e-12

# The log-Gamma terms of the reduced likelihoods (likelihoods.py) are
# w log Gamma(alpha s + o) over the columns of one term table,
#
#     N      alpha  alpha Y | x(i)     | alpha X + N  alpha + N  alpha  N
#     (0, N) (1, 0) (Y, 0)  | (x, 0)   | (X, N)       (1, N)     (1, 0) (0, N)
#     w = 1  1      -1      | -count   | 1            -1         1      1
#
# with one column per distinct sampled x.  The terms of each likelihood's
# log value, and of its alpha derivatives, which drop the constant
# log Gamma(N), are one run of columns: TERM_RUNS[name][k] is the slice
# of the run for the k-th derivative, whose weights are w s^k.  Only the
# runs of L4 and L8 hold the alpha Y column, which needs Y > 0.
TERM_RUNS = {"L4": (slice(0, -4), slice(1, -4), slice(1, -4)),
             "L5": (slice(3, None), slice(3, -1), slice(3, -1)),
             "L8": (slice(2, -4),) * 3,
             "L9": (slice(3, -2),) * 3,
             "L11": (slice(3, -4),) * 3}
# the columns of the term table by name, the x columns as one
_COLUMNS = ("N", "alpha", "alpha Y", "x", "alpha X + N", "alpha + N", "alpha", "N")


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Full synthetic truth: base measure x, masses p, integer counts c."""

    x: np.ndarray
    p: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        x = _as_float_vector(self.x, "x")
        p = _as_float_vector(self.p, "p")
        c = np.asarray(self.c)
        if c.ndim != 1:
            raise ValueError("c must be one-dimensional")
        if not np.issubdtype(c.dtype, np.integer):
            ci = np.asarray(np.rint(c), dtype=np.int64)
            if not np.allclose(c, ci):
                raise ValueError("c must contain integers")
            c = ci
        if not (len(x) == len(p) == len(c) >= 1):
            raise ValueError("x, p, c must have equal length >= 1")
        if np.any(x < 0) or np.any(p < 0) or np.any(c < 0):
            raise ValueError("x, p, c must be nonnegative")
        if abs(float(x.sum()) - 1.0) > _X_SUM_TOL:
            raise ValueError("x must sum to 1")
        if np.any((x == 0) & (p != 0)):
            raise ValueError("x(i) = 0 requires p(i) = 0")
        if np.any((p == 0) & (c != 0)):
            raise ValueError("p(i) = 0 requires c(i) = 0")
        for name, arr in (("x", x), ("p", p), ("c", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def z(self) -> float:
        return float(self.p.sum())

    def observe(self) -> "Observation":
        """Restrict to the sampled points; what the analyst gets to see."""
        idx = np.nonzero(self.c >= 1)[0]
        return Observation(domain_size=len(self.x), x=self.x,
                           indices=idx, p_obs=self.p[idx], counts=self.c[idx])

    def to_json(self) -> dict:
        # the observation format plus the full p and c arrays
        obj = self.observe().to_json()
        obj["p"] = self.p.tolist()
        obj["c"] = self.c.tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Dataset":
        return cls(x=obj["x"], p=obj["p"], c=obj["c"])


@dataclass(frozen=True, eq=False)
class Observation:
    """Sampled points with revealed masses, plus the known base measure."""

    domain_size: int
    x: np.ndarray
    indices: np.ndarray
    p_obs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        x = _as_float_vector(self.x, "x")
        if len(x) != self.domain_size:
            raise ValueError("x must have domain_size entries")
        if abs(float(x.sum()) - 1.0) > _X_SUM_TOL:
            raise ValueError("x must sum to 1")
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1)
        p = _as_float_vector(self.p_obs, "p_obs")
        c = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if not (len(idx) == len(p) == len(c)):
            raise ValueError("indices, p_obs, counts must have equal length")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.domain_size):
            raise ValueError("indices out of range")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("indices must be distinct")
        if np.any(c < 1):
            raise ValueError("every observed count must be >= 1")
        if np.any(p <= 0):
            raise ValueError("every observed mass must be positive")
        if np.any(x[idx] <= 0):
            raise ValueError("observed points must have positive base measure")
        for name, arr in (("x", x), ("indices", idx), ("p_obs", p), ("counts", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_entries(cls, domain_size: int, x: Sequence[float],
                     entries: Iterable[tuple[int, float, int]]) -> "Observation":
        entries = list(entries)
        idx = [e[0] for e in entries]
        p = [e[1] for e in entries]
        c = [e[2] for e in entries]
        return cls(domain_size=domain_size, x=np.asarray(x, float),
                   indices=np.asarray(idx, np.int64),
                   p_obs=np.asarray(p, float), counts=np.asarray(c, np.int64))

    @property
    def entries(self) -> list[tuple[int, float, int]]:
        return [(int(i), float(p), int(c))
                for i, p, c in zip(self.indices, self.p_obs, self.counts)]

    @property
    def x_obs(self) -> np.ndarray:
        """Base measure restricted to the sampled points."""
        return self.x[self.indices]

    @property
    def m(self) -> int:
        return len(self.indices)

    # the arrays are read-only, so each total is summed once
    @cached_property
    def n(self) -> int:
        return int(self.counts.sum())

    @cached_property
    def v(self) -> float:
        return float(self.p_obs.sum())

    def to_json(self) -> dict:
        return {"domain_size": int(self.domain_size),
                "x": self.x.tolist(),
                "entries": [{"i": int(i), "p": float(p), "c": int(c)}
                            for i, p, c in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Observation":
        entries = [(e["i"], e["p"], e["c"]) for e in obj["entries"]]
        return cls.from_entries(obj["domain_size"], obj["x"], entries)


def load_observation(path: str) -> Observation:
    with open(path) as fh:
        obj = json.load(fh)
    if "entries" in obj:
        return Observation.from_json(obj)
    # a full dataset file also serves as an observation source
    return Dataset.from_json(obj).observe()


def _term_table(x_values: np.ndarray, x_counts: np.ndarray, n: int, x_sum: float,
                y: float) -> np.ndarray:
    """SummaryStats.terms: the rows s, o, w, w s, w s^2 of the term table."""
    scales = np.concatenate([[0.0, 1.0, y], x_values, [x_sum, 1.0, 1.0, 0.0]])
    offsets = np.concatenate([[n, 0.0, 0.0], np.zeros(len(x_values)), [n, n, 0.0, n]])
    w = np.concatenate([[1.0, 1.0, -1.0], -x_counts, [1.0, -1.0, 1.0, 1.0]])
    table = np.stack([scales, offsets, w, w * scales, w * scales ** 2])
    table.setflags(write=False)
    return table


class TermRun(NamedTuple):
    """One run of term-table columns (TERM_RUNS) as contiguous vectors:
    scales s, offsets o and weights w s^k.

    Every column has s >= 0, o >= 0 and s + o > 0, and o > 0 makes
    alpha s + o positive at any alpha > 0.  ``s_min`` is the smallest s of
    the run's o = 0 columns: those of x (the smallest is x_values[0], at
    most 1), of alpha (s = 1) and of alpha Y.  Float multiplication is
    monotone in each factor, so every alpha s + o of the run is positive
    exactly when min(alpha) s_min > 0, NaN, zero, negative and
    underflowing alpha included.  ``has_constant`` marks the s = 0 column
    log Gamma(N), where alpha = inf gives inf * 0 = NaN.
    """

    scales: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    s_min: float
    has_constant: bool


@dataclass(frozen=True)
class SummaryStats:
    """Derived statistics of an observation.

    M distinct sampled points, N total count, V observed mass,
    U = sum x(i) log p(i), T = sum x(i) log x(i), X = sum x(i) (all over
    the sample), Y = 1 - X (0 exactly when every point of positive x is
    sampled), phi[k] = number of points sampled exactly k times, and
    delta_S, the scaled KL divergence between x and p restricted to the
    sample.  ``spread`` is the max-min spread of log(p(i)/x(i)),
    the proportionality criterion the inference routes branch on.

    ``x_values`` are the distinct values of x on the sample, ascending, and
    ``x_counts`` their multiplicities (as floats, since they weight sums):
    the model sees the sampled base measure only through this multiset, so
    every sum over the sample of a function of x(i) alone runs over them.

    ``U_rel`` = U - X log V = sum_S x(i) log(p(i) / V), unchanged when p
    is rescaled.  ``terms`` is the term table of the reduced likelihoods
    (TERM_RUNS): the k-th alpha derivative of log L``name``, for L4, L5,
    L8, L9 and L11, is sum_j w_j s_j^k f_k(alpha s_j + o_j) over its run
    of columns plus terms elementary in alpha, with f_0 = log Gamma,
    f_1 = digamma and f_2 = trigamma.  ``term_run`` gives one run as
    vectors, built on first use.
    """

    M: int
    N: int
    V: float
    U: float
    T: float
    X: float
    Y: float
    U_rel: float
    phi: dict[int, int] = field(compare=False)
    x_values: np.ndarray = field(compare=False)
    x_counts: np.ndarray = field(compare=False)
    terms: np.ndarray = field(compare=False)
    delta_S: float = 0.0
    spread: float = 0.0

    @property
    def is_proportional(self) -> bool:
        """True when p is proportional to x on the sample (Delta_S = 0)."""
        return self.spread <= PROPORTIONALITY_TOL

    @property
    def proportional_scale(self) -> float:
        """The coefficient r with p = r x on the sample; meaningful only
        in the proportional case, where it equals V / X."""
        return self.V / self.X

    @cached_property
    def _term_runs(self) -> dict[tuple[str, int], TermRun]:
        return {}

    def term_run(self, name: str, order: int) -> TermRun:
        """The run of ``terms`` columns of the ``order``-th alpha derivative
        of log L``name`` (TERM_RUNS), built once per sample."""
        run = self._term_runs.get((name, order))
        if run is None:
            cols = TERM_RUNS[name][order]
            names = _COLUMNS[cols]
            s_min = float(self.x_values[0])
            if "alpha Y" in names:
                s_min = min(s_min, self.Y)
            run = self._term_runs[name, order] = TermRun(
                *(self.terms[row, cols] for row in (0, 1, 2 + order)), s_min, "N" in names)
        return run


def summarize(obs: Observation) -> SummaryStats:
    """Compute all derived statistics of an observation."""
    if obs.m == 0:
        raise ValueError("no observations")
    x = obs.x_obs
    p = obs.p_obs
    c = obs.counts
    log_p = np.log(p)
    log_x = np.log(x)
    M = obs.m
    N = int(c.sum())
    V = float(p.sum())
    U = float(np.dot(x, log_p))
    T = float(np.dot(x, log_x))
    X = float(x.sum())
    # with every point of positive x sampled nothing is unseen, though x
    # may sum to 1 less a rounding error
    Y = 0.0 if np.count_nonzero(obs.x > 0.0) == M else max(0.0, 1.0 - X)
    ks, cnt = np.unique(c, return_counts=True)
    phi = {int(k): int(n) for k, n in zip(ks, cnt)}
    x_values, x_counts = np.unique(x, return_counts=True)
    x_counts = x_counts.astype(float)
    x_values.setflags(write=False)
    x_counts.setflags(write=False)
    ratio = log_p - log_x
    spread = float(ratio.max() - ratio.min())
    if spread <= PROPORTIONALITY_TOL:
        delta_S = 0.0
    else:
        delta_S = max(0.0, T - X * np.log(X) - U + X * np.log(V))
    return SummaryStats(M=M, N=N, V=V, U=U, T=T, X=X, Y=Y,
                        U_rel=float(np.dot(x, log_p - np.log(V))), phi=phi,
                        x_values=x_values, x_counts=x_counts,
                        terms=_term_table(x_values, x_counts, N, X, Y),
                        delta_S=delta_S, spread=spread)
