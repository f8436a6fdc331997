"""Model-free estimators of the missing mass W and total mass Z.

Self-consistent estimators built from inverse probability weighting and
Rao-Blackwellization.  A point i with mass p(i) enters the sample with
inclusion probability

    pi(i; Z) = 1 - (1 - p(i)/Z)^N      (fixed sample size N)
    pi(i; Z) = 1 - exp(-N p(i) / Z)    (Poisson sampling, lambda = N/Z)

and weighting observed masses by 1/pi gives estimating equations for Z.
Every such equation here (IPW, the mixture, the Rao-Blackwellized Z
equations, the nonlinear harmonic mean and, through lambda = N / Z, the
saddle-point rate) falls through zero once in Z and is solved by one
search from V, with one set of verdicts: all sampled points are
singletons, no finite solution (+inf), or a boundary solution at the
lower limit of Z (0).  Each q / pi term takes its limit q Z / (N p) where
pi underflows, so masses may span the float range.
Exact Rao-Blackwellization replaces the observed counts by their
expectation under the truncated multinomial given (S, p on S, N): a ratio
of two DFT coefficients after tilting the counts to zero-truncated
Poisson(lambda p) at the saddle-point rate lambda.  The saddle-point
approximation keeps only the tilt: v = lambda p / (1 - exp(-lambda p)).

All estimators are equivariant under rescaling of p, and the purely
self-consistent ones are uninformative (+inf) when every sampled point is
a singleton.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import Observation
from .solvers import solve_root
from .special import log_gamma

PI_FORMS = ("poisson", "fixed-n")

# a Z equation whose root lies above this multiple of its scale (V, plus
# the known anchor of a mixture) has no finite solution; the cap scales
# with p, so the verdict and the work done to reach it do too
_UPPER_CAP = 1e18
# the verdicts every Z equation shares
_SINGLETONS = "all sampled points are singletons"
_NO_SOLUTION = "no finite solution"
_BOUNDARY = "boundary: solution at or below the lower limit of Z"
# a rate lambda p, N p / Z or an inclusion probability below the smallest
# normal double takes its small-rate limit; above _MU_BIG, exp(-lambda p z)
# can overflow where Re z < 0
_MU_TINY, _MU_BIG = np.finfo(float).tiny, 700.0


@dataclass(frozen=True)
class EstimateResult:
    value: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True, eq=False)
class RBWeights:
    """Expected counts v(i) given (S, p on S, N), concentrated on S.

    ``log_f_n`` is the log of the truncated multinomial normalizer; None
    for the Poisson approximation, which does not fix N.
    """

    v: dict[int, float]
    log_f_n: float | None = None

    def aligned(self, obs: Observation) -> np.ndarray:
        return np.array([self.v[int(i)] for i in obs.indices])


def inclusion_probability(p, n: int, z, form: str = "poisson"):
    """First-order inclusion probability pi(i; Z), vectorized over p."""
    p = np.asarray(p, dtype=float)
    if form == "poisson":
        return -np.expm1(-n * p / z)
    if form == "fixed-n":
        # p = z gives log1p(-1) = -inf and inclusion exactly 1
        with np.errstate(divide="ignore"):
            return -np.expm1(n * np.log1p(-np.minimum(p / z, 1.0)))
    raise ValueError(f"unknown inclusion form {form!r}")


def _over_pi(p: np.ndarray, n: int, form: str):
    """The map (q, Z) -> q / pi(i; Z) over the sampled masses p.

    q is an array over S, or has S as its last axis.  Where pi underflows
    below the smallest normal double, q / pi takes its small-rate limit
    q Z / (N p), which is finite even where 1 / pi is not.
    """
    low = int(p.argmin())  # pi rises with p, so it is smallest here

    def over_pi(q, z):
        incl = inclusion_probability(p, n, z, form)
        if incl[low] >= _MU_TINY:
            return q / incl
        return np.divide(q, incl, out=q / p * (z / n), where=incl >= _MU_TINY)

    return over_pi


def _solve_z(f, obs: Observation, form: str, diag: dict, scale: float | None = None) -> float:
    """Root in Z of an estimating equation f, positive below its root and
    negative above it.

    From V the search doubles Z until f turns negative or, where f(V) < 0,
    takes the one bracket down to the lower limit of Z: V 1e-12, or just
    above max p under fixed-n, where pi(i; Z) reaches 1.  Brent's method
    refines the bracket.  Past _UPPER_CAP * scale (V by default) the
    verdict is _NO_SOLUTION (+inf); with f(limit) <= 0 it is _BOUNDARY (0).
    diag gets the evaluations, the bracket steps and, for a root, the
    plugged-back residual.  Each Z is evaluated once: the bracket ends and
    the root Brent's method returns are points already evaluated.
    """
    diag.update(evals=0, iterations=0)
    seen: dict = {}

    def counted(z):
        if z not in seen:
            diag["evals"] += 1
            seen[z] = f(z)
        return seen[z]

    v = obs.v
    fv = counted(v)
    if fv == 0.0:
        diag["residual"] = 0.0
        return v
    if fv > 0.0:
        hi = 2.0 * v
        diag["iterations"] = 1
        while counted(hi) > 0.0:
            hi *= 2.0
            diag["iterations"] += 1
            if hi > _UPPER_CAP * (v if scale is None else scale):
                diag["reason"] = _NO_SOLUTION
                return math.inf
        bracket = (hi / 2.0, hi)
    else:
        limit = v * 1e-12
        if form == "fixed-n":
            limit = max(float(obs.p_obs.max()) * (1 + 1e-12), limit)
        diag["iterations"] = 1
        if limit >= v or counted(limit) <= 0.0:
            diag["reason"] = _BOUNDARY
            return 0.0
        bracket = (limit, v)
    root = solve_root(counted, bracket)
    diag["residual"] = float(counted(root))
    return root


def _solve_ipw(obs: Observation, q: np.ndarray, c: float, form: str,
               diag: dict) -> float:
    """Z solving Z = c + sum_S q(i) / pi(i; Z); the right side over Z falls
    in Z, so the root is unique and, for q <= p and c >= 0, at least V."""
    over_pi = _over_pi(obs.p_obs, obs.n, form)
    return _solve_z(lambda z: c + float(over_pi(q, z).sum()) - z, obs, form, diag,
                    scale=obs.v + c)


def _ipw(obs: Observation, form: str, method: str) -> EstimateResult:
    if obs.m < 1:
        raise ValueError("no observations")
    if obs.m == obs.n:
        return EstimateResult(math.inf, method, {"reason": _SINGLETONS})
    diag: dict = {}
    root = _solve_ipw(obs, obs.p_obs, 0.0, form, diag)
    return EstimateResult(root, method, diag)


def ipw_fixed_n(obs: Observation) -> EstimateResult:
    """Z solving Z = sum_S p(i) / (1 - (1 - p(i)/Z)^N).

    The inverse-probability-weighted sum is unbiased at the true Z; taking
    the identity as an equation gives the estimator.  M = N has no finite
    solution.
    """
    return _ipw(obs, "fixed-n", "ipw-fixed-n")


def ipw_poisson(obs: Observation) -> EstimateResult:
    """Z solving Z = sum_S p(i) / (1 - exp(-N p(i)/Z))."""
    return _ipw(obs, "poisson", "ipw-poisson")


# ---------------------------------------------------------------------------
# exact Rao-Blackwellization by a saddle-point-tilted DFT

# rb_exact's M-by-frequency complex temporaries stay within 1 MB each
_BLOCK_ELEMS = 1 << 16


def _ztp_mean(mu: np.ndarray) -> np.ndarray:
    """mu / (1 - exp(-mu)), with its limit 1 where mu underflows to 0 (the
    clamp changes nothing else: the ratio rounds to 1 below 2^-53)."""
    mu = np.maximum(mu, _MU_TINY)
    return mu / -np.expm1(-mu)


def rb_exact(obs: Observation) -> RBWeights:
    """Exact Rao-Blackwell weights v(i) = E(c(i) | S, p on S, N).

    Tilted at the rate lambda of rb_poisson_lambda, the counts are
    zero-truncated Poisson(mu_j = lambda p(j)) with a total S of mean N.
    With K(i) ~ Poisson(mu_i), the weights and the normalizer F_N are

        v(i)    = mu_i / (1 - e^-mu_i) P(S_-i + K(i) = N - 1) / P(S = N)
        log F_N = log N! - N log lambda + sum_j log(e^mu_j - 1) + log P(S = N)

    Each probability is one coefficient of an L = 2N + 64 point DFT (the
    aliased S >= L has relative mass below 1e-19) of a product of
    characteristic functions in complex log space, over the half circle.
    Leave-one-out products are prefix plus suffix sums, never a division
    by a factor, which can vanish on the circle.  O(M N) time in column
    blocks.  M = N (v = 1) and M = 1 (v = N) are closed forms.
    """
    m, n = obs.m, obs.n
    if m < 1:
        raise ValueError("no observations")
    p = obs.p_obs
    log_n_fact = log_gamma(float(n + 1))
    if m == n:
        return RBWeights(v={int(i): 1.0 for i in obs.indices},
                         log_f_n=float(log_n_fact + np.sum(np.log(p))))
    if m == 1:
        return RBWeights(v={int(obs.indices[0]): float(n)}, log_f_n=n * math.log(p[0]))
    lam = rb_poisson_lambda(obs)
    mu = lam * p
    size, half, cols = 2 * n + 64, n + 32, max(1, _BLOCK_ELEMS // m)
    total, loo = 0.0, np.zeros(m)
    for k in range(0, half + 1, cols):
        l = np.arange(k, min(k + cols, half + 1))
        theta = (2.0 * math.pi / size) * l
        zm1 = np.expm1(1j * theta)
        z, poisson = zm1 + 1.0, mu[:, None] * zm1
        # g = log(phi_j(z) / z) for the cf phi = e^{mu(z-1)} (1 - e^{-mu z})
        # / (1 - e^{-mu}), the ratio taken before its log so no log mu cancels
        w = mu[:, None] * z
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = poisson + np.log(np.expm1(-w) / (z * np.expm1(-mu)[:, None]))
        r, c = np.nonzero((w.real < 0.0) & (mu[:, None] > _MU_BIG))
        g[r, c] = np.log(np.expm1(w[r, c])) - mu[r] - 1j * theta[c]
        g[mu < _MU_TINY] = 0.0  # phi(z) = z
        prefix = np.cumsum(g, axis=0)
        suffix = np.cumsum(g[::-1], axis=0)[::-1]
        # z^-(N - M) reduced exactly; a real coefficient counts inner columns twice
        shift = (-2j * math.pi / size) * ((n - m) * l % size)
        weight = np.where((l == 0) | (l == half), 1.0, 2.0)
        total += np.exp(prefix[-1] + shift).real @ weight
        others = poisson + shift
        others[1:] += prefix[:-1]
        others[:-1] += suffix[1:]
        loo += np.exp(others).real @ weight
    ztp = _ztp_mean(mu)
    vals = np.where(mu < _MU_TINY, 1.0, ztp * loo / total)
    # sum_j log(e^mu_j - 1) - M log lambda = sum_j (log p_j + mu_j - log ztp_j)
    log_f_n = (log_n_fact + (m - n) * math.log(lam) + math.log(total / size)
               + float(np.sum(np.log(p) + mu - np.log(ztp))))
    return RBWeights(v={int(i): float(val) for i, val in zip(obs.indices, vals)},
                     log_f_n=log_f_n)


def rb_poisson_lambda(obs: Observation) -> float:
    """The rate lambda solving N = sum_S lambda p(i) / (1 - exp(-lambda p(i))).

    With lambda = N / Z this is the Poisson IPW equation, so lambda is
    N / ipw_poisson(obs) and shares its root; M = N (Z = +inf) gives
    lambda = 0.
    """
    return obs.n / ipw_poisson(obs).value


def rb_poisson_weights(obs: Observation) -> RBWeights:
    """Saddle-point approximation v(i) = lambda p(i) / (1 - exp(-lambda p(i))),
    with v = N exactly, the identity lambda solves, for a single point."""
    vals = [obs.n] if obs.m == 1 else _ztp_mean(rb_poisson_lambda(obs) * obs.p_obs)
    return RBWeights(v={int(i): float(val) for i, val in zip(obs.indices, vals)})


def rb_mean_estimate(obs: Observation, f: Mapping[int, float],
                     weights: RBWeights) -> float:
    """Rao-Blackwellized sample mean (1/N) sum_S v(i) f(i)."""
    vals = np.array([f[int(i)] for i in obs.indices])
    return float(np.dot(weights.aligned(obs), vals)) / obs.n


def rb_z_equation(obs: Observation, weights: RBWeights,
                  variant: str = "V_over_Z", pi: str = "poisson") -> EstimateResult:
    """Z from the Rao-Blackwellized harmonic-mean style equations.

    variant "V_over_Z": V/Z = (1/N) sum_S v(i) pi(i; Z)
    variant "M_over_Z": M/Z = (1/N) sum_S v(i) pi(i; Z) / p(i)

    Both sides are evaluated with V (or M) observed, leaving a nonlinear
    equation for Z.  M = N leaves the equations uninformative (+inf).
    """
    if variant not in ("V_over_Z", "M_over_Z"):
        raise ValueError(f"unknown variant {variant!r}")
    method = f"rb-z-{variant}"
    if obs.m == obs.n:
        return EstimateResult(math.inf, method, {"reason": _SINGLETONS})
    p, n, v_obs, m_obs = obs.p_obs, obs.n, obs.v, obs.m
    w = weights.aligned(obs)
    diag: dict = {}

    # each residual falls in Z
    if variant == "V_over_Z":
        def f(z):
            return v_obs - float(z / n * np.dot(w, inclusion_probability(p, n, z, pi)))
    else:
        # pi / p as the reciprocal of p / pi, which keeps its limit Z / N
        over_pi = _over_pi(p, n, pi)

        def f(z):
            return m_obs - float(z / n * np.dot(w, 1.0 / over_pi(p, z)))

    return EstimateResult(_solve_z(f, obs, pi, diag), method, diag)


# ---------------------------------------------------------------------------
# Good-Turing family

GoodTuringClassic = namedtuple("GoodTuringClassic", ["w_over_z", "z", "w"])
GoodTuringRB = namedtuple("GoodTuringRB", ["z", "w", "w_over_z"])


def good_turing_classic(obs: Observation) -> GoodTuringClassic:
    """The classic estimator W/Z = Phi_1 / N with the implied Z and W.

    Z = V N / (N - Phi_1) and W = V Phi_1 / (N - Phi_1); all singletons
    (Phi_1 = N) push Z and W to infinity.
    """
    if obs.m < 1:
        raise ValueError("no observations")
    phi1 = int(np.sum(obs.counts == 1))
    n, v = obs.n, obs.v
    if phi1 == n:
        return GoodTuringClassic(1.0, math.inf, math.inf)
    w_over_z = phi1 / n
    z = v * n / (n - phi1)
    w = v * phi1 / (n - phi1)
    return GoodTuringClassic(w_over_z, z, w)


def good_turing_rb(obs: Observation) -> GoodTuringRB:
    """Rao-Blackwellized Good-Turing in the Poisson approximation.

    Z solves Z = sum_S p(i) / (1 - exp(-N p(i)/Z)) (the Poisson IPW fixed
    point) and W = sum_S p(i) / (exp(N p(i)/Z) - 1), which equals Z - V
    identically.  N = M is singular: Z, W -> inf with W/Z = 1.
    """
    if obs.m == obs.n:
        return GoodTuringRB(math.inf, math.inf, 1.0)
    p, n = obs.p_obs, obs.n
    z = ipw_poisson(obs).value
    # p / (e^{N p / Z} - 1) = p e^{-N p / Z} / pi(i; Z)
    w = float(_over_pi(p, n, "poisson")(p * np.exp(-n * p / z), z).sum())
    return GoodTuringRB(z, w, w / z)


def good_toulmin_rb(obs: Observation, lam: float) -> float:
    """Rao-Blackwellized Good-Toulmin estimate of W/Z.

    sum_S (1 - exp(-lambda p(i)/N)) / (exp(lambda p(i)) - 1), with lambda
    from rb_poisson_lambda.  lambda = 0 is the degenerate all-singleton
    limit in which every term tends to 1/N and the sum to 1.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 1.0
    lp = lam * obs.p_obs
    return float(np.sum(-np.expm1(-lp / obs.n) / np.expm1(lp)))


def expected_phi(obs: Observation, lam: float, k: int) -> float:
    """E(Phi_k) = sum_S (lambda p(i))^k / k! / (exp(lambda p(i)) - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lp = lam * obs.p_obs
    # log(e^x - 1) = x + log1p(-e^-x)
    log_terms = k * np.log(lp) - log_gamma(float(k + 1)) - lp - np.log1p(-np.exp(-lp))
    return float(np.sum(np.exp(log_terms)))


# ---------------------------------------------------------------------------
# harmonic mean / reciprocal importance sampling


def harmonic_mean(obs: Observation, h: Mapping[int, float], H: float,
                  mode: str = "classic", weights: RBWeights | None = None,
                  pi: str = "poisson") -> EstimateResult:
    """Harmonic mean estimators of Z anchored on a known total H = sum h.

    mode "classic":       Z = N H / sum_S c(i) h(i) / p(i)
    mode "rb_linear":     Z = N H / sum_S v(i) h(i) / p(i)
    mode "ipw_nonlinear": H = sum_S h(i) / pi(i; Z) solved for Z

    The nonlinear equation is solved like every other Z equation here, with
    the same verdicts: where the sampled h already reach H at Z = V the
    root lies below V, and at the lower limit of Z it is the boundary
    verdict (Z = 0).  Terms with p(i)/Z << h(i)/H give the estimator
    unbounded variance; that pathology is reported through the
    variance_indicator diagnostic (min over S of (p(i)/h(i)) (H/Z)), not
    mitigated.
    """
    if H <= 0:
        raise ValueError("H must be positive")
    hv = np.array([h[int(i)] for i in obs.indices], dtype=float)
    if np.any(hv < 0):
        raise ValueError("h must be nonnegative")
    p, n = obs.p_obs, obs.n
    method = f"harmonic-mean-{mode}"
    diag: dict = {}

    if mode in ("classic", "rb_linear"):
        if mode == "classic":
            denom = float(np.dot(obs.counts, hv / p))
        else:
            if weights is None:
                raise ValueError("rb_linear mode requires RBWeights")
            denom = float(np.dot(weights.aligned(obs), hv / p))
        if denom == 0.0:
            return EstimateResult(math.inf, method, {"reason": "zero denominator"})
        z = n * H / denom
    elif mode == "ipw_nonlinear":
        over_pi = _over_pi(p, n, pi)
        z = _solve_z(lambda z: H - float(over_pi(hv, z).sum()), obs, pi, diag)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if z > 0 and np.all(hv > 0):
        diag["variance_indicator"] = float(np.min(p / hv * (H / z)))
    return EstimateResult(z, method, diag)


# ---------------------------------------------------------------------------
# mixture sampling strategies

MixtureResult = namedtuple("MixtureResult", ["z", "R", "R_rb"])


def mixture_estimate(obs: Observation, r_components, w, gamma: float,
                     h: Mapping[int, float] | None = None, H: float | None = None,
                     weights: RBWeights | None = None,
                     pi: str = "poisson") -> MixtureResult:
    """Z and the component totals R(j) for sampling from a mixture.

    The sampled distribution is p(i) = sum_j r(i, j) w(j), and a part of
    it with known total H = sum h, such as h(i) = w(0) r(i, 0), anchors Z
    at both ends through the control-variate equation

        Z = gamma H + sum_S (p(i) - gamma h(i)) / pi(i; Z)

    which is unbiased at the true Z for every gamma in [0, 1].  With
    gamma h <= p, which every mixture component satisfies, each term of
    (right side) / Z falls in Z, so the root is unique; since pi <= 1 and
    H >= sum_S h it is never below V.  gamma = 0 is the IPW estimator;
    gamma = 1 is the known total H plus the IPW estimate of the remainder
    p - h.  The pure harmonic anchor H = sum_S h / pi(i; Z) is
    harmonic_mean(mode="ipw_nonlinear").  M = N has no finite root only
    where gamma sum_S h = 0.  Component totals are recovered by IPW,
    R(j) = sum_S r(i, j) / pi(i; Z), plus the v-weighted form when
    Rao-Blackwell weights are supplied.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    r = np.asarray(r_components, dtype=float)
    w = np.asarray(w, dtype=float)
    if r.ndim != 2 or r.shape[0] != obs.m or r.shape[1] != len(w):
        raise ValueError("r_components must have shape (M, J) matching w")
    p, n = obs.p_obs, obs.n
    tol = 1e-9 * np.maximum(p, 1e-300)
    if np.any(np.abs(r @ w - p) > tol):
        raise ValueError("inconsistent mixture decomposition: r @ w != p")
    gh, c = np.zeros(obs.m), 0.0
    if gamma > 0.0:
        if h is None or H is None or H <= 0:
            raise ValueError("gamma > 0 requires the anchor h and H > 0")
        gh = gamma * np.array([h[int(i)] for i in obs.indices], dtype=float)
        if np.any(gh - p > tol):
            raise ValueError("gamma h exceeds p: the equation is not monotone")
        c = gamma * H

    method = f"mixture-gamma-{gamma:g}"
    diag: dict = {"gamma": gamma}
    if obs.m == obs.n and not np.any(gh):
        diag["reason"] = _SINGLETONS
        z = math.inf
    else:
        # the clamp absorbs rounding in gamma h <= p; at gamma = 0, q is p
        z = _solve_ipw(obs, np.maximum(p - gh, 0.0), c, pi, diag)
    R, R_rb = np.full(len(w), math.inf), None
    if math.isfinite(z):
        R = _over_pi(p, n, pi)(r.T, z).sum(axis=1)
        if weights is not None:
            R_rb = np.asarray(r.T @ (weights.aligned(obs) / p)) * z / n
    return MixtureResult(EstimateResult(z, method, diag), R, R_rb)
