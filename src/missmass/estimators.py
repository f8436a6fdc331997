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

Each estimator of Z returns an EstimateResult: Z, W = Z - V and W/Z from
its primary output (Z, or W/Z for Good-Turing; good_toulmin_rb gives W/Z
alone).  All are equivariant under rescaling of p, and the purely
self-consistent ones are +inf, with a reason, on all-singleton samples.
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
    """A point estimate: Z (``value``), W = Z - V and W/Z."""

    value: float
    w: float
    w_over_z: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    z = property(lambda self: self.value)  # read-only alias of value

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def _result(obs: Observation, method: str, diagnostics: dict, z: float | None = None,
            w: float | None = None, w_over_z: float | None = None) -> EstimateResult:
    """The estimate from Z, with W = Z - V and W/Z = 1 - V/Z where not
    given, or from W/Z alone, with Z = V / (1 - W/Z).  W/Z = 1, which the
    Good-Turing family reaches only on all singletons, and any infinite Z
    give W = inf and W/Z = 1; a boundary Z = 0 gives W/Z = nan."""
    v = obs.v if None in (z, w, w_over_z) else None
    if z is None:
        z = math.inf if w_over_z >= 1.0 else v / (1.0 - w_over_z)
        if math.isinf(z):
            diagnostics.setdefault("reason", _SINGLETONS)
    if not math.isfinite(z):
        return EstimateResult(z, math.inf, 1.0, method, diagnostics)
    w = z - v if w is None else w
    if w_over_z is None:
        w_over_z = 1.0 - v / z if z > 0 else math.nan
    return EstimateResult(z, w, w_over_z, method, diagnostics)


@dataclass(frozen=True, eq=False)
class RBWeights:
    """Expected counts v(i) given (S, p on S, N), concentrated on S.

    ``log_f_n`` is the log of the truncated multinomial normalizer; None
    for the Poisson approximation, which does not fix N.
    """

    v: dict[int, float]
    log_f_n: float | None = None

    def aligned(self, obs: Observation) -> np.ndarray:
        return _lookup(self.v, obs)


def _lookup(m: Mapping[int, float], obs: Observation) -> np.ndarray:
    """m at the sampled indices as floats (None gives NaN), looked up at
    C level: a missing index raises KeyError with that index."""
    return np.array(list(map(m.__getitem__, obs.indices.tolist())), dtype=float)


def _require_observations(obs: Observation) -> None:
    if obs.m < 1:
        raise ValueError("no observations")


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


def _inclusion(p: np.ndarray, n: int, form: str):
    """The map Z -> pi(i; Z) over the sampled masses p, for one solve.

    It runs inclusion_probability's ufuncs in the same order, so every
    value is the same bit for bit, but takes -N p once and writes each
    step into one buffer, which the next call overwrites.
    """
    buf = np.empty_like(p)
    if form == "poisson":
        neg_np = -n * p

        def incl(z):
            np.divide(neg_np, z, out=buf)
            np.expm1(buf, out=buf)
            return np.negative(buf, out=buf)
    elif form == "fixed-n":
        top = p.max()

        def incl(z):
            np.divide(p, z, out=buf)
            np.minimum(buf, 1.0, out=buf)
            np.negative(buf, out=buf)
            # only Z <= max p reaches log1p(-1) = -inf (inclusion exactly 1),
            # and entering errstate costs more than the log1p itself
            if z > top:
                np.log1p(buf, out=buf)
            else:
                with np.errstate(divide="ignore"):
                    np.log1p(buf, out=buf)
            np.multiply(n, buf, out=buf)
            np.expm1(buf, out=buf)
            return np.negative(buf, out=buf)
    else:
        raise ValueError(f"unknown inclusion form {form!r}")
    return incl


def _over_pi(p: np.ndarray, n: int, form: str):
    """The map (q, Z) -> q / pi(i; Z) over the sampled masses p.

    q is an array over S, or has S as its last axis.  Where pi underflows
    below the smallest normal double, q / pi takes its small-rate limit
    q Z / (N p), which is finite even where 1 / pi is not, and +inf past
    the float range.  A q over S is divided into _inclusion's buffer,
    which the next call overwrites.
    """
    low = int(p.argmin())  # pi rises with p, so it is smallest here
    pi = _inclusion(p, n, form)

    def over_pi(q, z):
        incl = pi(z)
        if incl[low] >= _MU_TINY:
            return np.divide(q, incl, out=incl if q.shape == incl.shape else None)
        with np.errstate(over="ignore"):
            limit = q / p * (z / n)
        return np.divide(q, incl, out=limit, where=incl >= _MU_TINY)

    return over_pi


def _solve_z(f, obs: Observation, form: str, diag: dict, c: float = 0.0) -> float:
    """Root in Z of an estimating equation f, positive below its root and
    negative above it.

    From V the search doubles Z until f turns negative or, where f(V) < 0,
    takes the one bracket down to the lower limit of Z: V 1e-12, or just
    above max p under fixed-n, where pi(i; Z) reaches 1.  Brent's method
    refines the bracket.  Past _UPPER_CAP (V + c), c a mixture's known anchor,
    the verdict is _NO_SOLUTION (+inf); with f(limit) <= 0 it is _BOUNDARY (0).
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
            if hi > _UPPER_CAP * (v + c):
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
    return _solve_z(lambda z: c + float(np.add.reduce(over_pi(q, z))) - z,
                    obs, form, diag, c)


def _ipw(obs: Observation, form: str, method: str) -> EstimateResult:
    _require_observations(obs)
    if obs.m == obs.n:
        return _result(obs, method, {"reason": _SINGLETONS}, math.inf)
    diag: dict = {}
    return _result(obs, method, diag, _solve_ipw(obs, obs.p_obs, 0.0, form, diag))


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
    _require_observations(obs)
    m, n = obs.m, obs.n
    p = obs.p_obs
    log_n_fact = log_gamma(float(n + 1))
    if m == n:
        return RBWeights(v=dict.fromkeys(obs.indices.tolist(), 1.0),
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
    return RBWeights(v=dict(zip(obs.indices.tolist(), vals.tolist())), log_f_n=log_f_n)


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
    if obs.m == 1:
        vals = [float(obs.n)]
    else:
        vals = _ztp_mean(rb_poisson_lambda(obs) * obs.p_obs).tolist()
    return RBWeights(v=dict(zip(obs.indices.tolist(), vals)))


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
    _require_observations(obs)
    method = f"rb-z-{variant}"
    if obs.m == obs.n:
        return _result(obs, method, {"reason": _SINGLETONS}, math.inf)
    p, n, v_obs, m_obs = obs.p_obs, obs.n, obs.v, obs.m
    w = weights.aligned(obs)
    diag: dict = {}

    # each residual falls in Z
    if variant == "V_over_Z":
        incl = _inclusion(p, n, pi)

        def f(z):
            return v_obs - float(z / n * np.dot(w, incl(z)))
    else:
        # pi / p as the reciprocal of p / pi, which keeps its limit Z / N
        over_pi = _over_pi(p, n, pi)

        def f(z):
            p_over_pi = over_pi(p, z)
            return m_obs - float(z / n * np.dot(w, np.divide(1.0, p_over_pi, out=p_over_pi)))

    return _result(obs, method, diag, _solve_z(f, obs, pi, diag))


# ---------------------------------------------------------------------------
# Good-Turing family

def good_turing_classic(obs: Observation) -> EstimateResult:
    """The classic estimator W/Z = Phi_1 / N with the implied Z and W.

    Z = V N / (N - Phi_1) and W = V Phi_1 / (N - Phi_1); all singletons
    (Phi_1 = N) push Z and W to infinity.
    """
    _require_observations(obs)
    phi1 = int(np.sum(obs.counts == 1))
    n, v = obs.n, obs.v
    if phi1 == n:
        return _result(obs, "good-turing-classic", {"reason": _SINGLETONS}, math.inf)
    return _result(obs, "good-turing-classic", {}, v * n / (n - phi1),
                   w=v * phi1 / (n - phi1), w_over_z=phi1 / n)


def good_turing_rb(obs: Observation) -> EstimateResult:
    """Rao-Blackwellized Good-Turing in the Poisson approximation.

    Z is the Poisson IPW root, with its solver diagnostics, and
    W = sum_S p(i) / (exp(N p(i)/Z) - 1), summed, not taken as the equal
    Z - V.  N = M is singular: Z, W -> inf with W/Z = 1.
    """
    ipw = ipw_poisson(obs)
    if not ipw.is_finite:
        return _result(obs, "good-turing-rb", ipw.diagnostics, ipw.value)
    p, n, z = obs.p_obs, obs.n, ipw.value
    # p / (e^{N p / Z} - 1) = p e^{-N p / Z} / pi(i; Z)
    w = float(np.add.reduce(_over_pi(p, n, "poisson")(p * np.exp(-n * p / z), z)))
    return _result(obs, "good-turing-rb", ipw.diagnostics, z, w=w, w_over_z=w / z)


def good_toulmin_rb(obs: Observation, lam: float) -> float:
    """Rao-Blackwellized Good-Toulmin estimate of W/Z.

    sum_S (1 - exp(-lambda p(i)/N)) / (exp(lambda p(i)) - 1), with lambda
    from rb_poisson_lambda; a term whose lambda p(i) underflows takes its
    limit 1/N.  lambda = 0 is the all-singleton limit, where the sum is 1.
    """
    _require_observations(obs)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 1.0
    lp = np.maximum(lam * obs.p_obs, _MU_TINY)
    return float(np.sum(-np.expm1(-lp / obs.n) / np.expm1(lp)))


def expected_phi(obs: Observation, lam: float, k: int) -> float:
    """E(Phi_k) = sum_S (lambda p(i))^k / k! / (exp(lambda p(i)) - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    # a rate below the smallest normal double takes its small-rate limit,
    # as in _ztp_mean; log(e^x - 1) = x + log(-expm1(-x)) stays finite there
    lp = np.maximum(lam * obs.p_obs, _MU_TINY)
    log_terms = k * np.log(lp) - log_gamma(float(k + 1)) - lp - np.log(-np.expm1(-lp))
    return float(np.sum(np.exp(log_terms)))


# ---------------------------------------------------------------------------
# harmonic mean / reciprocal importance sampling


def _anchor(obs: Observation, h: Mapping[int, float] | None, H: float | None) -> np.ndarray:
    """The anchor h on the sample, checked along with its known total H."""
    if h is None or H is None or not 0.0 < H < math.inf:
        raise ValueError(f"the anchor needs h and a finite H > 0, got H = {H}")
    hv = _lookup(h, obs)
    if not (hv.min() >= 0.0 and hv.max() < math.inf):  # a nan fails both
        raise ValueError("h must be finite and nonnegative")
    return hv


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
    _require_observations(obs)
    hv = _anchor(obs, h, H)
    p, n = obs.p_obs, obs.n
    method = f"harmonic-mean-{mode}"
    diag: dict = {}

    if mode in ("classic", "rb_linear"):
        if mode == "rb_linear" and weights is None:
            raise ValueError("rb_linear mode requires RBWeights")
        counts = obs.counts if mode == "classic" else weights.aligned(obs)
        denom = float(np.dot(counts, hv / p))
        if denom == 0.0:
            return _result(obs, method, {"reason": "zero denominator"}, math.inf)
        z = n * H / denom
    elif mode == "ipw_nonlinear":
        over_pi = _over_pi(p, n, pi)
        z = _solve_z(lambda z: H - float(np.add.reduce(over_pi(hv, z))), obs, pi, diag)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if z > 0 and np.all(hv > 0):
        diag["variance_indicator"] = float(np.min(p / hv * (H / z)))
    return _result(obs, method, diag, z)


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
    _require_observations(obs)
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
        gh = gamma * _anchor(obs, h, H)
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
    return MixtureResult(_result(obs, method, diag, z), R, R_rb)
