"""Model-free estimators of the missing mass W and total mass Z.

Self-consistent estimators built from inverse probability weighting and
Rao-Blackwellization.  A point i with mass p(i) enters the sample with
inclusion probability

    pi(i; Z) = 1 - (1 - p(i)/Z)^N      (fixed sample size N)
    pi(i; Z) = 1 - exp(-lambda p(i))   (Poisson sampling, lambda = N/Z)

and weighting observed masses by 1/pi gives estimating equations for Z.
In the rate lambda = N / Z each is a convex equation in mu = lambda p,
through h(mu) = mu / pi(mu), which is increasing and convex under both
forms: c lambda + sum_S w h(lambda p) = N for IPW and the mixtures,
sum_S (h / p) h(lambda p) = H lambda for the nonlinear harmonic mean, and
lambda V (or lambda M) = sum_S v pi(lambda p) (/ p) for the
Rao-Blackwellized equations.  One Newton loop (_solve_rate) solves them
all without a bracket, from the side of the root where its iterates fall
monotonically to it.  Every solve shares one set of verdicts: all sampled
points are singletons, no finite solution (+inf), or a boundary solution
at the lower limit of Z (0).  The forms work on lambda p, never on N p,
and h takes its limit 1 where lambda p underflows, so masses may span the
float range; where V is below 2^-900 every equation runs on masses scaled
by an exact power of two (_units), which keeps the rate N / Z finite.
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
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .data import Observation
from .solvers import ConvergenceError

# a Z equation whose root lies above this multiple of its scale (V, plus
# any known anchor) has no finite solution: the floor of every rate solve,
# which scales with p, so the verdict and the work done to reach it do too
_UPPER_CAP = 1e18
# the verdicts every Z equation shares
_SINGLETONS = "all sampled points are singletons"
_NO_SOLUTION = "no finite solution"
_BOUNDARY = "boundary: solution at or below the lower limit of Z"
# a rate lambda p below the smallest normal double takes its small-rate
# limit; above _MU_BIG, exp(-lambda p z) can
# overflow where Re z < 0
_MU_TINY, _MU_BIG = np.finfo(float).tiny, 700.0
# a rate solve ends at a Newton step below this fraction of lambda, and
# gives up after _MAX_NEWTON steps
_RATE_TOL, _MAX_NEWTON = 1e-14, 100
# below this V every equation runs on masses scaled by a power of two
# (_units), which keeps an anchor's values below 2^_ANCHOR_EXP
_SMALL_V, _ANCHOR_EXP = 2.0 ** -900, 960
# mu / N stays below 1 under fixed-n, so log(1 - mu / N) stays finite
_X_TOP = 1.0 - 2.0 ** -53


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
    give W = inf and W/Z = 1; a boundary Z = 0 gives W/Z = nan, and 0 < Z < V
    the diagnostic ``below_v``, as a ratio estimator can put Z below V."""
    v = obs.v if None in (z, w, w_over_z) else None
    if z is None:
        z = math.inf if w_over_z >= 1.0 else v / (1.0 - w_over_z)
        if math.isinf(z):
            diagnostics.setdefault("reason", _SINGLETONS)
    if not math.isfinite(z):
        return EstimateResult(z, math.inf, 1.0, method, diagnostics)
    w = z - v if w is None else w
    if w < 0.0 < z:
        diagnostics["below_v"] = True
    if w_over_z is None:
        w_over_z = 1.0 - v / z if z > 0 else math.nan
    return EstimateResult(z, w, w_over_z, method, diagnostics)


@dataclass(frozen=True, eq=False)
class RBWeights:
    """Expected counts v(i) given (S, p on S, N), concentrated on S.

    ``log_f_n`` is the log of the truncated multinomial normalizer; None
    for the Poisson approximation, which does not fix N.  Weights computed
    from an observation keep it as ``obs``, their values as an array over
    its S (``values``) and the rate lambda their tilt used, in the units of
    _units (``rate``; None where no tilt was needed).
    """

    v: dict[int, float]
    log_f_n: float | None = None
    obs: Observation | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)
    rate: float | None = None

    @classmethod
    def of(cls, obs: Observation, values: np.ndarray, log_f_n: float | None = None,
           rate: float | None = None) -> RBWeights:
        """The weights ``values`` over the sample of ``obs``."""
        values = np.array(values, dtype=float)
        values.setflags(write=False)
        return cls(dict(zip(obs.indices.tolist(), values.tolist())), log_f_n, obs, values, rate)

    def aligned(self, obs: Observation) -> np.ndarray:
        """v at the sampled indices of obs, in its order."""
        return self.values if obs is self.obs else _lookup(self.v, obs)


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
        return -np.expm1(-p * (n / z))
    if form == "fixed-n":
        # p = z gives log1p(-1) = -inf and inclusion exactly 1
        with np.errstate(divide="ignore"):
            return -np.expm1(n * np.log1p(-np.minimum(p / z, 1.0)))
    raise ValueError(f"unknown inclusion form {form!r}")


def _units(obs: Observation, top: float = 0.0) -> tuple[np.ndarray, float, int]:
    """The sampled masses and V in the units every equation runs in, and e.

    e is 0, or where V is below _SMALL_V, the binary exponent of V, raised
    where needed, up to 0, so that an anchor's largest value top, scaled
    alike, stays below 2^_ANCHOR_EXP: Z up to 2^64 times it, past the cap,
    stays finite.  The masses, V and any anchor are scaled by 2^-e, and
    each root or result in Z units is scaled back by 2^e.  That is exact,
    so every lambda p and ratio is unchanged, while the rate N / Z stays
    finite.
    """
    if obs.v >= _SMALL_V:
        return obs.p_obs, obs.v, 0
    e = math.frexp(obs.v)[1]
    if top > 0.0:
        e = min(max(e, math.frexp(top)[1] - _ANCHOR_EXP), 0)
    return np.ldexp(obs.p_obs, -e), math.ldexp(obs.v, -e), e


def _unscale(z: float, e: int, diag: dict) -> float:
    """A Z found in the units of _units, and its residual, scaled back."""
    if e and "residual" in diag:
        diag["residual"] = math.ldexp(diag["residual"], e)
    return math.ldexp(z, e)


def _kernel(p: np.ndarray, n: int, form: str):
    """The map lambda -> (h, s) over the sampled masses p, for one solve,
    with h(mu) = mu / pi(mu) and s = 1 - mu h'(mu) / h at mu = lambda p:

        poisson:  pi = 1 - e^-mu,          s = h - mu = h e^-mu
        fixed-n:  pi = 1 - (1 - mu/N)^N,   s = h (1 - mu/N)^(N-1),  mu <= N

    h is increasing and convex from h(0) = 1, and 0 <= s <= 1, so
    d = h - mu h' = h s lies in [0, h].  Where mu
    underflows h takes its limit 1 (mu is clamped at the smallest normal
    double, which changes nothing else: h rounds to 1 below 2^-53), and
    under fixed-n mu / N is clamped below 1 (_X_TOP), where pi rounds to 1
    for N >= 2.  Each call writes into buffers that the next call
    overwrites.
    """
    low = int(p.argmin())  # mu is smallest here
    neg, h, s = np.empty_like(p), np.empty_like(p), np.empty_like(p)
    if form == "poisson":
        neg_p = -p

        def kernel(lam):
            np.multiply(neg_p, lam, out=neg)  # -mu
            if neg[low] > -_MU_TINY:
                np.minimum(neg, -_MU_TINY, out=neg)
            np.expm1(neg, out=h)
            np.divide(neg, h, out=h)
            return h, np.add(h, neg, out=s)
    elif form == "fixed-n":
        neg_p, log_t, high = -p, np.empty_like(p), int(p.argmax())  # mu is largest here

        def kernel(lam):
            np.multiply(neg_p, lam / n, out=neg)  # -mu / N
            if neg[low] > -_MU_TINY:
                np.minimum(neg, -_MU_TINY, out=neg)
            if neg[high] < -_X_TOP:
                np.maximum(neg, -_X_TOP, out=neg)
            np.log1p(neg, out=log_t)  # log t, t = 1 - mu / N
            np.multiply(log_t, n, out=h)
            np.expm1(h, out=h)  # -pi
            np.multiply(neg, n, out=s)
            np.divide(s, h, out=h)
            np.multiply(log_t, n - 1, out=s)
            np.exp(s, out=s)
            return h, np.multiply(s, h, out=s)
    else:
        raise ValueError(f"unknown inclusion form {form!r}")
    return kernel


def _rate_equation(kernel, w: np.ndarray, c: float, n: float = 0.0, per_mass: bool = False):
    """The map lambda -> (G, lambda G', lambda G' - G) for the rate equation

        G(lambda) = c lambda + sum_S w(i) f(lambda p(i)) - n

    with f the kernel's h or, per mass, pi(i) / p(i) = lambda / h, which
    keeps its limit lambda where lambda p underflows.  As mu h' = h - d,
    d = h s, lambda G' = c lambda + sum_S w (h - d), or per mass
    lambda (c + sum_S w s / h).  The difference, n - sum_S w d or
    n + lambda sum_S w (d - h) / h^2, is summed without the terms that
    cancel in it, so a long Newton step keeps every digit.
    """
    if not per_mass:
        def f(lam):
            h, s = kernel(lam)
            d = np.multiply(s, h, out=s)
            total, wd = c * lam + float(np.dot(w, h)), float(np.dot(w, d))
            if c >= 0.0:
                return total - n, total - wd, n - wd
            # the falling harmonic form, whose weights h / p are unbounded:
            # mu h' = h - d term by term, where the sums of h and d cancel
            return total - n, c * lam + float(np.dot(w, np.subtract(h, d, out=d))), n - wd
        return f
    inv = np.empty_like(w)

    def f(lam):
        h, s = kernel(lam)
        np.divide(1.0, h, out=inv)
        w_inv = float(np.dot(w, inv))
        w_d = float(np.dot(w, np.multiply(s, inv, out=s)))  # d / h^2 = s / h
        return lam * (c + w_inv) - n, lam * (c + w_d), n + lam * (w_d - w_inv)
    return f


def _solve_rate(f, lam: float, n: int, scale: float, diag: dict,
                lam_max: float = math.inf) -> float:
    """Z = N / lambda at the root of a convex rate equation G = 0, found by
    Newton's method from lam, in the units of _units.

    f gives G, lambda G' and their difference (_rate_equation).  Each
    iterate is lambda - lambda G / lambda G', or lambda (lambda G' - G) /
    lambda G' for a step down past half of lambda.  Where G rises through
    its root, every iterate after the first lies right of it (G > 0) and
    falls to it; where G falls, the start lies left of it (G > 0) and every
    iterate rises to it.  The solve ends at a step below _RATE_TOL lambda,
    or at a later iterate with G <= 0, which only rounding gives.  A first
    G that is negative and falling puts the root right of lam: the next
    iterate is lam_max, the rate at the lower limit of Z, which no iterate
    passes, and an iterate held there is the _BOUNDARY verdict (Z = 0).
    Where Z passes _UPPER_CAP scale, or the float range, the verdict is
    _NO_SOLUTION (+inf): rising, every iterate after the first lies at or
    above the root and a start at or above half of it.  e <= 0, so a Z in
    range is in range scaled back.  diag gets the evaluations, the Newton
    steps and the plugged-back residual G / lambda, in Z units.
    """
    lam_min = n / min(_UPPER_CAP * scale, sys.float_info.max)
    diag.update(evals=0, iterations=0)
    while lam > lam_min:
        g, slope, rest = f(lam)
        diag["evals"] += 1
        step = g / slope
        if abs(step) <= _RATE_TOL:
            break
        if g < 0.0 and slope <= 0.0:
            new = lam_max
        else:  # a step down past half of lambda keeps its digits from the difference
            new = lam * (rest / slope) if step > 0.5 else lam - lam * step
        if lam == lam_max and new >= lam:
            diag["reason"] = _BOUNDARY
            return 0.0
        if g <= 0.0 and diag["iterations"]:
            break
        if diag["iterations"] == _MAX_NEWTON:
            raise ConvergenceError(f"rate solve: no convergence in {_MAX_NEWTON} Newton steps")
        lam = min(new, lam_max)
        diag["iterations"] += 1
    else:
        diag["reason"] = _NO_SOLUTION
        return math.inf
    diag["residual"] = g / lam
    return n / lam


def _rate_ceiling(p: np.ndarray, n: int, v: float, form: str) -> float:
    """The rate at the lower limit of Z: V 1e-12, or under fixed-n just
    above max p, where pi(i; Z) reaches 1."""
    limit = v * 1e-12
    if form == "fixed-n":
        limit = max(float(p.max()) * (1 + 1e-12), limit)
    return n / limit


def _solve_ipw(obs: Observation, p: np.ndarray, v: float, q: np.ndarray, c: float,
               form: str, diag: dict) -> float:
    """Z solving Z = c + sum_S q(i) / pi(i; Z); the right side over Z falls
    in Z, so the root is unique and, for q <= p and c >= 0, at least V.
    The masses p, V, q and c are in the units of _units, and so is Z.

    With lambda = N / Z and w = q / p, this is the rate equation
    c lambda + sum_S w(i) h(lambda p(i)) = N, convex and increasing.  Under
    Poisson sampling it is solved from the weighted Good-Turing rate
    (N - sum of w over singletons) / (c + sum_S q), at or above half the
    root since 1 + mu / 2 <= h(mu) <= 1 + mu; under fixed-n from
    N / (c + sum_S q), at or right of the root since h(mu) >= mu, and at
    most N / V, within mu <= N.
    """
    n = obs.n
    w, q_c = q / p, c + float(np.add.reduce(q))
    if form == "poisson":
        start = (n - float(np.add.reduce(w[obs.counts == 1]))) / q_c
    else:
        start = n / q_c
    return _solve_rate(_rate_equation(_kernel(p, n, form), w, c, n), start, n, v + c, diag)


def _ipw(obs: Observation, form: str) -> tuple[EstimateResult, float, np.ndarray, int]:
    """The IPW estimate under form, with its Z and the sampled masses in
    the units of _units, and e."""
    _require_observations(obs)
    p, v, e = _units(obs)
    diag: dict = {}
    if obs.m == obs.n:
        diag["reason"] = _SINGLETONS
        z = math.inf
    else:
        z = _solve_ipw(obs, p, v, p, 0.0, form, diag)
    return _result(obs, f"ipw-{form}", diag, _unscale(z, e, diag)), z, p, e


def _poisson_rate(obs: Observation) -> tuple[EstimateResult, float, np.ndarray, int]:
    """ipw_poisson's estimate, with its rate lambda = N / Z and the sampled
    masses in the units of _units, and e: lambda p is their product,
    exactly, and lambda is finite where N / Z overflows (0 where Z = +inf)."""
    ipw, z, p, e = _ipw(obs, "poisson")
    return ipw, obs.n / z, p, e


def ipw_fixed_n(obs: Observation) -> EstimateResult:
    """Z solving Z = sum_S p(i) / (1 - (1 - p(i)/Z)^N).

    The inverse-probability-weighted sum is unbiased at the true Z; taking
    the identity as an equation gives the estimator.  M = N has no finite
    solution.
    """
    return _ipw(obs, "fixed-n")[0]


def ipw_poisson(obs: Observation) -> EstimateResult:
    """Z solving Z = sum_S p(i) / (1 - exp(-N p(i)/Z)), solved as the
    saddle-point equation in the rate lambda = N / Z (rb_poisson_lambda)."""
    return _ipw(obs, "poisson")[0]


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
    log_n_fact = math.lgamma(n + 1)
    if m == n:
        return RBWeights.of(obs, np.ones(m), float(log_n_fact + np.sum(np.log(p))))
    if m == 1:
        return RBWeights.of(obs, [float(n)], n * math.log(p[0]))
    _, lam, p_scaled, e = _poisson_rate(obs)
    mu = lam * p_scaled
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
    log_f_n = (log_n_fact + (m - n) * (math.log(lam) - e * math.log(2.0))
               + math.log(total / size)
               + float(np.sum(np.log(p) + mu - np.log(ztp))))
    return RBWeights.of(obs, vals, log_f_n, lam)


def rb_poisson_lambda(obs: Observation) -> float:
    """The rate lambda solving N = sum_S lambda p(i) / (1 - exp(-lambda p(i))).

    This is the saddle-point equation, and with lambda = N / Z the Poisson
    IPW equation, which ipw_poisson solves in lambda by Newton's method;
    lambda is N / ipw_poisson(obs).  M = N (Z = +inf) gives lambda = 0, and
    a rate past the float range gives +inf; the estimators here form
    lambda p from _poisson_rate instead, which stays finite there.
    """
    return obs.n / ipw_poisson(obs).value


def rb_poisson_weights(obs: Observation) -> RBWeights:
    """Saddle-point approximation v(i) = lambda p(i) / (1 - exp(-lambda p(i))),
    with v = N exactly, the identity lambda solves, for a single point."""
    if obs.m == 1:
        return RBWeights.of(obs, [float(obs.n)])
    _, lam, p, _ = _poisson_rate(obs)
    return RBWeights.of(obs, _ztp_mean(lam * p), rate=lam)


def rb_z_equation(obs: Observation, weights: RBWeights,
                  variant: str = "V_over_Z", pi: str = "poisson") -> EstimateResult:
    """Z from the Rao-Blackwellized harmonic-mean style equations.

    variant "V_over_Z": V/Z = (1/N) sum_S v(i) pi(i; Z)
    variant "M_over_Z": M/Z = (1/N) sum_S v(i) pi(i; Z) / p(i)

    Both sides are evaluated with V (or M) observed, leaving a nonlinear
    equation for Z.  In the rate lambda = N / Z they read

        V lambda = sum_S v(i) pi(lambda p(i))   or   M lambda = sum_S (v(i) / p(i)) pi(lambda p(i))

    pi is concave in lambda, so each difference is convex, with roots at
    lambda = 0 and at the estimate (v >= 1 and sum_S v = N > M for the
    Rao-Blackwell weights).  It is solved from N / V, right of the root
    unless the root's Z lies below V; there the solve starts from the
    lower limit of Z instead, and a root past it is the boundary verdict.
    Weights computed from ``obs`` itself are read as their array, and under
    the Poisson form the solve starts from the rate of their tilt: for the
    saddle-point weights v = lambda p / pi(lambda p) that rate is the root
    of both variants (sum_S v pi = lambda V, sum_S (v / p) pi = lambda M),
    and the exact weights, tilted at the same rate, have their root next to
    it.  The fixed-n form keeps N / V: its pi is at least the Poisson one,
    so for saddle-point weights the tilt's rate lies at or left of its
    root, where the equation can still fall and Newton's method would first
    jump to the lower limit of Z.  M = N leaves the equations uninformative
    (+inf).
    """
    if variant not in ("V_over_Z", "M_over_Z"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_observations(obs)
    method = f"rb-z-{variant}"
    if obs.m == obs.n:
        return _result(obs, method, {"reason": _SINGLETONS}, math.inf)
    (p, v, e), n = _units(obs), obs.n
    # sum_S v pi (/ p) = lambda sum_S v p / h (lambda sum_S v / h)
    w = weights.aligned(obs)
    w, c = (-w * p, v) if variant == "V_over_Z" else (-w, obs.m)
    diag: dict = {}
    start = n / v
    if pi == "poisson" and weights.obs is obs and weights.rate is not None:
        start = weights.rate
    z = _solve_rate(_rate_equation(_kernel(p, n, pi), w, c, per_mass=True), start, n, v,
                    diag, _rate_ceiling(p, n, v, pi))
    # the M / Z residual counts points, which the scale leaves alone
    return _result(obs, method, diag,
                   math.ldexp(z, e) if variant == "M_over_Z" else _unscale(z, e, diag))


# ---------------------------------------------------------------------------
# Good-Turing family

def good_turing_classic(obs: Observation) -> EstimateResult:
    """The classic estimator W/Z = Phi_1 / N with the implied Z and W.

    Z = V N / (N - Phi_1) and W = V Phi_1 / (N - Phi_1), each ratio taken
    before its product with V, which can overflow; all singletons
    (Phi_1 = N) push Z and W to infinity.
    """
    _require_observations(obs)
    phi1 = int(np.sum(obs.counts == 1))
    n, v = obs.n, obs.v
    if phi1 == n:
        return _result(obs, "good-turing-classic", {"reason": _SINGLETONS}, math.inf)
    return _result(obs, "good-turing-classic", {}, v * (n / (n - phi1)),
                   w=v * (phi1 / (n - phi1)), w_over_z=phi1 / n)


def good_turing_rb(obs: Observation) -> EstimateResult:
    """Rao-Blackwellized Good-Turing in the Poisson approximation.

    Z is the Poisson IPW root, with its solver diagnostics, and
    W = sum_S p(i) / (exp(lambda p(i)) - 1) at lambda = N / Z, summed, not
    taken as the equal Z - V.  N = M is singular: Z, W -> inf with W/Z = 1.
    """
    ipw, lam, p, e = _poisson_rate(obs)
    if not ipw.is_finite:
        return _result(obs, "good-turing-rb", ipw.diagnostics, ipw.value)
    # p / (e^mu - 1) = h(mu) e^-mu / lambda at mu = lambda p, with h's
    # small-rate limit, so the term is 1 / lambda where mu underflows
    mu = lam * p
    w = math.ldexp(float(np.add.reduce(_ztp_mean(mu) * np.exp(-mu))) / lam, e)
    return _result(obs, "good-turing-rb", ipw.diagnostics, ipw.value, w=w,
                   w_over_z=w / ipw.value)


def good_toulmin_rb(obs: Observation, lam: float) -> float:
    """Rao-Blackwellized Good-Toulmin estimate of W/Z.

    sum_S (1 - exp(-lambda p(i)/N)) / (exp(lambda p(i)) - 1), with lambda
    from rb_poisson_lambda; a term whose lambda p(i) underflows takes its
    limit 1/N.  lambda = 0 is the all-singleton limit, where the sum is 1.
    """
    return _good_toulmin(obs, lam, obs.p_obs)


def _good_toulmin(obs: Observation, lam: float, p: np.ndarray) -> float:
    """good_toulmin_rb at the rate lam on the masses p, obs.p_obs or those
    in the units of _units."""
    _require_observations(obs)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 1.0
    lp = np.maximum(lam * p, _MU_TINY)
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
    log_terms = k * np.log(lp) - math.lgamma(k + 1) - lp - np.log(-np.expm1(-lp))
    return float(np.sum(np.exp(log_terms)))


# ---------------------------------------------------------------------------
# harmonic mean / reciprocal importance sampling


def _anchor(obs: Observation, h: Mapping[int, float] | None,
            H: float | None) -> tuple[np.ndarray, float, int, np.ndarray, float]:
    """_units for a sample with an anchor: the masses, V and e, and the
    anchor h on the sample and its known total H, checked and scaled by
    2^-e as the masses are, which keeps them finite."""
    if h is None or H is None or not 0.0 < H < math.inf:
        raise ValueError(f"the anchor needs h and a finite H > 0, got H = {H}")
    hv = _lookup(h, obs)
    if not (hv.min() >= 0.0 and hv.max() < math.inf):  # a nan fails both
        raise ValueError("h must be finite and nonnegative")
    p, v, e = _units(obs, max(H, float(hv.max())))
    return p, v, e, np.ldexp(hv, -e), math.ldexp(H, -e)


def harmonic_mean(obs: Observation, h: Mapping[int, float], H: float,
                  mode: str = "classic", weights: RBWeights | None = None,
                  pi: str = "poisson") -> EstimateResult:
    """Harmonic mean estimators of Z anchored on a known total H = sum h.

    mode "classic":       Z = N H / sum_S c(i) h(i) / p(i)
    mode "rb_linear":     Z = N H / sum_S v(i) h(i) / p(i)
    mode "ipw_nonlinear": H = sum_S h(i) / pi(i; Z) solved for Z

    1 / pi is convex and falls in lambda = N / Z, so the nonlinear equation
    is the convex, decreasing rate equation

        sum_S (h(i) / p(i)) h(lambda p(i)) - H lambda = 0

    solved from sum_S (h / p) / H, left of the root since h >= 1.  Where
    the sampled h already reach H, sum_S h / pi >= H at every Z, and a root
    at or past the lower limit of Z is the boundary verdict (Z = 0).  The
    cap on Z is relative to V + H.  Terms with p(i)/Z << h(i)/H give the
    estimator unbounded variance; that pathology is reported through the
    variance_indicator diagnostic (min over S of (p(i)/h(i)) (H/Z)), not
    mitigated.
    """
    _require_observations(obs)
    p, v, e, hv, H = _anchor(obs, h, H)
    n = obs.n
    method = f"harmonic-mean-{mode}"
    diag: dict = {}

    if mode in ("classic", "rb_linear"):
        if mode == "rb_linear" and weights is None:
            raise ValueError("rb_linear mode requires RBWeights")
        counts = obs.counts if mode == "classic" else weights.aligned(obs)
        denom = float(np.dot(counts, hv / p))
        if denom == 0.0:
            return _result(obs, method, {"reason": "zero denominator"}, math.inf)
        ratio = denom / H  # N H can overflow; a ratio of 0 puts Z past it
        z = n / ratio if ratio > 0.0 else math.inf
    elif mode == "ipw_nonlinear":
        if float(np.add.reduce(hv)) >= H:
            diag.update(evals=0, iterations=0, reason=_BOUNDARY)
            z = 0.0
        else:
            a, lam_max = hv / p, _rate_ceiling(p, n, v, pi)
            z = _solve_rate(_rate_equation(_kernel(p, n, pi), a, -H),
                            min(float(np.add.reduce(a)) / H, lam_max), n, v + H, diag, lam_max)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if z > 0 and np.all(hv > 0):
        diag["variance_indicator"] = float(np.min(p / hv * (H / z)))
    return _result(obs, method, diag, _unscale(z, e, diag))


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
    H >= sum_S h it is never below V.  It is solved as the rate equation
    gamma H lambda + sum_S w(i) h(lambda p(i)) = N, w = 1 - gamma h / p,
    by Newton's method, like IPW.  gamma = 0 is the IPW estimator;
    gamma = 1 is the known total H plus the IPW estimate of the remainder
    p - h.  The pure harmonic anchor H = sum_S h / pi(i; Z) is
    harmonic_mean(mode="ipw_nonlinear").  M = N has no finite root only
    where gamma sum_S h = 0.  Component totals are recovered by IPW,
    R(j) = sum_S r(i, j) / pi(i; Z) = sum_S (r(i, j) / p(i)) h(lambda p(i)) / lambda,
    finite where 1 / pi is not, plus the v-weighted form when
    Rao-Blackwell weights are supplied.
    """
    _require_observations(obs)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    r = np.asarray(r_components, dtype=float)
    w = np.asarray(w, dtype=float)
    if r.ndim != 2 or r.shape[0] != obs.m or r.shape[1] != len(w):
        raise ValueError("r_components must have shape (M, J) matching w")
    # both checks are relative to p, so they hold alike at every scale
    if np.any(np.abs(r @ w - obs.p_obs) > 1e-9 * obs.p_obs):
        raise ValueError("inconsistent mixture decomposition: r @ w != p")
    if gamma > 0.0:
        p, v, e, hv, big_h = _anchor(obs, h, H)
        gh, c = gamma * hv, gamma * big_h
        if np.any(gh - p > 1e-9 * p):
            raise ValueError("gamma h exceeds p: the equation is not monotone")
    else:
        (p, v, e), gh, c = _units(obs), np.zeros(obs.m), 0.0
    n = obs.n

    method = f"mixture-gamma-{gamma:g}"
    diag: dict = {"gamma": gamma}
    if obs.m == obs.n and not np.any(gh):
        diag["reason"] = _SINGLETONS
        z = math.inf
    else:
        # the clamp absorbs rounding in gamma h <= p; at gamma = 0, q is p
        z = _solve_ipw(obs, p, v, np.maximum(p - gh, 0.0), c, pi, diag)
    R, R_rb = np.full(len(w), math.inf), None
    if math.isfinite(z):
        # r / pi = (r / p) h / lambda, in the units of r once scaled back
        lam = n / z
        h_root = _kernel(p, n, pi)(lam)[0]
        R = np.ldexp((r.T / obs.p_obs) @ h_root / lam, e)
        if weights is not None:
            R_rb = np.asarray(r.T @ (weights.aligned(obs) / p)) * (z / n)
    return MixtureResult(_result(obs, method, diag, _unscale(z, e, diag)), R, R_rb)
