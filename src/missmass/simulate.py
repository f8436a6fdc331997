"""Synthetic data generation, exact-enumeration oracles and expectations.

Model-based simulation draws (p, c) from the Gamma-Poisson model in any of
three equivalent orders (masses first, total mass first, or counts first);
explicit-p simulation draws counts over a given mass vector at fixed N or
as a Poisson process.  The module also evaluates every closed-form
expectation of the model (unconditional, given S, and given S with the
revealed masses), in the one copy the moment strategies solve and the
Monte Carlo oracle checks, and builds a fully enumerable toy
statistical-physics mixture with an exact partition function.

Randomness uses counter-based Philox streams keyed by (seed, chunk), so
replicate batches are reproducible chunk by chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import psi

from .data import Dataset
from .estimators import _ztp_mean
from .likelihoods import ModelParams

_BATCH_CHUNK = 20_000


def _rng(seed, *key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


def simulate_model(x, params: ModelParams, order: str = "p-c",
                   rng_seed: int = 0) -> Dataset:
    """One draw of (p, c) from the Gamma-Poisson model.

    order "p-c":         p(i) ~ Gamma(alpha x(i), b), c(i) ~ Poisson(lambda p(i))
    order "z-dirichlet": Z ~ Gamma(alpha, b), p ~ Z * Dirichlet(alpha x),
                         N ~ Poisson(lambda Z), c ~ Multinomial(N, p/Z)
    order "c-p":         c(i) ~ NegBinomial(alpha x(i), b/(b+lambda)),
                         p(i) ~ Gamma(alpha x(i) + c(i), b + lambda)

    All three leave the joint law of the observables unchanged.  Points
    with x(i) = 0 get p(i) = c(i) = 0.
    """
    x = np.asarray(x, dtype=float)
    p, c = _draw_model(x, params, order, _rng(rng_seed, 0), 1)
    return Dataset(x=x, p=p[0], c=c[0])


def _draw_model(x: np.ndarray, params: ModelParams, order: str,
                rng: np.random.Generator, size: int):
    """``size`` draws of p, c, one per row."""
    alpha, b, lam = params.alpha, params.b, params.lam
    a = alpha * x
    pos = a > 0
    drawn = (size, int(pos.sum()))
    p = np.zeros((size, len(x)))
    c = np.zeros((size, len(x)), dtype=np.int64)
    if order == "p-c":
        p[:, pos] = rng.gamma(a[pos], 1.0 / b, size=drawn)
        c[:, pos] = rng.poisson(lam * p[:, pos])
    elif order == "z-dirichlet":
        z = rng.gamma(alpha, 1.0 / b, size=size)
        g = rng.gamma(a[pos], 1.0, size=drawn)
        tot = g.sum(axis=-1, keepdims=True)
        if np.any(tot == 0.0):
            raise ArithmeticError(
                "Dirichlet draw underflowed to zero everywhere; the shape "
                "parameters alpha x(i) are too small for float64")
        probs = g / tot
        p[:, pos] = probs * z[:, None]
        c[:, pos] = rng.multinomial(rng.poisson(lam * z), probs)
    elif order == "c-p":
        c[:, pos] = rng.negative_binomial(a[pos], b / (b + lam), size=drawn)
        p[:, pos] = rng.gamma(a[pos] + c[:, pos], 1.0 / (b + lam))
    else:
        raise ValueError(f"unknown generation order {order!r}")
    return p, c


def simulate_explicit(p, *, n: int | None = None, rate: float | None = None,
                      rng_seed: int = 0, x=None) -> Dataset:
    """Counts over an explicit mass vector p.

    Exactly one of ``n`` (multinomial with fixed total) or ``rate``
    (independent Poisson with mean rate * p(i)) must be given.
    """
    p = np.asarray(p, dtype=float)
    if (n is None) == (rate is None):
        raise ValueError("specify exactly one of n (fixed-N) or rate (Poisson)")
    z = float(p.sum())
    if z <= 0:
        raise ValueError("p must have positive total mass")
    rng = _rng(rng_seed, 0)
    if n is not None:
        c = rng.multinomial(int(n), p / z)
    else:
        c = rng.poisson(rate * p)
    if x is None:
        x = np.full(len(p), 1.0 / len(p))
    return Dataset(x=x, p=p, c=c)


def simulate_model_batch(x, params: ModelParams, order: str, n_reps: int,
                         rng_seed: int = 0) -> dict[str, np.ndarray]:
    """Replicate draws reduced to the summary observables.

    Returns arrays of length n_reps for M, N, U, V, W, X, Y, Z.  Work is
    split into fixed chunks of _BATCH_CHUNK replicates, each drawn from
    its own keyed stream.
    """
    x = np.asarray(x, dtype=float)
    parts = []
    for k, start in enumerate(range(0, n_reps, _BATCH_CHUNK)):
        rng = _rng(rng_seed, k)
        p, c = _draw_model(x, params, order, rng, size=min(_BATCH_CHUNK, n_reps - start))
        parts.append(_reduce_batch(x, p, c))
    return {key: np.concatenate([part[key] for part in parts])
            for key in parts[0]}


def _reduce_batch(x: np.ndarray, p: np.ndarray, c: np.ndarray) -> dict[str, np.ndarray]:
    seen = c >= 1
    z = p.sum(axis=-1)
    v = np.where(seen, p, 0.0).sum(axis=-1)
    safe_log = np.log(np.where(seen & (p > 0), p, 1.0))
    return {
        "M": seen.sum(axis=-1),
        "N": c.sum(axis=-1),
        "U": (np.where(seen, x, 0.0) * safe_log).sum(axis=-1),
        "V": v,
        "W": z - v,
        "X": np.where(seen, x, 0.0).sum(axis=-1),
        "Y": 1.0 - np.where(seen, x, 0.0).sum(axis=-1),
        "Z": z,
    }


# ---------------------------------------------------------------------------
# expectation formulas, which moments.py's strategies solve: each takes
# arrays alpha and rho = lambda / b and sums over the distinct x ``values``
# of multiplicities ``counts`` row by row, so an entry is the one-alpha
# value bit for bit.  With a = alpha x, q = (1 + rho)^-a is P(c(i) = 0).


def _row_sums(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.add.reduce(m * w, axis=-1)


def _prior_n_v(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(N) and b E(V) before sampling: alpha rho sum x and
    alpha (sum x - sum x q / (1 + rho))."""
    weights = values * counts
    total = weights.sum()
    a = np.multiply.outer(alpha, values)
    sum_q = _row_sums(np.exp(-a * np.log1p(rho)[:, None]), weights)
    return alpha * rho * total, alpha * (total - sum_q / (1.0 + rho))


def _prior_u(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
             rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(U) + E(X) log b and E(X) before sampling:
    sum x (psi(a) (1 - q) + log(1 + rho) q) and sum x (1 - q)."""
    weights = values * counts
    log1p_rho = np.log1p(rho)
    a = np.multiply.outer(alpha, values)
    la = a * log1p_rho[:, None]
    seen = -np.expm1(-la)
    return (log1p_rho * _row_sums(np.exp(-la), weights)
            + _row_sums(psi(a) * seen, weights), _row_sums(seen, weights))


def _given_s_n(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E(N | S) and its log-rho slope at rho > 0: sum r and
    sum r (1 - r q / (1 + rho)), with r = a rho / (1 - q)."""
    a = np.multiply.outer(alpha, values)
    la = a * np.log1p(rho)[:, None]
    r = a * rho[:, None] / -np.expm1(-la)
    en = _row_sums(r, counts)
    return en, en - _row_sums(r * r * np.exp(-la), counts) / (1.0 + rho)


def _given_s_v_times_b(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
                       rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b E(V | S) and its log-rho slope: sum a (1 - q / (1 + rho)) / (1 - q),
    its terms a + 1 at rho = 0, and
    rho / (1 + rho)^2 sum a q ((1 - q) - a rho) / (1 - q)^2."""
    a = np.multiply.outer(alpha, values)
    log1p_rho = np.log1p(rho)[:, None]
    e, one_minus_e = np.exp(-a * log1p_rho), -np.expm1(-a * log1p_rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(log1p_rho > 0.0,
                     a * -np.expm1(-(a + 1.0) * log1p_rho) / one_minus_e, a + 1.0)
        dt = a * e * (one_minus_e - a * rho[:, None]) / one_minus_e ** 2
        return _row_sums(t, counts), rho / (1.0 + rho) / (1.0 + rho) * _row_sums(dt, counts)


def _given_s_u(values: np.ndarray, counts: np.ndarray, alpha: np.ndarray,
               rho: np.ndarray) -> np.ndarray:
    """E(U | S) + X log b: sum x (psi(a) + log(1 + rho) / ((1 + rho)^a - 1)),
    summed as sum x (psi(a + 1) + log(1 + rho) (1 / expm1(y) - 1 / y)) with
    y = a log(1 + rho), which cancels the -1/a of psi(a) and the +1/a of the
    ratio exactly; the bracket is its series below y = 0.01."""
    a = np.multiply.outer(alpha, values)
    log1p_rho = np.log1p(rho)[:, None]
    y = a * log1p_rho
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        bracket = np.where(y < 0.01, y * (1.0 / 12.0 - y * y / 720.0) - 0.5,
                           1.0 / np.expm1(y) - 1.0 / y)
    return _row_sums(psi(a + 1.0) + log1p_rho * bracket, values * counts)


def expected_values(x, params: ModelParams, cond: str = "prior",
                    s=None, p_s=None) -> dict[str, float]:
    """Closed-form expectations of the model observables.

    cond "prior":    E(M), E(N), E(U), E(V), E(W), E(X), E(Y), E(Z)
    cond "given_s":  E(N|S), E(U|S), E(V|S), E(W|S), E(Z|S); needs ``s``
                     (indices or boolean mask of the realized sample set)
    cond "given_sp": E(N|S, p on S); needs ``s`` and the revealed ``p_s``
    """
    x = np.asarray(x, dtype=float)
    alpha, b, lam = params.alpha, params.b, params.lam
    a = alpha * x
    log1p_rho = math.log1p(lam / b)
    one, rho = np.array([alpha]), np.array([lam / b])

    if cond == "prior":
        pos = a > 0
        ap, xp, ones = a[pos], x[pos], np.ones(int(pos.sum()))
        (e_n,), (v_times_b,) = _prior_n_v(xp, ones, one, rho)
        (u_plus_x_log_b,), (e_x,) = _prior_u(xp, ones, one, rho)
        return {
            "M": float(np.sum(-np.expm1(-ap * log1p_rho))),
            "N": float(e_n),
            "U": float(u_plus_x_log_b - e_x * math.log(b)),
            "V": float(v_times_b / b),
            "W": float(np.dot(ap / b, np.exp(-(ap + 1.0) * log1p_rho))),
            "X": float(e_x),
            "Y": float(np.dot(xp, np.exp(-ap * log1p_rho))) + float(np.sum(x[~pos])),
            "Z": alpha / b,
        }

    if s is None:
        raise ValueError(f"cond {cond!r} requires the sample set s")
    mask = np.zeros(len(x), dtype=bool)
    mask[np.asarray(s)] = True

    if cond == "given_s":
        if not a[mask].min(initial=math.inf) > 0.0:  # a nan fails too
            raise ValueError("digamma requires a positive argument")
        x_s, ones = x[mask], np.ones(int(mask.sum()))
        e_v = float(_given_s_v_times_b(x_s, ones, one, rho)[0][0] / b)
        e_w = float(np.sum(a[~mask] / (b + lam)))
        return {"N": float(_given_s_n(x_s, ones, one, rho)[0][0]),
                "U": float(_given_s_u(x_s, ones, one, rho)[0] - x_s.sum() * math.log(b)),
                "V": e_v, "W": e_w, "Z": e_v + e_w}

    if cond == "given_sp":
        if p_s is None:
            raise ValueError("cond 'given_sp' requires the revealed masses p_s")
        return {"N": float(np.sum(_ztp_mean(lam * np.asarray(p_s, dtype=float))))}

    raise ValueError(f"unknown conditioning {cond!r}")


# ---------------------------------------------------------------------------
# toy statistical physics mixture


@dataclass(frozen=True, eq=False)
class ToyPhysicsMixture:
    """Enumerable random-field Ising ring with a multi-temperature mixture.

    States are the 2^L spin configurations of a ring of L sites; the
    energy is -coupling * sum_k s_k s_{k+1} - sum_k h_k s_k with a seeded
    standard Gaussian field h.  Component j of J has unnormalized weights
    r(i, j) = exp(-(E(i) - E_min) / T_j); the mixture mass is
    p(i) = sum_j r(i, j) w(j), w(j) = 1 / J, with exact totals R(j) and Z
    by summation.
    """

    dataset: Dataset
    r: np.ndarray
    w: np.ndarray
    temperatures: np.ndarray
    energies: np.ndarray
    r_totals: np.ndarray
    z_exact: float


def toy_physics_dataset(n_states: int, temperatures, coupling: float = 1.0,
                        rng_seed: int = 0) -> ToyPhysicsMixture:
    """Build the toy mixture with exact ground truth (n_states <= 2^20)."""
    if n_states < 2 or n_states > 2 ** 20 or n_states & (n_states - 1):
        raise ValueError("n_states must be a power of two, 2 <= n <= 2^20")
    sites = n_states.bit_length() - 1
    temps = np.asarray(temperatures, dtype=float)
    if np.any(temps <= 0):
        raise ValueError("temperatures must be positive")
    rng = _rng(rng_seed, 0)
    field = rng.standard_normal(sites)

    states = np.arange(n_states, dtype=np.int64)
    spins = ((states[:, None] >> np.arange(sites)[None, :]) & 1) * 2 - 1
    pair = np.sum(spins * np.roll(spins, -1, axis=1), axis=1)
    energies = -coupling * pair - spins @ field

    shifted = energies - energies.min()
    r = np.exp(-shifted[:, None] / temps[None, :])
    w = np.full(len(temps), 1.0 / len(temps))
    p = r @ w
    r_totals = r.sum(axis=0)
    x = np.full(n_states, 1.0 / n_states)
    ds = Dataset(x=x, p=p, c=np.zeros(n_states, dtype=np.int64))
    return ToyPhysicsMixture(dataset=ds, r=r, w=w, temperatures=temps,
                             energies=energies, r_totals=r_totals,
                             z_exact=float(r_totals @ w))


def effective_states(p) -> float:
    """Participation ratio (sum p)^2 / sum p^2: the effective number of
    states carrying the mass."""
    p = np.asarray(p, dtype=float)
    return float(p.sum() ** 2 / np.sum(p ** 2))
