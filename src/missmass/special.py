"""Log-gamma, digamma, trigamma and log-beta on the positive reals.

Thin wrappers over ``scipy.special`` that refuse a non-positive argument
and return a float for a scalar one.  The likelihood chain evaluates sums
like ``sum_i x(i) * psi(alpha * x(i))`` on whole alpha grids at once, so
every function takes arrays; shape arguments ``alpha * x(i)`` can be
arbitrarily close to zero.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def _positive(z, name: str) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not (z > 0.0).all():
        raise ValueError(f"{name} requires a positive argument")
    return z


def _out(val):
    return float(val) if val.ndim == 0 else val


def log_gamma(z):
    """log Gamma(z) for z > 0, scalar or array."""
    return _out(special.gammaln(_positive(z, "log_gamma")))


def digamma(z):
    """psi(z) = d/dz log Gamma(z) for z > 0, scalar or array."""
    return _out(special.psi(_positive(z, "digamma")))


def trigamma(z):
    """psi'(z) for z > 0, scalar or array: the Hurwitz zeta(2, z)."""
    return _out(special.zeta(2.0, _positive(z, "trigamma")))


def log_beta(a, b):
    """log B(a, b) for a, b > 0."""
    return _out(special.betaln(_positive(a, "log_beta"), _positive(b, "log_beta")))
