"""Log-gamma, digamma, trigamma and log-beta: one name for each.

These are ``scipy.special``'s gammaln, psi, zeta(2, .) and betaln, bound
under the names the package uses; this module defines no function.  They
check no argument: every call site passes positive arguments by
construction, or checks its one smallest argument where input from
outside reaches it (the moment strategies and simulate.expected_values
refuse alpha x(i) = 0, the likelihood term sums check their run,
likelihoods._term_sum).  On a scalar they return a numpy float.
"""

from functools import partial

from scipy.special import betaln, gammaln, psi, zeta

log_gamma = gammaln
digamma = psi
trigamma = partial(zeta, 2.0)
log_beta = betaln
