"""Missing mass, partition function and evidence estimation.

Estimate the unobserved probability mass W (and the total Z = V + W) of a
discrete distribution from a sample in which every drawn point reveals its
unnormalized mass, together with full probability distributions for W
under a Gamma-Poisson mass model.
"""

__version__ = "0.1.0"

from .data import (Dataset, Observation, SummaryStats, kl_delta,
                   load_observation, summarize)
from .distributions import GammaDist, LawView, LogScaleDist, PointMass
from .estimators import (EstimateResult, RBWeights, good_toulmin_rb,
                         good_turing_classic, good_turing_rb, harmonic_mean,
                         inclusion_probability, ipw_fixed_n, ipw_poisson,
                         mixture_estimate, rb_exact, rb_poisson_lambda,
                         rb_poisson_weights, rb_z_equation)
from .inference import (InferenceReport, infer_bayes, infer_mixed,
                        infer_profile, mle_alpha)
from .likelihoods import (ModelParams, d2log_dalpha2, dlog_dalpha, log_L2,
                          log_L3, log_L4, log_L5, log_L8, log_L9, log_L11)
from .moments import (MomentMatchResult, match_A, match_B, match_C, mle_full,
                      moment_match)
from .simulate import (expected_values, simulate_explicit, simulate_model,
                       simulate_model_batch, toy_physics_dataset)
from .solvers import integrate_semi_infinite, maximize_unimodal, solve_root
from .special import digamma, log_beta, log_gamma, trigamma

__all__ = [name for name in dir() if not name.startswith("_")]
