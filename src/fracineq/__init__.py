"""Numerical verification of fractional Simpson-type bounds.

The package checks a family of Hermite-Hadamard / Simpson-type
inequalities for twice-differentiable functions whose |f''|^q is
(alpha, m)-convex, built on Riemann-Liouville fractional integrals.
Closed-form kernel moments are validated against independent adaptive
quadrature oracles; printed corollary variants are compared against the
general bounds and any discrepancy is reported, never patched silently.
"""

from .amconvex import (ConvexityReport, CorpusEntry, FnTriple,
                       check_am_convex, corpus, corpus_by_name)
from .bounds import (BoundReport, CorollaryReport, bound_sarikaya,
                     bound_thm211, bound_thm22, corollary_check, phi, phi1,
                     phi2, phi3, phi4, phi_oracle, remark_bound)
from .errors import (AdmissionError, ConvergenceError, DomainError,
                     EvaluationError)
from .fracint import rl_left, rl_right
from .identity import IdentityCheck, Params, direct_side, kernel_side, residual
from .quad import QuadResult, Tolerance, integrate, integrate_singular
from .specfun import SpecfunResult, beta, beta_inc, gamma, hyp2f1

__version__ = "0.1.0"

__all__ = [
    "AdmissionError", "BoundReport", "ConvergenceError", "ConvexityReport",
    "CorollaryReport", "CorpusEntry", "DomainError", "EvaluationError",
    "FnTriple", "IdentityCheck", "Params", "QuadResult",
    "SpecfunResult", "Tolerance", "beta", "beta_inc", "bound_sarikaya",
    "bound_thm211", "bound_thm22", "check_am_convex", "corollary_check",
    "corpus", "corpus_by_name", "direct_side", "gamma", "hyp2f1",
    "integrate", "integrate_singular", "kernel_side", "phi", "phi1", "phi2",
    "phi3", "phi4", "phi_oracle", "remark_bound", "residual", "rl_left",
    "rl_right",
]
