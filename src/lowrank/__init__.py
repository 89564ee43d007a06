"""SVD-free weighted low-rank matrix recovery.

Solvers for the nuclear-norm regularized weighted recovery problem

    min_X  0.5 * |(op(X) - F) . W|^2 + tau * |X|_*

including the SVD-free alternating-minimization scheme, its adaptive
rank-continuation variant, and SVD-based proximal-gradient baselines,
plus synthetic problem generators and a benchmark CLI.
"""

__version__ = "0.1.0"

from .amfit import FactorPair, FixedI, IncreasingI, Tolerance, inner_solve
from .operators import DenseSensing, Identity, Problem
from .problems import SyntheticSpec, generate_full, rmse
from .prox import svt
from .solver import (Constant, Continuation, FistaLike, Online, SolveTrace,
                     SolverConfig, Stopping, Zero, pgd_solve, prograamme_solve,
                     truncate_factors)

__all__ = [
    "__version__",
    "Problem", "Identity", "DenseSensing",
    "FactorPair", "FixedI", "Tolerance", "IncreasingI", "inner_solve",
    "svt",
    "SolverConfig", "Stopping", "Continuation", "SolveTrace",
    "Zero", "Constant", "FistaLike", "Online",
    "prograamme_solve", "pgd_solve", "truncate_factors",
    "SyntheticSpec", "generate_full", "rmse",
]
