"""Pathwise stochastic calculus on cadlag paths via window smoothing.

Estimators for forward integrals and covariations, jump-measure machinery
with analytic compensators, simulators with ground-truth metadata, and
verification harnesses for change-of-variable identities and
orthogonal-decomposition properties.
"""

from .paths import CadlagPath, make_path, step_path, uniform_grid
from .regularize import (EpsilonSchedule, LimitReport, covariation,
                         covariation_continuous, forward_integral,
                         forward_integral_rv, qv_limit, ucp_limit, weighted_qv)
from .simulate import GroundTruth, SimSpec
from .simulate import simulate as simulate_process

__all__ = [
    "CadlagPath", "EpsilonSchedule", "GroundTruth", "LimitReport", "SimSpec",
    "covariation", "covariation_continuous", "forward_integral",
    "forward_integral_rv", "make_path", "qv_limit", "simulate_process",
    "step_path", "ucp_limit", "uniform_grid", "weighted_qv",
]

__version__ = "0.1.0"
