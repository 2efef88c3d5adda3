"""Seed-block oracle that the compensator nu of a catalog jump scenario
compensates its jump measure mu.

For a field W and the compensated integral Z = W * (mu - nu)_T, Z has mean 0
and variance E[W^2 * nu_T], so over S independent seeds the mean of Z
against sqrt(mean of W^2 * nu_T / S) is a z-score near standard normal.  The
bound is fixed: it is never tuned to a seed block or a scenario.
"""

import numpy as np
import pytest

from pathcalc.catalog import SCENARIOS
from pathcalc.jumps import (CompensatorSpec, NormalLaw, compensated_integral, field_from_size,
                            integrate_nu)

N = 500
SEEDS = range(200)
Z_BOUND = 4.5

FIELDS = {"x^2": lambda x: x * x, "cos x": np.cos}


def _z(scenario, fn, nu_of=lambda gt: gt.compensator):
    W, W2 = field_from_size(fn), field_from_size(lambda x: fn(x) ** 2)
    Z, V = [], []
    for seed in SEEDS:
        X, gt = SCENARIOS[scenario].build(seed, N)
        nu = nu_of(gt)
        Z.append(compensated_integral(W, X, nu).values[-1])
        V.append(integrate_nu(W2, nu, X).values[-1])
    return float(np.mean(Z) / np.sqrt(np.mean(V) / len(SEEDS)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("scenario", ["poisson", "cp_normal"])
def test_the_compensator_centres_the_jump_measure(scenario, field):
    assert abs(_z(scenario, FIELDS[field])) <= Z_BOUND


@pytest.mark.parametrize("field", FIELDS)
def test_a_wrong_jump_law_is_seen(field):
    # cp_normal draws N(0, 1) sizes; a compensator with N(0, 2) does not
    # compensate them, for either field
    def wrong(gt):
        return CompensatorSpec(gt.compensator.kind, gt.compensator.rate, NormalLaw(0.0, 2.0))

    assert abs(_z("cp_normal", FIELDS[field], wrong)) > Z_BOUND
