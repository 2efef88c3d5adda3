"""Rejections: every library check named here raises its own error and
message on the smallest input that fails it, and every integrability gate
fires on the smallest path that overflows its total.

On a finite path each gated total is a finite sum, so a gate fires only when
the sum overflows a float: a jump of 1e200 squares to infinity, and two jumps
of 1e308 sum to it in absolute value."""

import numpy as np
import pytest

from pathcalc import dirichlet as dd
from pathcalc import ito
from pathcalc import jumps as jm
from pathcalc import simulate as sim
from pathcalc.ito import FunctionBundle
from pathcalc.paths import (PIECEWISE_CONSTANT, CadlagPath, PathError, _jumping_at,
                            constant_path, make_path, step_path, uniform_grid)
from pathcalc.regularize import EpsilonSchedule, ScheduleError

GRID = uniform_grid(1.0, 200)

REJECTIONS = {
    "make_path duplicate jump indices": (
        lambda: make_path(GRID[:5], [0.0, 1.0, 1.0, 1.0, 1.0], [(1, 0.0), (1, 0.0)]),
        PathError, "duplicate jump indices"),
    "step_path at the horizon": (
        lambda: step_path(1.0, 10, 1.0), PathError, r"step_time must lie in \(0, T\)"),
    "CadlagPath arrays of unequal length": (
        lambda: CadlagPath([0.0, 1.0], [0.0], [0.0, 0.0]),
        PathError, "grid, values and left_values lengths differ"),
    "_jumping_at values of another length": (
        lambda: _jumping_at(CadlagPath(GRID, GRID), np.zeros(GRID.size - 1)),
        PathError, "grid, values and left_values lengths differ"),
    "CadlagPath two dimensional grid": (
        lambda: CadlagPath(GRID[:4].reshape(2, 2), np.zeros((2, 2))),
        PathError, "expected a one dimensional array"),
    "from_csv unknown rule": (
        lambda: CadlagPath.from_csv("# rule=foo\nt,value,left_value,is_jump\n"
                                    "0.0,0.0,0.0,0\n1.0,0.0,0.0,0\n"),
        PathError, "unknown interpolation rule 'foo'"),
    "compensator time atom off the grid": (
        lambda: jm.integrate_nu(jm.X_FIELD, jm.CompensatorSpec.user_supplied(
            0.0, jm.DiracLaw(1.0), atoms=((0.0123, jm.DiracLaw(1.0), 1.0),)),
            CadlagPath(GRID, GRID)),
        PathError, "compensator time atom must sit on the grid"),
    "merged jump times that repeat": (
        lambda: sim._merge_jump_times(GRID, [0.5, 0.5]), sim.SimulationError,
        "sampled jump times must be strictly increasing"),
    "UniformLaw lo above hi": (
        lambda: jm.UniformLaw(1.0, 0.0), ValueError, "need lo < hi"),
    "IntegrandField unknown truncation": (
        lambda: jm.IntegrandField(lambda t, x, p: x, "huge"), ValueError,
        "truncation must be None, 'small' or 'big'"),
    "EpsilonSchedule empty": (
        lambda: EpsilonSchedule(()), ScheduleError, "empty schedule"),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_input_is_rejected_naming_it(case):
    build, error, message = REJECTIONS[case]
    with pytest.raises(error, match=f"^{message}$"):
        build()


# -- integrability gates ------------------------------------------------------


def _jumps_at(*steps):
    """The pc path on GRID that jumps by each (time, size) of ``steps``."""
    values = sum(np.where(GRID >= t, size, 0.0) for t, size in steps)
    rows = [int(np.searchsorted(GRID, t)) for t, _ in steps]
    return make_path(GRID, values, [(i, values[i - 1]) for i in rows], PIECEWISE_CONSTANT)


HUGE = _jumps_at((0.5, 1e200))  # its squared jump overflows
MAX_PAIR = _jumps_at((0.3, 1e308), (0.6, -1e308))  # its absolute jump total overflows
NU = jm.CompensatorSpec.compound_poisson(1.0, jm.NormalLaw())
SCHED = EpsilonSchedule((0.2, 0.1))
IDENTITY = ito.FUNCTION_CATALOG["identity"]

# F = C x^2 stays finite on [-0.2, 2.2], where its derivative is checked; its
# Taylor remainder at each jump is 4 C, and the two sum past the largest float
C = 2.5e307
STEEP = FunctionBundle("steep", "c01", f=lambda t, x: C * x ** 2,
                       dx=lambda t, x: 2.0 * C * x)
UP_AND_DOWN = _jumps_at((0.3, 2.0), (0.6, -2.0))

GATES = {
    "ito_terms_measure_form": (
        lambda: ito.ito_terms_measure_form(IDENTITY, HUGE, NU, SCHED),
        "squared jump total is not finite"),
    "ito_c1_lambda": (
        lambda: ito.ito_c1_lambda(IDENTITY, HUGE, SCHED),
        r"jump sizes are not \(1 \+ holder\)-power summable"),
    "chain_rule_c01": (
        lambda: dd.chain_rule_c01(
            STEEP, UP_AND_DOWN, dd.LabeledDecomposition(M_c=constant_path(GRID)), NU,
            SCHED),
        "big-jump Taylor total is not finite for this function"),
    "md_representation_check": (
        lambda: dd.md_representation_check(dd.LabeledDecomposition(), MAX_PAIR, NU),
        "big-jump total is not finite"),
    "special_wd_c0_chain": (
        lambda: dd.special_wd_c0_chain(IDENTITY, MAX_PAIR, NU, SCHED),
        r"jump total of F\(t, X_t\) is not finite"),
    "integrate_mu": (
        lambda: jm.integrate_mu(jm.field_from_size(lambda x: x ** 3), HUGE),
        "field not finite at an atom"),
    "compensated_parts": (
        lambda: jm.compensated_parts(jm.X_FIELD, HUGE, NU),
        r"square-summability surrogate failed: sum W\(s, dX_s\)\^2 is not finite"),
}


@pytest.mark.parametrize("gate", GATES)
def test_integrability_gate_fires_on_overflow(gate):
    run, message = GATES[gate]
    with pytest.raises(jm.IntegrabilityError, match=f"^{message}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        run()
