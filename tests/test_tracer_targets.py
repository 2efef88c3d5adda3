"""Every function the benchmark's span tracer wraps exists under its name,
and every schedule it reads has a length.

``perfbench/tracer.py`` names its targets as strings in ``LAYERS``; a rename
in pathcalc would otherwise surface only when a ``--trace`` run fails.  The
table is read with ``ast``, so perfbench is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from pathcalc.regularize import EpsilonSchedule

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS table")


def _resolves(target: str) -> bool:
    """Whether ``Tracer.install`` can wrap ``target``: a callable attribute of
    ``pathcalc.<module>``, or a method in the class's own ``__dict__`` (an
    inherited one raises KeyError there)."""
    modname, attr = target.split(":")
    owner = importlib.import_module(f"pathcalc.{modname}")
    if "." in attr:
        clsname, attr = attr.split(".")
        return attr in vars(getattr(owner, clsname, object))
    return callable(getattr(owner, attr, None))


TARGETS = [t for targets in _layers().values() for t in targets]


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_resolves(target):
    assert _resolves(target)


@pytest.mark.parametrize("target", ["simulate:fbm", "regularize:qv_limits",
                                    "catalog:Scenario.run", "ito:ItoReport.to_json_dict"])
def test_check_rejects_a_target_the_tracer_cannot_wrap(target):
    # a private generator, a misspelling, a missing and an inherited method
    assert not _resolves(target)


def test_a_schedule_has_a_length():
    # the tracer records a limit study's levels as len(schedule)
    assert len(EpsilonSchedule.geometric(0.05, 8)) == 8
