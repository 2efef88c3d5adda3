"""``tests/fingerprint.py`` runs end to end: every bit-identity claim of the
project rests on its output.  The digests themselves are not pinned here, as
a change that moves outputs on purpose moves them."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GROUPS = ["paths", "kernels", "identities", "errors", "declared", "cli"]


@functools.cache
def _lines() -> tuple:
    """The script's output with ``--cases``, run once for the module."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "fingerprint.py"), "--cases"],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    return tuple(run.stdout.splitlines())


def test_fingerprint_script_prints_every_group_and_the_total():
    lines = [line.split() for line in _lines()[-7:]]
    assert [line[0] for line in lines] == [*GROUPS, "total"]
    assert all(len(line) == 2 and re.fullmatch("[0-9a-f]{64}", line[1]) for line in lines)


def test_fingerprint_cases_name_every_group():
    cases = [line.split() for line in _lines()[:-7]]
    assert all(len(case) >= 4 and case[0] in GROUPS and re.fullmatch("[0-9a-f]{12}", case[-1])
               for case in cases)
    assert {case[0] for case in cases} == set(GROUPS)
    for group in GROUPS:
        ordinals = [int(case[1]) for case in cases if case[0] == group]
        assert ordinals == list(range(1, len(ordinals) + 1))
