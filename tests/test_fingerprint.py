"""``tests/fingerprint.py`` runs end to end: every bit-identity claim of the
project rests on its output.  The digests themselves are not pinned here, as
a change that moves outputs on purpose moves them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_script_prints_every_group_and_the_total():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "fingerprint.py")], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    assert [line[0] for line in lines] == ["paths", "kernels", "identities", "errors",
                                           "declared", "cli", "total"]
    assert all(len(line) == 2 and re.fullmatch("[0-9a-f]{64}", line[1]) for line in lines)
