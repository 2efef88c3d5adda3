"""The benchmark's workloads.

Each workload is a closed loop: one caller in one process, the next op
starts after the previous one completes.  Ops come in cycles; a run always
measures whole cycles, so every run sees the same mix of op kinds, and
``cycle_s``, a cycle's wall seconds on the reference host with its checks
and calibration, sets how many cycles fit in a run.  An op's
``run`` is timed; its ``check`` runs after the timer stops and decides
whether the op counts as failed (``Outcome.ok``) and whether an output is
plainly wrong (``Outcome.wrong``: a malformed report, a non-reproducible
artifact, a broken exact identity, an undocumented exception).

All inputs derive from the workload seed.  The program is always called
through its module attributes so that the tracer's wrapping applies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import pathcalc.cli as cli
import pathcalc.dirichlet as dd
import pathcalc.ito as ito
import pathcalc.paths as paths
import pathcalc.regularize as reg
import pathcalc.simulate as sim
from pathcalc.jumps import NormalLaw

# op seeds of workload seed s are s * SEED_STRIDE + k, k < SEED_STRIDE
SEED_STRIDE = 100_000
WARMUP_OFFSET = SEED_STRIDE // 2


@dataclass
class Outcome:
    ok: bool
    wrong: bool = False
    detail: str = ""
    jumps: int | None = None  # jump count of the op's input path, when known
    bytes_written: int = 0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def timed(op: Op) -> tuple[float, float, object]:
    """Run an op under the timers; return its wall time, its CPU time and
    its result.  An exception the op raises is its result."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = op.run()
    except Exception as exc:  # op boundary: judge() records the failure
        result = exc
    return time.perf_counter() - t0, time.process_time() - c0, result


def judge(workload, op: Op, result) -> Outcome:
    """Check an op's result; a documented error is a failed op, any other
    exception a wrong output."""
    if isinstance(result, Exception):
        return Outcome(False, wrong=not isinstance(result, workload.documented_errors),
                       detail=f"{type(result).__name__}: {result}")
    return op.check(result)


class BracketSweep:
    """Acceptance criterion 2's per-seed study: simulate a Brownian path,
    then drive the bracket window study to its limit."""

    name = "bracket_sweep"
    documented_errors = ()
    cycle_s = 0.3
    n = 100_000
    tol = 0.05

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.schedule = reg.EpsilonSchedule.geometric(0.05, 8).snapped(1.0 / self.n)

    def warmup(self) -> Op:
        return self._op(self.seed * SEED_STRIDE + WARMUP_OFFSET)

    def cycle(self, c: int) -> list[Op]:
        return [self._op(self.seed * SEED_STRIDE + c)]

    def _op(self, path_seed: int) -> Op:
        def run():
            X, _ = sim.simulate(sim.SimSpec("brownian", n=self.n, seed=path_seed))
            return X, reg.qv_limit(X, schedule=self.schedule, tol=self.tol)

        def check(result):
            X, rep = result
            sup = float(np.max(np.abs(rep.limit.values - X.grid)))
            ok = rep.converged and sup < self.tol
            return Outcome(ok, detail=f"converged={rep.converged} sup={sup:.3g}",
                           jumps=int(X.jump_marks.size))

        return Op(f"bm seed {path_seed}", run, check)


class JumpIdentities:
    """Measure-form identity, chain-rule defect and its smooth reference on a
    jump-diffusion path: one catalog function on a fresh path per op."""

    name = "jump_identities"
    documented_errors = (ito.NonConvergenceError,)
    cycle_s = 12.5
    n = 20_000
    intensity = 3.0
    # criterion 8's 0.1 bound on the chain-rule gap is met at n=5e4 with 8
    # levels; at n=2e4, 6 levels left the gap above it on about one path in
    # four, and 10 kept it below 0.05 on those paths at the same cost
    levels = 10
    tol = 0.05
    functions = ("identity", "square", "tx", "sin")

    def __init__(self, seed: int, workdir: Path):
        self.next_seed = seed * SEED_STRIDE
        self.warm_seed = seed * SEED_STRIDE + WARMUP_OFFSET
        self.skipped = 0

    def prepare(self) -> None:
        self.schedule = reg.EpsilonSchedule.geometric(0.05, self.levels).snapped(
            1.0 / self.n)
        # the warm-up runs a whole op, so its path's bracket study converges
        s = self.warm_seed
        while True:
            s, path = self._jumpy_path(s)
            if reg.qv_limit(path[0], schedule=self.schedule, tol=self.tol).converged:
                break
            s += 1
        self.warm = s, path

    def _jumpy_path(self, start: int):
        # a path without jumps skips the compensator quadrature, most of an
        # op's time, so the workload pins the property: seeds whose path has
        # no jump are passed over and counted
        s = start
        while True:
            X, gt = sim.simulate(sim.SimSpec(
                "jump_diffusion", n=self.n, seed=s, sigma=1.0,
                intensity=self.intensity, jump_law=NormalLaw(0.0, 1.0)))
            if X.jump_marks.size:
                return s, (X, gt)
            s += 1

    def warmup(self) -> Op:
        return self._op(self.functions[0], *self.warm)

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for name in self.functions:
            s, path = self._jumpy_path(self.next_seed)
            self.skipped += s - self.next_seed
            self.next_seed = s + 1
            ops.append(self._op(name, s, path))
        return ops

    def _op(self, fname: str, path_seed: int, path) -> Op:
        X, gt = path
        F = ito.FUNCTION_CATALOG[fname]
        dec = dd.LabeledDecomposition.from_ground_truth(gt)
        nu = gt.compensator

        def run():
            rep = ito.ito_terms_measure_form(F, X, nu, self.schedule, tol=self.tol)
            chain = dd.chain_rule_c01(F, X, dec, nu, self.schedule, tol=self.tol)
            ref = dd.gamma_c12_reference(F, X, dec, nu, self.schedule, tol=self.tol)
            return rep, chain, ref

        def check(result):
            rep, chain, ref = result
            p = rep.parts
            rebuilt = (p["increment_mu"].values - p["linear_mu"].values
                       + p["big_mu"].values)
            reassembly = float(np.max(np.abs(rebuilt - p["jump_sum"].values)))
            gap = float(np.max(np.abs(chain.gamma.values - ref.values)))
            ok = reassembly <= 1e-8 and gap < 2 * self.tol and chain.decision
            return Outcome(ok, wrong=not reassembly <= 1e-8,
                           detail=f"reassembly={reassembly:.2g} gap={gap:.3g} "
                                  f"orthogonal={chain.decision}",
                           jumps=int(X.jump_marks.size))

        return Op(f"{fname}, path seed {path_seed}", run, check)


# README commands at their documented defaults, with the exit code the
# catalog or README documents: 1 only for the flagged expected failures
CLI_COMMANDS = (
    (("simulate", "--kind", "compound_poisson", "--intensity", "2",
      "--jump-law", "normal:0,1", "--n", "1000", "--seed", "3"), 0),
    (("qv", "--scenario", "bm"), 0),
    (("qv", "--scenario", "fbm02"), 1),
    (("qv", "--scenario", "fbm08"), 1),
    (("qv", "--scenario", "convolution"), 0),
    (("forward", "--scenario", "bm", "--fn", "identity"), 0),
    (("convergence", "--scenario", "poisson", "--op", "qv"), 0),
    (("ito-check", "--scenario", "bm", "--fn", "square"), 0),
    (("ito-check", "--scenario", "poisson", "--fn", "identity",
      "--measure-form"), 0),
    (("dirichlet-check", "--scenario", "step_bm"), 0),
    (("dirichlet-check", "--scenario", "pdp_bm"), 0),
    (("dirichlet-check", "--scenario", "fbm_bm"), 0),
    (("dirichlet-check", "--scenario", "self"), 1),
)

PATH_CSV_HEADER = "t,value,left_value,is_jump"


class CliReports:
    """Every README subcommand through ``pathcalc.cli.main`` in-process,
    writing to a fresh directory.  The commands run as the README gives
    them, at the CLI's default seed, so which of them fail does not depend
    on the workload seed; that seed shuffles their order in each cycle.
    Every cycle after the first repeats each invocation, and its artifacts
    are compared with the first cycle's."""

    name = "cli_reports"
    documented_errors = ()
    cycle_s = 5.3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first_seen = {}  # argv -> (artifact digests, first verdict)

    def prepare(self) -> None:
        pass

    def warmup(self) -> Op:
        return self._op(*CLI_COMMANDS[0], record=False)

    def cycle(self, c: int) -> list[Op]:
        order = np.random.default_rng([self.seed, c]).permutation(len(CLI_COMMANDS))
        return [self._op(*CLI_COMMANDS[i]) for i in order]

    def _op(self, argv: tuple, expected: int, record: bool = True) -> Op:
        out = []

        def run():
            out.append(tempfile.mkdtemp(dir=self.workdir))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                return cli.main(list(argv) + ["--out", out[-1]])

        def check(code):
            try:
                artifacts = {p.name: p.read_bytes()
                             for p in sorted(Path(out[-1]).iterdir())}
            finally:
                shutil.rmtree(out[-1], ignore_errors=True)
            if not record:
                return Outcome(True)
            digests = {k: hashlib.sha256(v).hexdigest() for k, v in artifacts.items()}
            seen = self.first_seen.get(argv)
            if seen is None:
                seen = self.first_seen[argv] = (digests, _artifact_problems(artifacts))
            problems = [] if code in (0, 1) else [f"exit {code}"]
            if seen[0] != digests:
                problems.append("repeated invocation wrote different artifacts")
            problems += seen[1]
            detail = f"exit {code} (documented {expected})"
            if problems:
                detail += "; " + "; ".join(problems)
            return Outcome(code == expected and not problems, wrong=bool(problems),
                           detail=detail,
                           bytes_written=sum(len(v) for v in artifacts.values()))

        return Op(" ".join(argv), run, check)


def _artifact_problems(artifacts: dict) -> list[str]:
    problems = []
    for name, data in artifacts.items():
        text = data.decode()
        if name.endswith(".json"):
            try:
                doc = json.loads(text)
            except ValueError:
                problems.append(f"{name} does not parse")
                continue
            if not isinstance(doc, dict) or "schema_version" not in doc:
                problems.append(f"{name} has no schema_version")
        elif name.endswith(".csv") and text.split("\n", 2)[1:2] == [PATH_CSV_HEADER]:
            if paths.CadlagPath.from_csv(text).to_csv() != text:
                problems.append(f"{name} does not round-trip")
    return problems


WORKLOADS = {w.name: w for w in (BracketSweep, JumpIdentities, CliReports)}
