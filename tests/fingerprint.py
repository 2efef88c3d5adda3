"""Sha256 fingerprint of the program's outputs, for bit-identity claims.

Run from the root of a checkout (pytest does not collect this file):

    PYTHONPATH=src python tests/fingerprint.py [--cases]

It prints one sha256 per group of cases and a total over the groups.  Two
checkouts whose totals agree give byte-identical outputs on every case:

* ``paths``       simulated paths (jump diffusion, compound Poisson,
                  Brownian, pdp; 3 seeds each), their ground truth, CSV
                  round trips, arithmetic, and evaluation off the grid;
* ``kernels``     6 estimator kernels at 3 window widths on those paths;
* ``identities``  ``jump_identities`` reports (4 functions, 3 seeds,
                  ``sin`` on one path of 20000 cells, and ``square`` on a
                  jump-free Poisson path), ``ito_terms_c12``,
                  ``ito_c1_lambda`` and the three decomposition checks;
* ``errors``      the type and message of every rejected input below;
* ``declared``    the type only of inputs whose declared jumps disagree
                  with their values (their messages may be reworded);
* ``cli``         exit code, stdout, stderr and artifacts of 11 commands,
                  with the output directory scrubbed from the output.

A path contributes its grid, values, left values, jump marks and rule, a
report its JSON and every path it holds.  With ``--cases`` one line per case
comes first: its group, its ordinal in the group, a short label (the path
label and the function or check where there is one) and the first 12 hex
digits of the case's own sha256, so a diff of two checkouts' outputs names
the cases that moved.  The script uses only long-standing public API, so one
copy runs against any checkout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import pathcalc.dirichlet as dd
import pathcalc.ito as ito
import pathcalc.regularize as reg
from pathcalc.cli import main as cli_main
from pathcalc.jumps import CompensatorSpec, DiracLaw, NormalLaw, X_FIELD, integrate_nu
from pathcalc.paths import CadlagPath, make_path, step_path
from pathcalc.simulate import SimSpec, simulate

N = 4000
SEEDS = (1, 2, 3)
WIDTHS = (0.1, 0.0173, 0.004)

GROUPS = ("paths", "kernels", "identities", "errors", "declared", "cli")


class Fingerprint:
    def __init__(self):
        self.groups = {g: hashlib.sha256() for g in GROUPS}
        self.cases = []

    def add(self, group: str, label: str, obj) -> None:
        case = hashlib.sha256()
        for chunk in _chunks(obj):
            for h in (self.groups[group], case):
                h.update(len(chunk).to_bytes(8, "little"))
                h.update(chunk)
        self.cases.append((group, label, case.hexdigest()[:12]))

    def digests(self) -> dict:
        return {g: h.hexdigest() for g, h in self.groups.items()}

    def total(self) -> str:
        return hashlib.sha256("".join(self.digests().values()).encode()).hexdigest()


def _chunks(obj):
    if isinstance(obj, CadlagPath):
        for arr in (obj.grid, obj.values, obj.left_values, obj.jump_marks):
            yield from _chunks(arr)
        yield obj.rule.encode()
    elif isinstance(obj, np.ndarray):
        yield f"{obj.dtype.str}{obj.shape}".encode()
        yield np.ascontiguousarray(obj).tobytes()
    elif isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield str(k).encode()
            yield from _chunks(obj[k])
    elif isinstance(obj, (list, tuple)):
        yield f"seq{len(obj)}".encode()
        for item in obj:
            yield from _chunks(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "to_json_dict"):
            yield json.dumps(obj.to_json_dict(), sort_keys=True).encode()
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, (CadlagPath, np.ndarray, dict, list, tuple)):
                yield f.name.encode()
                yield from _chunks(value)
    elif isinstance(obj, bytes):
        yield obj
    else:
        yield repr(obj).encode()


def _paths():
    """(label, path, ground truth) for the 12 simulated paths."""
    out = []
    for seed in SEEDS:
        for kind, kw in (("jump_diffusion", dict(sigma=1.0, intensity=3.0,
                                                 jump_law=NormalLaw(0.0, 0.8))),
                         ("compound_poisson", dict(intensity=5.0,
                                                   jump_law=NormalLaw(0.5, 1.0))),
                         ("brownian", {}),
                         ("pdp", dict(switch_rate=4.0))):
            X, gt = simulate(SimSpec(kind, n=N, seed=seed, **kw))
            out.append((f"{kind}/{seed}", X, gt))
    return out


def paths_group(fp: Fingerprint, cases) -> None:
    for label, X, gt in cases:
        fp.add("paths", label, (label, X, gt))
        fp.add("paths", f"{label} decomposition", gt.decomposition or {})
        fp.add("paths", f"{label} from_csv", CadlagPath.from_csv(X.to_csv()))
        fp.add("paths", f"{label} csv", X.to_csv())
        Y = np.cos(1.0) * X
        fp.add("paths", f"{label} arithmetic",
               (X + Y, X - Y, -X, 2.5 * X, X.jumps(), X.sup_norm()))
        t = np.linspace(0.0, 1.2, 97)
        fp.add("paths", f"{label} evaluation", (X.value_at(t), X.left_limit(t[1:]),
                                                 X.jump_times, X.jump_sizes,
                                                 X.sum_squared_jumps()))
    fp.add("paths", "step_path", step_path(1.0, 50, 0.37))
    fp.add("paths", "make_path pc",
           make_path([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], [(1, 0.0)], rule="pc"))
    fp.add("paths", "make_path", make_path([0.0, 0.5, 1.0], [0.0, 1.0, 3.0], [(2, 2.0)]))


def kernels_group(fp: Fingerprint, cases) -> None:
    for label, X, _ in cases:
        Y = (X * 0.5 + X * X.values[-1]) - X * 0.25
        g = ito.path_of_function(ito.FUNCTION_CATALOG["sin"], X)
        for eps in WIDTHS:
            fp.add("kernels", f"{label} eps={eps}", (label, eps,
                                                     reg.covariation(X, Y, eps),
                                                     reg.covariation(X, X, eps),
                                                     reg.forward_integral(Y, X, eps),
                                                     reg.weighted_qv(g, X, eps),
                                                     reg.covariation_continuous(X, Y, eps),
                                                     reg.forward_integral_rv(Y, X, eps)))


def identities_group(fp: Fingerprint, cases) -> None:
    sched = reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / N)
    for label, X, gt in cases:
        kind = label.split("/")[0]
        dec = dd.LabeledDecomposition.from_ground_truth(gt)
        if kind == "jump_diffusion":
            for name in ito.C12_SUITE:
                F = ito.FUNCTION_CATALOG[name]
                fp.add("identities", f"{label} jump_identities {name}",
                       (label, name, *dd.jump_identities(F, X, dec, gt.compensator,
                                                         sched, tol=0.05)))
            fp.add("identities", f"{label} particular_wd_check",
                   dd.particular_wd_check(dec, gt.compensator, sched, tol=0.05))
            fp.add("identities", f"{label} md_representation_check",
                   dd.md_representation_check(dec, X, gt.compensator))
        elif kind == "compound_poisson":
            fp.add("identities", f"{label} special_wd_c0_chain sin", dd.special_wd_c0_chain(
                ito.FUNCTION_CATALOG["sin"], X, gt.compensator, sched))
            fp.add("identities", f"{label} md_representation_check",
                   dd.md_representation_check(dec, X, gt.compensator))
        elif kind == "brownian":
            fp.add("identities", f"{label} ito_terms_c12 square", ito.ito_terms_c12(
                ito.FUNCTION_CATALOG["square"], X, sched, tol=0.05))
            fp.add("identities", f"{label} ito_c1_lambda xabs_sqrt", ito.ito_c1_lambda(
                ito.FUNCTION_CATALOG["xabs_sqrt"], X, sched, tol=0.05))
    # a path of more than 8192 cells, whose size quadrature spans more rows
    # than any path above
    X, gt = simulate(SimSpec("jump_diffusion", n=20000, seed=500, sigma=1.0, intensity=3.0,
                             jump_law=NormalLaw(0, 1)))
    fp.add("identities", "jump_diffusion/500 n=20000 jump_identities sin",
           dd.jump_identities(ito.FUNCTION_CATALOG["sin"], X,
                              dd.LabeledDecomposition.from_ground_truth(gt), gt.compensator,
                              reg.EpsilonSchedule.geometric(0.05, 10).snapped(gt.base_dt),
                              tol=0.05))
    # a path of a jump process that draws no jump, whose compensator is given
    X, gt = simulate(SimSpec("poisson", n=N, seed=6, intensity=2.0))
    fp.add("identities", "poisson/6 jump_identities square",
           dd.jump_identities(ito.FUNCTION_CATALOG["square"], X,
                              dd.LabeledDecomposition.from_ground_truth(gt), gt.compensator,
                              sched, tol=0.05))


def _rejection(fn) -> tuple:
    try:
        fn()
    except Exception as exc:  # the type and message are the fingerprint
        return type(exc).__name__, str(exc)
    return ("accepted",)


def errors_group(fp: Fingerprint, cases) -> None:
    X = cases[0][1]
    g3 = [0.0, 0.5, 1.0]
    atom_at_zero = CompensatorSpec.user_supplied(1.0, DiracLaw(1.0),
                                                 atoms=((0.0, DiracLaw(1.0), 1.0),))
    rejected = {
        "short grid": lambda: make_path([0.0], [1.0]),
        "grid start": lambda: make_path([0.1, 0.5, 1.0], [0.0, 1.0, 1.0]),
        "lengths": lambda: make_path(g3, [0.0, 1.0]),
        "nan value": lambda: make_path(g3, [0.0, np.nan, 1.0]),
        "inf grid": lambda: make_path([0.0, np.inf, 1.0], [0.0, 0.0, 0.0]),
        "decreasing grid": lambda: make_path([0.0, 0.5, 0.5], [0.0, 1.0, 1.0]),
        "2d values": lambda: make_path(g3, [[0.0, 1.0, 1.0]]),
        "jump index": lambda: make_path(g3, [0.0, 1.0, 1.0], [(3, 0.0)]),
        "jump index 0": lambda: make_path(g3, [0.0, 1.0, 1.0], [(0, 0.0)]),
        "duplicate jump": lambda: make_path(g3, [0.0, 1.0, 1.0], [(1, 0.0), (1, 0.0)]),
        "pc left value": lambda: make_path(g3, [0.0, 1.0, 1.0], [(1, 0.5)], rule="pc"),
        "rule": lambda: make_path(g3, [0.0, 1.0, 1.0], rule="cubic"),
        "csv row": lambda: CadlagPath.from_csv("t,value,left_value,is_jump\n0,1,1\n"),
        "csv rule": lambda: CadlagPath.from_csv(
            "# rule=cubic\n0.0,0.0,0.0,0\n1.0,0.0,0.0,0\n"),
        "shared grid": lambda: X + step_path(1.0, 10, 0.5),
        "value_at": lambda: X.value_at(-1.0),
        "left_limit": lambda: X.left_limit(0.0),
        "width": lambda: reg.covariation(X, X, float("nan")),
        "width past T": lambda: reg.forward_integral(X, X, 2.0),
        "schedule": lambda: reg.EpsilonSchedule.geometric(0.05, 0),
        "atom at 0": lambda: integrate_nu(X_FIELD, atom_at_zero, X),
        "spec kind": lambda: SimSpec("nope"),
        "spec sigma": lambda: SimSpec("brownian", sigma=-1.0),
        "spec T": lambda: SimSpec("brownian", T=float("nan")),
        "spec n": lambda: SimSpec("brownian", n=1),
        "spec hurst": lambda: SimSpec("fbm", hurst=1.2),
        "spec rate": lambda: SimSpec("pdp", switch_rate=1e9),
        "one window": lambda: ito.ito_terms_c12(
            ito.FUNCTION_CATALOG["square"], X,
            reg.EpsilonSchedule.geometric(0.05, 1).snapped(1.0 / N)),
        "no compensator": lambda: ito.ito_terms_measure_form(
            ito.FUNCTION_CATALOG["square"], X, None,
            reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / N), tol=0.05),
        "csv is_jump 7": lambda: CadlagPath.from_csv("0.0,0.0,0.0,0\n0.5,1.0,0.0,7\n"),
        "csv is_jump -1": lambda: CadlagPath.from_csv("0.0,0.0,0.0,0\n0.5,1.0,0.0,-1\n"),
    }
    for name, fn in rejected.items():
        fp.add("errors", name, (name, _rejection(fn)))
    # declared jumps that disagree with the values, in both directions
    csv_row = "{},{},{},{}\n"
    declared = {
        "pc undeclared": lambda: make_path(g3, [0.0, 1.0, 1.0], rule="pc"),
        "zero size": lambda: make_path(g3, [0.0, 1.0, 1.0], [(1, 1.0)]),
        "csv undeclared": lambda: CadlagPath.from_csv(
            csv_row.format(0.0, 0.0, 0.0, 0) + csv_row.format(1.0, 1.0, 0.0, 0)),
        "csv zero size": lambda: CadlagPath.from_csv(
            csv_row.format(0.0, 0.0, 0.0, 0) + csv_row.format(1.0, 1.0, 1.0, 1)),
        "csv index 0": lambda: CadlagPath.from_csv(
            csv_row.format(0.0, 1.0, 0.0, 1) + csv_row.format(1.0, 1.0, 1.0, 0)),
    }
    for name, fn in declared.items():
        fp.add("declared", name, (name, _rejection(fn)[0]))


# --levels keeps the smallest window ten cells wide on these short grids, so
# every study command gets as far as writing its report
CLI_COMMANDS = (
    ("list",),
    ("simulate", "--kind", "compound_poisson", "--intensity", "2",
     "--jump-law", "normal:0,1", "--n", "1000", "--seed", "3"),
    ("simulate", "--kind", "pdp", "--n", "500", "--seed", "2"),
    ("qv", "--scenario", "bm", "--n", "4000", "--levels", "4"),
    ("qv", "--scenario", "fbm02", "--n", "1000", "--levels", "2"),
    ("forward", "--scenario", "bm", "--fn", "identity", "--n", "4000",
     "--levels", "4"),
    ("convergence", "--scenario", "poisson", "--op", "qv", "--n", "4000",
     "--levels", "4"),
    ("ito-check", "--scenario", "poisson", "--fn", "identity", "--measure-form",
     "--n", "4000", "--levels", "4"),
    ("dirichlet-check", "--scenario", "step_bm", "--n", "4000", "--levels", "4"),
    ("dirichlet-check", "--scenario", "pdp_bm", "--n", "4000", "--levels", "4"),
    ("dirichlet-check", "--chain", "poisson", "--fn", "square", "--n", "4000",
     "--levels", "4"),
)


def cli_group(fp: Fingerprint) -> None:
    for argv in CLI_COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([*argv] if argv == ("list",) else [*argv, "--out", tmp])
            artifacts = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
            fp.add("cli", " ".join(argv[:3]),
                   (argv, code, out.getvalue().replace(tmp, "<out>"),
                    err.getvalue().replace(tmp, "<out>"), artifacts))


def main(argv: list[str]) -> int:
    fp = Fingerprint()
    cases = _paths()
    paths_group(fp, cases)
    kernels_group(fp, cases)
    identities_group(fp, cases)
    errors_group(fp, cases)
    cli_group(fp)
    if "--cases" in argv:
        ordinals = dict.fromkeys(GROUPS, 0)
        for group, label, digest in fp.cases:
            ordinals[group] += 1
            print(f"{group:12s} {ordinals[group]:3d} {label:44s} {digest}")
    for group, digest in fp.digests().items():
        print(f"{group:12s} {digest}")
    print(f"{'total':12s} {fp.total()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
