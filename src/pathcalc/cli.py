"""Command-line front door.

Subcommands: simulate, qv, forward, convergence (the qv or forward study,
by --op), ito-check, dirichlet-check, list.  Configuration is a flat
key=value file plus flag overrides; flags win, and a switch takes true or
false.  Artifacts are CSV (paths and the identity residual:
t,value,left_value,is_jump; convergence tables: epsilon,sup_gap) and JSON
reports carrying a schema_version field.
Identical configuration, seeds included, produces byte-identical reports.

Exit codes, set by ``main`` alone: 0 all requested checks pass, 1 check
failure (expected ones, which the catalog flags, and a bracket guard that does
not converge), 2 unknown scenario or any other rejected input (one ``error:``
line on stderr, never a traceback), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import dirichlet as dd
from . import ito as imod
from . import jumps as jmod
from .catalog import ORTH_SCENARIOS, SCENARIOS, list_catalog
from .ito import FUNCTION_CATALOG
from .jumps import parse_jump_law
from .paths import _csv
from .regularize import (DEFAULT_LEVELS, DEFAULT_TOL, EpsilonSchedule, _default_levels,
                         _forward_sums, _limits, _require_tol, _windows, qv_limit,
                         residual_verdict)
from .simulate import SimSpec, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3

OUT_ENV = "PATHCALC_OUT"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are ``CliError``s, so ``main``
    prints them as one ``error:`` line and returns 2."""

    def error(self, message):
        raise CliError(message, EXIT_BAD_CONFIG)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_ENV) or "."
    return Path(out)


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _run(args, sc):
    """What ``sc`` builds, and the geometric schedule of the flags (or the scenario
    defaults, keeping the halvings that span ten base cells) fitted to it.  A bad
    ``eps0`` or level count exits 2 (a ScheduleError) before any simulation."""
    eps0 = args.eps0 if args.eps0 is not None else sc.default_eps0
    sched = EpsilonSchedule.geometric(
        eps0, DEFAULT_LEVELS if args.levels is None else args.levels)
    built = sc.build(seed=args.seed, n=args.n)
    base_dt = built[2] if len(built) == 3 else built[1].base_dt
    if args.levels is None:
        sched = EpsilonSchedule.geometric(eps0, _default_levels(eps0, base_dt))
    return built, sched.for_path(built[0], base_dt)


def _scenario(args, catalog=SCENARIOS):
    if args.scenario is None:
        raise CliError("a scenario is required (flag or config file)",
                       EXIT_BAD_CONFIG)
    sc = catalog.get(args.scenario)
    if sc is None:
        raise CliError(f"unknown scenario {args.scenario!r}", EXIT_BAD_CONFIG)
    return sc


def _function(name):
    F = FUNCTION_CATALOG.get(name)
    if F is None:
        raise CliError(f"unknown function {name!r}", EXIT_BAD_CONFIG)
    return F


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    law = parse_jump_law(args.jump_law) if args.jump_law else None
    spec = SimSpec(args.kind, T=args.T, n=args.n, seed=args.seed,
                   sigma=args.sigma, drift=args.drift,
                   intensity=args.intensity, jump_law=law,
                   hurst=args.hurst, switch_rate=args.switch_rate,
                   regimes=(lambda t: t,)
                   if args.kind == "deterministic" else ())
    path, gt = simulate(spec)
    out = _out_dir(args)
    stem = f"{args.kind}_seed{args.seed}"
    _write_text(out / f"{stem}_path.csv", path.to_csv())
    _write_json(out / f"{stem}_truth.json", gt.to_json_dict())
    print(f"wrote {stem}_path.csv and {stem}_truth.json to {out}")
    return EXIT_OK


def cmd_study(args) -> int:
    """The ``qv`` or ``forward`` window study, its CSVs and JSON written.
    ``qv`` and ``forward`` have no ``op`` default on purpose: ``_parse_args``
    would then pass a config file's ``op`` key on to them, which they ignore."""
    op = getattr(args, "op", args.command)
    sc = _scenario(args)
    (X, gt), sched = _run(args, sc)
    if op == "qv":
        rep = qv_limit(X, schedule=sched, tol=args.tol)
        stem = f"{args.scenario}_qv"
        extra = {"expected_converged": sc.expect}
    else:
        # F(t, X_t) jumps only where X does, so it is a partner of X's study
        Y = imod.path_of_function(_function(args.fn), X)
        rep = _limits(_windows(X, [Y], sched, _forward_sums), sched, args.tol)[0]
        stem, extra = f"{args.scenario}_forward_{args.fn}", {"integrand": args.fn}
    out = _out_dir(args)
    _write_text(out / f"{stem}_convergence.csv",
                _csv("epsilon,sup_gap", rep.epsilons[1:], rep.sup_gaps))
    _write_text(out / f"{stem}_limit.csv", rep.limit.to_csv())
    _write_json(out / f"{stem}_report.json", rep.to_json_dict(scenario=sc.id, **extra))
    status = "converged" if rep.passed else "did not converge"
    if op == "qv":
        expected = "" if rep.passed == sc.expect else " (unexpected)"
        print(f"{sc.id}: window study {status}{expected}; final gap "
              f"{rep.sup_gaps[-1] if rep.sup_gaps.size else 0.0:.3g}")
    else:
        print(f"{sc.id}: forward study {status}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_ito_check(args) -> int:
    sc = _scenario(args)
    (X, gt), sched = _run(args, sc)
    F = _function(args.fn)
    if args.measure_form:
        if gt.compensator is None:
            raise CliError(f"scenario {sc.id} has no compensator model", EXIT_BAD_CONFIG)
        rep = imod.ito_terms_measure_form(F, X, gt.compensator,
                                          schedule=sched, tol=args.tol)
    else:
        rep = imod.ito_terms_c12(F, X, schedule=sched, tol=args.tol)
    rep = replace(rep, verdicts=(residual_verdict(rep.relative_residual, args.threshold),))
    out = _out_dir(args)
    stem = f"{args.scenario}_ito_{args.fn}"
    _write_text(out / f"{stem}_residual.csv", rep.residual.to_csv())
    _write_json(out / f"{stem}_report.json", rep.to_json_dict(scenario=sc.id))
    if args.measure_form:
        _write_json(out / f"{stem}_integrability.json",
                    jmod.integrability_report(X, F).to_json_dict())
    print(f"{sc.id}/{args.fn}: relative residual {rep.relative_residual:.3g} "
          f"({'pass' if rep.passed else 'fail'} at {args.threshold:g})")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_dirichlet_check(args) -> int:
    if args.chain:
        return _run_chain_check(args)
    sc = _scenario(args, ORTH_SCENARIOS)
    (A, N, _), sched = _run(args, sc)
    rep = dd.orthogonality_test(A, N, sched, tol=args.tol)
    _write_json(_out_dir(args) / f"{args.scenario}_orth_report.json",
                rep.to_json_dict(scenario=sc.id, expected_decision=sc.expect))
    expected = "" if rep.passed == sc.expect else " (unexpected)"
    print(f"{sc.id}: orthogonal={rep.passed}{expected}; final estimate "
          f"sup-norm {rep.sup_norms[-1]:.3g}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _run_chain_check(args) -> int:
    """Full decomposition of F(t, X_t) for a scenario with labeled parts,
    with the residual component submitted to the orthogonality battery."""
    sc = SCENARIOS.get(args.chain)
    if sc is not None:
        (X, gt), sched = _run(args, sc)
    if sc is None or gt.decomposition is None:
        raise CliError(f"no labeled decomposition for scenario {args.chain!r}",
                       EXIT_BAD_CONFIG)
    F = _function(args.fn)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    rep = dd.chain_rule_c01(F, X, dec, gt.compensator, sched,
                            tol=max(args.tol, 0.05), orth_tol=args.tol,
                            battery_seed=args.seed)
    _write_json(_out_dir(args) / f"{sc.id}_chain_{args.fn}_report.json",
                rep.to_json_dict(scenario=sc.id))
    print(f"{sc.id}/{args.fn}: residual part "
          f"{'orthogonal' if rep.passed else 'not orthogonal'} "
          f"across {len(rep.orth_reports)} test paths at tol {args.tol:g}")
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def cmd_list(args) -> int:
    sys.stdout.write(list_catalog(args.filter or ""))
    return EXIT_OK


# -- argument plumbing ----------------------------------------------------------


def _tolerance(text: str) -> float:
    """argparse type of --tol and --threshold: a positive finite number."""
    try:
        _require_tol(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}") from None
    return float(text)


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def _add_common(p, scenario=True):
    """The flags of every subcommand but ``list``; with ``scenario``, also
    the window-study flags, which ``simulate`` does not read."""
    p.add_argument("--seed", type=_seed, default=0)
    if scenario:
        p.add_argument("--n", type=int, default=None, help="grid cells (scenario default)")
        p.add_argument("--eps0", type=float, default=None,
                       help="largest window width; the schedule halves from here")
        p.add_argument("--levels", type=int, default=None)
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    else:
        p.add_argument("--n", type=int, default=SimSpec.n,
                       help=f"grid cells (default {SimSpec.n})")
    p.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV} or .)")
    p.add_argument("--config", default=None, help="flat key=value defaults file")
    if scenario:
        p.add_argument("--scenario", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pathcalc",
        description="window-smoothing calculus toolkit for cadlag paths")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a path plus ground truth")
    p.add_argument("--kind", required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--drift", type=float, default=0.0)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--jump-law", default=None,
                   help="dirac:c | normal:loc,scale | uniform:lo,hi")
    p.add_argument("--hurst", type=float, default=0.5)
    p.add_argument("--switch-rate", type=float, default=1.0)
    _add_common(p, scenario=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("qv", help="quadratic variation window study")
    _add_common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("forward", help="forward integral window study")
    _add_common(p)
    p.add_argument("--fn", default="identity",
                   help="catalog function F; the integrand is F(t, X_t)")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("convergence", help="emit (epsilon, sup_gap) for qv or forward")
    _add_common(p)
    p.add_argument("--op", choices=("qv", "forward"), default="qv")
    p.add_argument("--fn", default="identity")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("ito-check", help="term-by-term identity verification")
    _add_common(p)
    p.add_argument("--fn", default="square")
    p.add_argument("--measure-form", action="store_true")
    p.add_argument("--threshold", type=_tolerance, default=1e-2,
                   help="pass when relative residual is below this")
    p.set_defaults(func=cmd_ito_check)

    p = sub.add_parser("dirichlet-check", help="orthogonality scenario check")
    _add_common(p)
    p.add_argument("--chain", default=None,
                   help="run the full chain-rule decomposition for a main "
                        "catalog scenario with labeled parts")
    p.add_argument("--fn", default="square")
    p.set_defaults(func=cmd_dirichlet_check, tol=dd.ORTH_TOL)

    p = sub.add_parser("list", help="print the catalogs")
    p.add_argument("filter", nargs="?", default="")
    p.set_defaults(func=cmd_list)
    return ap


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_BAD_CONFIG)
    config = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"bad config line: {line!r}", EXIT_BAD_CONFIG)
        key, _, value = line.partition("=")
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def _parse_args(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with key=value defaults from --config; explicit flags win.

    Config entries become flags placed before the command line's own, so
    argparse converts them and a later explicit flag overrides them.  Keys
    the subcommand does not have are ignored; a switch takes true or false.
    """
    args = ap.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    tokens = []
    for key, value in _read_config(args.config).items():
        if key in ("command", "func") or not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if value not in ("true", "false"):
                raise CliError(f"config {key}={value!r}: expected true or false",
                               EXIT_BAD_CONFIG)
            if value == "true":
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return ap.parse_args(argv[:at] + tokens + argv[at:])


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _parse_args(ap, argv)
        return args.func(args)
    except imod.NonConvergenceError as exc:
        # a failed check, not bad input: the chain check names its --chain
        v = exc.verdict
        gap = "no gap" if v.statistic is None else f"gap {v.statistic:.3g}"
        print(f"{getattr(args, 'chain', None) or args.scenario}: {exc} "
              f"({v.rule} {gap}, threshold {v.threshold:.3g})")
        return EXIT_CHECK_FAILED
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, jmod.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
