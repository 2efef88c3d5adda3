import argparse
import ast
import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

import pathcalc.catalog as catalog
import pathcalc.cli as cli
from pathcalc.catalog import ORTH_SCENARIOS, SCENARIOS, Scenario
from pathcalc.cli import main
from pathcalc.jumps import NormalLaw
from pathcalc.paths import CadlagPath
from pathcalc.regularize import DEFAULT_LEVELS, EpsilonSchedule, _default_levels
from pathcalc.simulate import SimSpec


def run(args):
    return main(args)


def test_list_prints_catalogs(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert "convolution" in out
    assert "t^2 / 2" in out
    assert "step_bm" in out
    assert "functions:" in out


def test_list_filter(capsys):
    assert run(["list", "convolution"]) == 0
    out = capsys.readouterr().out
    assert "convolution" in out
    assert "poisson" not in out.split("scenarios:")[-1].split("orth")[0]


def test_list_flags_only_the_negative_control(capsys):
    # fbm02 and fbm08 expect no convergence, but only an orthogonality
    # scenario that expects no decision is a negative control
    assert run(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines
            if line.endswith(" [expected negative]")] == ["self"]
    for name in ("fbm02", "fbm08"):
        [line] = [line for line in lines if line.split()[:1] == [name]]
        assert line.endswith(f"-> {SCENARIOS[name].anchor}")


def test_unknown_scenario_exits_2(tmp_path, capsys):
    assert run(["qv", "--scenario", "nope", "--out", str(tmp_path)]) == 2


def test_bad_schedule_exits_2(tmp_path):
    code = run(["qv", "--scenario", "poisson", "--n", "100",
                "--out", str(tmp_path)])
    assert code == 2


def test_window_past_the_horizon_exits_2_naming_it(tmp_path, capsys):
    # windows 2.0 and 1.0 on a horizon of 1.0: the first does not fit
    code = run(["qv", "--scenario", "bm", "--n", "1000", "--eps0", "4",
                "--levels", "2", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: window 2.0 does not fit the grid\n"
    assert not any(tmp_path.iterdir())


def test_qv_writes_artifacts_and_passes(tmp_path):
    code = run(["qv", "--scenario", "poisson", "--tol", "0.05",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "poisson_qv_report.json").read_text())
    assert report["schema_version"] == 3
    assert report["passed"] is True
    conv = (tmp_path / "poisson_qv_convergence.csv").read_text()
    assert conv.splitlines()[0] == "epsilon,sup_gap"
    assert (tmp_path / "poisson_qv_limit.csv").exists()


def test_qv_rough_scenario_reports_expected_failure(tmp_path):
    code = run(["qv", "--scenario", "fbm02", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "fbm02_qv_report.json").read_text())
    assert report["passed"] is False
    assert report["expected_converged"] is False


def test_qv_single_level_reports_no_convergence(tmp_path, capsys):
    code = run(["qv", "--scenario", "fbm02", "--levels", "1",
                "--out", str(tmp_path)])
    assert code == 1
    assert "did not converge" in capsys.readouterr().out
    report = json.loads((tmp_path / "fbm02_qv_report.json").read_text())
    assert report["passed"] is False
    # one window has no gap: the convergence table is its header alone
    assert (tmp_path / "fbm02_qv_convergence.csv").read_text() == "epsilon,sup_gap\n"


def test_ito_check_pass_and_residual_csv(tmp_path):
    code = run(["ito-check", "--scenario", "bm", "--fn", "square",
                "--n", "50000", "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    res = (tmp_path / "bm_ito_square_residual.csv").read_text()
    assert res.splitlines()[1] == "t,value,left_value,is_jump"
    report = json.loads((tmp_path / "bm_ito_square_report.json").read_text())
    assert report["relative_residual"] < 1e-2


def test_ito_check_residual_csv_keeps_left_limits(tmp_path):
    # the sup-norm is taken over values and left values: a CSV of the values
    # alone read 0.01458 on this path against the report's 0.02526
    assert run(["ito-check", "--scenario", "jump_diffusion", "--fn", "square",
                "--tol", "0.05", "--out", str(tmp_path)]) == 0
    residual = CadlagPath.from_csv(
        (tmp_path / "jump_diffusion_ito_square_residual.csv").read_text())
    report = json.loads((tmp_path / "jump_diffusion_ito_square_report.json").read_text())
    assert residual.sup_norm() == report["final_residual_sup"]
    assert residual.jump_marks.size


def test_ito_check_measure_form(tmp_path):
    code = run(["ito-check", "--scenario", "poisson", "--fn", "identity",
                "--measure-form", "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    diag = json.loads(
        (tmp_path / "poisson_ito_identity_integrability.json").read_text())
    assert diag["kind"] == "integrability_report"
    assert diag["square_summable"] is True


def test_dirichlet_check_positive_and_negative(tmp_path):
    assert run(["dirichlet-check", "--scenario", "step_bm",
                "--out", str(tmp_path)]) == 0
    assert run(["dirichlet-check", "--scenario", "self",
                "--out", str(tmp_path)]) == 1
    rep = json.loads((tmp_path / "self_orth_report.json").read_text())
    assert rep["passed"] is False
    assert rep["expected_decision"] is False


def test_dirichlet_chain_mode(tmp_path):
    code = run(["dirichlet-check", "--chain", "poisson", "--fn", "square",
                "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(
        (tmp_path / "poisson_chain_square_report.json").read_text())
    assert rep["kind"] == "chain_rule_report"
    assert rep["passed"] is True


def test_simulate_writes_path_and_truth(tmp_path):
    code = run(["simulate", "--kind", "compound_poisson", "--intensity", "2",
                "--jump-law", "normal:0,1", "--n", "256", "--seed", "3",
                "--out", str(tmp_path)])
    assert code == 0
    truth = json.loads(
        (tmp_path / "compound_poisson_seed3_truth.json").read_text())
    assert truth["schema_version"] == 1
    assert truth["compensator"]["kind"] == "compound_poisson"
    csv = (tmp_path / "compound_poisson_seed3_path.csv").read_text()
    assert csv.splitlines()[1] == "t,value,left_value,is_jump"
    from pathcalc.paths import CadlagPath
    p = CadlagPath.from_csv(csv)
    assert [t for t, _ in p.jumps()] == truth["jump_times"]


def test_simulate_without_n_uses_its_documented_default(tmp_path):
    from pathcalc.paths import CadlagPath
    from pathcalc.simulate import SimSpec
    assert run(["simulate", "--kind", "brownian", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "brownian_seed0_path.csv").read_text()
    assert CadlagPath.from_csv(csv).n_points == SimSpec.n + 1 == 1001


@pytest.mark.parametrize("flag", [["--tol", "0.1"], ["--eps0", "0.1"],
                                  ["--levels", "3"]])
def test_simulate_has_no_window_study_flags(tmp_path, capsys, flag):
    assert exit_code(["simulate", "--kind", "brownian", *flag,
                      "--out", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # a config key the subcommand lacks is ignored, as before
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[0][2:]}={flag[1]}\n")
    out = tmp_path / "out"
    assert run(["simulate", "--kind", "brownian", "--config", str(cfg),
                "--out", str(out)]) == 0
    assert (out / "brownian_seed0_path.csv").exists()


def test_simulate_bad_kind_exits_2(tmp_path):
    assert run(["simulate", "--kind", "weird", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["qv", "--scenario", "fbm02", "--n", "5000"],
    ["qv", "--scenario", "bm", "--n", "1"],
    ["dirichlet-check", "--chain", "jump_diffusion", "--n", "1"],
    ["simulate", "--kind", "compound_poisson", "--intensity", "1e9", "--n", "1000"],
])
def test_simulation_error_exits_2(tmp_path, capsys, argv):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("law", ["uniform:0,inf", "uniform:-inf,0", "normal:1,2,3",
                                 "dirac:1,2", "normal:0,nan", "dirac:inf"])
def test_bad_jump_law_exits_2_naming_the_law(tmp_path, capsys, law):
    assert run(["simulate", "--kind", "compound_poisson", "--n", "100",
                "--jump-law", law, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert law.partition(":")[0] in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, names", [
    (["--jump-law", "normal:abc"], "jump law 'normal:abc'"),
    (["--sigma", "nan"], "sigma must be finite"),
    (["--sigma", "inf"], "sigma must be finite"),
    (["--drift", "inf"], "drift must be finite"),
    (["--drift", "nan"], "drift must be finite"),
    (["--kind", "pdp", "--switch-rate", "-1"], "switch rate must be nonnegative"),
])
def test_bad_simulate_input_exits_2_naming_it(tmp_path, capsys, recwarn, flags, names):
    assert run(["simulate", "--kind", "jump_diffusion", "--n", "100", *flags,
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    assert not recwarn.list
    assert not any(tmp_path.iterdir())


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:  # argparse rejects a badly typed value
        return exc.code


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, tol):
    # --tol and ito-check's --threshold take the same type
    cfg = tmp_path / "run.cfg"
    for command, key in ((["qv"], "tol"),
                         (["ito-check", "--fn", "identity"], "threshold")):
        assert exit_code(command + ["--scenario", "poisson", f"--{key}", tol,
                                    "--out", str(tmp_path)]) == 2
        cfg.write_text(f"scenario=poisson\n{key}={tol}\n")
        assert exit_code(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"argument --{key}: expected a positive") == 2


@pytest.mark.parametrize("eps0", ["nan", "inf"])
def test_non_finite_eps0_exits_2(tmp_path, capsys, eps0):
    assert run(["qv", "--scenario", "bm", "--eps0", eps0,
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["simulate", "--kind", "brownian"],
    ["qv", "--scenario", "bm"],
    ["forward", "--scenario", "bm"],
    ["convergence", "--scenario", "bm"],
    ["ito-check", "--scenario", "bm"],
    ["dirichlet-check", "--scenario", "step_bm"],
])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command):
    for seed in ("-1", "1.5"):
        assert exit_code(command + ["--seed", seed, "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=-1\n")
    assert exit_code(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("argument --seed: expected a non-negative integer") == 3


@pytest.mark.parametrize("command", [
    ["qv", "--scenario", "bm"],
    ["qv", "--scenario", "step"],
    ["dirichlet-check", "--scenario", "step_bm"],
    ["dirichlet-check", "--scenario", "self"],
])
def test_zero_grid_cells_exits_2(tmp_path, capsys, command):
    assert run(command + ["--n", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: need at least two grid cells\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--kind", "brownian"],
    ["qv", "--scenario", "step"],  # its builder does not go through SimSpec
])
def test_grid_cells_over_the_cap_exit_2(tmp_path, capsys, command):
    # rejected before the 745 GiB grid is allocated
    assert run(command + ["--n", "100000000000", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: grid cells must be at most 10000000\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("levels", ["0", "1075", "1000000"])
def test_levels_out_of_range_exit_2_before_building_widths(tmp_path, capsys, levels):
    # a million levels used to build a million widths (a 39 MiB peak) first
    tracemalloc.start()
    try:
        code = run(["qv", "--scenario", "poisson", "--levels", levels,
                    "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2**20
    assert capsys.readouterr().err == "error: levels must be between 1 and 1074\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("T", ["nan", "inf"])
def test_non_finite_horizon_exits_2(tmp_path, capsys, T):
    assert run(["simulate", "--kind", "brownian", "--T", T,
                "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: horizon must be positive and finite\n"


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["qv", "--scenario", "poisson", "--seed", "5",
                    "--out", str(out)]) == 0
    assert ((a / "poisson_qv_report.json").read_bytes()
            == (b / "poisson_qv_report.json").read_bytes())
    assert ((a / "poisson_qv_limit.csv").read_bytes()
            == (b / "poisson_qv_limit.csv").read_bytes())


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=poisson\nseed=9\ntol=0.05\n")
    out1 = tmp_path / "o1"
    assert run(["qv", "--config", str(cfg), "--out", str(out1)]) == 0
    rep1 = json.loads((out1 / "poisson_qv_report.json").read_text())
    assert rep1["tol"] == 0.05
    # explicit flag wins over the config value
    out2 = tmp_path / "o2"
    assert run(["qv", "--config", str(cfg), "--tol", "0.02",
                "--out", str(out2)]) == 0
    rep2 = json.loads((out2 / "poisson_qv_report.json").read_text())
    assert rep2["tol"] == 0.02


def test_config_boolean_false_keeps_flag_off(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=bm\nfn=square\nn=50000\ntol=0.05\nmeasure_form=false\n")
    # bm has no compensator model, so the measure form would exit 2
    assert run(["ito-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "bm_ito_square_integrability.json").exists()


def test_config_boolean_true_turns_flag_on(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=poisson\nfn=identity\ntol=0.05\nmeasure_form=true\n")
    assert run(["ito-check", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "poisson_ito_identity_integrability.json").exists()


@pytest.mark.parametrize("line", ["measure_form=yes", "measure_form=False",
                                  "tol=abc"])
def test_bad_config_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario=poisson\nfn=identity\n{line}\n")
    code = exit_code(["ito-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert line.split("=")[0] in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PATHCALC_OUT", str(tmp_path / "envout"))
    assert run(["dirichlet-check", "--scenario", "step_bm", "--n", "20000",
                "--eps0", "0.05", "--levels", "6"]) == 0
    assert (tmp_path / "envout" / "step_bm_orth_report.json").exists()


def test_forward_subcommand(tmp_path):
    code = run(["forward", "--scenario", "bm", "--fn", "identity",
                "--n", "50000", "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "bm_forward_identity_report.json").exists()


def test_convergence_subcommand_dispatch(tmp_path):
    code = run(["convergence", "--scenario", "poisson", "--op", "qv",
                "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "poisson_qv_convergence.csv").exists()


@pytest.mark.parametrize("op", ["qv", "forward"])
def test_convergence_op_is_the_op_subcommand(tmp_path, capsys, op):
    flags = ["--scenario", "poisson", "--n", "4000", "--levels", "4"]
    outputs = []
    for argv in (["convergence", "--op", op], [op]):
        out = tmp_path / argv[0]
        code = main([*argv, *flags, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((code, files, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 3


def test_an_op_key_in_a_qv_config_is_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=poisson\nn=4000\nlevels=4\nop=forward\n")
    assert run(["qv", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".cfg") == [
        "poisson_qv_convergence.csv", "poisson_qv_limit.csv", "poisson_qv_report.json"]


# the bracket guard's message; main prints its verdict's statistic and threshold after it
NOT_CONVERGED = "bracket estimate did not converge along the schedule"

# (argv, exit code, the one line printed): a failed check prints its line on
# stdout, rejected input its error line on stderr
BAD_INPUT = [
    ("qv --scenario bm --n 1000 --eps0 1e308 --levels 1", 2,
     "error: window widths must be positive and finite"),
    ("dirichlet-check --chain bm --n 1000 --levels 3 --eps0 0.4 --seed 1", 1,
     f"bm: {NOT_CONVERGED} (cauchy gap 0.246, threshold 0.0547)"),
    ("dirichlet-check --chain jump_diffusion --n 1000 --levels 2 --eps0 0.4", 1,
     f"jump_diffusion: {NOT_CONVERGED} (cauchy gap 0.917, threshold 0.231)"),
    ("dirichlet-check --chain cp_normal --fn xabs_sqrt --n 2000 --levels 2 "
     "--eps0 0.2", 1, f"cp_normal: {NOT_CONVERGED} (cauchy gap 0.494, threshold 0.18)"),
    ("dirichlet-check --chain poisson --n 1000 --levels 2 --eps0 0.4", 1,
     f"poisson: {NOT_CONVERGED} (cauchy gap 0.518, threshold 0.198)"),
    # one window: the guard's study has no gap to compare
    ("ito-check --scenario poisson --n 1000 --levels 1", 1,
     f"poisson: {NOT_CONVERGED} (cauchy no gap, threshold 0.04)"),
    ("qv --scenario bm --eps0 nan", 2,
     "error: window widths must be positive and finite"),
    ("qv --scenario bm --config missing.cfg", 2, "error: cannot read config"),
    ("ito-check --scenario poisson --fn rough_time --n 1000 --levels 2", 2,
     "error: rough_time is not of class c12"),
    ("ito-check --scenario fbm08 --measure-form --n 500 --levels 2", 2,
     "error: scenario fbm08 has no compensator model"),
    ("simulate --kind compound_poisson --n 100 --jump-law normal:0,0", 2,
     "error: scale must be positive"),
    ("dirichlet-check --scenario fbm_bm --n 5000", 2,
     "error: exact-covariance sampling is limited to n <= 4096"),
    ("dirichlet-check --scenario nope", 2, "error: unknown scenario 'nope'"),
    ("forward --scenario bm --n 1000 --levels 2 --fn nope", 2,
     "error: unknown function 'nope'"),
    ("convergence --scenario poisson --op forward --fn nope --n 1000 --levels 2", 2,
     "error: unknown function 'nope'"),
    ("qv --n 1000", 2, "error: a scenario is required (flag or config file)"),
    ("simulate --kind poisson --n 100 --intensity -1", 2,
     "error: jump intensity must be nonnegative"),
]


@pytest.mark.parametrize("argv, code, line", BAD_INPUT, ids=[c[0] for c in BAD_INPUT])
def test_no_bad_input_escapes_main(tmp_path, monkeypatch, capsys, argv, code, line):
    monkeypatch.chdir(tmp_path)
    assert run(argv.split() + ["--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert (out, err) == (line + "\n", "")
    else:
        assert out == "" and err.startswith(line) and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


# (the text of the file run.cfg, argv, exit code, the error line): input read
# from a file, or an --out that cannot be written (a path under a regular file)
FILE_INPUT = [
    ("scenario=bm\nlevels\n", "qv --config run.cfg", 2,
     "error: bad config line: 'levels'"),
    ("# comment\n\nscenario=nope\n", "qv --config run.cfg", 2,
     "error: unknown scenario 'nope'"),
    ("", "simulate --kind brownian --n 100 --out run.cfg/out", 3,
     "error: cannot write run.cfg/out/brownian_seed0_path.csv"),
]


@pytest.mark.parametrize("config, argv, code, line", FILE_INPUT,
                         ids=[c[1] for c in FILE_INPUT])
def test_no_bad_file_input_escapes_main(tmp_path, monkeypatch, capsys, config, argv,
                                        code, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(config)
    argv = argv.split()
    assert run(argv if "--out" in argv else argv + ["--out", "out"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(line) and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("name", ["pdp", "step", "nope"])
def test_chain_without_labeled_parts_exits_2(tmp_path, capsys, name):
    assert run(["dirichlet-check", "--chain", name, "--out", str(tmp_path)]) == 2
    assert (capsys.readouterr().err
            == f"error: no labeled decomposition for scenario {name!r}\n")


def test_the_levy_ito_scenarios_are_the_ones_with_labeled_parts():
    labeled = {name for name, sc in SCENARIOS.items()
               if sc.build(n=1000)[1].decomposition is not None}
    assert labeled == {"bm", "poisson", "cp_normal", "jump_diffusion"}


def test_main_alone_maps_errors_to_exit_codes():
    # the commands raise; main turns what they raise into an exit code
    # (_write_text and _read_config turn an OSError into a CliError)
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef)
                and (f.name.startswith("cmd_") or f.name == "_run_chain_check")]
    assert len(commands) == 6
    assert [f.name for f in commands
            if any(isinstance(node, ast.Try) for node in ast.walk(f))] == []


@pytest.mark.parametrize("sc", [*SCENARIOS.values(), *ORTH_SCENARIOS.values()],
                         ids=lambda sc: sc.id)
def test_run_fits_the_schedule_at_the_build_base_spacing(sc):
    # every flag at its default, as the README runs each command
    args = argparse.Namespace(seed=0, n=None, eps0=None, levels=None)
    built, sched = cli._run(args, sc)
    base_dt = built[1].base_dt if sc.id in SCENARIOS else built[2]
    assert base_dt == 1.0 / sc.default_n
    levels = _default_levels(sc.default_eps0, 1 / sc.default_n)
    assert sched == EpsilonSchedule.geometric(sc.default_eps0, levels).for_path(built[0], base_dt)


@pytest.mark.parametrize("sc", [*SCENARIOS.values(), *ORTH_SCENARIOS.values()],
                         ids=lambda sc: sc.id)
def test_run_without_levels_fits_a_smaller_grid(sc):
    # the halvings of default_eps0 that span ten cells: 0.025 and 0.0125 of
    # 0.05, and 0.04, 0.02 and 0.01 of 0.08
    args = argparse.Namespace(seed=0, n=1000, eps0=None, levels=None)
    built, sched = cli._run(args, sc)
    levels = 3 if sc.default_eps0 == 0.08 else 2
    assert levels <= DEFAULT_LEVELS
    assert sched == EpsilonSchedule.geometric(sc.default_eps0, levels).snapped(1e-3)
    assert round(sched.epsilons[-1] * 1000) >= 10


def test_qv_on_a_smaller_grid_runs_without_levels(tmp_path, capsys):
    code = run(["qv", "--scenario", "bm", "--n", "1000", "--out", str(tmp_path)])
    assert code in (0, 1)
    report = json.loads((tmp_path / "bm_qv_report.json").read_text())
    assert report["passed"] is (code == 0)
    assert capsys.readouterr().err == ""


def test_explicit_levels_too_fine_for_the_grid_exit_2(tmp_path, capsys):
    code = run(["qv", "--scenario", "bm", "--n", "1000", "--levels", "8",
                "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: smallest window must span at least ten grid cells\n")
    assert not any(tmp_path.iterdir())


def test_default_levels_are_the_halvings_the_default_grid_resolves():
    levels = {sc.id: _default_levels(sc.default_eps0, 1 / sc.default_n)
              for sc in [*SCENARIOS.values(), *ORTH_SCENARIOS.values()]}
    assert levels == {**dict.fromkeys(levels, 8), "fbm02": 4, "fbm08": 4,
                      "convolution": 4, "fbm_bm": 4, "convolution_bm": 6}


# -- guard: no restated defaults in the catalog ---------------------------------


def _restated_defaults(tree: ast.Module) -> list[str]:
    """``callee.field`` for every literal argument of a ``_sim``, ``Scenario``
    or ``NormalLaw`` call that equals the field's default (a ``_sim`` keyword
    sets a SimSpec field)."""
    callees = {"_sim": SimSpec, "Scenario": Scenario, "NormalLaw": NormalLaw}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in callees):
            continue
        fs = dataclasses.fields(callees[node.func.id])
        defaults = {f.name: f.default for f in fs}
        for name, value in [*zip([f.name for f in fs], node.args),
                            *((k.arg, k.value) for k in node.keywords)]:
            try:
                restated = ast.literal_eval(value) == defaults.get(name, dataclasses.MISSING)
            except ValueError:  # not a literal
                continue
            if restated:
                found.append(f"{node.func.id}.{name}")
    return sorted(found)


def test_catalog_restates_no_default():
    assert _restated_defaults(ast.parse(Path(catalog.__file__).read_text())) == []


def test_guard_sees_a_restated_default():
    tree = ast.parse("_sim('brownian', sigma=1.0, drift=0.5)\n"
                     "Scenario('a', 'b', 'c', 10, f, expect=True, default_eps0=0.08)\n"
                     "NormalLaw(0, 2.0)\n"
                     "NormalLaw(scale=DEFAULT)\n")
    assert _restated_defaults(tree) == ["NormalLaw.loc", "Scenario.expect", "_sim.sigma"]


# -- guard: one run set-up ------------------------------------------------------


def _set_up_outside_run(tree: ast.Module) -> list[str]:
    """Names of the top-level statements other than ``_run`` that build a
    scenario, make a geometric schedule or fit one to a path."""
    return sorted({getattr(stmt, "name", "<module>") for stmt in tree.body
                   if getattr(stmt, "name", None) != "_run"
                   for node in ast.walk(stmt) if isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None)
                   in ("build", "geometric", "for_path")})


def test_only_run_sets_up_a_run():
    assert _set_up_outside_run(ast.parse(Path(cli.__file__).read_text())) == []


def test_guard_sees_a_set_up_outside_run():
    tree = ast.parse("def _run(args, sc):\n"
                     "    s = EpsilonSchedule.geometric(1, 2)\n"
                     "    return s.for_path(*sc.build(n=args.n))\n"
                     "def cmd_a(args):\n"
                     "    X, gt = SCENARIOS['bm'].build()\n"
                     "def cmd_b(args):\n"
                     "    return _run(args, sc), build_parser()\n"
                     "sched = sched.for_path(X, dt)\n")
    assert _set_up_outside_run(tree) == ["<module>", "cmd_a"]
