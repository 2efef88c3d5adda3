import json
import tracemalloc

import pytest

from pathcalc.cli import main


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


def test_unknown_scenario_exits_2(tmp_path, capsys):
    assert run(["qv", "--scenario", "nope", "--out", str(tmp_path)]) == 2


def test_bad_schedule_exits_2(tmp_path):
    code = run(["qv", "--scenario", "poisson", "--n", "100",
                "--out", str(tmp_path)])
    assert code == 2


def test_qv_writes_artifacts_and_passes(tmp_path):
    code = run(["qv", "--scenario", "poisson", "--tol", "0.05",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "poisson_qv_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["converged"] is True
    conv = (tmp_path / "poisson_qv_convergence.csv").read_text()
    assert conv.splitlines()[0] == "epsilon,sup_gap"
    assert (tmp_path / "poisson_qv_limit.csv").exists()


def test_qv_rough_scenario_reports_expected_failure(tmp_path):
    code = run(["qv", "--scenario", "fbm02", "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "fbm02_qv_report.json").read_text())
    assert report["converged"] is False
    assert report["expected_converged"] is False


def test_qv_single_level_reports_no_convergence(tmp_path, capsys):
    code = run(["qv", "--scenario", "fbm02", "--levels", "1",
                "--out", str(tmp_path)])
    assert code == 1
    assert "did not converge" in capsys.readouterr().out
    report = json.loads((tmp_path / "fbm02_qv_report.json").read_text())
    assert report["converged"] is False


def test_ito_check_pass_and_residual_csv(tmp_path):
    code = run(["ito-check", "--scenario", "bm", "--fn", "square",
                "--n", "50000", "--tol", "0.05", "--out", str(tmp_path)])
    assert code == 0
    res = (tmp_path / "bm_ito_square_residual.csv").read_text()
    assert res.splitlines()[0] == "t,residual"
    report = json.loads((tmp_path / "bm_ito_square_report.json").read_text())
    assert report["relative_residual"] < 1e-2


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
    assert rep["decision"] is False
    assert rep["expected_decision"] is False


def test_dirichlet_chain_mode(tmp_path):
    code = run(["dirichlet-check", "--chain", "poisson", "--fn", "square",
                "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(
        (tmp_path / "poisson_chain_square_report.json").read_text())
    assert rep["kind"] == "chain_rule_report"
    assert rep["decision"] is True


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
