import json
import warnings

import numpy as np
import pytest

from anisoforge import cli, datagen as dg, energy


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("cliruns")


@pytest.fixture(scope="module")
def iso_dataset(root):
    rc = run_cli(
        "gen-data", "--model", "neo-hookean", "--grid", "2x2", "--nf", "8",
        "--seed", "3", "--runs-root", root, "--run", "data-iso",
        "--out", root / "iso.txt",
    )
    assert rc == 0
    return root / "iso.txt"


@pytest.fixture(scope="module")
def trans_dataset(root):
    rc = run_cli(
        "gen-data", "--model", "aniso-hgo", "--class", "trans", "--grid", "2x2",
        "--nf", "6", "--runs-root", root, "--run", "data-tr",
        "--out", root / "trans.txt",
    )
    assert rc == 0
    return root / "trans.txt"


@pytest.fixture(scope="module")
def iso_ckpt(root, iso_dataset):
    rc = run_cli(
        "train", "--data", iso_dataset, "--runs-root", root, "--run", "train-iso",
        "--known-class", "iso", "--epochs", "40", "--lr", "1e-2",
        "--width-x", "8", "--width-y", "6", "--depth", "2", "--log-every", "10",
    )
    assert rc == 0
    return root / "train-iso" / "checkpoints" / "model.json"


# ---------------------------------------------------------------------------
# data generation


def test_gen_data_counts_and_artifacts(root, iso_dataset, capsys):
    ds = dg.load_dataset(iso_dataset)
    assert len(ds) == 2 * 2 * 8
    assert ds.param_names == ["c1", "c2"]
    assert (root / "data-iso" / "config" / "resolved.ini").exists()


def test_gen_data_trans_has_no_c5(trans_dataset):
    ds = dg.load_dataset(trans_dataset)
    assert ds.param_names == ["c1", "c4"]
    assert ds.meta["class"] == "transiso"


def test_gen_data_requires_model(root, capsys):
    rc = run_cli("gen-data", "--runs-root", root, "--run", "bad")
    assert rc == 2
    assert "--model is required" in capsys.readouterr().err


def test_gen_data_grid_rank_mismatch(root, capsys):
    rc = run_cli("gen-data", "--model", "neo-hookean", "--grid", "2x2x2",
                 "--runs-root", root, "--run", "bad")
    assert rc == 2
    assert "2 design parameters" in capsys.readouterr().err


def test_gen_data_nan_dedupe_tol_exits_2(root, capsys):
    rc = run_cli("gen-data", "--model", "neo-hookean", "--dedupe", "--dedupe-tol", "nan",
                 "--runs-root", root, "--run", "bad")
    assert rc == 2
    assert "dedupe_tol must be finite" in capsys.readouterr().err


def test_gen_data_without_deformation_samples_exits_2(root, capsys):
    out = root / "empty.txt"
    rc = run_cli("gen-data", "--model", "neo-hookean", "--sampler", "polar", "--nf", "0",
                 "--runs-root", root, "--run", "bad", "--out", out)
    assert rc == 2
    assert "n_f must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli()
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# configuration files


def test_unknown_config_key_lists_valid_keys(root, iso_dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[train]\nbogus = 1\n")
    rc = run_cli("train", "--data", iso_dataset, "--config", cfg,
                 "--runs-root", root, "--run", "cfg-bad")
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "epochs" in err and "plateau_window" in err


def test_unknown_config_section(root, iso_dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[training]\nepochs = 5\n")
    rc = run_cli("train", "--data", iso_dataset, "--config", cfg,
                 "--runs-root", root, "--run", "cfg-bad")
    assert rc == 2
    assert "unknown config section" in capsys.readouterr().err


def test_flags_override_config_and_echo(root, iso_dataset, tmp_path):
    cfg = tmp_path / "train.ini"
    cfg.write_text("[train]\nepochs = 5\nwidth_x = 8\nwidth_y = 6\ndepth = 2\n")
    rc = run_cli("train", "--data", iso_dataset, "--config", cfg, "--epochs", "8",
                 "--known-class", "iso", "--runs-root", root, "--run", "cfg-ovr")
    assert rc == 0
    report = json.loads((root / "cfg-ovr" / "reports" / "train_report.json").read_text())
    assert report["epochs_run"] == 8
    echoed = (root / "cfg-ovr" / "config" / "resolved.ini").read_text()
    assert "epochs = 8" in echoed
    assert "width_x = 8" in echoed


def test_config_file_parsed_once_and_only_when_read(root, tmp_path, monkeypatch, iso_ckpt):
    calls = []
    real = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: calls.append(path) or real(path))
    cfg = tmp_path / "study.ini"
    cfg.write_text("[data]\nmodel = neo-hookean\ngrid = 2x2\n"
                   "[train]\nepochs = 2\nknown_class = iso\nwidth_x = 4\nwidth_y = 3\ndepth = 1\n")
    rc = run_cli("study-samples", "--config", cfg, "--sizes", "3",
                 "--runs-root", root, "--run", "cfg-once")
    assert rc == 0
    assert calls == [str(cfg)]
    # probe-isotropy reads no section, so it leaves even a missing file alone
    rc = run_cli("probe-isotropy", "--model", iso_ckpt, "--d", "3.0,3.0", "--n-gamma", "3",
                 "--config", tmp_path / "missing.ini", "--runs-root", root, "--run", "cfg-none")
    assert rc == 0
    assert calls == [str(cfg)]


# ---------------------------------------------------------------------------
# training


def test_train_artifacts_and_report(root, iso_dataset, iso_ckpt):
    run = root / "train-iso"
    assert iso_ckpt.exists()
    log = (run / "logs" / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss,alpha1,alpha2,phi"
    report = json.loads((run / "reports" / "train_report.json").read_text())
    assert report["class"] == "iso"
    assert len(report["loss"]) == 40
    assert report["wall_time_s"] > 0
    model = energy.load_model(iso_ckpt)
    assert model.meta["data_class"] == "iso"
    assert model.meta["param_names"] == ["c1", "c2"]


def test_train_known_class_with_direction(root, trans_dataset):
    rc = run_cli(
        "train", "--data", trans_dataset, "--runs-root", root, "--run", "train-dir",
        "--known-class", "trans", "--direction", "0,0,1", "--epochs", "5",
        "--width-x", "8", "--width-y", "6", "--depth", "2",
    )
    assert rc == 0
    model = energy.load_model(root / "train-dir" / "checkpoints" / "model.json")
    assert model.config.aniso_class == "transiso"
    assert model.aniso.alpha_bar is None  # class fixed, no activity logits
    _, _, R = model.aniso.structure()
    assert abs(R[:, 0] @ np.array([0.0, 0.0, 1.0])) > 1.0 - 1e-10


def test_train_resume_continues_numbering(root, iso_dataset, iso_ckpt):
    rc = run_cli(
        "train", "--data", iso_dataset, "--runs-root", root, "--run", "resumed",
        "--resume", iso_ckpt, "--epochs", "50", "--lr", "1e-2",
        "--width-x", "8", "--width-y", "6", "--depth", "2", "--log-every", "10",
    )
    assert rc == 0
    report = json.loads((root / "resumed" / "reports" / "train_report.json").read_text())
    assert report["epochs_run"] == 50
    assert report["trajectory"]["epoch"][0] == 40


def test_train_resume_class_mismatch_exits_4(root, iso_ckpt, trans_dataset, capsys):
    rc = run_cli("train", "--data", trans_dataset, "--resume", iso_ckpt, "--epochs", "50",
                 "--runs-root", root, "--run", "resume-mm")
    assert rc == 4
    assert "class metadata mismatch" in capsys.readouterr().err


def test_train_resume_past_target_is_usage_error(root, iso_dataset, iso_ckpt, capsys):
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "r2",
                 "--resume", iso_ckpt, "--epochs", "40")
    assert rc == 2
    assert "already trained" in capsys.readouterr().err


def test_train_divergence_exits_3(root, iso_dataset, iso_ckpt, tmp_path, capsys):
    payload = json.loads(iso_ckpt.read_text())
    payload["weights"]["wout"][0] = float("nan")
    poisoned = tmp_path / "nan.json"
    poisoned.write_text(json.dumps(payload))
    rc = run_cli(
        "train", "--data", iso_dataset, "--runs-root", root, "--run", "diverge",
        "--resume", poisoned, "--epochs", "50",
        "--width-x", "8", "--width-y", "6", "--depth", "2",
    )
    assert rc == 3
    assert "non-finite loss" in capsys.readouterr().err
    assert (root / "diverge" / "checkpoints" / "diverged.json").exists()


@pytest.mark.parametrize("flag, value", [
    ("--width-x", "99"), ("--width-y", "7"), ("--depth", "3"), ("--mode", "unconstrained"),
    ("--gamma", "0.5"), ("--known-class", "ortho"), ("--direction", "0,0,1"),
    ("--direction2", "1,0,0"),
])
def test_train_resume_rejects_model_flags_that_disagree(root, iso_dataset, iso_ckpt, capsys,
                                                        flag, value):
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "resume-flag",
                 "--resume", iso_ckpt, "--epochs", "50", flag, value)
    assert rc == 2
    assert flag in capsys.readouterr().err


def test_train_resume_echoes_the_checkpoint_model(root, iso_dataset, iso_ckpt):
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "resume-echo",
                 "--resume", iso_ckpt, "--epochs", "42", "--known-class", "iso", "--gamma", "1.0")
    assert rc == 0
    echoed = configparser.ConfigParser()
    echoed.read(root / "resume-echo" / "config" / "resolved.ini")
    expected = {"width_x": "8", "width_y": "6", "depth": "2", "mode": "polyconvex",
                "gamma": "1.0", "known_class": "iso"}
    assert {k: echoed["train"][k] for k in expected} == expected
    saved = energy.load_model(root / "resume-echo" / "checkpoints" / "model.json")
    assert (saved.net.width_x, saved.net.depth, saved.config.mode) == (8, 2, "polyconvex")


@pytest.mark.parametrize("key, value", [
    ("width_x", "99"), ("width_y", "7"), ("depth", "3"), ("mode", "unconstrained"),
    ("gamma", "0.5"), ("known_class", "ortho"), ("direction", "0,0,1"), ("direction2", "1,0,0"),
])
def test_train_resume_rejects_config_file_model_keys_that_disagree(root, iso_dataset, iso_ckpt,
                                                                   tmp_path, capsys, key, value):
    config = tmp_path / "resume.ini"
    config.write_text(f"[train]\n{key} = {value}\n")
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "resume-file",
                 "--resume", iso_ckpt, "--epochs", "50", "--config", config)
    assert rc == 2
    assert f"[train] {key} " in capsys.readouterr().err


def test_train_resume_accepts_config_file_model_keys_that_agree(root, iso_dataset, iso_ckpt,
                                                                tmp_path):
    config = tmp_path / "resume.ini"
    config.write_text("[train]\nwidth_x = 8\nwidth_y = 6\ndepth = 2\nmode = polyconvex\n"
                      "gamma = 1.0\nknown_class = iso\n")
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "resume-file-ok",
                 "--resume", iso_ckpt, "--epochs", "42", "--config", config)
    assert rc == 0
    echoed = configparser.ConfigParser()
    echoed.read(root / "resume-file-ok" / "config" / "resolved.ini")
    assert (echoed["train"]["width_x"], echoed["train"]["mode"]) == ("8", "polyconvex")


def test_checkpoint_constrained_contradicting_mode_exits_4(root, iso_ckpt, tmp_path, capsys):
    payload = json.loads(iso_ckpt.read_text())
    payload["architecture"]["constrained"] = False
    edited = tmp_path / "unconstrained-polyconvex.json"
    edited.write_text(json.dumps(payload))
    rc = run_cli("fem", "--model", edited, "--d", "3.0,3.0", "--divisions", "2,1,1",
                 "--runs-root", root, "--run", "contradiction")
    assert rc == 4
    err = capsys.readouterr().err
    assert "constrained" in err and "polyconvex" in err


def test_train_missing_dataset_exits_4(root, capsys):
    rc = run_cli("train", "--data", "nowhere.txt", "--runs-root", root, "--run", "io")
    assert rc == 4
    assert "cannot load dataset" in capsys.readouterr().err


@pytest.mark.parametrize("header", ['{"class": "iso"}', '["c1", "c2"]'],
                         ids=["no-param-names", "list"])
def test_train_malformed_dataset_header_exits_4(root, iso_dataset, tmp_path, capsys, header):
    body = iso_dataset.read_text().split("\n", 1)[1]
    bad = tmp_path / "bad.txt"
    bad.write_text(dg.DATASET_MAGIC + header + "\n" + body)
    rc = run_cli("train", "--data", bad, "--runs-root", root, "--run", "bad-header")
    assert rc == 4
    assert "param_names" in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["0,0,0", "nan,0,1"])
def test_train_degenerate_direction_exits_2(root, trans_dataset, capsys, direction):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli("train", "--data", trans_dataset, "--runs-root", root, "--run", "bad-dir",
                     "--known-class", "trans", "--direction", direction, "--epochs", "1")
    assert rc == 2
    assert "nonzero finite" in capsys.readouterr().err


def test_train_direction_without_known_class_exits_2(root, iso_dataset, capsys):
    rc = run_cli("train", "--data", iso_dataset, "--direction", "0,0,1", "--epochs", "1",
                 "--runs-root", root, "--run", "dir-no-class")
    assert rc == 2
    assert "--direction needs --known-class" in capsys.readouterr().err


def test_train_direction2_without_direction_exits_2(root, trans_dataset, capsys):
    rc = run_cli("train", "--data", trans_dataset, "--known-class", "trans",
                 "--direction2", "0,1,0", "--epochs", "1", "--runs-root", root, "--run", "dir2")
    assert rc == 2
    assert "--direction2 needs --direction" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--eps", "inf"], "eps"),
    (["--lr", "inf"], "lr"),
    (["--lr", "nan"], "lr"),
    (["--plateau-tol", "nan"], "plateau_tol"),
    (["--gamma", "nan"], "gamma"),
    (["--known-class", "iso", "--lr", "nan"], "lr"),
])
def test_train_non_finite_setting_exits_2(root, iso_dataset, capsys, flags, field):
    rc = run_cli("train", "--data", iso_dataset, "--runs-root", root, "--run", "non-finite",
                 "--epochs", "2", *flags)
    assert rc == 2
    assert f"{field} must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inversion


def test_invert_recovers_surrogate_design(root, iso_ckpt, tmp_path, capsys):
    model = energy.load_model(iso_ckpt)
    D_true = np.array([3.2, 2.1])
    F = dg.sample_F_lhs(12, seed=5)
    C = np.einsum("bki,bkj->bij", F, F)
    S = energy.stress(model, C, np.broadcast_to(D_true, (12, 2)).copy())
    target = tmp_path / "target.txt"
    dg.save_dataset(dg.Dataset(np.broadcast_to(D_true, (12, 2)).copy(), C, S,
                               ["c1", "c2"], {"class": "iso"}), target)

    rc = run_cli(
        "invert", "--model", iso_ckpt, "--data", target, "--runs-root", root,
        "--run", "inv", "--restarts", "3", "--max-evals", "4000",
        "--f-target", "1e-18", "--seed", "1",
    )
    assert rc == 0
    report = json.loads((root / "inv" / "reports" / "inversion.json").read_text())
    assert report["objective"] < 1e-10
    assert np.allclose(report["design"], D_true, atol=1e-3)
    assert report["method"] == "cma"
    assert (root / "inv" / "logs" / "trace.csv").read_text().startswith(
        "restart,evals,best_objective"
    )
    assert "recovered design" in capsys.readouterr().out


def test_invert_reports_reproducible(root, iso_ckpt, tmp_path):
    model = energy.load_model(iso_ckpt)
    F = dg.sample_F_lhs(6, seed=6)
    C = np.einsum("bki,bkj->bij", F, F)
    D = np.broadcast_to([2.5, 3.5], (6, 2)).copy()
    target = tmp_path / "t.txt"
    dg.save_dataset(dg.Dataset(D, C, energy.stress(model, C, D),
                               ["c1", "c2"], {"class": "iso"}), target)
    for name in ("rep-a", "rep-b"):
        rc = run_cli("invert", "--model", iso_ckpt, "--data", target, "--runs-root", root,
                     "--run", name, "--restarts", "2", "--max-evals", "300")
        assert rc == 0
    a = (root / "rep-a" / "reports" / "inversion.json").read_bytes()
    b = (root / "rep-b" / "reports" / "inversion.json").read_bytes()
    assert a == b


def test_invert_nm_options_from_config(root, iso_ckpt, tmp_path):
    model = energy.load_model(iso_ckpt)
    F = dg.sample_F_lhs(6, seed=7)
    C = np.einsum("bki,bkj->bij", F, F)
    D = np.broadcast_to([3.0, 3.0], (6, 2)).copy()
    target = tmp_path / "t.txt"
    dg.save_dataset(dg.Dataset(D, C, energy.stress(model, C, D),
                               ["c1", "c2"], {"class": "iso"}), target)
    cfg = tmp_path / "inv.ini"
    cfg.write_text(
        "[inverse]\nmethod = nelder-mead\nrestarts = 2\nmax_evals = 800\n"
        "step = 0.3\nreflection = 1.0\nexpansion = 2.0\ncontraction = 0.5\nshrink = 0.5\n"
    )
    rc = run_cli("invert", "--model", iso_ckpt, "--data", target, "--config", cfg,
                 "--runs-root", root, "--run", "inv-nm")
    assert rc == 0
    report = json.loads((root / "inv-nm" / "reports" / "inversion.json").read_text())
    assert report["method"] == "nelder-mead"


def test_invert_class_mismatch_exits_4(root, iso_ckpt, trans_dataset, capsys):
    rc = run_cli("invert", "--model", iso_ckpt, "--data", trans_dataset,
                 "--runs-root", root, "--run", "mm")
    assert rc == 4
    assert "class metadata mismatch" in capsys.readouterr().err


def test_invert_garbage_checkpoint_exits_4(root, iso_dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    rc = run_cli("invert", "--model", bad, "--data", iso_dataset,
                 "--runs-root", root, "--run", "badck")
    assert rc == 4
    assert "cannot load checkpoint" in capsys.readouterr().err


def test_invert_zero_restarts_exits_2(root, iso_ckpt, iso_dataset, capsys):
    rc = run_cli("invert", "--model", iso_ckpt, "--data", iso_dataset, "--restarts", "0",
                 "--runs-root", root, "--run", "inv-r0")
    assert rc == 2
    assert "restarts" in capsys.readouterr().err



@pytest.mark.parametrize("flags, field", [
    (["--method", "nelder-mead", "--step", "nan"], "step"),
    (["--method", "nelder-mead", "--reflection", "nan"], "reflection"),
    (["--tol-x", "nan"], "tol_x"),
    (["--f-target", "nan"], "f_target"),
])
def test_invert_bad_optimizer_setting_exits_2(root, iso_ckpt, iso_dataset, capsys, flags, field):
    rc = run_cli("invert", "--model", iso_ckpt, "--data", iso_dataset, "--restarts", "1",
                 "--max-evals", "20", *flags, "--runs-root", root, "--run", "inv-bad")
    assert rc == 2
    assert field in capsys.readouterr().err

# ---------------------------------------------------------------------------
# FE commands


def test_fem_writes_vtk_and_report(root, iso_ckpt, capsys):
    rc = run_cli(
        "fem", "--model", iso_ckpt, "--d", "3.0,3.0", "--divisions", "4,1,1",
        "--u0", "0.02", "--n-steps", "2", "--runs-root", root, "--run", "fem1",
    )
    assert rc == 0
    assert "max Von Mises" in capsys.readouterr().out
    vtk = (root / "fem1" / "reports" / "beam.vtk").read_text()
    assert vtk.startswith("# vtk DataFile")
    assert "VECTORS displacement" in vtk
    report = json.loads((root / "fem1" / "reports" / "fem.json").read_text())
    assert report["max_von_mises"] > 0
    assert report["final_residual"] < 1e-9


def test_fem_design_width_mismatch(root, iso_ckpt, capsys):
    rc = run_cli("fem", "--model", iso_ckpt, "--d", "1.0,2.0,3.0",
                 "--runs-root", root, "--run", "femw")
    assert rc == 2
    assert "expects 2" in capsys.readouterr().err


def test_fem_non_finite_lengths_exits_2(root, iso_ckpt, capsys):
    rc = run_cli("fem", "--model", iso_ckpt, "--d", "3.0,3.0", "--lengths", "nan,1,1",
                 "--runs-root", root, "--run", "fem-nan")
    assert rc == 2
    assert "lengths" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ("--phi", "--u0"))
def test_fem_non_finite_phi_or_u0_names_the_flag(root, iso_ckpt, capsys, flag):
    rc = run_cli("fem", "--model", iso_ckpt, "--d", "3.0,3.0", "--axis", "0,0,1", flag, "nan",
                 "--runs-root", root, "--run", "fem-nan-" + flag[2:])
    assert rc == 2
    assert f"{flag[2:]} must be finite" in capsys.readouterr().err


def test_fem_axis_without_phi_exits_2(root, iso_ckpt, capsys):
    rc = run_cli("fem", "--model", iso_ckpt, "--d", "3.0,3.0", "--axis", "0,0,1",
                 "--runs-root", root, "--run", "fem-axis-only")
    assert rc == 2
    err = capsys.readouterr().err
    assert "phi" in err and "axis p_raw" in err


def test_fem_phi_without_axis_exits_2(root, iso_ckpt, capsys):
    rc = run_cli("fem", "--model", iso_ckpt, "--d", "3.0,3.0", "--phi", "0.3",
                 "--runs-root", root, "--run", "fem-phi-only")
    assert rc == 2
    err = capsys.readouterr().err
    assert "phi" in err and "axis p_raw" in err


@pytest.mark.parametrize("case", ("missing", "shape"))
def test_fem_malformed_checkpoint_weights_exit_4(root, iso_ckpt, tmp_path, capsys, case):
    payload = json.loads(iso_ckpt.read_text())
    if case == "missing":
        del payload["weights"]["bout"]
        key = "'bout'"
    else:
        payload["weights"]["Wxx0"] = np.ones((3, 3)).tolist()
        key = "'Wxx0'"
    bad = tmp_path / "weights.json"
    bad.write_text(json.dumps(payload))
    rc = run_cli("fem", "--model", bad, "--d", "3.0,3.0", "--divisions", "2,1,1",
                 "--runs-root", root, "--run", "fem-ck-" + case)
    assert rc == 4
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and key in err


def test_fem_invert_trace_files(root, trans_dataset):
    rc = run_cli(
        "train", "--data", trans_dataset, "--runs-root", root, "--run", "train-tr",
        "--known-class", "trans", "--epochs", "5",
        "--width-x", "8", "--width-y", "6", "--depth", "2",
    )
    assert rc == 0
    ckpt = root / "train-tr" / "checkpoints" / "model.json"
    rc = run_cli(
        "fem-invert", "--model", ckpt, "--d", "3.0,5.0", "--divisions", "4,1,1",
        "--u0", "0.02", "--n-steps", "1", "--restarts", "2", "--max-evals", "8",
        "--runs-root", root, "--run", "fi",
    )
    assert rc == 0
    traces = sorted((root / "fi" / "logs").glob("trace_restart_*.csv"))
    assert len(traces) == 2
    assert traces[0].read_text().startswith("evals,best_objective")
    report = json.loads((root / "fi" / "reports" / "orientation.json").read_text())
    assert not report["insensitive"]
    assert report["objective"] > 0


def test_fem_invert_iso_is_insensitive(root, iso_ckpt, capsys):
    rc = run_cli(
        "fem-invert", "--model", iso_ckpt, "--d", "3.0,3.0", "--divisions", "4,1,1",
        "--u0", "0.02", "--n-steps", "1", "--runs-root", root, "--run", "fi-iso",
    )
    assert rc == 0
    assert "no effect" in capsys.readouterr().out
    report = json.loads((root / "fi-iso" / "reports" / "orientation.json").read_text())
    assert report["insensitive"]


def test_fem_invert_zero_restarts_exits_2(root, trans_dataset, capsys):
    rc = run_cli(
        "train", "--data", trans_dataset, "--runs-root", root, "--run", "train-tr-r0",
        "--known-class", "trans", "--epochs", "1",
        "--width-x", "4", "--width-y", "4", "--depth", "1",
    )
    assert rc == 0
    ckpt = root / "train-tr-r0" / "checkpoints" / "model.json"
    rc = run_cli("fem-invert", "--model", ckpt, "--d", "3.0,5.0", "--divisions", "2,1,1",
                 "--restarts", "0", "--runs-root", root, "--run", "fi-r0")
    assert rc == 2
    assert "restarts" in capsys.readouterr().err


def test_fem_invert_without_a_midspan_column_exits_2(root, trans_dataset, capsys):
    """fem-invert names the beam's fault as fem does, not as a failed search."""
    rc = run_cli(
        "train", "--data", trans_dataset, "--runs-root", root, "--run", "train-tr-odd",
        "--known-class", "trans", "--epochs", "1",
        "--width-x", "4", "--width-y", "4", "--depth", "1",
    )
    assert rc == 0
    ckpt = root / "train-tr-odd" / "checkpoints" / "model.json"
    for command in ("fem", "fem-invert"):
        rc = run_cli(command, "--model", ckpt, "--d", "3.0,5.0", "--divisions", "3,1,1",
                     "--runs-root", root, "--run", f"{command}-odd")
        assert rc == 2
        assert "no node column at midspan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probes and studies


def test_probe_isotropy_on_iso_model(root, iso_ckpt, capsys):
    rc = run_cli("probe-isotropy", "--model", iso_ckpt, "--d", "3.0,3.0",
                 "--runs-root", root, "--run", "probe")
    assert rc == 0
    assert "max deviation" in capsys.readouterr().out
    report = json.loads((root / "probe" / "reports" / "isotropy.json").read_text())
    assert report["max_deviation"] < 1e-10
    assert len(report["planes"]) == 6


def test_probe_isotropy_non_finite_checkpoint_exits_4(root, iso_ckpt, tmp_path, capsys):
    payload = json.loads(iso_ckpt.read_text())
    payload["weights"]["Wxx0"][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    rc = run_cli("probe-isotropy", "--model", bad, "--d", "3.0,3.0",
                 "--runs-root", root, "--run", "probe-nan")
    assert rc == 4
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "'Wxx0' has non-finite entries" in err


@pytest.mark.parametrize("field", ["weight", "alpha_bar", "phi", "p_raw", "d_bounds"])
def test_load_model_rejects_non_finite_numbers(tmp_path, field):
    """The commands that evaluate a checkpoint reject a non-finite number in
    it as an input fault; train --resume reads it as written."""
    path = tmp_path / "ckpt.json"
    m = energy.new_model(2, aniso_class="transiso", width_x=4, width_y=4, depth=1, seed=5)
    m.aniso.alpha_bar = np.array([0.4, -0.3])
    m.d_bounds = np.array([[1.0, 5.0], [3.0, 7.0]])
    energy.save_model(m, path)
    payload = json.loads(path.read_text())
    if field == "weight":
        payload["weights"]["Wxx0"][0][0] = float("nan")
    elif field == "phi":
        payload["aniso"]["phi"] = float("inf")
    else:
        target = payload["d_bounds"][1] if field == "d_bounds" else payload["aniso"][field]
        target[1] = float("nan")
    path.write_text(json.dumps(payload))
    with pytest.raises(cli.IoError, match=f"{field}.* has non-finite entries"):
        cli._load_model(path)
    cli._read_checkpoint(path)  # a diverged checkpoint loads as written


def test_study_samples_emits_loss_csvs(root, capsys):
    rc = run_cli(
        "study-samples", "--model", "neo-hookean", "--known-class", "iso",
        "--grid", "2x2", "--sizes", "5,8", "--epochs", "6",
        "--width-x", "8", "--width-y", "6", "--depth", "2",
        "--runs-root", root, "--run", "study",
    )
    assert rc == 0
    for size in (5, 8):
        lines = (root / "study" / "logs" / f"loss_n{size}.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + 6
    report = json.loads((root / "study" / "reports" / "study.json").read_text())
    assert report["sizes"] == [5, 8]
    assert set(report["final_losses"]) == {"5", "8"}


# ---------------------------------------------------------------------------
# thread capping


def test_thread_cap_sets_env(monkeypatch):
    for var in cli.THREAD_VARS + ("ANISOFORGE_THREADS",):
        monkeypatch.delenv(var, raising=False)
    cli._apply_thread_cap(["probe-isotropy", "--threads", "2"])
    assert all(__import__("os").environ[v] == "2" for v in cli.THREAD_VARS)


def test_thread_cap_env_fallback(monkeypatch):
    for var in cli.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("ANISOFORGE_THREADS", "3")
    cli._apply_thread_cap(["train"])
    assert all(__import__("os").environ[v] == "3" for v in cli.THREAD_VARS)


def test_thread_cap_rejects_garbage():
    with pytest.raises(cli.UsageError):
        cli._apply_thread_cap(["--threads", "zero"])


# ---------------------------------------------------------------------------
# every config key: file values echo unchanged, flags override them

import configparser  # noqa: E402

# Two non-default settings per section, written exactly as resolved.ini
# echoes them. FILE_VALUES go into the config file; FLAG_VALUES are passed
# as flags where the command has one, so the echo shows which source won.
FILE_VALUES = {
    "data": {
        "model": "aniso-hgo", "class": "trans", "grid": "2x2", "nf": "5",
        "delta": "0.15", "seed": "7", "independent_f": "true", "sampler": "polar",
        "stretch_lo": "0.85", "stretch_hi": "1.3", "dedupe": "true", "dedupe_tol": "1e-09",
    },
    "train": {
        "epochs": "3", "lr": "0.002", "eps": "0.002", "p": "0.5", "warmup_frac": "0.2",
        "seed": "4", "log_every": "1", "early_stop": "true", "plateau_tol": "1e-09",
        "plateau_window": "50", "normalize_components": "true", "known_class": "trans",
        "direction": "0,0,1", "direction2": "1,0,0", "mode": "unconstrained",
        "gamma": "0.5", "width_x": "5", "width_y": "4", "depth": "2",
    },
    "inverse": {
        "method": "nelder-mead", "restarts": "2", "seed": "3", "max_evals": "40",
        "f_target": "1e-30", "sigma0": "0.5", "popsize": "6", "tol_x": "1e-12",
        "tol_stagnation": "100", "step": "0.2", "tol": "1e-09", "reflection": "1.1",
        "expansion": "1.9", "contraction": "0.45", "shrink": "0.55",
        "free_orientation": "true",
    },
    "fem": {
        "lengths": "2,1,1", "divisions": "2,1,1", "u0": "0.02", "n_steps": "1",
        "tol": "1e-08", "max_iter": "20", "d": "3.0,3.0", "phi": "0.3", "axis": "0,0,1",
        "restarts": "1", "seed": "2", "max_evals": "4",
    },
}

FLAG_VALUES = {
    "data": {
        "model": "neo-hookean", "class": "iso", "grid": "2x1", "nf": "4",
        "delta": "0.1", "seed": "5", "independent_f": "false", "sampler": "lhs",
        "stretch_lo": "0.9", "stretch_hi": "1.2", "dedupe": "false", "dedupe_tol": "1e-07",
    },
    "train": {
        "epochs": "2", "lr": "0.003", "eps": "0.004", "p": "0.75", "warmup_frac": "0.3",
        "seed": "6", "log_every": "2", "early_stop": "false", "plateau_tol": "1e-08",
        "plateau_window": "40", "normalize_components": "false", "known_class": "iso",
        "direction": "0,1,0", "direction2": "0,0,1", "mode": "nonpoly_linearC",
        "gamma": "0.25", "width_x": "4", "width_y": "3", "depth": "1",
    },
    "inverse": {
        "method": "cma", "restarts": "1", "seed": "8", "max_evals": "30",
        "f_target": "1e-28", "sigma0": "0.4", "popsize": "5", "tol_x": "1e-11",
        "tol_stagnation": "90", "step": "0.3", "tol": "1e-08", "reflection": "0.9",
        "expansion": "2.1", "contraction": "0.4", "shrink": "0.6",
        "free_orientation": "false",
    },
    "fem": {
        "lengths": "3,1,1", "divisions": "2,1,1", "u0": "0.01", "n_steps": "1",
        "tol": "1e-07", "max_iter": "15", "d": "2.5,3.5", "phi": "0.2", "axis": "1,0,0",
        "restarts": "1", "seed": "9", "max_evals": "3",
    },
}

# the section keys each command takes as flags; study-samples spells the
# data seed --data-seed
COMMAND_FLAGS = {
    "gen-data": {"data": set(FILE_VALUES["data"])},
    "train": {"train": set(FILE_VALUES["train"])},
    "invert": {"inverse": set(FILE_VALUES["inverse"])},
    "fem": {"fem": set(FILE_VALUES["fem"]) - {"restarts", "seed", "max_evals"}},
    "fem-invert": {"fem": set(FILE_VALUES["fem"])},
    "study-samples": {
        "data": {"model", "class", "grid", "delta", "seed", "independent_f"},
        "train": {"epochs", "lr", "eps", "seed", "log_every", "known_class", "mode",
                  "width_x", "width_y", "depth"},
    },
}


def _flag_argv(command, flags):
    argv = []
    for section, keys in flags.items():
        for key in sorted(keys):
            value = FLAG_VALUES[section][key]
            name = key.replace("_", "-")
            if command == "study-samples" and (section, key) == ("data", "seed"):
                name = "data-seed"
            if value in ("true", "false"):
                argv.append(f"--{name}" if value == "true" else f"--no-{name}")
            else:
                argv += [f"--{name}", value]
    return argv


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
@pytest.mark.parametrize("with_flags", [False, True], ids=["file", "flags"])
def test_every_key_echoes_and_flags_override(root, iso_dataset, iso_ckpt, tmp_path,
                                             command, with_flags):
    sections = COMMAND_FLAGS[command]
    cfg = tmp_path / "all.ini"
    parser = configparser.ConfigParser()
    for section in sections:
        parser[section] = FILE_VALUES[section]
    with open(cfg, "w") as f:
        parser.write(f)
    inputs = {
        "gen-data": ["--out", tmp_path / "d.txt"],
        "train": ["--data", iso_dataset],
        "invert": ["--model", iso_ckpt, "--data", iso_dataset],
        "fem": ["--model", iso_ckpt],
        "fem-invert": ["--model", iso_ckpt],
        "study-samples": ["--sizes", "3"],
    }[command]
    run = f"echo-{command}-{int(with_flags)}"
    argv = [command, "--config", cfg, "--runs-root", root, "--run", run, *inputs]
    if with_flags:
        argv += _flag_argv(command, sections)
    assert run_cli(*argv) == 0

    echoed = configparser.ConfigParser()
    echoed.read(root / run / "config" / "resolved.ini")
    assert set(echoed.sections()) == set(sections)
    for section, flagged in sections.items():
        expected = {
            key: FLAG_VALUES[section][key] if with_flags and key in flagged else value
            for key, value in FILE_VALUES[section].items()
        }
        assert dict(echoed[section]) == expected


def test_study_samples_takes_every_section_flag(root):
    flags = {"data": set(FLAG_VALUES["data"]) - {"nf"}, "train": set(FLAG_VALUES["train"])}
    rc = run_cli("study-samples", "--sizes", "3", *_flag_argv("study-samples", flags),
                 "--runs-root", root, "--run", "study-flags")
    assert rc == 0
    echoed = configparser.ConfigParser()
    echoed.read(root / "study-flags" / "config" / "resolved.ini")
    assert dict(echoed["data"]) == {**FLAG_VALUES["data"], "nf": "260"}
    assert dict(echoed["train"]) == FLAG_VALUES["train"]


def test_config_value_outside_choices_exits_2(root, iso_ckpt, iso_dataset, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[inverse]\nmethod = simplex\n")
    rc = run_cli("invert", "--model", iso_ckpt, "--data", iso_dataset, "--config", cfg,
                 "--runs-root", root, "--run", "cfg-choice")
    assert rc == 2
    assert "inverse.method" in capsys.readouterr().err


def test_config_booleans_parse_off_and_reject_maybe(root, tmp_path, capsys):
    cfg = tmp_path / "bools.ini"
    cfg.write_text("[data]\nindependent_f = off\ndedupe = On\n")
    assert cli.load_config(cfg) == {"data": {"independent_f": False, "dedupe": True}}
    cfg.write_text("[data]\nmodel = neo-hookean\ndedupe = maybe\n")
    rc = run_cli("gen-data", "--config", cfg, "--out", tmp_path / "d.txt",
                 "--runs-root", root, "--run", "cfg-maybe")
    assert rc == 2
    assert "data.dedupe" in capsys.readouterr().err


def test_table_defaults_match_library_defaults():
    """A default lives in the CLI table and in the library; the two must agree."""
    import dataclasses
    import inspect

    from anisoforge import fem, inverse, training

    def fields(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)}

    def params(*fns):
        """Signature defaults; an earlier function wins a shared name."""
        out = {}
        for fn in reversed(fns):
            out.update((k, p.default) for k, p in inspect.signature(fn).parameters.items())
        return out

    data, fem_cfg = fields(dg.DataConfig), fields(fem.FemConfig)
    library = {
        "data": {**data, "nf": data["n_f"], "stretch_lo": data["stretch_bounds"][0],
                 "stretch_hi": data["stretch_bounds"][1]},
        "train": {**params(energy.new_model), **fields(training.TrainConfig)},
        "inverse": params(inverse.invert_design, inverse.cma_es, inverse.nelder_mead),
        "fem": {**params(fem.invert_orientation), **fem_cfg, "d": fem_cfg["D"],
                "axis": fem_cfg["p_raw"]},
    }
    # keys without a library default of their own: the material and class
    # flags map onto DataConfig.aniso_class, the known class and directions
    # choose the model factory, and invert_design replaces a missing simplex
    # step with a quarter of the search box (not nelder_mead's 0.1)
    exempt = {"data": {"model", "class"}, "train": {"known_class", "direction", "direction2"},
              "inverse": {"step"}, "fem": set()}
    for section, opts in cli.SECTIONS.items():
        for key, opt in opts.items():
            if key in exempt[section]:
                continue
            default = opt.default
            if (section, key) == ("fem", "lengths"):
                default = tuple(float(x) for x in default.split(","))
            if (section, key) == ("fem", "divisions"):
                default = tuple(int(x) for x in default.split(","))
            assert default == library[section][key], (section, key)


@pytest.mark.parametrize("argv, option", [
    (["fem", "--n-steps", "0"], "n_steps"),
    (["fem", "--max-iter", "0"], "max_iter"),
    (["fem-invert", "--max-evals", "0"], "max_evals"),
    (["train", "--log-every", "0"], "log_every"),
    (["train", "--early-stop", "--plateau-window", "0"], "plateau_window"),
    (["train", "--width-x", "0"], "width_x"),
    (["train", "--width-y", "0"], "width_y"),
    (["train", "--depth", "0"], "depth"),
    (["invert", "--max-evals", "0"], "max_evals"),
    pytest.param(["invert", "--max-evals", "3"], "max_evals", id="invert-max_evals-below-popsize"),
    (["invert", "--sigma0", "-1"], "sigma0"),
    (["invert", "--popsize", "1"], "popsize"),
    (["probe-isotropy", "--n-gamma", "0"], "n_gamma"),
    (["probe-isotropy", "--gamma-max", "0"], "gamma_max"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_out_of_range_count_exits_2(root, iso_dataset, iso_ckpt, capsys, argv, option):
    beam = ["--model", iso_ckpt, "--d", "3.0,3.0", "--divisions", "2,1,1", "--u0", "0.02"]
    inputs = {
        "fem": beam,
        "fem-invert": beam,
        "train": ["--data", iso_dataset, "--epochs", "3"],
        "invert": ["--model", iso_ckpt, "--data", iso_dataset],
        "probe-isotropy": ["--model", iso_ckpt, "--d", "3.0,3.0"],
    }[argv[0]]
    rc = run_cli(*argv, *inputs, "--runs-root", root, "--run", "range")
    assert rc == 2
    assert option in capsys.readouterr().err


def test_fem_invert_iso_zero_restarts_exits_2(root, iso_ckpt, capsys):
    rc = run_cli("fem-invert", "--model", iso_ckpt, "--d", "3.0,3.0", "--divisions", "2,1,1",
                 "--restarts", "0", "--runs-root", root, "--run", "fi-iso-r0")
    assert rc == 2
    assert "restarts" in capsys.readouterr().err


def test_parser_builds_without_numpy():
    """--threads must cap the BLAS pools before numpy loads."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys; from anisoforge import cli; cli.build_parser(); print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "'numpy'" not in out.stdout
