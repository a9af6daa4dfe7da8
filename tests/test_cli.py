import json

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


def test_train_missing_dataset_exits_4(root, capsys):
    rc = run_cli("train", "--data", "nowhere.txt", "--runs-root", root, "--run", "io")
    assert rc == 4
    assert "cannot load dataset" in capsys.readouterr().err


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
