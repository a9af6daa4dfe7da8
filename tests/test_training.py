"""Optimizer, penalty schedule, training loop, and post-training analysis."""

import numpy as np
import pytest

from anisoforge import datagen as dg
from anisoforge import energy, training
from anisoforge import tensor_core as tc


def tiny_dataset(aniso_class="iso", n_f=24, grid_points=2, seed=0):
    cfg = dg.DataConfig(aniso_class=aniso_class, grid_points=grid_points, n_f=n_f, seed=seed)
    return dg.build_dataset(cfg)


def tiny_model(aniso_class="iso", **kw):
    kw.setdefault("width_x", 8)
    kw.setdefault("width_y", 6)
    kw.setdefault("depth", 2)
    n_design = {"iso": 2, "transiso": 2, "ortho": 3}[aniso_class]
    return training.model_for_known_class(n_design, aniso_class, **kw)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_magnitude():
    # with fresh moments the first update is lr * g / (|g| + eps), about lr
    params = {"w": np.array([1.0, -2.0])}
    opt = training.Adam(lr=0.1)
    opt.step(params, {"w": np.array([3.0, -4.0])})
    assert np.allclose(params["w"], [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)


def test_adam_minimizes_quadratic():
    params = {"w": np.array([5.0, -3.0, 2.0])}
    opt = training.Adam(lr=0.05)
    for _ in range(2000):
        opt.step(params, {"w": 2.0 * params["w"]})
    assert np.all(np.abs(params["w"]) < 1e-6)


def test_adam_matches_reference_two_steps():
    # hand-rolled reference for g = const = 1, lr = 0.1
    params = {"w": np.array([0.0])}
    opt = training.Adam(lr=0.1)
    opt.step(params, {"w": np.array([1.0])})
    opt.step(params, {"w": np.array([1.0])})
    m2 = 0.9 * (0.1 * 1.0) + 0.1 * 1.0
    v2 = 0.999 * (0.001 * 1.0) + 0.001 * 1.0
    step1 = 0.1 * (0.1 / (1 - 0.9)) / (np.sqrt(0.001 / (1 - 0.999)) + 1e-8)
    step2 = 0.1 * (m2 / (1 - 0.9**2)) / (np.sqrt(v2 / (1 - 0.999**2)) + 1e-8)
    assert np.isclose(params["w"][0], -(step1 + step2), rtol=1e-12)


def test_adam_state_roundtrip():
    params = {"w": np.array([1.0, 2.0])}
    opt = training.Adam(lr=0.01)
    for k in range(5):
        opt.step(params, {"w": params["w"] + k})
    state = opt.state()
    clone = training.Adam(lr=0.01)
    clone.load_state(state)
    p1 = {"w": params["w"].copy()}
    p2 = {"w": params["w"].copy()}
    opt.step(p1, {"w": np.array([0.5, -0.5])})
    clone.step(p2, {"w": np.array([0.5, -0.5])})
    assert np.array_equal(p1["w"], p2["w"])


# ---------------------------------------------------------------------------
# penalty schedule


def test_penalty_warmup_shape():
    cfg = training.TrainConfig(epochs=1000, eps=1e-3, warmup_frac=0.1)
    assert np.isclose(training.penalty_weight(0, cfg), 1e-5)
    assert np.isclose(training.penalty_weight(50, cfg), 1e-3 * 0.01**0.5)
    assert np.isclose(training.penalty_weight(100, cfg), 1e-3)
    assert np.isclose(training.penalty_weight(999, cfg), 1e-3)


def test_penalty_no_warmup():
    cfg = training.TrainConfig(epochs=100, eps=2e-3, warmup_frac=0.0)
    assert training.penalty_weight(0, cfg) == 2e-3


def test_alpha_penalty_gradient_fd():
    aniso = energy.AnisotropyState(alpha_bar=np.array([0.3, -1.1]), trainable_alpha=True)
    weight, p = 1e-3, 0.25
    val, grad = training._alpha_penalty(aniso, weight, p)
    a = np.array(aniso.alphas())
    assert np.isclose(val, weight * np.sum(a**p))
    h = 1e-6
    for i in range(2):
        shifted = aniso.copy()
        shifted.alpha_bar = aniso.alpha_bar.copy()
        shifted.alpha_bar[i] += h
        vp = training._alpha_penalty(shifted, weight, p)[0]
        shifted.alpha_bar[i] -= 2 * h
        vm = training._alpha_penalty(shifted, weight, p)[0]
        assert np.isclose(grad[i], (vp - vm) / (2 * h), rtol=1e-5)


def test_alpha_penalty_absent_without_logits():
    aniso = energy.AnisotropyState(alpha_bar=None)
    val, grad = training._alpha_penalty(aniso, 1e-3, 0.25)
    assert val == 0.0 and grad is None
    val, grad = training._alpha_penalty(None, 1e-3, 0.25)
    assert val == 0.0 and grad is None


def test_config_validation():
    with pytest.raises(ValueError, match="epochs"):
        training.TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="exponent"):
        training.TrainConfig(p=1.5)
    with pytest.raises(ValueError, match="warmup"):
        training.TrainConfig(warmup_frac=2.0)


# ---------------------------------------------------------------------------
# training loop


def test_train_reduces_loss_iso():
    ds = tiny_dataset("iso")
    model = tiny_model("iso", seed=1)
    cfg = training.TrainConfig(epochs=300, lr=1e-2, log_every=50)
    result = training.train(model, ds, cfg)
    losses = result.history["loss"]
    assert len(losses) == 300
    assert losses[-1] < 0.2 * losses[0]
    assert result.model.meta["trained_epochs"] == 300
    assert result.model.d_bounds.shape == (2, 2)


def test_train_known_class_has_no_activity_logits():
    ds = tiny_dataset("transiso", n_f=16)
    model = tiny_model("transiso", seed=2)
    assert model.aniso.alpha_bar is None
    params = training._trainable_params(model)
    assert "alpha_bar" not in params and "phi" not in params
    cfg = training.TrainConfig(epochs=20, log_every=10)
    result = training.train(model, ds, cfg)
    assert result.model.aniso.alpha_bar is None
    assert training.classify(result.model) == "transiso"


def test_train_discovery_updates_alpha_and_orientation():
    ds = tiny_dataset("transiso", n_f=16)
    model = training.model_for_discovery(2, seed=3, width_x=8, width_y=6, depth=2)
    a0 = model.aniso.alpha_bar.copy()
    phi0 = model.aniso.phi
    p0 = model.aniso.p_raw.copy()
    cfg = training.TrainConfig(epochs=30, log_every=10)
    training.train(model, ds, cfg)
    assert not np.array_equal(model.aniso.alpha_bar, a0)
    assert model.aniso.phi != phi0
    assert not np.array_equal(model.aniso.p_raw, p0)


def test_train_writes_log(tmp_path):
    ds = tiny_dataset("iso", n_f=10)
    model = tiny_model("iso", seed=4)
    cfg = training.TrainConfig(epochs=25, log_every=10)
    training.train(model, ds, cfg, log_dir=tmp_path)
    lines = (tmp_path / "training_log.csv").read_text().splitlines()
    assert lines[0].startswith("epoch,loss")
    # epochs 0, 10, 20 and the final epoch 24
    assert len(lines) == 1 + 4


def test_train_resume_matches_single_run():
    ds = tiny_dataset("iso", n_f=10)
    cfg = training.TrainConfig(epochs=60, lr=1e-2, warmup_frac=0.1, log_every=20)

    solo = tiny_model("iso", seed=5)
    training.train(solo, ds, cfg)

    part = tiny_model("iso", seed=5)
    seg1 = training.train(part, ds, cfg, stop_epoch=30)
    training.train(part, ds, cfg, start_epoch=30, optimizer=seg1.optimizer)

    for k in solo.net.weights:
        assert np.array_equal(solo.net.weights[k], part.net.weights[k])


def test_train_packs_the_weights_into_the_vector_adam_steps():
    ds = tiny_dataset("transiso", n_f=10)
    model = training.model_for_discovery(2, seed=7, width_x=8, width_y=6, depth=2)
    keys = list(model.net.weights)
    result = training.train(model, ds, training.TrainConfig(epochs=5))
    w = model.net.weights
    theta = w["bout"].base
    assert list(w) == keys
    assert theta.ndim == 1 and theta.flags.c_contiguous
    assert theta.size == sum(v.size for v in w.values())
    start = theta.__array_interface__["data"][0]
    offset = 0
    for name, shape in model.net.weight_shapes().items():
        assert w[name].base is theta and w[name].shape == shape
        assert w[name].__array_interface__["data"][0] == start + theta.itemsize * offset
        offset += w[name].size
    moments = result.optimizer.state()["m"]
    assert moments.keys() == {"net", "alpha_bar", "phi", "p_raw"}
    assert moments["net"].shape == (theta.size,)


def test_train_does_not_depend_on_how_the_weights_are_held():
    """A model whose weight arrays were rebound to copies between two segments
    trains bit for bit like the untouched model."""
    ds = tiny_dataset("iso", n_f=10)
    cfg = training.TrainConfig(epochs=40, lr=1e-2, warmup_frac=0.1, log_every=10)
    kept, rebound = tiny_model("iso", seed=8), tiny_model("iso", seed=8)
    seg_kept = training.train(kept, ds, cfg, stop_epoch=20)
    seg_rebound = training.train(rebound, ds, cfg, stop_epoch=20)
    for name in rebound.net.weights:
        rebound.net.weights[name] = rebound.net.weights[name].copy()
    training.train(kept, ds, cfg, start_epoch=20, optimizer=seg_kept.optimizer)
    training.train(rebound, ds, cfg, start_epoch=20, optimizer=seg_rebound.optimizer)
    for k in kept.net.weights:
        assert kept.net.weights[k].tobytes() == rebound.net.weights[k].tobytes()


def test_packing_leaves_the_checkpoint_bytes_unchanged(tmp_path):
    model = tiny_model("transiso", seed=9)
    energy.save_model(model, tmp_path / "before.json")
    training._trainable_params(model)
    assert all(v.base is not None for v in model.net.weights.values())
    energy.save_model(model, tmp_path / "after.json")
    assert (tmp_path / "before.json").read_bytes() == (tmp_path / "after.json").read_bytes()


@pytest.mark.parametrize("start, stop", ((10, None), (5, 5), (12, 20)))
def test_train_rejects_empty_segment(start, stop):
    ds = tiny_dataset("iso", n_f=10)
    cfg = training.TrainConfig(epochs=10)
    with pytest.raises(ValueError, match="empty training segment"):
        training.train(tiny_model("iso", seed=5), ds, cfg, start_epoch=start, stop_epoch=stop)


def test_train_divergence_raises():
    ds = tiny_dataset("iso", n_f=10)
    model = tiny_model("iso", seed=6)
    model.net.weights["wout"][0] = np.nan
    cfg = training.TrainConfig(epochs=10)
    with pytest.raises(training.TrainingDiverged, match="epoch 0"):
        training.train(model, ds, cfg)


# ---------------------------------------------------------------------------
# analysis helpers


def make_alpha_model(alpha_bar):
    model = training.model_for_discovery(2, width_x=8, width_y=6, depth=2)
    model.aniso.alpha_bar = np.asarray(alpha_bar, dtype=float)
    return model


def test_classify_thresholds():
    assert training.classify(make_alpha_model([-5.0, -5.0])) == "iso"
    assert training.classify(make_alpha_model([3.0, -5.0])) == "transiso"
    assert training.classify(make_alpha_model([-5.0, 3.0])) == "transiso"
    assert training.classify(make_alpha_model([3.0, 3.0])) == "ortho"
    assert training.classify(make_alpha_model([0.0, -5.0])) == "indeterminate"
    assert training.classify(make_alpha_model([3.0, -1.0])) == "indeterminate"


def test_classify_known_class_passthrough():
    model = tiny_model("transiso")
    assert training.classify(model) == "transiso"


def test_extract_directions():
    model = make_alpha_model([3.0, -5.0])
    dirs = training.extract_directions(model)
    assert [d[0] for d in dirs] == ["n1"]
    _, _, R = model.aniso.structure()
    assert abs(dirs[0][1] @ R[:, 0]) > 1.0 - 1e-8  # up to sign

    both = training.extract_directions(make_alpha_model([3.0, 3.0]))
    assert [d[0] for d in both] == ["n1", "n2"]

    assert training.extract_directions(make_alpha_model([-5.0, -5.0])) == []
    assert training.extract_directions(tiny_model("iso")) == []

    known = tiny_model("transiso")
    dirs = training.extract_directions(known)
    assert len(dirs) == 1
    assert abs(dirs[0][1] @ tc.DEFAULT_N1) > 1.0 - 1e-8


def test_extract_directions_zero_angle():
    # phi = 0 keeps the default frame, so the first direction is e1
    aniso = energy.AnisotropyState(alpha_bar=np.array([3.0, 3.0]), phi=0.0,
                                   p_raw=np.array([0.0, 0.0, 1.0]))
    model = energy.new_model(2, aniso_class="ortho", aniso=aniso,
                             width_x=8, width_y=6, depth=2)
    dirs = training.extract_directions(model)
    assert np.allclose(np.abs(dirs[0][1]), [1.0, 0.0, 0.0], atol=1e-6)


def test_standalone_loss_matches_hand_computation():
    model = tiny_model("iso", seed=20)
    C = np.stack([np.eye(3), np.diag([1.2, 0.9, 1.05])])
    D = np.array([[2.0, 3.0], [2.0, 3.0]])
    S_true = np.full((2, 3, 3), 0.1)
    ds = dg.Dataset(D, C, S_true, ["c1", "c2"], {})
    S_hat = energy.stress(model, C, D)
    expected = 0.5 * sum(np.sum((S_hat[i] - S_true[i]) ** 2) for i in range(2))
    assert np.isclose(training.loss(model, ds), expected, rtol=1e-12)


def test_standalone_loss_empty_dataset():
    ds = dg.Dataset(np.zeros((0, 2)), np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), ["a", "b"], {})
    with pytest.raises(ValueError, match="empty"):
        training.loss(tiny_model("iso"), ds)


def test_standalone_loss_penalty_vanishes_at_negative_logits():
    model = training.model_for_discovery(2, width_x=8, width_y=6, depth=2)
    ds = tiny_dataset("iso", n_f=4)
    base = training.loss(model, ds, eps=0.0)
    model.aniso.alpha_bar = np.array([-30.0, -30.0])
    far = training.loss(model, ds, eps=1.0)
    base_far = training.loss(model, ds, eps=0.0)
    # penalty is eps * 2 * sigmoid(-30)^(1/4), about 2e-3
    assert 0.0 < far - base_far < 1e-2
    assert base != far  # alphas feed the invariants, so the data term moved too


def test_train_early_stop_on_plateau():
    model = tiny_model("iso", seed=12)
    F = dg.sample_F_lhs(8, seed=13)
    C = np.einsum("bki,bkj->bij", F, F)
    D = np.tile([2.0, 3.0], (8, 1))
    # regenerate the targets through the training forward pass so the fit
    # starts exactly stationary and the loss never moves
    ws = energy.make_workspace(model, C, D, np.zeros((8, 3, 3)))
    S = energy.loss_and_param_gradients(model, ws, want_stress=True).S_hat
    ds = dg.Dataset(D, C, S.copy(), ["c1", "c2"], {})
    cfg = training.TrainConfig(epochs=2000, early_stop=True, plateau_window=50, log_every=500)
    result = training.train(model, ds, cfg)
    assert result.stopped_early
    assert result.final_loss == 0.0
    assert len(result.history["loss"]) == 51


def test_on_plateau_logic():
    cfg = training.TrainConfig(early_stop=True, plateau_window=4, plateau_tol=1e-10)
    flat = [1.0] * 6
    assert training._on_plateau(flat, cfg)
    assert not training._on_plateau(flat[:4], cfg)  # window not filled yet
    falling = [2.0 ** (-k) for k in range(6)]
    assert not training._on_plateau(falling, cfg)


def test_component_weights_floor():
    S = np.zeros((4, 3, 3))
    S[:, 0, 0] = 10.0
    S[:, 1, 1] = 1e-9  # far below the floor of 1e-3 * max rms
    w = training.component_weights(S)
    assert np.isclose(w[0, 0], 0.1)
    assert np.isclose(w[1, 1], 100.0)
    assert np.isclose(w[2, 2], 100.0)


def test_train_normalized_components_changes_objective():
    ds = tiny_dataset("transiso", n_f=10)
    raw = training.train(tiny_model("transiso", seed=14), ds,
                         training.TrainConfig(epochs=10, log_every=5))
    wgt = training.train(tiny_model("transiso", seed=14), ds,
                         training.TrainConfig(epochs=10, log_every=5, normalize_components=True))
    assert not np.isclose(raw.history["loss"][0], wgt.history["loss"][0])
    assert np.isfinite(wgt.final_loss)


def test_one_adam_step_matches_fd_gradients():
    # one optimizer step driven by finite-difference gradients of the loss
    # must land on the same weights as the analytic step
    ds = tiny_dataset("iso", n_f=6)
    cfg = training.TrainConfig(epochs=1, lr=1e-3, log_every=1)

    analytic = tiny_model("iso", seed=11, width_x=4, width_y=4)
    training.train(analytic, ds, cfg)

    fd = tiny_model("iso", seed=11, width_x=4, width_y=4)
    h = 1e-6
    grads = {}
    for name, W in fd.net.weights.items():
        G = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = W[idx]
            W[idx] = keep + h
            up = training.loss(fd, ds)
            W[idx] = keep - h
            down = training.loss(fd, ds)
            W[idx] = keep
            G[idx] = (up - down) / (2.0 * h)
        grads["net." + name] = G
    opt = training.Adam(lr=cfg.lr)
    opt.step({"net." + k: v for k, v in fd.net.weights.items()}, grads)

    for k in analytic.net.weights:
        assert np.allclose(analytic.net.weights[k], fd.net.weights[k], atol=1e-6)


@pytest.mark.parametrize("name", ["lr", "eps", "plateau_tol"])
def test_config_rejects_non_finite_settings(name):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            training.TrainConfig(**{name: bad})
