"""Full-batch training of constitutive surrogates with anisotropy discovery.

The loss is the mean squared Frobenius norm of the stress residual plus a
sparsity penalty eps * sum_i a_i^p on the activity factors (p < 1 drives
inactive factors toward zero without flattening the gradient near zero,
since a = sigmoid(alpha_bar) makes d(a^p)/d(alpha_bar) = p a^p (1 - a)).
The penalty weight is warmed up geometrically over the first fraction of
the run so the stress fit settles before sparsity pressure kicks in.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import energy, picnn
from . import tensor_core as tc

ACTIVE_THRESHOLD = 0.5
INACTIVE_THRESHOLD = 0.05


@dataclass
class TrainConfig:
    epochs: int = 20000
    lr: float = 1e-3
    eps: float = 1e-3  # sparsity penalty weight after warmup
    p: float = 0.25  # sparsity penalty exponent
    warmup_frac: float = 0.1  # fraction of epochs spent raising eps from eps/100
    seed: int = 0
    log_every: int = 100
    early_stop: bool = False  # stop on a loss plateau
    plateau_tol: float = 1e-10  # relative change counting as a plateau
    plateau_window: int = 1000  # epochs over which the change is measured
    normalize_components: bool = False  # weight residual components by 1/rms

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        # each range check is a chained comparison, which is False for NaN
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"learning rate lr must be finite and positive, got {self.lr}")
        for name in ("eps", "plateau_tol"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {getattr(self, name)}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("penalty exponent must lie in (0, 1]")
        if not (0.0 <= self.warmup_frac <= 1.0):
            raise ValueError("warmup_frac must lie in [0, 1]")
        for name in ("log_every", "plateau_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class TrainResult:
    model: energy.Model
    history: dict
    final_loss: float
    optimizer: "Adam" = None
    wall_time: float = 0.0
    stopped_early: bool = False


class TrainingDiverged(RuntimeError):
    """Raised when the loss leaves the finite range; carries the last snapshot."""

    def __init__(self, epoch, model, history):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
        self.model = model
        self.history = history


class Adam:
    """Standard Adam over a name -> array dict, in place; a vector steps as its slices would."""

    def __init__(self, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            params[name] -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

    def state(self):
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state(self, state):
        self.t = state["t"]
        self.m = {k: np.asarray(v, dtype=float).copy() for k, v in state["m"].items()}
        self.v = {k: np.asarray(v, dtype=float).copy() for k, v in state["v"].items()}


def penalty_weight(epoch, cfg):
    """Geometric warmup from eps/100 to eps over the first warmup_frac epochs."""
    t_w = cfg.warmup_frac * cfg.epochs
    if t_w <= 0 or epoch >= t_w:
        return cfg.eps
    return cfg.eps * 0.01 ** (1.0 - epoch / t_w)


def _alpha_penalty(aniso, weight, p):
    """Penalty value and its gradient with respect to alpha_bar."""
    if aniso is None or aniso.alpha_bar is None:
        return 0.0, None
    a = np.array(aniso.alphas())
    value = weight * float(np.sum(a**p))
    grad = weight * p * a**p * (1.0 - a)
    return value, grad


def _trainable_params(model):
    """Name -> array views of everything the optimizer updates in place.

    "net" packs the weights into one vector whose views replace the arrays
    of model.net.weights, key order kept.
    """
    params = {"net": picnn.flatten(model.net)[0]}
    model.net.weights.update(picnn.weight_views(model.net, params["net"]))
    aniso = model.aniso
    if aniso is not None:
        if aniso.trainable_alpha and aniso.alpha_bar is not None:
            params["alpha_bar"] = aniso.alpha_bar
        if aniso.trainable_orientation:
            params["phi"] = np.array([aniso.phi])
            params["p_raw"] = aniso.p_raw
    return params


def component_weights(S):
    """Per-component inverse-rms weights for the normalized-residual mode.

    The floor at one thousandth of the largest component rms keeps weights
    finite for components that are identically zero in the data.
    """
    rms = np.sqrt(np.mean(np.asarray(S, dtype=float) ** 2, axis=0))
    return 1.0 / np.maximum(rms, 1e-3 * rms.max())


def train(model, dataset, cfg, log_dir=None, start_epoch=0, stop_epoch=None, optimizer=None):
    """Fit the model to (D, C, S) triples with full-batch Adam.

    Mutates and returns the model; its weights become views of the vector Adam
    steps. history records the loss every epoch and the activity/orientation
    trajectory every log_every epochs. To resume, pass start_epoch and the
    optimizer from the previous segment; stop_epoch ends a segment early
    without changing the warmup schedule, which is tied to cfg.epochs.
    """
    t0 = time.perf_counter()
    last = cfg.epochs if stop_epoch is None else min(stop_epoch, cfg.epochs)
    if start_epoch >= last:
        raise ValueError(f"empty training segment: epochs {start_epoch} to {last}")
    weights = component_weights(dataset.S) if cfg.normalize_components else None
    ws = energy.make_workspace(model, dataset.C, dataset.D, dataset.S, weights)
    model.d_bounds = _bounds_from_data(model, ws)
    params = _trainable_params(model)
    opt = optimizer if optimizer is not None else Adam(lr=cfg.lr)
    history = {"loss": [], "epoch": [], "alpha": [], "phi": []}
    writer, log_file = _open_log(log_dir)
    snapshot = model.copy()
    stopped_early = False
    try:
        for epoch in range(start_epoch, last):
            out = energy.loss_and_param_gradients(model, ws)
            weight = penalty_weight(epoch, cfg)
            pen, dpen = _alpha_penalty(model.aniso, weight, cfg.p)
            total = float(out.loss + pen)
            if not np.isfinite(total):
                raise TrainingDiverged(epoch, snapshot, history)
            history["loss"].append(total)
            grads = {"net": picnn.flatten_grads(model.net, out.dnet)}
            if "alpha_bar" in params:
                grads["alpha_bar"] = out.dalpha_bar + dpen
            if "phi" in params:
                grads["phi"] = np.array([out.dphi])
                grads["p_raw"] = out.dp_raw
            opt.step(params, grads)
            if "phi" in params:
                model.aniso.phi = float(params["phi"][0])
            if epoch % cfg.log_every == 0 or epoch == last - 1:
                _log_epoch(history, writer, model, epoch, total)
                snapshot = model.copy()
            if cfg.early_stop and _on_plateau(history["loss"], cfg):
                stopped_early = True
                break
    finally:
        if log_file is not None:
            log_file.close()
    model.meta["trained_epochs"] = start_epoch + len(history["loss"])
    model.meta["final_loss"] = history["loss"][-1]
    return TrainResult(model, history, history["loss"][-1], opt,
                       time.perf_counter() - t0, stopped_early)


def _on_plateau(losses, cfg):
    w = cfg.plateau_window
    if len(losses) <= w:
        return False
    before, now = losses[-1 - w], losses[-1]
    return abs(before - now) / max(abs(before), 1e-300) < cfg.plateau_tol


def _bounds_from_data(model, ws):
    """Observed design ranges, used later to warn about extrapolation."""
    if model.d_bounds is not None:
        return model.d_bounds
    return np.column_stack([ws.uD.min(axis=0), ws.uD.max(axis=0)])


def _open_log(log_dir):
    if log_dir is None:
        return None, None
    path = Path(log_dir) / "training_log.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    f = open(path, "w", newline="")
    writer = csv.writer(f)
    writer.writerow(["epoch", "loss", "alpha1", "alpha2", "phi"])
    return writer, f


def _log_epoch(history, writer, model, epoch, total):
    a1, a2 = (model.aniso.alphas() if model.aniso is not None else (1.0, 1.0))
    phi = model.aniso.phi if model.aniso is not None else 0.0
    history["epoch"].append(epoch)
    history["alpha"].append((a1, a2))
    history["phi"].append(phi)
    if writer is not None:
        writer.writerow([epoch, f"{total:.10e}", f"{a1:.8f}", f"{a2:.8f}", f"{phi:.8f}"])


# ---------------------------------------------------------------------------
# model setup for the two training regimes


def model_for_discovery(n_design, mode="polyconvex", gamma=1.0, seed=0, **net_kwargs):
    """Fresh model with both activity factors and the orientation trainable.

    Starts from the full invariant set (ortho width) with activity logits at
    zero (a_i = 1/2) and a deliberately generic initial orientation, letting
    the sparsity penalty switch unused factors off.
    """
    aniso = energy.AnisotropyState(
        alpha_bar=np.zeros(2),
        phi=0.6,
        p_raw=np.array([0.3, 0.2, 0.9]),
        trainable_alpha=True,
        trainable_orientation=True,
    )
    return energy.new_model(n_design, mode=mode, aniso_class="ortho", gamma=gamma,
                            seed=seed, aniso=aniso, **net_kwargs)


def model_for_known_class(n_design, aniso_class, mode="polyconvex", gamma=1.0, seed=0,
                          n1=None, n2=None, **net_kwargs):
    """Fresh model with the class and orientation fixed: activity logits absent from the graph."""
    aniso = None
    if aniso_class != "iso":
        R_cols = (tc.DEFAULT_N1 if n1 is None else np.asarray(n1, dtype=float),
                  tc.DEFAULT_N2 if n2 is None else np.asarray(n2, dtype=float))
        aniso = energy.AnisotropyState.from_directions(*R_cols)
    return energy.new_model(n_design, mode=mode, aniso_class=aniso_class, gamma=gamma,
                            seed=seed, aniso=aniso, **net_kwargs)


# ---------------------------------------------------------------------------
# post-training analysis


def loss(model, dataset, eps=0.0):
    """Unweighted data loss plus the penalty of weight eps at the default exponent
    TrainConfig.p, whatever normalize_components or p a run used; no gradients."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    S_hat = energy.stress(model, dataset.C, dataset.D)
    res = S_hat - dataset.S
    data_loss = float(np.mean(np.einsum("bij,bij->b", res, res)))
    return data_loss + _alpha_penalty(model.aniso, eps, TrainConfig.p)[0]


def classify(model):
    """Anisotropy class read off the trained activity factors.

    iso when both factors fall below INACTIVE_THRESHOLD, transiso when
    exactly one exceeds ACTIVE_THRESHOLD and the other is inactive, ortho
    when both exceed it; anything else is indeterminate.
    """
    if model.aniso is None or model.aniso.alpha_bar is None:
        return model.config.aniso_class
    a1, a2 = model.aniso.alphas()
    active, inactive = ACTIVE_THRESHOLD, INACTIVE_THRESHOLD
    if a1 < inactive and a2 < inactive:
        return "iso"
    if a1 > active and a2 > active:
        return "ortho"
    if (a1 > active and a2 < inactive) or (a2 > active and a1 < inactive):
        return "transiso"
    return "indeterminate"


def extract_directions(model):
    """Unit directions of the active structure tensors, as (label, vector).

    N_i = r_i r_i^T is built from the rotation columns r_i = R e_i, so the
    directions are those columns; factors whose activity does not exceed
    ACTIVE_THRESHOLD contribute nothing.
    """
    if model.aniso is None:
        return []
    R = model.aniso.structure()[2]
    found = [("n1", R[:, 0].copy()), ("n2", R[:, 1].copy())]
    if model.aniso.alpha_bar is None:
        return found[: energy.N_DIRECTIONS[model.config.aniso_class]]
    return [d for d, a in zip(found, model.aniso.alphas()) if a > ACTIVE_THRESHOLD]
