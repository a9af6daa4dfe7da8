"""The benchmark's four workloads, each generated from one seed.

A workload is set up once per construction (inputs generated, surrogates
trained, one warm-up pass so lazy imports and first BLAS/LAPACK calls are
paid there), then exposes its timed operations. Each operation is a call
into the package's public API plus a check of its output; the package only
ever receives generated arrays and models.

The four workloads stress different layers, so that an optimisation of one
layer has a workload that exercises it and one that bypasses it:

- train-discovery: fused loss, ``picnn.backprop`` and Adam; no Hessian,
  tangent, FE or optimizer work.
- invert-design: thousands of ``energy.stress`` calls of 60 rows with one
  design; per-call overhead and CMA-ES bookkeeping; no backprop or FE in
  the timed phase.
- beam-orient: Nelder-Mead over 20 small Newton solves (about 200 Newton
  iterations on 256 quadrature points); ``picnn.hess_inputs`` and ``energy.tangent`` dominate.
- beam-refined: one Newton solve on 2,048 quadrature points, where dense
  scatter and Cholesky grow to a visible share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from anisoforge import datagen, energy, fem, inverse, training
from anisoforge import tensor_core as tc

DESK_NET = {"width_x": 24, "width_y": 16, "depth": 3}

# train-discovery: the acceptance suite's orthotropic desk grid
ORTHO_DESK_GRID = {"c1": np.array([3.0]), "c4": np.linspace(3.0, 7.0, 3), "c5": np.linspace(2.0, 6.0, 3)}
DISCOVERY_EPS = 1e-2
TRAIN_EPOCHS = 200
WARMUP_EPOCHS = 5

# invert-design: the design-only run is the test_08 setting at desk width
# (a random-initialized ortho surrogate as its own oracle); the orientation
# run is the test_07 setting (a trained transiso surrogate, rotated fiber).
# Against the random-initialized surrogate the objective is nearly flat in
# the orientation (about 1e-8 with n1 84 degrees off), and on 3 of 6 seeds
# tried the search ended with |n1 . n_true| of 0.10 to 0.96.
INVERT_ROWS = 60
INVERT_BOUNDS = np.array([[1.0, 5.0], [3.0, 7.0]])
# tol_x = 0 switches off the step-collapse stop, so every restart spends its
# whole budget and the optimizer work does not depend on the seed
DESIGN_RUN = {"restarts": 2, "max_evals": 600, "options": {"tol_x": 0.0}}
ORIENTATION_RUN = {"restarts": 2, "max_evals": 1000, "options": {"tol_x": 0.0}}
DESIGN_RTOL = 1e-4  # test_08
DIRECTION_DOT = 0.99  # test_07

# transiso surrogate from a short training run (beams, invert-design)
SURROGATE_GRID = {"c1": np.linspace(1.0, 5.0, 3), "c4": np.linspace(3.0, 7.0, 3)}
SURROGATE_NF = 40
SURROGATE_EPOCHS = 400
BEAM_LENGTHS = (4.0, 1.0, 1.0)
DESK_BEAM = (8, 2, 2)
REFINED_BEAM = (16, 4, 4)
BEAM_U0 = 0.1
BEAM_STEPS = 2
# Newton converges quadratically; across seeds the 4th residual spans about
# 2e-11 to 2e-6, straddling the package's 1e-9 default, so the count flipped
# between 4 and 5 iterations per step with the seed. 1e-12 lies between the
# 4th and 5th residuals on most seeds, giving 5 iterations per step; about
# one seed in five needs 6, so beam-refined's work per solve varies with it.
NEWTON_TOL = 1e-12
# 10 evals per restart keep a repetition near 5 s, so a 20 s run holds three
ORIENT_RUN = {"restarts": 2, "max_evals": 10}
PATCH_TOL = 1e-6  # test_10
RESOLVE_RTOL = 1e-6


@dataclass
class Op:
    """One timed call into the package and the check of what it returned."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]  # result -> (work done, problems)


def random_metrics(rng, n, spread=0.3):
    """SPD right Cauchy-Green tensors C = F^T F with F = I + spread * U(-1, 1)."""
    while True:
        F = np.eye(3) + spread * rng.uniform(-1.0, 1.0, size=(n, 3, 3))
        if np.all(np.linalg.det(F) > 0.3):
            return np.einsum("bki,bkj->bij", F, F)


def design_rows(D, n):
    return np.broadcast_to(np.asarray(D, dtype=float), (n, np.size(D))).copy()


def trained_surrogate(seed):
    """Known-class transiso surrogate from a short seeded training run."""
    cfg = datagen.DataConfig(aniso_class="transiso", grid=SURROGATE_GRID, n_f=SURROGATE_NF, seed=seed)
    ds = datagen.build_dataset(cfg)
    model = training.model_for_known_class(ds.D.shape[1], "transiso", seed=seed, **DESK_NET)
    tcfg = training.TrainConfig(epochs=SURROGATE_EPOCHS, log_every=SURROGATE_EPOCHS, seed=seed)
    return training.train(model, ds, tcfg).model, len(ds)


class TrainDiscovery:
    name = "train-discovery"
    work_unit = "epochs"

    def __init__(self, seed):
        self.seed = seed
        cfg = datagen.DataConfig(aniso_class="ortho", grid=ORTHO_DESK_GRID, n_f=100,
                                 independent_f=True, seed=seed)
        self.dataset = datagen.build_dataset(cfg)
        self.model = training.model_for_discovery(self.dataset.D.shape[1], seed=seed, **DESK_NET)
        self.sizes = {"rows": len(self.dataset), "designs": len(np.unique(self.dataset.D, axis=0)),
                      "network": DESK_NET, "epochs_per_op": TRAIN_EPOCHS}
        self.setup_problems = []
        self._discover(WARMUP_EPOCHS)

    def _discover(self, epochs):
        cfg = training.TrainConfig(epochs=epochs, eps=DISCOVERY_EPS, log_every=100, seed=self.seed)
        res = training.train(self.model.copy(), self.dataset, cfg)
        return res, training.classify(res.model), training.extract_directions(res.model)

    def ops(self):
        return [Op("discover", lambda: self._discover(TRAIN_EPOCHS), self._check)]

    @staticmethod
    def _check(result):
        res, _, _ = result
        losses = np.asarray(res.history["loss"])
        problems = []
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite loss")
        elif not losses[-1] < losses[0]:
            problems.append(f"final loss {losses[-1]:.6g} not below first {losses[0]:.6g}")
        return losses.size, problems


class InvertDesign:
    name = "invert-design"
    work_unit = "surrogate evaluations"

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        # activity logits in (0, 2) keep both families active, so both
        # preferred directions are identifiable from the stresses
        aniso = energy.AnisotropyState(alpha_bar=rng.uniform(0.0, 2.0, 2), phi=rng.uniform(0.1, 3.0),
                                       p_raw=rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 1.1]))
        self.model = energy.new_model(2, aniso_class="ortho", seed=seed, aniso=aniso, **DESK_NET)
        self.model.d_bounds = INVERT_BOUNDS.copy()
        self.C = random_metrics(rng, INVERT_ROWS)
        self.D_true = rng.uniform(INVERT_BOUNDS[:, 0] + 0.5, INVERT_BOUNDS[:, 1] - 0.5)
        self.S_design = energy.stress(self.model, self.C, design_rows(self.D_true, INVERT_ROWS))
        self.fiber_model, fiber_rows = trained_surrogate(seed)
        R = tc.rotation_from_axis_angle(rng.uniform(0.3, 2.8), rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 1.1]))
        self.n_true = R[:, 0]
        D_fiber = rng.uniform(INVERT_BOUNDS[:, 0] + 0.5, INVERT_BOUNDS[:, 1] - 0.5)
        self.S_rotated = energy.stress(self.fiber_model, self.C, design_rows(D_fiber, INVERT_ROWS),
                                       structure=(np.outer(R[:, 0], R[:, 0]), np.outer(R[:, 1], R[:, 1])))
        self.sizes = {"rows": INVERT_ROWS, "designs": 1, "network": DESK_NET,
                      "design_run": DESIGN_RUN, "orientation_run": ORIENTATION_RUN,
                      "fiber_surrogate_rows": fiber_rows, "fiber_surrogate_epochs": SURROGATE_EPOCHS}
        self.setup_problems = []
        self._invert(self.model, self.S_design, restarts=1, max_evals=60)
        self._invert(self.fiber_model, self.S_rotated, restarts=1, max_evals=60, free_orientation=True)

    def _invert(self, model, S, **kwargs):
        return inverse.invert_design(model, self.C, S, method="cma", seed=0, **kwargs)

    def ops(self):
        return [Op("design", lambda: self._invert(self.model, self.S_design, **DESIGN_RUN),
                   self._check_design),
                Op("orientation", lambda: self._invert(self.fiber_model, self.S_rotated, free_orientation=True,
                                                       **ORIENTATION_RUN), self._check_orientation)]

    def _check_design(self, res):
        err = float(np.max(np.abs(res.D - self.D_true) / self.D_true))
        return res.n_evals, [] if err < DESIGN_RTOL else [f"design relative error {err:.3g}"]

    def _check_orientation(self, res):
        dot = abs(float(res.orientation["n1"] @ self.n_true))
        return res.n_evals, [] if dot > DIRECTION_DOT else [f"|n1 . n_true| = {dot:.6f}"]


class _Beam:
    divisions = DESK_BEAM

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.model, training_rows = trained_surrogate(seed)
        self.mesh = fem.box_mesh(BEAM_LENGTHS, self.divisions)
        self.cfg = fem.FemConfig(BEAM_LENGTHS, self.divisions, u0=BEAM_U0, n_steps=BEAM_STEPS,
                                 tol=NEWTON_TOL, D=rng.uniform([2.0, 4.0], [4.0, 6.0]))
        self.sizes = {"surrogate_rows": training_rows, "surrogate_epochs": SURROGATE_EPOCHS,
                      "network": DESK_NET, "mesh": list(self.divisions), "dofs": self.mesh.n_dof,
                      "quadrature_points": 8 * self.mesh.elems.shape[0], "load_steps": BEAM_STEPS}
        self.setup_problems = []


class BeamOrient(_Beam):
    name = "beam-orient"
    work_unit = "orientation restarts"

    def __init__(self, seed):
        super().__init__(seed)
        self.sizes["orientation_run"] = ORIENT_RUN
        fem.solve_static(self.mesh, self.cfg, self.model)

    def ops(self):
        return [Op("orientation", lambda: fem.invert_orientation(self.mesh, self.cfg, self.model,
                                                                 seed=self.seed, **ORIENT_RUN),
                   self._check)]

    def _check(self, fit):
        finals = np.array([f for _, f, _ in fit.restarts])
        work = len(fit.restarts)
        if not np.all(np.isfinite(finals)):
            return work, [f"restart finals {finals.tolist()} include a failed solve"]
        problems = []
        if fit.objective != finals.min():
            problems.append(f"objective {fit.objective} is not the best restart {finals.min()}")
        at_best = replace(self.cfg, phi=fit.phi, p_raw=fit.axis)
        resolved = fem.von_mises_max(fem.solve_static(self.mesh, at_best, self.model))
        if abs(resolved - fit.objective) > RESOLVE_RTOL * fit.objective:
            problems.append(f"re-solve at the fitted orientation gives {resolved}, not {fit.objective}")
        return work, problems


class BeamRefined(_Beam):
    name = "beam-refined"
    work_unit = "Newton iterations"
    divisions = REFINED_BEAM

    def __init__(self, seed):
        super().__init__(seed)
        self.setup_problems = self._patch_test()

    def _patch_test(self):
        """Single-element affine patch: FE stresses equal the pointwise stress."""
        mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
        F0 = np.array([[1.04, 0.02, 0.0], [0.02, 0.98, 0.01], [0.0, 0.01, 1.03]])
        u = mesh.nodes @ (F0 - np.eye(3)).T
        bc_dofs = np.concatenate([3 * np.arange(8) + c for c in range(3)])
        state = fem.solve_displacement(mesh, self.model, self.cfg.D, bc_dofs,
                                       np.concatenate([u[:, c] for c in range(3)]), n_steps=2)
        err = float(np.max(np.abs(state.S - energy.stress(self.model, F0.T @ F0, self.cfg.D))))
        return [] if err < PATCH_TOL else [f"patch test stress error {err:.3g}"]

    def ops(self):
        return [Op("solve", lambda: fem.solve_static(self.mesh, self.cfg, self.model), self._check)]

    def _check(self, state):
        norms = state.newton_norms
        problems = [f"load step {k + 1} ended at residual {n[-1]:.3g}"
                    for k, n in enumerate(norms) if not n[-1] < self.cfg.tol]
        if len(norms) != BEAM_STEPS:
            problems.append(f"{len(norms)} load steps instead of {BEAM_STEPS}")
        return sum(len(n) for n in norms), problems


WORKLOADS = {w.name: w for w in (TrainDiscovery, InvertDesign, BeamOrient, BeamRefined)}
