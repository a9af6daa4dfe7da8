"""sha256 digests of seeded computations, to show that results are bit for bit.

Run from the repository root:

    PYTHONPATH=src python tests/digest.py

Each output line is a computation's name and the sha256 over the arrays it
returns. Two trees, or two processes with different hash seeds or BLAS
thread counts, print the same lines exactly when those results are bitwise
equal, so a change that claims bitwise outputs is checked by running this on
its parent and on itself. The beam solve, the patch test and the orientation
fit use the seed-5 settings of bench/workloads.py; the discovery run and the
two inversions (design only, and design with a free orientation on the beams'
surrogate) are that file's settings at smaller sizes.
"""

import hashlib
import warnings

import numpy as np

from anisoforge import datagen, energy, fem, inverse, training

SEED = 5
DESK_NET = {"width_x": 24, "width_y": 16, "depth": 3}
BEAM_LENGTHS = (4.0, 1.0, 1.0)


def digest(*parts):
    """sha256 over nested lists and tuples of arrays, their shapes included."""
    h = hashlib.sha256()

    def feed(part):
        if isinstance(part, (list, tuple)) and not all(np.isscalar(p) for p in part):
            h.update(f"[{len(part)}".encode())
            for p in part:
                feed(p)
        else:
            a = np.ascontiguousarray(part, dtype=float)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())

    for part in parts:
        feed(part)
    return h.hexdigest()


def state_digest(state):
    return digest(state.u, state.F, state.S, state.reactions, state.newton_norms)


def discovery():
    """Ortho discovery training on the desk grid, fewer samples and epochs."""
    grid = {"c1": np.array([3.0]), "c4": np.linspace(3.0, 7.0, 3), "c5": np.linspace(2.0, 6.0, 3)}
    ds = datagen.build_dataset(datagen.DataConfig(aniso_class="ortho", grid=grid, n_f=10,
                                                  independent_f=True, seed=SEED))
    model = training.model_for_discovery(ds.D.shape[1], seed=SEED, **DESK_NET)
    res = training.train(model, ds, training.TrainConfig(epochs=40, eps=1e-2, log_every=10,
                                                         seed=SEED))
    a = res.model.aniso
    return digest(res.history["loss"], list(res.model.net.weights.values()), a.alpha_bar, a.phi,
                  a.p_raw)


def design_inversion():
    """CMA-ES recovery of a random-initialized ortho surrogate's own design."""
    rng = np.random.default_rng(SEED)
    aniso = energy.AnisotropyState(alpha_bar=rng.uniform(0.0, 2.0, 2), phi=rng.uniform(0.1, 3.0),
                                   p_raw=rng.uniform(-1.0, 1.0, 3) + np.array([0.0, 0.0, 1.1]))
    model = energy.new_model(2, aniso_class="ortho", seed=SEED, aniso=aniso, **DESK_NET)
    model.d_bounds = np.array([[1.0, 5.0], [3.0, 7.0]])
    F = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, size=(20, 3, 3))
    C = np.einsum("bki,bkj->bij", F, F)
    D = np.broadcast_to(rng.uniform([1.5, 3.5], [4.5, 6.5]), (20, 2))
    res = inverse.invert_design(model, C, energy.stress(model, C, D), method="cma", seed=0,
                                restarts=2, max_evals=200)
    return digest(res.D, res.objective, [(x, f) for x, f, _ in res.restarts])


def surrogate():
    """The benchmark beams' seed-5 transiso surrogate, from 400 epochs of training."""
    grid = {"c1": np.linspace(1.0, 5.0, 3), "c4": np.linspace(3.0, 7.0, 3)}
    ds = datagen.build_dataset(datagen.DataConfig(aniso_class="transiso", grid=grid, n_f=40,
                                                  seed=SEED))
    model = training.model_for_known_class(ds.D.shape[1], "transiso", seed=SEED, **DESK_NET)
    return training.train(model, ds, training.TrainConfig(epochs=400, log_every=400,
                                                          seed=SEED)).model


def orientation_inversion(model):
    """CMA-ES recovery of the surrogate's own design and a free orientation, at a small budget."""
    rng = np.random.default_rng(SEED)
    F = np.eye(3) + 0.1 * rng.uniform(-1.0, 1.0, size=(20, 3, 3))
    C = np.einsum("bki,bkj->bij", F, F)
    S = energy.stress(model, C, rng.uniform([1.5, 3.5], [4.5, 6.5]))
    res = inverse.invert_design(model, C, S, method="cma", seed=0, restarts=2, max_evals=200,
                                free_orientation=True)
    return digest(res.D, res.objective, [(x, f) for x, f, _ in res.restarts],
                  res.orientation["phi"], res.orientation["axis"])


def beam_config(divisions):
    D = np.random.default_rng(SEED).uniform([2.0, 4.0], [4.0, 6.0])
    return fem.FemConfig(BEAM_LENGTHS, divisions, u0=0.1, n_steps=2, tol=1e-12, D=D)


def patch_test(model, D):
    """Single-element affine patch, the benchmark's set-up check."""
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    F0 = np.array([[1.04, 0.02, 0.0], [0.02, 0.98, 0.01], [0.0, 0.01, 1.03]])
    u = mesh.nodes @ (F0 - np.eye(3)).T
    bc_dofs = np.concatenate([3 * np.arange(8) + c for c in range(3)])
    return fem.solve_displacement(mesh, model, D, bc_dofs,
                                  np.concatenate([u[:, c] for c in range(3)]), n_steps=2)


def orientation_fit(model):
    cfg = beam_config((8, 2, 2))
    fit = fem.invert_orientation(fem.box_mesh(BEAM_LENGTHS, cfg.divisions), cfg, model, seed=SEED,
                                 restarts=2, max_evals=10)
    return digest(fit.objective, [(x, f) for x, f, _ in fit.restarts], fit.traces)


def stretched_patch(held=None):
    """A polyconvex patch stretched to 1.2 in one step, which fails and is cut
    back into two halves; from held's displacement first, if given."""
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = energy.new_model(2, mode="polyconvex", aniso_class="transiso", width_x=8, width_y=6,
                             depth=2, seed=3)
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the failed steps' indefinite stiffness
        if held is not None:  # the full step from a 1.02 stretch fails too
            fem.solve_displacement(mesh, model, [2.0, 3.0], bc_dofs, fem.stretch_bc(mesh, 1.02)[1],
                                   n_steps=1, _workspace=held)
        return fem.solve_displacement(mesh, model, [2.0, 3.0], bc_dofs, bc_values, n_steps=1,
                                      _workspace=held)


def warm_fallback():
    """A full-load step from a held small dip fails and falls back to the cold ramp."""
    model = training.model_for_known_class(2, "transiso", seed=9, width_x=8, width_y=6, depth=2)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    D = np.array([2.0, 4.0])
    bc_dofs, small = fem.beam_bc(mesh, 0.02)
    held = fem._AssemblyWorkspace()
    fem.solve_displacement(mesh, model, D, bc_dofs, small, n_steps=1, _workspace=held)
    return fem.solve_displacement(mesh, model, D, bc_dofs, fem.beam_bc(mesh, 0.15)[1], n_steps=8,
                                  max_iter=5, _workspace=held)


def main():
    print("discovery", discovery())
    print("design-inversion", design_inversion())
    model = surrogate()
    cfg = beam_config((16, 4, 4))
    print("beam-refined", state_digest(fem.solve_static(fem.box_mesh(BEAM_LENGTHS, cfg.divisions),
                                                        cfg, model)))
    print("patch-test", digest(patch_test(model, cfg.D).S))
    print("beam-orient", orientation_fit(model))
    print("cut-back", state_digest(stretched_patch()))
    print("warm-fallback", state_digest(warm_fallback()))
    print("warm-into-cut", state_digest(stretched_patch(fem._AssemblyWorkspace())))
    print("orientation-inversion", orientation_inversion(model))


if __name__ == "__main__":
    main()
