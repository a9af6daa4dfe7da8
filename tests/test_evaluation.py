"""The single constitutive evaluation: grouped network pass, shared C-workspace.

Covers the grouped design path of the network against per-row inputs, the
agreement of every view of the evaluation (psi, stress, tangent, the fused
loss), single-design calls against the same design broadcast per row, and
a call-count guard that keeps one cofactor evaluation and one network pass
per constitutive call.
"""

import contextlib

import numpy as np
import pytest

from anisoforge import energy, fem, inverse, picnn, tensor_core as tc
from util import rand_spd

MODES = ("polyconvex", "nonpoly_linearC", "unconstrained")
CLASSES = ("iso", "transiso", "ortho")


def max_rel(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / max(np.max(np.abs(b)), 1e-300)


def model_for(mode, aniso_class, seed=5):
    m = energy.new_model(2, mode=mode, aniso_class=aniso_class, width_x=5, width_y=4,
                         depth=3, seed=seed)
    if m.aniso is not None:
        m.aniso = energy.AnisotropyState(alpha_bar=np.array([0.4, -0.3]), phi=0.7,
                                         p_raw=np.array([0.3, -1.2, 0.8]),
                                         trainable_alpha=True, trainable_orientation=True)
    return m


# ---------------------------------------------------------------------------
# grouped network pass


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("G", [1, 3, 7])
def test_grouped_picnn_matches_per_row(G, constrained):
    rng = np.random.default_rng(G)
    B = 7
    p = picnn.init_params(6, 2, width_x=5, width_y=4, depth=3, constrained=constrained, seed=G)
    X = np.column_stack([rng.uniform(1.0, 4.0, (B, 2)), rng.uniform(0.5, 2.0, B),
                         rng.uniform(-4.0, -1.0, B), rng.uniform(0.0, 2.0, (B, 2))])
    uD = rng.uniform(0.5, 6.0, (G, 2))
    group = np.arange(B) % G
    rng.shuffle(group)
    Y = uD[group]

    v, g = picnn.value_and_grad(p, X, Y)
    vg, gg, cache = picnn.value_and_grad(p, X, uD, return_cache=True, group=group)
    assert max_rel(vg, v) < 1e-12
    assert max_rel(picnn.value(p, X, uD, group=group), v) < 1e-12
    assert max_rel(gg, g) < 1e-12
    H = picnn.hess_inputs(p, X, Y)
    assert max_rel(picnn.hess_inputs(p, X, uD, group=group), H) < 1e-12
    assert max_rel(picnn.hess_inputs(p, X, uD, cache=cache, group=group), H) < 1e-12

    seed_val = rng.standard_normal(B)
    seed_grad = rng.standard_normal((B, 6))
    dtheta, dX = picnn.backprop(p, X, Y, seed_val, seed_grad)
    dtheta_g, dX_g = picnn.backprop(p, X, uD, seed_val, seed_grad, group=group)
    assert max_rel(dX_g, dX) < 1e-12
    for k in dtheta:
        assert max_rel(dtheta_g[k], dtheta[k]) < 1e-12, k
    dtheta_c, dX_c = picnn.backprop(p, X, uD, seed_val, seed_grad, cache=cache, group=group)
    assert max_rel(dX_c, dX) < 1e-12
    for k in dtheta:
        assert max_rel(dtheta_c[k], dtheta[k]) < 1e-12, k


def test_group_index_validation():
    p = picnn.init_params(4, 2, width_x=4, width_y=4, depth=2)
    X, uD = np.ones((3, 4)), np.ones((2, 2))
    for bad in ([0, 1], [0, 1, 2], [0, -1, 1]):
        with pytest.raises(ValueError, match="group"):
            picnn.value(p, X, uD, group=bad)


# ---------------------------------------------------------------------------
# views of the one evaluation


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_loss_stress_equals_stress_with_structure_override(mode, aniso_class):
    rng = np.random.default_rng(21)
    m = model_for(mode, aniso_class)
    C = rand_spd(rng, 9)
    D = rng.uniform(1.0, 5.0, (3, 2))[np.arange(9) % 3]
    ws = energy.make_workspace(m, C, D, np.zeros((9, 3, 3)))
    S_hat = energy.loss_and_param_gradients(m, ws, want_stress=True).S_hat
    structure = None if m.aniso is None else m.aniso.structure()[:2]
    S = energy.stress(m, C, D, structure=structure)
    assert np.max(np.abs(S_hat - S)) < 1e-13


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_single_design_row_matches_broadcast_rows(mode, aniso_class):
    rng = np.random.default_rng(22)
    m = model_for(mode, aniso_class)
    C = rand_spd(rng, 6)
    d = np.array([2.5, 3.5])
    rows = np.tile(d, (6, 1))
    assert np.max(np.abs(energy.psi(m, C, d) - energy.psi(m, C, rows))) < 1e-14
    assert np.max(np.abs(energy.stress(m, C, d) - energy.stress(m, C, rows))) < 1e-14
    assert np.max(np.abs(energy.tangent(m, C, d) - energy.tangent(m, C, rows))) < 1e-14


def test_workspace_input_matches_array_input():
    rng = np.random.default_rng(23)
    m = model_for("polyconvex", "ortho")
    C = rand_spd(rng, 5)
    d = np.array([2.0, 4.0])
    cw = tc.c_workspace(C)
    assert np.array_equal(energy.stress(m, cw, d), energy.stress(m, C, d))
    assert np.array_equal(energy.psi(m, cw, d), energy.psi(m, C, d))
    assert np.array_equal(tc.invariants(cw, m.aniso.structure()[:2]),
                          tc.invariants(C, m.aniso.structure()[:2]))


def test_assemble_strain_displacement_is_the_public_formula():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (2, 1, 1))
    quad = fem.precompute_quadrature(mesh)
    u = 0.05 * np.random.default_rng(24).standard_normal(mesh.n_dof)
    F = fem.deformation_gradients(mesh, quad, u)
    assert np.array_equal(fem._strain_displacement(F, *quad.voigt_grads),
                          fem.strain_displacement(F, quad.dNdX))


# ---------------------------------------------------------------------------
# call-count guard


@contextlib.contextmanager
def counting():
    """Count cofactor evaluations, network forward passes and np.unique calls."""
    counts = {"cofactors": 0, "forward": 0, "unique": 0}
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, key in ((tc, "cofactor_sym", "cofactors"), (picnn, "_forward", "forward"),
                                 (np, "unique", "unique")):
            def counted(*args, _inner=getattr(owner, name), _key=key, **kwargs):
                counts[_key] += 1
                return _inner(*args, **kwargs)

            mp.setattr(owner, name, counted)
        yield counts


def test_call_counts_fem_assemble():
    m = model_for("polyconvex", "ortho")
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    quad = fem.precompute_quadrature(mesh)
    u = 0.01 * np.random.default_rng(25).standard_normal(mesh.n_dof)
    with counting() as counts:
        fem.assemble(mesh, quad, m, np.array([2.0, 3.0]), u)
    assert counts == {"cofactors": 1, "forward": 1, "unique": 0}


def test_call_counts_invert_design_objective(monkeypatch):
    m = model_for("polyconvex", "transiso")
    rng = np.random.default_rng(26)
    C = rand_spd(rng, 8)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    per_eval = []

    def one_eval_optimizer(f, x0, sigma0, **kwargs):
        x = np.array(x0, dtype=float)
        if x.size > 2:
            x[3:] = [0.3, -1.2, 0.8]  # the box center has a zero rotation axis
        with counting() as counts:
            fx = f(x)
        per_eval.append(dict(counts))
        return inverse.OptimizeResult(x, fx, 1, 1, "max_evals", [(1, fx)])

    monkeypatch.setattr(inverse, "cma_es", one_eval_optimizer)
    for free_orientation in (False, True):
        res = inverse.invert_design(m, C, S, d_bounds=[[1.0, 5.0], [1.0, 5.0]], restarts=1,
                                    free_orientation=free_orientation)
        assert np.isfinite(res.objective)
    assert per_eval == [{"cofactors": 0, "forward": 1, "unique": 0}] * 2


def test_call_counts_invert_orientation_objective(monkeypatch):
    m = model_for("polyconvex", "transiso")
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig((2.0, 1.0, 1.0), (2, 1, 1), u0=0.01, n_steps=1, D=np.array([2.0, 3.0]))
    calls = []
    for owner, name in ((tc, "structure_tensors"), (fem, "solve_displacement")):
        def counted(*args, _inner=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    per_eval = []

    def one_eval_optimizer(f, x0, **kwargs):
        calls.clear()
        fx = f(x0)
        per_eval.append(list(calls))
        return inverse.OptimizeResult(x0, fx, 1, 1, "max_evals", [(1, fx)])

    monkeypatch.setattr(inverse, "nelder_mead", one_eval_optimizer)
    fit = fem.invert_orientation(mesh, cfg, m, restarts=2)
    assert np.isfinite(fit.objective)
    assert per_eval == [["structure_tensors", "solve_displacement"]] * 2


def test_call_counts_loss_and_param_gradients():
    m = model_for("polyconvex", "ortho")
    rng = np.random.default_rng(27)
    C = rand_spd(rng, 6)
    D = rng.uniform(1.0, 5.0, (2, 2))[np.arange(6) % 2]
    ws = energy.make_workspace(m, C, D, np.zeros((6, 3, 3)))
    with counting() as counts:
        energy.loss_and_param_gradients(m, ws)
    assert counts == {"cofactors": 0, "forward": 1, "unique": 0}


# ---------------------------------------------------------------------------
# the multi-start driver


def test_restarts_below_one_are_rejected():
    m = model_for("polyconvex", "transiso")
    C = rand_spd(np.random.default_rng(28), 4)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="restarts"):
        inverse.invert_design(m, C, S, d_bounds=[[1.0, 5.0], [1.0, 5.0]], restarts=0)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig((2.0, 1.0, 1.0), (2, 1, 1), u0=0.01, n_steps=1, D=np.array([2.0, 3.0]))
    with pytest.raises(ValueError, match="restarts"):
        fem.invert_orientation(mesh, cfg, m, restarts=0)
