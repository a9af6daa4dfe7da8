"""The single constitutive evaluation: grouped network pass, shared C-workspace.

Covers the grouped design path of the network against per-row inputs, the
agreement of every view of the evaluation (psi, stress, tangent, the fused
loss), single-design calls against the same design broadcast per row, and
a call-count guard that keeps one cofactor evaluation and one network pass
per constitutive call.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisoforge import datagen, energy, fem, inverse, picnn, tensor_core as tc, training
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


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_stress_per_design_matches_one_call_per_design(mode, aniso_class):
    rng = np.random.default_rng(29)
    m = model_for(mode, aniso_class)
    C = rand_spd(rng, 7)
    D = rng.uniform(1.0, 5.0, (4, 2))
    S = energy.stress_per_design(m, tc.c_workspace(C), D)
    assert S.shape == (4, 7, 3, 3)
    for g in range(4):
        assert max_rel(S[g], energy.stress(m, C, D[g])) < 1e-12
    if m.aniso is None:
        return
    Rs = [tc.structure_tensors(phi, rng.uniform(-1.0, 1.0, 3))[:2] for phi in rng.uniform(0.0, 3.0, 4)]
    stacks = [np.array(t) for t in zip(*Rs)]
    S = energy.stress_per_design(m, C, D, structure=stacks)
    for g in range(4):
        assert max_rel(S[g], energy.stress(m, C, D[g], structure=Rs[g])) < 1e-12
    # every design's tensor is checked, and a stack is only taken one tensor per design
    bad = [N.copy() for N in stacks]
    bad[0][2] *= 1.5
    with pytest.raises(ValueError, match="unit trace"):
        energy.stress_per_design(m, C, D, structure=bad)
    with pytest.raises(ValueError, match="unit trace"):
        energy.stress_per_design(m, C, D[:3], structure=stacks)
    with pytest.raises(ValueError, match="unit trace"):
        energy.stress(m, C, D[0], structure=stacks)


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


def test_result_does_not_depend_on_the_memory_layout_of_C():
    rng = np.random.default_rng(29)
    m = energy.new_model(2, mode="polyconvex", aniso_class="ortho", width_x=24, width_y=16,
                         depth=3, seed=5)
    C = rand_spd(rng, 300)
    strided = np.zeros((300, 3, 6))
    strided[:, :, ::2] = C
    d = np.array([2.0, 4.0])
    for f in (energy.psi, energy.stress, energy.tangent):
        expected = f(m, C, d)
        for other in (np.asfortranarray(C), strided[:, :, ::2]):
            assert np.array_equal(f(m, other, d), expected), f.__name__


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
    for free_orientation in (False, True):
        f = invert_design_objective(monkeypatch, m, C, S, free_orientation)
        X = population(rng, free_orientation)  # one generation of 9 candidates
        with counting() as counts:
            fs = f(X)
        assert np.all(np.isfinite(fs))
        assert counts == {"cofactors": 0, "forward": 1, "unique": 0}


def test_one_orientation_build_per_loss_gradient(monkeypatch):
    """The loss resolves the structure tensors once and hands them to its orientation adjoint."""
    m = model_for("polyconvex", "ortho")
    rng = np.random.default_rng(27)
    C = rand_spd(rng, 6)
    ws = energy.make_workspace(m, C, rng.uniform(1.0, 5.0, (6, 2)), 0.1 * C)
    calls = []

    def counted(*args, _inner=tc.structure_tensors):
        calls.append(args)
        return _inner(*args)

    monkeypatch.setattr(tc, "structure_tensors", counted)
    got = energy.loss_and_param_gradients(m, ws)
    assert len(calls) == 1
    assert got.dphi is not None and got.dalpha_bar.shape == (2,)


# ---------------------------------------------------------------------------
# the batched inversion objective


def invert_design_objective(monkeypatch, m, C, S, free_orientation):
    """The batched objective that invert_design hands to cma_es."""
    captured = []

    def capture(f, x0, sigma0, vectorized, **kwargs):
        captured.append(f)
        x = np.array(x0, dtype=float)
        if x.size > 2:
            x[3:] = [0.3, -1.2, 0.8]  # the box center has a zero rotation axis
        return inverse.OptimizeResult(x, 0.0, 0, 0, "max_evals", [])

    monkeypatch.setattr(inverse, "cma_es", capture)
    inverse.invert_design(m, C, S, d_bounds=[[1.0, 5.0], [1.0, 5.0]], restarts=1,
                          free_orientation=free_orientation)
    return captured[0]


def population(rng, fit_orientation, k=9):
    X = rng.uniform(1.0, 5.0, (k, 2))
    if fit_orientation:
        X = np.column_stack([X, rng.uniform(0.0, np.pi, k), rng.uniform(-1.0, 1.0, (k, 3))])
    return X


def per_candidate_mismatch(m, C, S, X):
    return np.array([inverse.stress_mismatch(m, C, S, x[:2], structure=None if x.size == 2
                                             else tc.structure_tensors(x[2], x[3:6]))
                     for x in X])


def rel_errors(f, ref):
    return np.abs(f - ref) / np.abs(ref)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
@pytest.mark.parametrize("free_orientation", [False, True])
def test_batched_objective_matches_per_candidate_mismatch(monkeypatch, mode, aniso_class,
                                                          free_orientation):
    rng = np.random.default_rng(30)
    m = model_for(mode, aniso_class)
    C = rand_spd(rng, 8)
    # observed off the surrogate, so that no candidate's mismatch is a near-cancellation
    S = 1.1 * energy.stress(m, C, np.array([2.0, 3.0]))
    f = invert_design_objective(monkeypatch, m, C, S, free_orientation)
    X = population(rng, free_orientation and aniso_class != "iso")
    fs = f(X)
    assert fs.shape == (9,)
    assert np.max(rel_errors(fs, per_candidate_mismatch(m, C, S, X))) < 1e-12


@pytest.mark.parametrize("aniso_class", ["transiso", "ortho"])
def test_batched_objective_fails_only_the_faulty_candidates(monkeypatch, aniso_class):
    rng = np.random.default_rng(31)
    m = model_for("polyconvex", aniso_class)
    C = rand_spd(rng, 8)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    for free_orientation in (False, True):
        f = invert_design_objective(monkeypatch, m, C, S, free_orientation)
        X = population(rng, free_orientation)
        ref = per_candidate_mismatch(m, C, S, X)
        faulty = [2]
        X[2, 0] = np.nan  # fails the batched surrogate call, so each candidate is evaluated alone
        if free_orientation:
            X[6, 3:] = 0.0  # a zero rotation axis fails before the surrogate call
            faulty.append(6)
        fs = f(X)
        good = np.setdiff1d(np.arange(9), faulty)
        assert np.all(np.isinf(fs[faulty]))
        assert np.max(rel_errors(fs[good], ref[good])) < 1e-12
        if free_orientation:
            X[2, 0] = 3.0  # only the zero axis is left: the batched call runs
            fs = f(X)
            assert np.isinf(fs[6]) and np.all(np.isfinite(np.delete(fs, 6)))
            ok = np.delete(np.arange(9), 6)
            assert np.max(rel_errors(fs[ok], per_candidate_mismatch(m, C, S, X[ok]))) < 1e-12


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_held_tiled_workspace_matches_fresh_stress_per_design(mode, aniso_class):
    """A workspace held across generations gives each generation the bits of a fresh call,
    and a later generation leaves the stresses of an earlier one untouched."""
    rng = np.random.default_rng(32)
    m = model_for(mode, aniso_class)
    C = rand_spd(rng, 8)
    ws = energy.tiled_workspace(tc.c_workspace(C), 9)
    kept = []
    for _ in range(2):
        X = population(rng, m.aniso is not None)
        structure = None if m.aniso is None else tc.structure_tensors(X[:, 2], X[:, 3:6])[:2]
        S = energy.stress_per_design(m, ws, X[:, :2], structure=structure)
        assert S.tobytes() == energy.stress_per_design(m, C, X[:, :2], structure=structure).tobytes()
        kept.append((S, S.copy()))
    assert all(S.tobytes() == copy.tobytes() for S, copy in kept)
    with pytest.raises(ValueError, match="evaluates 9 designs, not 8"):
        energy.stress_per_design(m, ws, X[:8, :2])


@pytest.mark.parametrize("free_orientation", [False, True])
def test_inversion_objective_holds_one_workspace_per_candidate_count(monkeypatch, free_orientation):
    """Over generations of the batched objective the bases of the fixed C are built once
    per candidate count, and each generation gives the bits of a fresh stress_mismatch."""
    rng = np.random.default_rng(33)
    m = model_for("polyconvex", "ortho")
    C = rand_spd(rng, 8)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    f = invert_design_objective(monkeypatch, m, C, S, free_orientation)
    for k, builds in ((9, 1), (9, 0), (8, 1), (9, 0), (8, 0)):
        X = population(rng, free_orientation, k)
        structure = tc.structure_tensors(X[:, 2], X[:, 3:6])[:2] if free_orientation else None
        ref = inverse.stress_mismatch(m, C, S, X[:, :2], structure=structure)
        calls = []

        def counted(*args, _inner=tc.invariant_bases):
            calls.append(args)
            return _inner(*args)

        with monkeypatch.context() as mp:
            mp.setattr(tc, "invariant_bases", counted)
            assert f(X).tobytes() == ref.tobytes()
        assert len(calls) == builds


def test_inversion_generation_writes_the_network_into_the_held_cache(monkeypatch):
    """After two warm-up generations the network's x path goes into the held workspace's
    cache: one generation (60 C, 9 candidates, 24/16/3 network) allocates under 0.5 MB
    transiently, against 2.1 MB with a fresh workspace per generation."""
    rng = np.random.default_rng(34)
    m = energy.new_model(2, aniso_class="ortho", width_x=24, width_y=16, depth=3, seed=3)
    C = rand_spd(rng, 60)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    held = []

    def holding(*args, _inner=energy.tiled_workspace):
        held.append(_inner(*args))
        return held[-1]

    monkeypatch.setattr(energy, "tiled_workspace", holding)
    f = invert_design_objective(monkeypatch, m, C, S, True)
    for _ in range(2):
        f(population(rng, True))
    X = population(rng, True)
    cache = held[0].cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(held) == 1 and held[0].cache is cache
    assert peak < 5e5, f"{peak / 1e6:.2f} MB transient"


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


def test_invert_orientation_builds_the_quadrature_once(monkeypatch):
    m = model_for("polyconvex", "transiso")
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig((2.0, 1.0, 1.0), (2, 1, 1), u0=0.01, n_steps=1, D=np.array([2.0, 3.0]))
    calls = {"precompute_quadrature": 0, "solve_displacement": 0}
    for name in calls:
        def counted(*args, _inner=getattr(fem, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(fem, name, counted)
    fit = fem.invert_orientation(mesh, cfg, m, restarts=2, max_evals=8)
    assert np.isfinite(fit.objective)
    # every restart solves at least its five initial simplex vertices
    assert calls["solve_displacement"] >= 10 and calls["precompute_quadrature"] == 1


def test_invert_orientation_plans_the_band_once_and_returns_no_aliases(monkeypatch):
    m = model_for("polyconvex", "transiso")
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig((2.0, 1.0, 1.0), (2, 1, 1), u0=0.01, n_steps=1, D=np.array([2.0, 3.0]))
    plans, results = [], []

    def planned(*args, _inner=fem.band_plan, **kwargs):
        plans.append(1)
        return _inner(*args, **kwargs)

    def solved(*args, _inner=fem.solve_displacement, **kwargs):
        results.append(_inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(fem, "band_plan", planned)
    monkeypatch.setattr(fem, "solve_displacement", solved)
    for calls in (1, 2):
        fit = fem.invert_orientation(mesh, cfg, m, restarts=2, max_evals=8)
        assert np.isfinite(fit.objective) and len(plans) == calls
    # the first three solves: a cold one, then two warm ones over the held workspace
    names = ("u", "F", "S", "reactions")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for a in names:
            for b in names:
                assert not np.shares_memory(getattr(results[i], a), getattr(results[j], b)), (i, j, a, b)


def test_call_counts_loss_and_param_gradients():
    m = model_for("polyconvex", "ortho")
    rng = np.random.default_rng(27)
    C = rand_spd(rng, 6)
    D = rng.uniform(1.0, 5.0, (2, 2))[np.arange(6) % 2]
    ws = energy.make_workspace(m, C, D, np.zeros((6, 3, 3)))
    with counting() as counts:
        energy.loss_and_param_gradients(m, ws)
    assert counts == {"cofactors": 0, "forward": 1, "unique": 0}


def test_each_evaluation_checks_its_network_inputs_once(monkeypatch):
    """value_and_grad checks X, Y and group; backprop and hess_inputs read
    them from its cache, so a training epoch on a held workspace and a
    tangent assembly each check the network's inputs once."""
    calls = []

    def counted(*args, _inner=picnn._check_inputs, **kwargs):
        calls.append(1)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(picnn, "_check_inputs", counted)
    m = model_for("polyconvex", "ortho")
    rng = np.random.default_rng(28)
    C = rand_spd(rng, 6)
    ws = energy.make_workspace(m, C, rng.uniform(1.0, 5.0, (2, 2))[np.arange(6) % 2], 0.1 * C)
    energy.loss_and_param_gradients(m, ws)
    calls.clear()
    energy.loss_and_param_gradients(m, ws)
    assert len(calls) == 1

    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    u = 0.01 * rng.standard_normal(mesh.n_dof)
    calls.clear()
    res = fem.assemble(mesh, mesh.quadrature, m, np.array([2.0, 3.0]), u, with_tangent=True)
    assert res.K is not None
    assert len(calls) == 1


def count_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of module.name."""
    calls = []

    def counted(*args, _inner=getattr(module, name), **kwargs):
        calls.append(1)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_design_only_inversion_builds_its_rows_once_per_candidate_count(monkeypatch):
    """C, orientation and activities stay the same for a design-only inversion, so its
    held workspace builds the invariants once for all 40 generations of two restarts."""
    rng = np.random.default_rng(36)
    m = model_for("polyconvex", "ortho")
    C = rand_spd(rng, 8)
    S = energy.stress(m, C, np.array([2.0, 3.0]))
    calls = count_calls(monkeypatch, tc, "invariants")
    res = inverse.invert_design(m, C, S, d_bounds=[[1.0, 5.0], [1.0, 5.0]], restarts=2,
                                max_evals=120, options={"popsize": 6, "tol_x": 0.0})
    assert res.n_evals == 240  # 40 generations of 6 candidates
    assert len(calls) == 1


@pytest.mark.parametrize("discovery, builds", [(False, 1), (True, 30)])
def test_training_builds_its_rows_once_per_orientation_and_activities(monkeypatch, discovery,
                                                                      builds):
    """A known-class run holds its orientation and activities, so 30 epochs build the
    invariants once; a discovery run moves both every epoch and builds them every epoch."""
    rng = np.random.default_rng(37)
    C = rand_spd(rng, 12)
    D = rng.uniform(1.0, 5.0, (3, 2))[np.arange(12) % 3]
    ds = datagen.Dataset(D, C, 0.1 * C, ["c1", "c2"])
    net = {"width_x": 5, "width_y": 4, "depth": 2, "seed": 3}
    m = (training.model_for_discovery(2, **net) if discovery
         else training.model_for_known_class(2, "ortho", **net))
    calls = count_calls(monkeypatch, tc, "invariants")
    training.train(m, ds, training.TrainConfig(epochs=30, log_every=10))
    assert len(calls) == builds


HELD_STEPS = ("same", "new", "earlier", "stack", "alpha", "in-place", "refill")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(steps=st.lists(st.sampled_from(HELD_STEPS), min_size=1, max_size=8),
       seed=st.integers(0, 2**16))
def test_held_rows_match_a_fresh_workspace_bit_for_bit(steps, seed):
    """One training workspace and one tiled workspace, held through a sequence of
    orientations, per-design stacks, activities, in-place parameter changes and new C,
    give after each step the bits of a fresh workspace: the stresses per design, the
    loss and its gradients, and the tangent blocks of both."""
    rng = np.random.default_rng(seed)
    m = model_for("polyconvex", "ortho")
    B, G = 6, 3
    C = rand_spd(rng, B)
    D = rng.uniform(1.0, 5.0, (G, 2))
    Dp, S_true = D[np.arange(B) % G], 0.1 * C
    plain = energy.make_workspace(m, C, Dp, S_true)
    tiled = energy.tiled_workspace(C, G)
    seen, stack = [(m.aniso.phi, m.aniso.p_raw.copy())], None

    def tangents(ws, uD, Ns):
        return [M.tobytes() for _, M in energy._Evaluation(m, ws, uD, Ns).tangent_blocks()]

    for step in steps:
        if step == "new":
            m.aniso.phi, m.aniso.p_raw = rng.uniform(0.0, np.pi), rng.uniform(-1.0, 1.0, 3)
            seen.append((m.aniso.phi, m.aniso.p_raw.copy()))
            stack = None
        elif step == "earlier":
            phi, p_raw = seen[rng.integers(len(seen))]
            m.aniso.phi, m.aniso.p_raw, stack = phi, p_raw.copy(), None
        elif step == "stack":
            stack = tc.structure_tensors(rng.uniform(0.0, np.pi, G), rng.uniform(-1.0, 1.0, (G, 3)))[:2]
        elif step == "alpha":
            m.aniso.alpha_bar = rng.normal(size=2)
        elif step == "in-place":
            which = rng.integers(3)
            if which == 0:
                m.aniso.phi += 0.1
            else:
                (m.aniso.p_raw if which == 1 else m.aniso.alpha_bar)[rng.integers(2)] += 0.1
        elif step == "refill":
            C = rand_spd(rng, B)
            S_true[:] = 0.1 * C
            plain.refill(C)
            tiled.refill(np.tile(C, (G, 1, 1)))
        fresh_plain, fresh_tiled = energy.make_workspace(m, C, Dp, S_true), energy.tiled_workspace(C, G)
        S = energy.stress_per_design(m, tiled, D, structure=stack)
        assert S.tobytes() == energy.stress_per_design(m, fresh_tiled, D, structure=stack).tobytes()
        Ns = energy._resolve_structure(m, stack, G)
        assert tangents(tiled, D, Ns) == tangents(fresh_tiled, D, Ns)
        got, ref = (energy.loss_and_param_gradients(m, ws) for ws in (plain, fresh_plain))
        assert got.loss == ref.loss
        for a, b in zip((got.dalpha_bar, got.dphi, got.dp_raw, *got.dnet.values()),
                        (ref.dalpha_bar, ref.dphi, ref.dp_raw, *ref.dnet.values())):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        Ns = energy._resolve_structure(m)
        assert tangents(plain, plain.uD, Ns) == tangents(fresh_plain, plain.uD, Ns)


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
