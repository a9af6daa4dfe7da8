import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisoforge import energy, picnn, training, tensor_core as tc
from util import rand_spd, rand_rotation, fd_grad_wrt_C, rel_err, default_structure_tensors

MODES = ("polyconvex", "nonpoly_linearC", "unconstrained")
CLASSES = ("iso", "transiso", "ortho")


def tiny_model(mode="polyconvex", aniso_class="ortho", seed=5, trainable=True, gamma=1.0):
    m = energy.new_model(
        2, mode=mode, aniso_class=aniso_class, gamma=gamma,
        width_x=4, width_y=4, depth=3, seed=seed,
    )
    if m.aniso is not None and trainable:
        m.aniso = energy.AnisotropyState(
            alpha_bar=np.array([0.4, -0.3]),
            phi=0.7,
            p_raw=np.array([0.3, -1.2, 0.8]),
            trainable_alpha=True,
            trainable_orientation=True,
        )
    return m


def rand_batch(rng, n, model, spread=0.25):
    C = rand_spd(rng, n, spread=spread)
    D = rng.uniform(1.0, 5.0, (n, 2))
    return C, D


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_energy_and_stress_vanish_at_identity(mode, aniso_class):
    rng = np.random.default_rng(0)
    for seed in range(4):
        m = tiny_model(mode, aniso_class, seed=seed)
        D = rng.uniform(0.5, 6.0, (3, 2))
        C = np.broadcast_to(np.eye(3), (3, 3, 3))
        assert np.max(np.abs(energy.psi(m, C, D))) < 1e-10
        S = energy.stress(m, C, D)
        assert np.max(np.abs(S)) < 1e-8


def test_growth_dominates_large_dilation():
    m = tiny_model("polyconvex", "iso", gamma=1.0)
    D = np.array([2.0, 3.0])
    assert energy.psi(m, 25.0 * np.eye(3), D) > energy.psi(m, 1.2 * np.eye(3), D)


def test_growth_coefficient_and_curvature_fd():
    J = np.linspace(0.4, 2.5, 17)
    h = 1e-6
    gamma = 1.3
    f = lambda J: gamma * (J + 1.0 / J - 2.0) ** 2
    dfd = (f(J + h) - f(J - h)) / (2 * h)
    assert np.allclose(energy.growth_coefficient(J, gamma), dfd, rtol=1e-7, atol=1e-9)
    g = lambda J: energy.growth_coefficient(J, gamma)
    d2fd = (g(J + h) - g(J - h)) / (2 * h)
    assert np.allclose(energy.growth_curvature(J, gamma), d2fd, rtol=1e-6, atol=1e-8)
    assert energy.growth_coefficient(1.0, gamma) == 0.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_stress_matches_fd_of_psi(mode, aniso_class):
    rng = np.random.default_rng(1)
    m = tiny_model(mode, aniso_class)
    for _ in range(5):
        C = rand_spd(rng)
        D = rng.uniform(1.0, 5.0, 2)
        S = energy.stress(m, C, D)
        g = fd_grad_wrt_C(lambda X: energy.psi(m, X, D), C)
        assert rel_err(S, 2.0 * g, floor=1e-6) < 2e-5, (mode, aniso_class)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_tangent_matches_fd_of_stress(mode, aniso_class):
    rng = np.random.default_rng(2)
    m = tiny_model(mode, aniso_class)
    C = rand_spd(rng)
    D = rng.uniform(1.0, 5.0, 2)
    M = energy.tangent(m, C, D)
    assert np.max(np.abs(M - M.T)) < 1e-10  # major symmetry
    # FD columns: dS = 0.5 * CC : dC
    h = 1e-6
    for b, (k, l) in enumerate(tc.VOIGT):
        Cp, Cm = C.copy(), C.copy()
        Cp[k, l] += h
        Cm[k, l] -= h
        if k != l:
            Cp[l, k] += h
            Cm[l, k] -= h
        col = tc.sym_to_6((energy.stress(m, Cp, D) - energy.stress(m, Cm, D)) / (2 * h))
        ref = M[:, b] * (1.0 if k != l else 0.5)
        assert np.allclose(col, ref, rtol=1e-4, atol=1e-7), (mode, aniso_class, b)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    F=st.lists(st.floats(-0.25, 0.25), min_size=9, max_size=9),
    D=st.lists(st.floats(1.0, 5.0), min_size=2, max_size=2),
    mode=st.sampled_from(MODES),
    aniso_class=st.sampled_from(CLASSES),
)
def test_tangent_properties(F, D, mode, aniso_class):
    """Major symmetry and agreement with FD of the stress for random SPD C."""
    F = np.eye(3) + np.reshape(F, (3, 3))
    C = F.T @ F
    D = np.asarray(D)
    m = tiny_model(mode, aniso_class)
    M = energy.tangent(m, C, D)
    assert np.max(np.abs(M - M.T)) < 1e-10
    h = 1e-6
    for b, (k, l) in enumerate(tc.VOIGT):
        Cp, Cm = C.copy(), C.copy()
        Cp[k, l] += h
        Cm[k, l] -= h
        if k != l:
            Cp[l, k] += h
            Cm[l, k] -= h
        col = tc.sym_to_6((energy.stress(m, Cp, D) - energy.stress(m, Cm, D)) / (2 * h))
        ref = M[:, b] * (1.0 if k != l else 0.5)
        assert np.allclose(col, ref, rtol=1e-4, atol=1e-7), (mode, aniso_class, b)


@pytest.mark.parametrize("mode", MODES)
def test_tangent_return_stress_matches_stress_and_tangent(mode):
    rng = np.random.default_rng(12)
    m = tiny_model(mode, "ortho")
    C, D = rand_batch(rng, 5, m)
    S, M = energy.tangent(m, C, D, return_stress=True)
    assert np.array_equal(S, energy.stress(m, C, D))
    assert np.array_equal(M, energy.tangent(m, C, D))
    S1, M1 = energy.tangent(m, C[0], D[0], return_stress=True)
    assert S1.shape == (3, 3) and M1.shape == (6, 6)


def test_tangent_over_several_blocks_matches_per_slice_calls():
    """Three row blocks of picnn.HESS_ROWS, the last one partial, against
    calls on slices that straddle the block edges; a slice's network
    Hessian runs over another batch, so the last bits may move."""
    rng = np.random.default_rng(15)
    m = tiny_model("polyconvex", "ortho")
    B = 2 * picnn.HESS_ROWS + 5
    C, D = rand_batch(rng, B, m)
    M = energy.tangent(m, C, D)
    edges = [0, 100, picnn.HESS_ROWS + 7, 2 * picnn.HESS_ROWS - 1, B]
    ref = np.concatenate([energy.tangent(m, C[a:b], D[a:b]) for a, b in zip(edges, edges[1:])])
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
    S, M_with_stress = energy.tangent(m, C, D, return_stress=True)
    assert np.array_equal(M_with_stress, M)
    assert np.array_equal(S, energy.stress(m, C, D))


def test_linearC_tangent_bitwise_with_without_sn():
    rng = np.random.default_rng(3)
    m = tiny_model("nonpoly_linearC", "ortho")
    C = rand_spd(rng, 4)
    D = rng.uniform(1.0, 5.0, (4, 2))
    M1 = energy.tangent(m, C, D, with_sn=True)
    M2 = energy.tangent(m, C, D, with_sn=False)
    assert np.array_equal(M1, M2)


def test_polyconvex_tangent_differs_with_without_sn():
    rng = np.random.default_rng(4)
    m = tiny_model("polyconvex", "ortho")
    C = rand_spd(rng)
    D = rng.uniform(1.0, 5.0, 2)
    M1 = energy.tangent(m, C, D, with_sn=True)
    M2 = energy.tangent(m, C, D, with_sn=False)
    assert not np.allclose(M1, M2)


@pytest.mark.parametrize("mode", MODES)
def test_objectivity_of_psi_and_stress(mode):
    rng = np.random.default_rng(5)
    m = tiny_model(mode, "ortho")
    N1, N2, _ = m.aniso.structure()
    for _ in range(20):
        C = rand_spd(rng)
        D = rng.uniform(1.0, 5.0, 2)
        Q = rand_rotation(rng)
        Cr = Q.T @ C @ Q
        rot = (Q.T @ N1 @ Q, Q.T @ N2 @ Q)
        assert abs(energy.psi(m, Cr, D, structure=rot) - energy.psi(m, C, D)) < 1e-9
        S = energy.stress(m, C, D)
        Sr = energy.stress(m, Cr, D, structure=rot)
        assert np.max(np.abs(Sr - Q.T @ S @ Q)) < 1e-9


def test_normalization_coefficients_signs_and_iso_reduction():
    m = tiny_model("polyconvex", "ortho")
    D = np.array([[1.0, 2.0], [3.0, 4.0]])
    nc = energy.normalization_coefficients(m, D)
    # constrained network: reference gradients nonnegative, so p, q, r, s >= 0
    assert np.all(nc.g_ref >= -1e-12)
    assert np.all(nc.c_sn[:, [4, 5, 6, 7]] >= -1e-12)
    assert np.all(nc.c_sn[:, [0, 1, 3]] == 0.0)
    m_iso = tiny_model("polyconvex", "iso")
    nc_iso = energy.normalization_coefficients(m_iso, D)
    assert nc_iso.c_sn.shape == (2, 4)
    assert np.all(nc_iso.c_sn[:, [0, 1, 3]] == 0.0)


@pytest.mark.parametrize("aniso_class", CLASSES)
def test_linearC_normalization_is_a_map_onto_I1_I5_I7(aniso_class):
    """c_sn of the linear-C form carries -T_ref : (C - I), T_ref = sum_i g_ref_i scale_i Bref_i."""
    rng = np.random.default_rng(11)
    m = tiny_model("nonpoly_linearC", aniso_class)
    D = rng.uniform(1.0, 5.0, (3, 2))
    nc = energy.normalization_coefficients(m, D)
    linear = [0, 4, 6][: 1 + energy.N_DIRECTIONS[aniso_class]]
    assert np.all(np.delete(nc.c_sn, linear, axis=1) == 0.0)
    assert np.all(nc.c_sn[:, linear] != 0.0)
    Ns = energy._resolve_structure(m)
    scale = np.repeat((1.0, 1.0) + m.aniso.alphas()[: len(Ns)], 2) if Ns else np.ones(4)
    T_ref = np.einsum("gi,ijk->gjk", nc.g_ref * scale, tc.reference_bases(Ns))
    for C in rand_spd(rng, 5):
        Bu = tc.invariant_bases(C, Ns)
        S_sn = 2.0 * np.einsum("gi,ijk->gjk", nc.c_sn * scale, Bu)
        assert rel_err(S_sn, -2.0 * T_ref) < 1e-13


def test_design_bounds_warning():
    m = tiny_model()
    m.d_bounds = np.array([[1.0, 5.0], [1.0, 5.0]])
    with pytest.warns(UserWarning, match="extrapolating"):
        energy.stress(m, np.eye(3), np.array([9.0, 2.0]))


def test_invalid_inputs():
    m = tiny_model()
    with pytest.raises(ValueError, match="positive definite"):
        energy.stress(m, np.diag([1.0, -1.0, 1.0]), np.array([2.0, 2.0]), check=True)
    with pytest.raises(ValueError, match="non-finite"):
        energy.stress(m, np.eye(3), np.array([np.nan, 2.0]))
    with pytest.raises(ValueError, match="batch sizes"):
        energy.stress(m, rand_spd(np.random.default_rng(0), 3), np.ones((2, 2)))
    with pytest.raises(ValueError, match="does not match"):
        energy.Model(picnn.init_params(6, 2), energy.EnergyConfig(aniso_class="ortho"),
                     energy.AnisotropyState())
    with pytest.raises(ValueError, match="unknown mode"):
        energy.EnergyConfig(mode="banana")


def _bad_structures():
    N1, N2 = default_structure_tensors()
    skew = np.zeros((3, 3))
    skew[0, 1], skew[1, 0] = 1e-6, -1e-6
    inf = N1.copy()
    inf[2, 2] = np.inf
    return {
        "scaled": (2.0 * N1, 2.0 * N2),
        "second-scaled": (N1, 2.0 * N2),
        "asymmetric": (N1 + skew, N2),
        "non-finite": (inf, N2),
        "shape": (N1[:2, :2], N2),
    }


@pytest.mark.parametrize("mode", ("polyconvex", "nonpoly_linearC"))
@pytest.mark.parametrize("case", sorted(_bad_structures()))
def test_bad_structure_override_raises(mode, case):
    m = tiny_model(mode, "ortho")
    structure = _bad_structures()[case]
    D = np.array([2.0, 3.0])
    for call in (energy.psi, energy.stress, energy.tangent):
        with pytest.raises(ValueError, match="structure tensor"):
            call(m, np.eye(3), D, structure=structure)
    with pytest.raises(ValueError, match="structure tensor"):
        energy.normalization_coefficients(m, D, structure=structure)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    phi=st.floats(0.0, np.pi),
    p=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda p: np.linalg.norm(p) > 0.1),
    D=st.lists(st.floats(0.5, 6.0), min_size=2, max_size=2),
    mode=st.sampled_from(MODES),
    aniso_class=st.sampled_from(("transiso", "ortho")),
)
def test_reference_state_stress_free_under_structure_override(phi, p, D, mode, aniso_class):
    """psi(I, D) = 0 and S(I, D) = 0 for any valid orientation override."""
    m = tiny_model(mode, aniso_class)
    N1, N2, _ = tc.structure_tensors(phi, np.array(p))
    assert abs(energy.psi(m, np.eye(3), D, structure=(N1, N2))) < 1e-10
    assert np.max(np.abs(energy.stress(m, np.eye(3), D, structure=(N1, N2)))) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    F=st.lists(st.floats(-0.25, 0.25), min_size=9, max_size=9),
    angle=st.floats(0.0, np.pi),
    axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda p: np.linalg.norm(p) > 0.1),
    D=st.lists(st.floats(1.0, 5.0), min_size=2, max_size=2),
    mode=st.sampled_from(MODES),
    aniso_class=st.sampled_from(CLASSES),
)
def test_objectivity_under_rotated_structure(F, angle, axis, D, mode, aniso_class):
    """Rotating C and the structure override by Q keeps psi and maps S to Q^T S Q."""
    F = np.eye(3) + np.reshape(F, (3, 3))
    C = F.T @ F
    Q = tc.rotation_from_axis_angle(angle, axis)
    m = tiny_model(mode, aniso_class)
    structure = rotated = None
    if m.aniso is not None:
        N1, N2, _ = m.aniso.structure()
        structure, rotated = (N1, N2), (Q.T @ N1 @ Q, Q.T @ N2 @ Q)
    psi = energy.psi(m, C, D, structure=structure)
    S = energy.stress(m, C, D, structure=structure)
    psi_rot = energy.psi(m, Q.T @ C @ Q, D, structure=rotated)
    S_rot = energy.stress(m, Q.T @ C @ Q, D, structure=rotated)
    assert abs(psi_rot - psi) <= 1e-10 * (1.0 + abs(psi))
    assert np.max(np.abs(S_rot - Q.T @ S @ Q)) <= 1e-10 * (1.0 + np.max(np.abs(S)))


# ---------------------------------------------------------------------------
# fused loss gradient against finite differences


def _loss_of(model, ws):
    return energy.loss_and_param_gradients(model, ws).loss


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("aniso_class", CLASSES)
def test_loss_gradients_match_fd(mode, aniso_class):
    rng = np.random.default_rng(6)
    m = tiny_model(mode, aniso_class)
    C, D = rand_batch(rng, 6, m)
    D[3:] = D[0]  # a repeated design group
    S_true = 0.3 * rand_spd(rng, 6) - 0.3 * np.eye(3)
    ws = energy.make_workspace(m, C, D, S_true)
    got = energy.loss_and_param_gradients(m, ws)

    # network weights
    vec, unflatten = picnn.flatten(m.net)
    h = 1e-6
    fd = np.zeros_like(vec)
    for k in range(vec.size):
        for s, out in ((+1, 0), (-1, 1)):
            v = vec.copy()
            v[k] += s * h
            m2 = m.copy()
            m2.net = unflatten(v)
            if out == 0:
                f_p = _loss_of(m2, ws)
            else:
                f_m = _loss_of(m2, ws)
        fd[k] = (f_p - f_m) / (2 * h)
    assert rel_err(picnn.flatten_grads(m.net, got.dnet), fd, floor=1e-5) < 2e-5

    if m.aniso is None:
        assert got.dalpha_bar is None and got.dphi is None
        return

    # activity logits
    for i in range(2):
        m_p, m_m = m.copy(), m.copy()
        m_p.aniso.alpha_bar = m.aniso.alpha_bar.copy()
        m_m.aniso.alpha_bar = m.aniso.alpha_bar.copy()
        m_p.aniso.alpha_bar[i] += h
        m_m.aniso.alpha_bar[i] -= h
        fd_a = (_loss_of(m_p, ws) - _loss_of(m_m, ws)) / (2 * h)
        assert abs(got.dalpha_bar[i] - fd_a) < 2e-6 * max(1.0, abs(fd_a)), (mode, aniso_class, i)

    # orientation
    m_p, m_m = m.copy(), m.copy()
    m_p.aniso.phi += h
    m_m.aniso.phi -= h
    fd_phi = (_loss_of(m_p, ws) - _loss_of(m_m, ws)) / (2 * h)
    assert abs(got.dphi - fd_phi) < 2e-6 * max(1.0, abs(fd_phi)), (mode, aniso_class)
    for k in range(3):
        m_p, m_m = m.copy(), m.copy()
        m_p.aniso.p_raw = m.aniso.p_raw.copy()
        m_m.aniso.p_raw = m.aniso.p_raw.copy()
        m_p.aniso.p_raw[k] += h
        m_m.aniso.p_raw[k] -= h
        fd_p = (_loss_of(m_p, ws) - _loss_of(m_m, ws)) / (2 * h)
        assert abs(got.dp_raw[k] - fd_p) < 2e-6 * max(1.0, abs(fd_p)), (mode, aniso_class, k)


def test_loss_stress_matches_stress_api():
    rng = np.random.default_rng(7)
    for mode in MODES:
        m = tiny_model(mode, "ortho")
        C, D = rand_batch(rng, 5, m)
        S_true = np.zeros((5, 3, 3))
        ws = energy.make_workspace(m, C, D, S_true)
        got = energy.loss_and_param_gradients(m, ws, want_stress=True)
        S_api = energy.stress(m, C, D)
        assert np.max(np.abs(got.S_hat - S_api)) < 1e-12
        # loss equals mean squared Frobenius norm
        assert abs(got.loss - np.mean(np.sum(S_api**2, axis=(1, 2)))) < 1e-12


def test_perfect_fit_has_zero_stress_gradient():
    rng = np.random.default_rng(8)
    m = tiny_model("polyconvex", "ortho")
    C, D = rand_batch(rng, 4, m)
    S_true = energy.stress(m, C, D)
    ws = energy.make_workspace(m, C, D, S_true)
    got = energy.loss_and_param_gradients(m, ws)
    assert got.loss < 1e-28
    assert np.max(np.abs(picnn.flatten_grads(m.net, got.dnet))) < 1e-13
    assert np.max(np.abs(got.dalpha_bar)) < 1e-13
    assert abs(got.dphi) < 1e-13


def loss_gradient_arrays(out):
    return [np.asarray(out.loss), out.dalpha_bar, np.asarray(out.dphi), out.dp_raw, out.S_hat,
            *(out.dnet[k] for k in sorted(out.dnet))]


def test_reused_workspace_allocates_no_batch_arrays():
    """A training epoch on a reused workspace writes the network's x path and
    the basis stack into the workspace's buffers: after two warm-up calls one
    call allocates under 1 MB transiently (5.5 MB when every batch-sized
    array was fresh), gives the fresh workspace's result bit for bit, and
    leaves the arrays returned by the call before it untouched."""
    rng = np.random.default_rng(15)
    m = training.model_for_discovery(3, width_x=24, width_y=16, depth=3, seed=4)
    other = m.copy()  # the warm-ups and the last call see other weights and orientation
    other.aniso.phi += 0.3
    other.aniso.alpha_bar += 0.5
    for v in other.net.weights.values():
        v *= 1.1
    C = rand_spd(rng, 900, spread=0.25)
    D = rng.uniform(1.0, 5.0, (9, 3))[np.arange(900) % 9]
    S_true = energy.stress(training.model_for_discovery(3, seed=5), C, D)
    ws = energy.make_workspace(m, C, D, S_true)
    for _ in range(2):
        energy.loss_and_param_gradients(other, ws)
    cache = ws.cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = energy.loss_and_param_gradients(m, ws, want_stress=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ws.cache is cache
    assert peak < 1e6, f"{peak / 1e6:.2f} MB transient"

    fresh = energy.loss_and_param_gradients(m, energy.make_workspace(m, C, D, S_true),
                                            want_stress=True)
    got = loss_gradient_arrays(out)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, loss_gradient_arrays(fresh)))
    kept = [a.copy() for a in got]
    energy.loss_and_param_gradients(other, ws, want_stress=True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, kept))


def test_workspace_validation():
    m = tiny_model()
    rng = np.random.default_rng(9)
    C, D = rand_batch(rng, 3, m)
    with pytest.raises(ValueError, match="non-finite"):
        energy.make_workspace(m, C, D, np.full((3, 3, 3), np.nan))
    bad = C.copy()
    bad[0] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="positive definite"):
        energy.make_workspace(m, bad, D, np.zeros((3, 3, 3)))


def test_checkpoint_round_trip(tmp_path):
    m = tiny_model("polyconvex", "ortho")
    m.d_bounds = np.array([[1.0, 5.0], [1.0, 5.0]])
    m.meta = {"dataset": "unit-test", "seed": 7, "epochs": 3}
    path = tmp_path / "ckpt.json"
    energy.save_model(m, path)
    m2 = energy.load_model(path)
    for k in m.net.weights:
        assert np.array_equal(m.net.weights[k], m2.net.weights[k])
    assert m2.config.mode == m.config.mode
    assert m2.config.aniso_class == m.config.aniso_class
    assert m2.config.gamma == m.config.gamma
    assert np.array_equal(m2.aniso.alpha_bar, m.aniso.alpha_bar)
    assert m2.aniso.phi == m.aniso.phi
    assert np.array_equal(m2.aniso.p_raw, m.aniso.p_raw)
    assert np.array_equal(m2.d_bounds, m.d_bounds)
    assert m2.meta == m.meta
    rng = np.random.default_rng(10)
    C, D = rand_batch(rng, 3, m)
    assert np.array_equal(energy.stress(m, C, D), energy.stress(m2, C, D))



finite = st.floats(-1e6, 1e6, allow_subnormal=False)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2**53, 2**53),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6))


@st.composite
def models(draw):
    aniso_class = draw(st.sampled_from(CLASSES))
    n_design = draw(st.integers(1, 4))
    aniso = None
    if aniso_class != "iso":
        aniso = energy.AnisotropyState(
            draw(st.none() | st.lists(finite, min_size=2, max_size=2).map(np.array)),
            draw(finite),
            np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                          .filter(lambda p: np.linalg.norm(p) > 1e-3))),
            draw(st.booleans()),
            draw(st.booleans()),
        )
    lo = draw(st.lists(st.floats(0.5, 3.0), min_size=n_design, max_size=n_design))
    d_bounds = draw(st.none() | st.just(np.column_stack([lo, np.array(lo) + 2.0])))
    m = energy.new_model(n_design, mode=draw(st.sampled_from(MODES)), aniso_class=aniso_class,
                         gamma=draw(st.floats(0.0, 10.0)), width_x=draw(st.integers(1, 6)),
                         width_y=draw(st.integers(1, 6)), depth=draw(st.integers(1, 4)),
                         seed=draw(st.integers(0, 2**32 - 1)), aniso=aniso, d_bounds=d_bounds)
    m.meta = draw(st.dictionaries(st.text(max_size=6),
                                  json_scalars | st.lists(json_scalars, max_size=3), max_size=4))
    return m


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=models())
def test_checkpoint_round_trip_property(m):
    """save_model then load_model returns the same model: bitwise weights, anisotropy,
    bounds and meta, and bitwise the same stresses."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        energy.save_model(m, path)
        m2 = energy.load_model(path)
    assert m2.net.weights.keys() == m.net.weights.keys()
    for k, w in m.net.weights.items():
        assert m2.net.weights[k].tobytes() == w.tobytes()
    assert vars(m2.config) == vars(m.config)
    assert (m2.net.n_inv, m2.net.n_design, m2.net.width_x, m2.net.width_y, m2.net.depth,
            m2.net.constrained) == (m.net.n_inv, m.net.n_design, m.net.width_x, m.net.width_y,
                                    m.net.depth, m.net.constrained)
    if m.aniso is None:
        assert m2.aniso is None
    else:
        a, b = m.aniso, m2.aniso
        assert (b.alpha_bar is None) == (a.alpha_bar is None)
        if a.alpha_bar is not None:
            assert b.alpha_bar.tobytes() == a.alpha_bar.tobytes()
        assert b.p_raw.tobytes() == a.p_raw.tobytes()
        assert (b.phi, b.trainable_alpha, b.trainable_orientation) == (
            a.phi, a.trainable_alpha, a.trainable_orientation)
    assert (m2.d_bounds is None) == (m.d_bounds is None)
    if m.d_bounds is not None:
        assert m2.d_bounds.tobytes() == m.d_bounds.tobytes()
    assert m2.meta == m.meta
    C = rand_spd(np.random.default_rng(11), 4)
    D = np.full(m.net.n_design, 2.0) if m.d_bounds is None else m.d_bounds.mean(axis=1)
    assert energy.stress(m2, C, D).tobytes() == energy.stress(m, C, D).tobytes()

def test_checkpoint_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a model checkpoint"):
        energy.load_model(p)


def test_checkpoint_rejects_unsupported_version(tmp_path):
    path = tmp_path / "ckpt.json"
    energy.save_model(tiny_model(), path)
    payload = json.loads(path.read_text())
    payload["version"] = energy.CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        energy.load_model(path)


@pytest.mark.parametrize("mode", ["polyconvex", "nonpoly_linearC", "unconstrained"])
def test_checkpoint_rejects_constrained_contradicting_mode(tmp_path, mode):
    """A flipped constrained flag would drop (or impose) the convexity guarantee."""
    path = tmp_path / "ckpt.json"
    energy.save_model(tiny_model(mode), path)
    payload = json.loads(path.read_text())
    payload["architecture"]["constrained"] = not payload["architecture"]["constrained"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"constrained=.*contradicts mode '{mode}'"):
        energy.load_model(path)


def test_energy_config_rejects_non_finite_gamma():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            energy.EnergyConfig(gamma=bad)
