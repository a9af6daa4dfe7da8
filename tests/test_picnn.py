import numpy as np
import pytest

from anisoforge import picnn
from util import fd_jacobian, rel_err


def small_net(constrained=True, seed=3, n_inv=8, n_design=2):
    return picnn.init_params(
        n_inv, n_design, width_x=4, width_y=4, depth=3, constrained=constrained, seed=seed
    )


def rand_inputs(rng, n, n_inv=8, n_design=2):
    X = np.column_stack(
        [
            rng.uniform(1.0, 6.0, n),
            rng.uniform(1.0, 6.0, n),
            rng.uniform(0.3, 3.0, n),
            rng.uniform(-6.0, -0.6, n),
        ]
        + [rng.uniform(0.0, 3.0, n) for _ in range(n_inv - 4)]
    )
    Y = rng.uniform(0.5, 7.0, (n, n_design))
    return X, Y


def test_init_deterministic_bitwise():
    a = picnn.init_params(8, 2, seed=42)
    b = picnn.init_params(8, 2, seed=42)
    for k in a.weights:
        assert np.array_equal(a.weights[k], b.weights[k])
    c = picnn.init_params(8, 2, seed=43)
    assert any(not np.array_equal(c.weights[k], a.weights[k]) for k in a.weights)


def test_value_shape_and_determinism():
    rng = np.random.default_rng(0)
    p = small_net()
    X, Y = rand_inputs(rng, 17)
    v1 = picnn.value(p, X, Y)
    v2 = picnn.value(p, X, Y)
    assert v1.shape == (17,)
    assert np.array_equal(v1, v2)


def test_input_validation():
    p = small_net()
    with pytest.raises(ValueError, match="invariant input width"):
        picnn.value(p, np.zeros((2, 5)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="design input width"):
        picnn.value(p, np.zeros((2, 8)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        picnn.value(p, np.full((1, 8), np.nan), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="batch sizes"):
        picnn.value(p, np.zeros((2, 8)), np.zeros((3, 2)))


@pytest.mark.parametrize("constrained", [True, False])
def test_grad_matches_fd(constrained):
    rng = np.random.default_rng(1)
    p = small_net(constrained)
    X, Y = rand_inputs(rng, 6)
    _, g = picnn.value_and_grad(p, X, Y)
    for b in range(6):
        fd = fd_jacobian(lambda x: picnn.value(p, x[None, :], Y[b : b + 1])[0], X[b])
        assert rel_err(g[b], fd, floor=1e-6) < 1e-6


@pytest.mark.parametrize("constrained", [True, False])
def test_hess_matches_fd_and_symmetry(constrained):
    rng = np.random.default_rng(2)
    p = small_net(constrained)
    X, Y = rand_inputs(rng, 4)
    H = picnn.hess_inputs(p, X, Y)
    for b in range(4):
        fd = fd_jacobian(
            lambda x: picnn.value_and_grad(p, x[None, :], Y[b : b + 1])[1][0], X[b], h=1e-5
        )
        assert np.allclose(H[b], fd, rtol=1e-4, atol=1e-8)
        assert np.max(np.abs(H[b] - H[b].T)) < 1e-12


def backward_hess_reference(params, X, Y):
    """Input Hessian by the backward curvature recursion on (wx, wx) matrices.

    With sp' and sp'' at the pre-activations z_h:
        M_L = 0,  delta_L = w
        Mz  = sp' (x) sp' * M_{h+1} + diag(delta_{h+1} * sp'')
        M_h = A_h^T Mz A_h,  delta_h = (sp' * delta_{h+1}) A_h
    """
    c = picnn._forward(params, X, Y)
    B = X.shape[0]
    delta = np.broadcast_to(c.w, (B, c.w.size)).copy()
    M = np.zeros((B, c.w.size, c.w.size))
    idx = np.arange(c.w.size)
    for h in range(params.depth - 1, -1, -1):
        sp1 = c.sz[h]
        Mz = sp1[:, :, None] * M * sp1[:, None, :]
        Mz[:, idx, idx] += delta * sp1 * (1.0 - sp1)
        M = np.matmul(np.matmul(c.A[h].T, Mz), c.A[h])
        delta = (sp1 * delta) @ c.A[h]
    return M


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("n_inv", [4, 6, 8])
@pytest.mark.parametrize("depth", [1, 2, 4])
def test_hess_forward_mode_matches_fd_and_backward_reference(depth, n_inv, constrained):
    rng = np.random.default_rng(10 * depth + n_inv)
    p = picnn.init_params(n_inv, 2, width_x=5, width_y=4, depth=depth,
                          constrained=constrained, seed=depth + n_inv)
    X, Y = rand_inputs(rng, 6, n_inv=n_inv)
    H = picnn.hess_inputs(p, X, Y)
    assert H.shape == (6, n_inv, n_inv)
    assert np.max(np.abs(H - H.transpose(0, 2, 1))) < 1e-12
    ref = backward_hess_reference(p, X, Y)
    assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))
    for b in range(6):
        fd = fd_jacobian(
            lambda x: picnn.value_and_grad(p, x[None, :], Y[b : b + 1])[1][0], X[b], h=1e-5
        )
        assert np.allclose(H[b], fd, rtol=1e-4, atol=1e-8)


def test_hess_with_cache_matches_fresh():
    rng = np.random.default_rng(8)
    p = small_net()
    X, Y = rand_inputs(rng, 5)
    _, _, cache = picnn.value_and_grad(p, X, Y, return_cache=True)
    assert np.array_equal(picnn.hess_inputs(p, X, Y, cache=cache), picnn.hess_inputs(p, X, Y))


def test_constrained_monotone_and_convex():
    rng = np.random.default_rng(3)
    p = picnn.init_params(8, 2, seed=11)  # full-width network
    X, Y = rand_inputs(rng, 4000)
    _, g = picnn.value_and_grad(p, X, Y)
    assert np.min(g) >= -1e-12
    H = picnn.hess_inputs(p, X[:500], Y[:500])
    eigs = np.linalg.eigvalsh(H)
    assert np.min(eigs) >= -1e-9
    # midpoint convexity
    Xa, Ya = rand_inputs(rng, 2000)
    Xb, _ = rand_inputs(rng, 2000)
    va = picnn.value(p, Xa, Ya)
    vb = picnn.value(p, Xb, Ya)
    vm = picnn.value(p, 0.5 * (Xa + Xb), Ya)
    assert np.all(vm <= 0.5 * (va + vb) + 1e-10)


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("use_val,use_grad", [(True, False), (False, True), (True, True)])
def test_backprop_matches_fd(constrained, use_val, use_grad):
    rng = np.random.default_rng(4)
    p = small_net(constrained)
    X, Y = rand_inputs(rng, 5)
    sv = rng.standard_normal(5) if use_val else None
    sg = rng.standard_normal((5, 8)) if use_grad else None

    def q_of(params):
        psi, g = picnn.value_and_grad(params, X, Y)
        out = 0.0
        if sv is not None:
            out += float(sv @ psi)
        if sg is not None:
            out += float(np.sum(sg * g))
        return out

    dtheta, _ = picnn.backprop(p, X, Y, sv, sg)
    vec, unflatten = picnn.flatten(p)
    fd = np.zeros_like(vec)
    h = 1e-6
    for k in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[k] += h
        vm[k] -= h
        fd[k] = (q_of(unflatten(vp)) - q_of(unflatten(vm))) / (2 * h)
    got = picnn.flatten_grads(p, dtheta)
    assert rel_err(got, fd, floor=1e-4) < 1e-5


def test_backprop_input_adjoint_is_hvp():
    rng = np.random.default_rng(5)
    p = small_net()
    X, Y = rand_inputs(rng, 7)
    sv = rng.standard_normal(7)
    sg = rng.standard_normal((7, 8))
    _, dX = picnn.backprop(p, X, Y, sv, sg)
    _, g = picnn.value_and_grad(p, X, Y)
    H = picnn.hess_inputs(p, X, Y)
    ref = sv[:, None] * g + np.einsum("bij,bj->bi", H, sg)
    assert rel_err(dX, ref, floor=1e-9) < 1e-10


def test_backprop_with_cache_matches_fresh():
    rng = np.random.default_rng(6)
    p = small_net()
    X, Y = rand_inputs(rng, 3)
    sv = rng.standard_normal(3)
    sg = rng.standard_normal((3, 8))
    _, _, cache = picnn.value_and_grad(p, X, Y, return_cache=True)
    d1, dX1 = picnn.backprop(p, X, Y, sv, sg, cache=cache)
    d2, dX2 = picnn.backprop(p, X, Y, sv, sg)
    for k in d1:
        assert np.array_equal(np.asarray(d1[k]), np.asarray(d2[k]))
    assert np.array_equal(dX1, dX2)


def test_flatten_round_trip():
    p = small_net()
    vec, unflatten = picnn.flatten(p)
    q = unflatten(vec)
    for k in p.weights:
        assert np.array_equal(p.weights[k], q.weights[k])
