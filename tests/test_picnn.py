import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# ---------------------------------------------------------------------------
# buffers owned by the cache


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def old_softplus_sigmoid(z):
    """The formula before softplus_sigmoid wrote into buffers."""
    e = np.exp(-np.abs(z))
    sp = np.log1p(e) + np.maximum(z, 0.0)
    sig = 1.0 / (1.0 + e)
    neg = z < 0
    sig[neg] = 1.0 - sig[neg]
    return sp, sig


def test_softplus_sigmoid_is_bitwise_the_old_formula():
    edge = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0, -0.0, 37.0, -37.0, 745.0, -746.0])
    z = np.concatenate([edge, 30.0 * np.random.default_rng(13).standard_normal(5000)])
    sp_ref, sig_ref = old_softplus_sigmoid(z)
    sp, sig = picnn.softplus_sigmoid(z)
    assert same_bits(sp, sp_ref) and same_bits(sig, sig_ref)
    bufs = np.full_like(z, np.nan), np.full_like(z, np.nan)
    out = picnn.softplus_sigmoid(z, *bufs)
    assert out[0] is bufs[0] and out[1] is bufs[1]
    assert same_bits(bufs[0], sp_ref) and same_bits(bufs[1], sig_ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(z=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_softplus_sigmoid_is_bitwise_the_old_formula_for_any_finite_input(z):
    """Subnormals, signed zeros and |z| past exp's range included, with and without buffers."""
    z = np.array(z)
    sp_ref, sig_ref = old_softplus_sigmoid(z)
    for bufs in ((), tuple(np.full_like(z, np.nan) for _ in range(3))):
        sp, sig = picnn.softplus_sigmoid(z, *bufs)
        assert same_bits(sp, sp_ref) and same_bits(sig, sig_ref)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(constrained=st.booleans(), grouped=st.booleans(), cached=st.booleans(),
       depth=st.integers(1, 3), n_inv=st.sampled_from((4, 6, 8)), n=st.integers(1, 9),
       seed=st.integers(0, 2**16))
def test_hessian_is_exactly_symmetric(constrained, grouped, cached, depth, n_inv, n, seed):
    rng = np.random.default_rng(seed)
    p = picnn.init_params(n_inv, 2, width_x=5, width_y=4, depth=depth, constrained=constrained,
                          seed=seed)
    X, Y = rand_inputs(rng, n, n_inv=n_inv)
    group = None
    if grouped:
        Y, group = Y[:2], rng.integers(0, min(n, 2), n)
    cache = picnn.value_and_grad(p, X, Y, return_cache=True, group=group)[2] if cached else None
    H = picnn.hess_inputs(p, X, Y, cache=cache, group=group)
    assert same_bits(H, H.transpose(0, 2, 1))


@pytest.mark.parametrize("grouped", [False, True])
def test_reused_cache_matches_fresh_calls(grouped):
    """value_and_grad, hess_inputs and backprop on a cache passed back as out
    equal fresh calls bit for bit, across changes of the weights, the group
    and the batch size; backprop's outputs never alias the reused buffers."""
    rng = np.random.default_rng(14)
    cache = prev = None
    for k, n in enumerate((7, 7, 4, 4, 7)):
        p = small_net(constrained=k % 2 == 0, seed=k)
        X, Y = rand_inputs(rng, n)
        group = None
        if grouped:
            Y, group = Y[:3], rng.integers(0, 3, n)
        sv, sg = rng.standard_normal(n), rng.standard_normal((n, 8))
        psi, g, reused = picnn.value_and_grad(p, X, Y, return_cache=True, group=group, out=cache)
        assert (reused is cache) == (cache is not None and cache.shape[0] == n)
        psi0, g0 = picnn.value_and_grad(p, X, Y, group=group)
        assert same_bits(psi, psi0) and same_bits(g, g0)
        assert same_bits(picnn.hess_inputs(p, X, Y, cache=reused, group=group),
                         picnn.hess_inputs(p, X, Y, group=group))
        d, dX = picnn.backprop(p, X, Y, sv, sg, cache=reused, group=group)
        d0, dX0 = picnn.backprop(p, X, Y, sv, sg, group=group)
        assert same_bits(dX, dX0)
        assert d.keys() == d0.keys() and all(same_bits(d[key], d0[key]) for key in d)
        if prev is not None:
            (d_prev, dX_prev), copies = prev
            assert same_bits(dX_prev, copies[1])
            assert all(same_bits(d_prev[key], copies[0][key]) for key in d_prev)
        prev = (d, dX), ({key: v.copy() for key, v in d.items()}, dX.copy())
        cache = reused


def cache_arrays(c):
    """Every array a cache holds, through its nested lists and tuples."""
    stack, found = [getattr(c, slot, None) for slot in type(c).__slots__], []
    while stack:
        a = stack.pop()
        if isinstance(a, np.ndarray):
            found.append(a)
        elif isinstance(a, (list, tuple)):
            stack.extend(a)
    return found


@pytest.mark.parametrize("constrained", [True, False])
def test_backprop_dtheta_is_views_of_one_fresh_vector(constrained):
    """dtheta's arrays are views, in weight_shapes() order, of one vector that
    no weight, cache buffer, dX or earlier dtheta shares memory with."""
    rng = np.random.default_rng(15)
    p = small_net(constrained)
    X, Y = rand_inputs(rng, 6)
    sv, sg = rng.standard_normal(6), rng.standard_normal((6, 8))
    _, _, cache = picnn.value_and_grad(p, X, Y, return_cache=True)
    held = list(p.weights.values())
    for _ in range(2):
        d, dX = picnn.backprop(p, X, Y, sv, sg, cache=cache)
        vec = d["bout"].base
        assert list(d) == list(p.weight_shapes())
        assert vec.ndim == 1 and vec.flags.owndata and vec.size == sum(w.size for w in p.weights.values())
        assert all(v.base is vec for v in d.values())
        assert same_bits(vec, picnn.flatten_grads(p, d))
        # the cache's backprop buffers are made by the first call, so list them after it
        assert not any(np.shares_memory(vec, a) for a in held + cache_arrays(cache) + [dX])
        held.append(vec)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    depth=st.integers(1, 4),
    width_x=st.integers(1, 12),
    width_y=st.integers(1, 8),
    n_design=st.integers(1, 3),
    n_inv=st.sampled_from((4, 6, 8)),
    seed=st.integers(0, 2**16),
)
def test_constrained_network_is_monotone_and_convex(depth, width_x, width_y, n_design, n_inv, seed):
    """In constrained mode d psi / dI >= 0 and the input Hessian is positive
    semidefinite, for any architecture, weights, designs and inputs."""
    rng = np.random.default_rng(seed)
    p = picnn.init_params(n_inv, n_design, width_x=width_x, width_y=width_y, depth=depth,
                          constrained=True, seed=seed)
    for name in p.weights:  # move every weight off its initialization range
        p.weights[name] = p.weights[name] + rng.standard_normal(p.weights[name].shape)
    X = rng.uniform(-5.0, 5.0, (16, n_inv))
    Y = rng.uniform(-5.0, 5.0, (16, n_design))
    _, g = picnn.value_and_grad(p, X, Y)
    assert np.min(g) >= -1e-12
    H = picnn.hess_inputs(p, X, Y)
    assert np.min(np.linalg.eigvalsh(H)) >= -1e-9 * np.max(np.abs(H))
