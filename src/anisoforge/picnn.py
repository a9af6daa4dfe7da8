"""Partially input-convex network over (invariants, design parameters).

The scalar output psi(x, y) is convex and nondecreasing in the invariant
input x for arbitrary design input y. Architecture, for hidden layers
h = 0..L-1 (default L = 3):

    y_{h+1} = softplus(Wyy_h y_h + by_h)                  (design path)
    x_{h+1} = softplus(A_h x_h + Wxy_h y_{h+1} + bx_h)    (convex path)
    psi     = w . x_L + b_out

Convexity and monotonicity in x hold when every A_h and the readout w are
elementwise nonnegative and the x-path activation is convex and
nondecreasing. In constrained mode the nonnegative weights are realized by
squaring free parameters, A_h = Wxx_h ** 2 and w = wout ** 2, so the
optimizer works on unconstrained variables. Unconstrained mode uses the raw
matrices directly and gives up the convexity guarantee.

Besides the forward value this module provides closed-form derivatives
with respect to x: the gradient by a backward recursion, and the Hessian by
pushing the input Jacobian forward along the x path and summing one
curvature term per layer,

    H = sum_h Jz_h^T diag(delta_{h+1} * sp''(z_h)) Jz_h,   Jz_h = dz_h/dx,

with delta_{h+1} = d psi / d x_{h+1} from the gradient pass. It also has a
reverse-mode accumulator for parameter gradients of any seeded combination

    Q = sum_b  seed_val[b] * psi_b  +  seed_grad[b] . grad_x(psi)_b ,

which is exactly what fitting stresses (functions of grad_x psi) requires.
The accumulator also returns dQ/dx, the Hessian-vector product term, used
to chain into quantities the invariants depend on. Everything is verified
against finite differences in the tests.

The design path does not depend on x, so it only needs to run once per
distinct design. Every entry point takes an optional index ``group``: Y
then holds G design rows and row b of X is paired with Y[group[b]]. The
design path and the Wxy projections run on the G rows and are gathered by
group; backprop sums their adjoints back over the rows of each group.

Buffers. The x path is the only batch-sized work, and every (B, width_x)
array of it lives in a buffer owned by the cache of the call (``_Cache``):
the pre-activations, their softplus and sigmoid, the gradient pass's s and
d, backprop's adjoints and its unwind temporaries, hess_inputs' transposed
Jacobians and Hessian, and the group scatter matrix. A fresh call
allocates them with np.empty. value_and_grad takes a previous cache as
``out``, in numpy's out= idiom, and writes into its buffers when the batch
and the architecture match, so a caller that evaluates one batch shape
repeatedly (a training epoch, a Newton solve) allocates no batch-sized
array after its first call. Like numpy's out=, the psi and gradient
value_and_grad returns and the Hessian hess_inputs returns for a passed
cache are views into the cache and change when that cache is used again;
backprop's dX and dtheta (views of one vector) are fresh and alias no buffer.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse


# rows per block of hess_inputs' per-row curvature products
HESS_ROWS = 256


def softplus_sigmoid(z, sp=None, sig=None, tmp=None):
    """Numerically stable (softplus(z), sigmoid(z)) sharing one exp evaluation.

    With e = exp(-|z|), softplus(z) = log1p(e) + max(z, 0) and sigmoid(z)
    is t = 1 / (1 + e) for z >= 0 and 1 - t for z < 0. sp and sig receive
    the results and tmp serves as scratch, all arrays of z's shape; each
    one not given is allocated.
    """
    sp, sig, tmp = (np.empty_like(z) if a is None else a for a in (sp, sig, tmp))
    e = np.exp(np.negative(np.abs(z, out=sig), out=sig), out=sig)
    np.add(np.log1p(e, out=sp), np.maximum(z, 0.0, out=tmp), out=sp)
    t = np.divide(1.0, np.add(e, 1.0, out=sig), out=sig)
    # sigmoid = s + (1 - 2 s) t with s = [z < 0], bit for bit: (-1) t is
    # exact and 1 + (-t) rounds as 1 - t does; a where= mask is slower
    k = np.less(z, 0.0, out=tmp)
    k *= -2.0
    k += 1.0
    t *= k
    k -= 1.0
    k *= -0.5
    t += k
    return sp, t


def sigmoid(z):
    return softplus_sigmoid(np.asarray(z, dtype=float))[1]


@dataclass
class PicnnParams:
    """Weights and architecture of one network instance.

    weights maps names to arrays:
      Wyy{h} (wy, n_design|wy), by{h} (wy,)
      Wxx{h} (wx, n_inv|wx),   Wxy{h} (wx, wy), bx{h} (wx,)
      wout (wx,), bout (1,)
    Wxx*/wout are free parameters; constrained mode squares them on use.
    Every flat parameter vector (weight_views) follows weight_shapes() order.
    """

    n_inv: int
    n_design: int
    width_x: int = 40
    width_y: int = 30
    depth: int = 3
    constrained: bool = True
    weights: dict = field(default_factory=dict)

    def weight_shapes(self):
        """The shape of each weight array the architecture needs, by name."""
        wx, wy, shapes = self.width_x, self.width_y, {"wout": (self.width_x,), "bout": (1,)}
        for h in range(self.depth):
            shapes.update({f"Wyy{h}": (wy, wy if h else self.n_design), f"by{h}": (wy,), f"bx{h}": (wx,),
                           f"Wxx{h}": (wx, wx if h else self.n_inv), f"Wxy{h}": (wx, wy)})
        return shapes

    def realized_xx(self, h):
        W = self.weights[f"Wxx{h}"]
        return W * W if self.constrained else W

    def realized_out(self):
        w = self.weights["wout"]
        return w * w if self.constrained else w

    def copy(self):
        return copy.deepcopy(self)


def init_params(n_inv, n_design, width_x=40, width_y=30, depth=3, constrained=True, seed=0):
    """Fan-in-scaled random initialization.

    Free matrices draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); the
    nonnegativity-reparametrized ones draw raw values from
    U(0.3, 1.0)/sqrt(fan_in) so realized weights start small and positive.
    Biases start at zero.
    """
    for name, size in (("width_x", width_x), ("width_y", width_y), ("depth", depth)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    rng = np.random.default_rng(seed)

    def draw(shape, squared=False):
        s = np.sqrt(shape[-1])
        if squared and constrained:
            # realized weights raw^2 land in U(0.09, 1)/fan_in
            return rng.uniform(0.3, 1.0, size=shape) / s
        return rng.uniform(-1.0 / s, 1.0 / s, size=shape)

    # insertion order (the checkpoint's key order) follows the draws
    w = {}
    for h in range(depth):
        in_y = n_design if h == 0 else width_y
        in_x = n_inv if h == 0 else width_x
        w[f"Wyy{h}"] = draw((width_y, in_y))
        w[f"by{h}"] = np.zeros(width_y)
        w[f"Wxx{h}"] = draw((width_x, in_x), squared=True)
        w[f"Wxy{h}"] = draw((width_x, width_y))
        w[f"bx{h}"] = np.zeros(width_x)
    w["wout"] = draw((width_x,), squared=True)
    w["bout"] = np.zeros(1)
    return PicnnParams(n_inv, n_design, width_x, width_y, depth, constrained, w)


def _check_inputs(params, X, Y, group=None):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != params.n_inv:
        raise ValueError(f"invariant input width {X.shape[1]} != {params.n_inv}")
    if Y.shape[1] != params.n_design:
        raise ValueError(f"design input width {Y.shape[1]} != {params.n_design}")
    if group is None:
        if X.shape[0] != Y.shape[0]:
            raise ValueError("batch sizes of invariant and design inputs differ")
    else:
        group = np.asarray(group, dtype=np.intp).ravel()
        if group.size != X.shape[0] or group.min() < 0 or group.max() >= Y.shape[0]:
            raise ValueError("group must map every invariant row to a design row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("non-finite network input")
    return X, Y, group


class _Cache:
    """Forward and gradient state of one batch, in buffers reused through ``out``.

    Shapes: sz, s, Xs[1:] and the two scratch arrays z and tmp are (B,
    width_x); d[0] is (B, n_inv), d[1:L] are (B, width_x) and d[L] is a
    broadcast view of w; psi is (B,). back holds backprop's buffers, made by
    its first backprop: the L adjoints dz and the adjoints dXs[1:] of Xs[1:].
    hess holds hess_inputs' buffers, made by its first call: two transposed
    Jacobians (B, n_inv, width_x), the Hessian (B, n_inv, n_inv) and one
    block of HESS_ROWS curvature products.
    scatter is the (group, matrix) pair backprop sums design-path adjoints
    with, rebuilt only when the group changes. The design path (Ys, su) has
    G rows and is allocated per call.
    """

    __slots__ = ("shape", "X", "Y", "Xs", "Ys", "su", "sz", "A", "w", "psi",
                 "d", "s", "g", "z", "tmp", "back", "hess", "scatter")

    def __init__(self, shape):
        B, n, wx, L = self.shape = shape
        self.sz, self.s = ([np.empty((B, wx)) for _ in range(L)] for _ in range(2))
        self.Xs = [None] + [np.empty((B, wx)) for _ in range(L)]
        self.d = [np.empty((B, n))] + [np.empty((B, wx)) for _ in range(L - 1)] + [None]
        self.psi = np.empty(B)
        self.z, self.tmp = np.empty((B, wx)), np.empty((B, wx))
        self.back = self.hess = self.scatter = None


def _forward(params, X, Y, group=None, out=None):
    L = params.depth
    shape = (X.shape[0], params.n_inv, params.width_x, L)
    c = out if out is not None and out.shape == shape else _Cache(shape)
    c.X, c.Y = X, Y
    c.A = [params.realized_xx(h) for h in range(L)]
    c.w = params.realized_out()
    c.Ys, c.su = [Y], []
    for h in range(L):
        u = c.Ys[h] @ params.weights[f"Wyy{h}"].T + params.weights[f"by{h}"]
        sp, sig = softplus_sigmoid(u)
        c.su.append(sig)
        c.Ys.append(sp)
    c.Xs[0] = X
    for h in range(L):
        zy = c.Ys[h + 1] @ params.weights[f"Wxy{h}"].T + params.weights[f"bx{h}"]
        z = np.matmul(c.Xs[h], c.A[h].T, out=c.z)
        # group was checked against the G rows, so clip mode only skips take's buffering
        z += zy if group is None else np.take(zy, group, axis=0, out=c.tmp, mode="clip")
        softplus_sigmoid(z, c.Xs[h + 1], c.sz[h], c.tmp)
    np.matmul(c.Xs[L], c.w, out=c.psi)
    c.psi += params.weights["bout"][0]
    return c


def _grad_pass(params, c):
    L = params.depth
    c.d[L] = np.broadcast_to(c.w, (c.X.shape[0], c.w.size))
    for h in range(L - 1, -1, -1):
        np.multiply(c.sz[h], c.d[h + 1], out=c.s[h])
        np.matmul(c.s[h], c.A[h], out=c.d[h])
    c.g = c.d[0]
    return c


def group_scatter(group, n_groups):
    """(n_groups, B) sparse matrix whose product with a (B, k) array sums the rows of each group.

    The sums run over the rows in increasing order, as np.add.at does.
    """
    B = group.size
    return scipy.sparse.csr_array((np.ones(B), group, np.arange(B + 1)), shape=(B, n_groups)).T


def value(params, X, Y, group=None):
    """psi for a batch: returns (B,) array."""
    return _forward(params, *_check_inputs(params, X, Y, group)).psi


def value_and_grad(params, X, Y, return_cache=False, group=None, out=None):
    """psi and d psi / dx for a batch: ((B,), (B, n_inv)).

    out is a cache from an earlier value_and_grad(..., return_cache=True);
    its buffers receive this batch when its shapes match, and a fresh cache
    is made otherwise. The returned psi and gradient are views into the
    cache.
    """
    c = _grad_pass(params, _forward(params, *_check_inputs(params, X, Y, group), out=out))
    if return_cache:
        return c.psi, c.g, c
    return c.psi, c.g


def hess_inputs(params, X, Y, cache=None, group=None):
    """d^2 psi / dx dx for a batch: (B, n_inv, n_inv), symmetric.

    Forward-mode curvature: the input Jacobians of the pre-activations,
    Jz_h = dz_h/dx (B, wx, n_inv), are pushed through the x path,

        Jz_0 = A_0,  Jz_h = A_h (sp'(z_{h-1}) * Jz_{h-1}),

    and each convex activation adds its curvature weighted by the adjoint
    delta_{h+1} = d psi / d x_{h+1} of its output,

        H = sum_h Jz_h^T diag(delta_{h+1} * sp''(z_h)) Jz_h,

    which costs O(B wx n_inv (wx + n_inv)) rather than the O(B wx^3) of a
    backward recursion on (wx, wx) curvature matrices. A cache from
    value_and_grad(..., return_cache=True) on the same inputs may be passed
    to skip recomputing the forward and gradient passes; the Hessian is then
    computed in the cache's buffers and returned as a view into them.
    """
    X, Y, group = _check_inputs(params, X, Y, group)
    c = cache if cache is not None else _grad_pass(params, _forward(params, X, Y, group))
    B, n = X.shape
    wx = params.width_x
    if c.hess is None:
        c.hess = (np.empty((B, n, wx)), np.empty((B, n, wx)), np.empty((B, n, n)),
                  np.empty((min(B, HESS_ROWS), n, n)))
    # Jacobians are kept transposed, (B, n_inv, wx), so A_h applies as one GEMM;
    # the forward pass's scratch z and tmp hold sp''(z_h) delta_{h+1}
    JxT, JzT, H, P = c.hess
    coef, t = c.tmp, c.z
    A0 = c.A[0]
    # first layer: Jz_0 = A_0 is shared by every row
    np.multiply(c.d[1], c.sz[0], out=coef)
    coef *= np.subtract(1.0, c.sz[0], out=t)
    np.matmul(coef, (A0[:, :, None] * A0[:, None, :]).reshape(wx, n * n), out=H.reshape(B, n * n))
    np.multiply(c.sz[0][:, None, :], A0.T, out=JxT)
    for h in range(1, params.depth):
        np.matmul(JxT.reshape(B * n, wx), c.A[h].T, out=JzT.reshape(B * n, wx))
        sp1 = c.sz[h]
        np.multiply(c.d[h + 1], sp1, out=coef)
        coef *= np.subtract(1.0, sp1, out=t)
        # JxT is free until the next layer's Jacobian overwrites it; each
        # row's product is its own matmul, so blocks of rows share P
        W = np.multiply(coef[:, None, :], JzT, out=JxT)
        for r in range(0, B, HESS_ROWS):
            b, k = slice(r, r + HESS_ROWS), min(HESS_ROWS, B - r)
            H[b] += np.matmul(JzT[b], W[b].transpose(0, 2, 1), out=P[:k])
        np.multiply(sp1[:, None, :], JzT, out=JxT)
    # (H + H^T) / 2 in place, each pair i <= j summed once for both entries
    i, j = np.triu_indices(n)
    sym = H[:, i, j] + H[:, j, i]
    sym *= 0.5
    H[:, i, j] = H[:, j, i] = sym
    return H


def backprop(params, X, Y, seed_val=None, seed_grad=None, cache=None, group=None):
    """Reverse-mode gradients of Q = sum seed_val*psi + sum seed_grad.grad_x psi.

    Returns (dtheta, dX): dtheta maps weight names to gradient arrays with
    respect to the *free* parameters (squaring reparametrization included);
    dX is dQ/dx per batch row, i.e. seed_val*grad + Hessian @ seed_grad.

    A cache from value_and_grad(..., return_cache=True) on the same inputs
    may be passed to skip recomputing the forward and gradient passes. The
    adjoints are computed in the cache's buffers; dX is fresh, and dtheta
    is weight_views of one fresh vector, each gradient accumulated in place.
    """
    X, Y, group = _check_inputs(params, X, Y, group)
    L = params.depth
    B = X.shape[0]
    if cache is None:
        cache = _forward(params, X, Y, group)
        if seed_grad is not None:
            _grad_pass(params, cache)
    c = cache
    if c.back is None:
        c.back = ([np.empty((B, params.width_x)) for _ in range(L)],
                  [None] + [np.empty((B, params.width_x)) for _ in range(L)])
    dz, dXs = c.back
    t1, t2 = c.tmp, c.z  # the forward pass's scratch
    # design-path adjoints are summed over the rows sharing a design row
    scatter = None
    if group is not None:
        if c.scatter is None or c.scatter[1].shape[0] != Y.shape[0] or not np.array_equal(
                c.scatter[0], group):
            c.scatter = (group.copy(), group_scatter(group, Y.shape[0]))
        scatter = c.scatter[1]
    g = weight_views(params)
    dYs = [np.zeros_like(c.Ys[h]) for h in range(L + 1)]

    if seed_grad is not None:
        # unwind the gradient recursion d_h = (sp'(z_h) * d_{h+1}) A_h
        dd = np.asarray(seed_grad, dtype=float)
        for h in range(L):
            sp1 = c.sz[h]
            ds = np.matmul(dd, c.A[h].T, out=t1)
            g[f"Wxx{h}"] += c.s[h].T @ dd
            # dz_h = sp1 (1 - sp1) d_{h+1} ds
            np.multiply(sp1, np.subtract(1.0, sp1, out=dz[h]), out=dz[h])
            dz[h] *= c.d[h + 1]
            dz[h] *= ds
            dd = np.multiply(sp1, ds, out=t2)
        g["wout"] += dd.sum(axis=0)

    if seed_val is not None:
        sv = np.asarray(seed_val, dtype=float)
        np.multiply(sv[:, None], c.w[None, :], out=dXs[L])
        g["wout"] += sv @ c.Xs[L]
        g["bout"] += sv.sum()
    else:
        dXs[L].fill(0.0)

    for h in range(L - 1, -1, -1):
        if seed_grad is None:
            dz_h = np.multiply(c.sz[h], dXs[h + 1], out=dz[h])
        else:
            dz_h = dz[h]
            dz_h += np.multiply(c.sz[h], dXs[h + 1], out=t1)
        g[f"Wxx{h}"] += dz_h.T @ c.Xs[h]
        if h:
            np.matmul(dz_h, c.A[h], out=dXs[h])
        else:
            dX = dz_h @ c.A[0]
        if scatter is not None:
            dz_h = scatter @ dz_h
        g[f"Wxy{h}"] += dz_h.T @ c.Ys[h + 1]
        dYs[h + 1] += dz_h @ params.weights[f"Wxy{h}"]
        g[f"bx{h}"] += dz_h.sum(axis=0)

    for h in range(L - 1, -1, -1):
        du = c.su[h] * dYs[h + 1]
        g[f"Wyy{h}"] += du.T @ c.Ys[h]
        g[f"by{h}"] += du.sum(axis=0)
        dYs[h] += du @ params.weights[f"Wyy{h}"]

    if params.constrained:
        # chain through the squares A_h = Wxx_h ** 2 and w = wout ** 2
        for name in [f"Wxx{h}" for h in range(L)] + ["wout"]:
            g[name] *= 2.0 * params.weights[name]
    return g, dX


def weight_views(params, vec=None):
    """Name -> views of vec (by default fresh zeros) in weight_shapes() order: the one layout."""
    shapes = params.weight_shapes()
    if vec is None:
        vec = np.zeros(sum(math.prod(shape) for shape in shapes.values()))
    views, end = {}, 0
    for name, shape in shapes.items():
        start, end = end, end + math.prod(shape)
        views[name] = vec[start:end].reshape(shape)
    return views


def flatten(params):
    """All weights as one vector in weight_shapes() order; returns (vec, unflatten)."""
    vec = flatten_grads(params, params.weights)

    def unflatten(v):
        return replace(params, weights={k: w.copy() for k, w in weight_views(params, v).items()})

    return vec, unflatten


def flatten_grads(params, dtheta):
    """A name -> array dict (gradients or weights) as one vector in weight_shapes() order."""
    return np.concatenate([np.asarray(dtheta[k]).ravel() for k in params.weight_shapes()])
