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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse


def softplus_sigmoid(z):
    """Numerically stable (softplus(z), sigmoid(z)) sharing one exp evaluation."""
    e = np.exp(-np.abs(z))
    sp = np.log1p(e) + np.maximum(z, 0.0)
    sig = 1.0 / (1.0 + e)
    neg = z < 0
    sig[neg] = 1.0 - sig[neg]
    return sp, sig


def softplus(z):
    return softplus_sigmoid(np.asarray(z, dtype=float))[0]


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
    """

    n_inv: int
    n_design: int
    width_x: int = 40
    width_y: int = 30
    depth: int = 3
    constrained: bool = True
    weights: dict = field(default_factory=dict)

    def realized_xx(self, h):
        W = self.weights[f"Wxx{h}"]
        return W * W if self.constrained else W

    def realized_out(self):
        w = self.weights["wout"]
        return w * w if self.constrained else w

    def copy(self):
        return PicnnParams(
            self.n_inv,
            self.n_design,
            self.width_x,
            self.width_y,
            self.depth,
            self.constrained,
            {k: v.copy() for k, v in self.weights.items()},
        )


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
    w = {}
    for h in range(depth):
        in_y = n_design if h == 0 else width_y
        in_x = n_inv if h == 0 else width_x
        a = 1.0 / np.sqrt(in_y)
        w[f"Wyy{h}"] = rng.uniform(-a, a, size=(width_y, in_y))
        w[f"by{h}"] = np.zeros(width_y)
        if constrained:
            # realized weights raw^2 land in U(0.09, 1)/fan_in
            w[f"Wxx{h}"] = rng.uniform(0.3, 1.0, size=(width_x, in_x)) / np.sqrt(in_x)
        else:
            a = 1.0 / np.sqrt(in_x)
            w[f"Wxx{h}"] = rng.uniform(-a, a, size=(width_x, in_x))
        a = 1.0 / np.sqrt(width_y)
        w[f"Wxy{h}"] = rng.uniform(-a, a, size=(width_x, width_y))
        w[f"bx{h}"] = np.zeros(width_x)
    if constrained:
        w["wout"] = rng.uniform(0.3, 1.0, size=width_x) / np.sqrt(width_x)
    else:
        a = 1.0 / np.sqrt(width_x)
        w["wout"] = rng.uniform(-a, a, size=width_x)
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
    __slots__ = ("X", "Y", "Xs", "Ys", "us", "su", "zs", "sz", "A", "w", "psi", "d", "s", "g")


def _forward(params, X, Y, group=None):
    c = _Cache()
    c.X, c.Y = X, Y
    L = params.depth
    c.A = [params.realized_xx(h) for h in range(L)]
    c.w = params.realized_out()
    c.Ys, c.us, c.su = [Y], [], []
    for h in range(L):
        u = c.Ys[h] @ params.weights[f"Wyy{h}"].T + params.weights[f"by{h}"]
        sp, sig = softplus_sigmoid(u)
        c.us.append(u)
        c.su.append(sig)
        c.Ys.append(sp)
    c.Xs, c.zs, c.sz = [X], [], []
    for h in range(L):
        zy = c.Ys[h + 1] @ params.weights[f"Wxy{h}"].T + params.weights[f"bx{h}"]
        z = c.Xs[h] @ c.A[h].T + (zy if group is None else zy[group])
        sp, sig = softplus_sigmoid(z)
        c.zs.append(z)
        c.sz.append(sig)
        c.Xs.append(sp)
    c.psi = c.Xs[L] @ c.w + params.weights["bout"][0]
    return c


def _grad_pass(params, c):
    L = params.depth
    B = c.X.shape[0]
    c.d = [None] * (L + 1)
    c.s = [None] * L
    c.d[L] = np.broadcast_to(c.w, (B, c.w.size))
    for h in range(L - 1, -1, -1):
        c.s[h] = c.sz[h] * c.d[h + 1]
        c.d[h] = c.s[h] @ c.A[h]
    c.g = c.d[0]
    return c


def value(params, X, Y, group=None):
    """psi for a batch: returns (B,) array."""
    return _forward(params, *_check_inputs(params, X, Y, group)).psi


def value_and_grad(params, X, Y, return_cache=False, group=None):
    """psi and d psi / dx for a batch: ((B,), (B, n_inv))."""
    c = _grad_pass(params, _forward(params, *_check_inputs(params, X, Y, group)))
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
    to skip recomputing the forward and gradient passes.
    """
    X, Y, group = _check_inputs(params, X, Y, group)
    c = cache if cache is not None else _grad_pass(params, _forward(params, X, Y, group))
    B, n = X.shape
    A0 = c.A[0]
    # first layer: Jz_0 = A_0 is shared by every row
    coef = c.d[1] * c.sz[0] * (1.0 - c.sz[0])
    H = (coef @ (A0[:, :, None] * A0[:, None, :]).reshape(A0.shape[0], n * n)).reshape(B, n, n)
    # Jacobians are kept transposed, (B, n_inv, wx), so A_h applies as one GEMM
    JxT = c.sz[0][:, None, :] * np.ascontiguousarray(A0.T)
    for h in range(1, params.depth):
        JzT = (JxT.reshape(B * n, -1) @ c.A[h].T).reshape(B, n, -1)
        sp1 = c.sz[h]
        coef = c.d[h + 1] * sp1 * (1.0 - sp1)
        H += np.matmul(JzT, (coef[:, None, :] * JzT).transpose(0, 2, 1))
        JxT = sp1[:, None, :] * JzT
    return 0.5 * (H + H.transpose(0, 2, 1))


def backprop(params, X, Y, seed_val=None, seed_grad=None, cache=None, group=None):
    """Reverse-mode gradients of Q = sum seed_val*psi + sum seed_grad.grad_x psi.

    Returns (dtheta, dX): dtheta maps weight names to gradient arrays with
    respect to the *free* parameters (squaring reparametrization included);
    dX is dQ/dx per batch row, i.e. seed_val*grad + Hessian @ seed_grad.

    A cache from value_and_grad(..., return_cache=True) on the same inputs
    may be passed to skip recomputing the forward and gradient passes.
    """
    X, Y, group = _check_inputs(params, X, Y, group)
    L = params.depth
    B = X.shape[0]
    if cache is None:
        cache = _forward(params, X, Y, group)
        if seed_grad is not None:
            _grad_pass(params, cache)
    c = cache
    # design-path adjoints are summed over the rows sharing a design row
    scatter = None if group is None else scipy.sparse.csr_array(
        (np.ones(B), group, np.arange(B + 1)), shape=(B, Y.shape[0])).T
    dA = [np.zeros_like(c.A[h]) for h in range(L)]
    dWxy = [None] * L
    dbx = [None] * L
    dz = [np.zeros((B, params.width_x)) for _ in range(L)]
    dXs = [np.zeros_like(c.Xs[h]) for h in range(L + 1)]
    dYs = [np.zeros_like(c.Ys[h]) for h in range(L + 1)]
    dw = np.zeros_like(c.w)
    dbout = 0.0

    if seed_grad is not None:
        # unwind the gradient recursion d_h = (sp'(z_h) * d_{h+1}) A_h
        dd = np.asarray(seed_grad, dtype=float)
        for h in range(L):
            sp1 = c.sz[h]
            ds = dd @ c.A[h].T
            dA[h] += c.s[h].T @ dd
            dz[h] += sp1 * (1.0 - sp1) * c.d[h + 1] * ds
            dd = sp1 * ds
        dw += dd.sum(axis=0)

    if seed_val is not None:
        sv = np.asarray(seed_val, dtype=float)
        dXs[L] += sv[:, None] * c.w[None, :]
        dw += sv @ c.Xs[L]
        dbout += sv.sum()

    for h in range(L - 1, -1, -1):
        dz_h = dz[h] + c.sz[h] * dXs[h + 1]
        dA[h] += dz_h.T @ c.Xs[h]
        dXs[h] += dz_h @ c.A[h]
        if scatter is not None:
            dz_h = scatter @ dz_h
        dWxy[h] = dz_h.T @ c.Ys[h + 1]
        dYs[h + 1] += dz_h @ params.weights[f"Wxy{h}"]
        dbx[h] = dz_h.sum(axis=0)

    dtheta = {}
    for h in range(L - 1, -1, -1):
        du = c.su[h] * dYs[h + 1]
        dtheta[f"Wyy{h}"] = du.T @ c.Ys[h]
        dtheta[f"by{h}"] = du.sum(axis=0)
        dYs[h] += du @ params.weights[f"Wyy{h}"]

    for h in range(L):
        if params.constrained:
            dtheta[f"Wxx{h}"] = 2.0 * params.weights[f"Wxx{h}"] * dA[h]
        else:
            dtheta[f"Wxx{h}"] = dA[h]
        dtheta[f"Wxy{h}"] = dWxy[h]
        dtheta[f"bx{h}"] = dbx[h]
    if params.constrained:
        dtheta["wout"] = 2.0 * params.weights["wout"] * dw
    else:
        dtheta["wout"] = dw
    dtheta["bout"] = np.array([dbout])
    return dtheta, dXs[0]


def flatten(params):
    """Concatenate all weights into one vector (sorted key order); returns (vec, unflatten)."""
    keys = sorted(params.weights.keys())
    vec = np.concatenate([params.weights[k].ravel() for k in keys])

    def unflatten(v):
        out = params.copy()
        off = 0
        for k in keys:
            n = params.weights[k].size
            out.weights[k] = v[off : off + n].reshape(params.weights[k].shape).copy()
            off += n
        return out

    return vec, unflatten


def flatten_grads(params, dtheta):
    keys = sorted(params.weights.keys())
    return np.concatenate([np.asarray(dtheta[k]).ravel() for k in keys])
