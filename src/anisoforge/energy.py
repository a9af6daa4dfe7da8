"""Strain-energy model assembly: network term, growth term, normalization.

The total energy for a metric C and design vector D is

    Psi(C, D) = Psi_net(I(C), D) + Psi_gr(J) + Psi_n(D) + Psi_sn(C, D)

with J = I3 = sqrt(det C) and

    Psi_gr = gamma (J + 1/J - 2)^2               (coercive volumetric growth)
    Psi_n  = -Psi_net(Iref, D)                    (energy zero at C = I)
    Psi_sn = sum_i c_sn_i (I_i - Iref_i)          (stress zero at C = I)

In both forms c_sn is one linear map of gb_i = dPsi_net/dI_i at the
reference invariants Iref, and each form puts its spherical term

    o = gb1 + 2 gb2 + gb3/2 - gb4 + sum_i (w_k gb_k + w_k+1 gb_k+1) tr(a_i N_i)

(k, k+1 the columns of tensor i) on one isotropic column (_SPHERICAL_TERM).

Coefficient form ("polyconvex" and "unconstrained" modes), w = (1, 1):

    Psi_sn = -2 o (I3 - 1) + gb6 (I5 - I5r) + gb5 (I6 - I6r) + gb8 (I7 - I7r) + gb7 (I8 - I8r)

The index swaps 5<->6 and 7<->8 make the structure-tensor parts of the
stress cancel at C = I; the o term then kills the remaining spherical part,
so S(I, D) = 0 identically for any weights. Each added term is affine in a
single polyconvex invariant with a C-independent slope, so polyconvexity of
the network term is preserved.

Linear-in-C form ("nonpoly_linearC" mode), w = (0, 1): Psi_sn = -Tref : (C - I)
with Tref = sum_i gb_i Bref_i and Bref_i = B_i(I). The Bref_i span
{I, N1, N2}, so

    Tref   = o I + a1 (gb5 - gb6) N1 + a2 (gb7 - gb8) N2
    Psi_sn = -o (I1 - 3) - (gb5 - gb6) (I5 - I5r) - (gb7 - gb8) (I7 - I7r)

for unit-trace N_i. It touches only I1, I5 and I7, whose second
derivatives vanish, so it is invisible to the tangent; its slopes may be
negative, so it lies outside the polyconvex form.

Stress and tangent follow from the invariant chain rule:

    S  = 2 sum_i c_i B_i,   B_i = dI_i/dC
    CC = 4 [ sum_ij (d2Psi/dI_i dI_j) B_i (x) B_j + sum_i c_i d2I_i/dC dC ]

The anisotropic invariants are linear in N, so an activity a_i acts as the
tensor a_i N_i (see tensor_core). The kernels see the unit tensors Ns; only
this module applies a_i: the column scale (1, 1, 1, 1, a1, a1, a2, a2) and o.

All of these are views of one evaluation of a Workspace and design rows
uD. The Workspace holds what stays fixed across calls on one set of B
samples: their C-workspace (tc.CWorkspace: C, cof, det, J, C^-1), the
sample -> design-row index group, a basis stack whose isotropic slots are
computed once, and the network cache. One-shot psi, stress, tangent and
normalization_coefficients build a throwaway one; make_workspace adds the
training data; design inversion holds one tiled_workspace per candidate
count (C repeated per design, group = repeat(arange(G), B)) and passes it
to stress_per_design every generation, where a structure override may
hold one tensor per design; a Newton solve in fem holds one for its
quadrature points and refills it (Workspace.refill) with each
iteration's C.

The sample rows I(C) and one reference row Iref per design go through a
single network call whose design path runs once per design. psi, stress,
tangent (assembled directly in 6x6 form from the packed bases and
tc.curvature_66), normalization_coefficients and the fused reverse-mode
gradient of the stress-fitting loss with respect to network weights,
activity logits and orientation (built on picnn.backprop) all read that
evaluation; every chain is finite-difference checked in the tests.

The backward pass keeps one 3x3 adjoint G_i = dL/d(a_i N_i) per active
tensor and reads the normalization's reference-row seeds off the transpose
of the map the forward pass applies, and the sensitivity to tr(a_i N_i)
off the same _SPHERICAL_TERM. The Rodrigues adjoint that carries
a_i G_i to the orientation is tc.structure_tensors_vjp.
"""

from __future__ import annotations

import copy
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import picnn
from . import tensor_core as tc

MODES = ("polyconvex", "nonpoly_linearC", "unconstrained")
# number of active structure tensors per anisotropy class
N_DIRECTIONS = {"iso": 0, "transiso": 1, "ortho": 2}
CLASSES = tuple(N_DIRECTIONS)

CHECKPOINT_FORMAT = "anisoforge-checkpoint"
CHECKPOINT_VERSION = 1
ARCHITECTURE = ("n_inv", "n_design", "width_x", "width_y", "depth", "constrained")


@dataclass
class EnergyConfig:
    mode: str = "polyconvex"
    aniso_class: str = "ortho"
    gamma: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.aniso_class not in CLASSES:
            raise ValueError(f"unknown class {self.aniso_class!r}, expected one of {CLASSES}")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")

    @property
    def n_active(self):
        return 4 + 2 * N_DIRECTIONS[self.aniso_class]

    @property
    def constrained(self):
        """Whether the network keeps its x-path weights nonnegative (picnn's constrained)."""
        return self.mode != "unconstrained"


@dataclass
class AnisotropyState:
    """Activity logits and orientation of the preferred directions.

    alpha_bar holds logits of the activity factors a_i = sigmoid(alpha_bar_i);
    None means both activities are fixed at 1 (known-class training, where
    the factors are absent from the computation graph entirely). Orientation
    is axis-angle (phi, p_raw); p_raw is normalized on use.
    """

    alpha_bar: np.ndarray | None = None
    phi: float = 0.0
    p_raw: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    trainable_alpha: bool = False
    trainable_orientation: bool = False

    def alphas(self):
        if self.alpha_bar is None:
            return 1.0, 1.0
        a = picnn.sigmoid(np.asarray(self.alpha_bar, dtype=float))
        return float(a[0]), float(a[1])

    def structure(self):
        return tc.structure_tensors(self.phi, self.p_raw)

    def copy(self):
        return copy.deepcopy(self)

    @staticmethod
    def from_directions(n1, n2, trainable=False):
        R = tc.rotation_from_direction_pair(n1, n2)
        phi, p = tc.axis_angle_from_rotation(R)
        return AnisotropyState(None, phi, p, False, trainable)


@dataclass
class Model:
    """A trained or freshly initialized constitutive surrogate."""

    net: picnn.PicnnParams
    config: EnergyConfig
    aniso: AnisotropyState | None = None
    d_bounds: np.ndarray | None = None  # (n_design, 2) declared design ranges
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.config.n_active != self.net.n_inv:
            raise ValueError(
                f"network invariant width {self.net.n_inv} does not match "
                f"class {self.config.aniso_class!r} ({self.config.n_active})"
            )
        if self.net.constrained != self.config.constrained:
            raise ValueError(f"network constrained={self.net.constrained} contradicts "
                             f"mode {self.config.mode!r}")
        if self.config.aniso_class != "iso" and self.aniso is None:
            raise ValueError("anisotropic classes require an AnisotropyState")

    def copy(self):
        return copy.deepcopy(self)


def new_model(
    n_design,
    mode="polyconvex",
    aniso_class="ortho",
    gamma=1.0,
    width_x=40,
    width_y=30,
    depth=3,
    seed=0,
    aniso=None,
    d_bounds=None,
):
    """Construct a fresh model with fan-in-scaled random weights."""
    cfg = EnergyConfig(mode, aniso_class, gamma)
    net = picnn.init_params(
        cfg.n_active,
        n_design,
        width_x=width_x,
        width_y=width_y,
        depth=depth,
        constrained=cfg.constrained,
        seed=seed,
    )
    if aniso is None and aniso_class != "iso":
        aniso = AnisotropyState.from_directions(tc.DEFAULT_N1, tc.DEFAULT_N2)
    return Model(net, cfg, aniso, None if d_bounds is None else np.asarray(d_bounds, float))


def _resolve_structure(model, structure=None, n_designs=None):
    """The active unit structure tensors: the model's, or the checked override.

    With n_designs, an override may hold an (n_designs, 3, 3) stack per tensor.
    """
    k = N_DIRECTIONS[model.config.aniso_class]
    if k == 0:
        return ()
    if structure is None:
        return model.aniso.structure()[:k]
    return tuple(_check_structure(structure[i], n_designs) for i in range(k))


def _check_structure(N, n_designs=None):
    """N as a float array; raises unless it is a finite, symmetric (3, 3) tensor of unit trace.

    With n_designs, N may also be a stack of n_designs such tensors, all
    checked at once. The reference invariants assume tr N = 1, so any other
    override would leave a stress at C = I.
    """
    N = np.asarray(N, dtype=float)
    if N.shape == (3, 3) or (n_designs is not None and N.shape == (n_designs, 3, 3)):
        # each entry enters one of these terms once, so a NaN or inf entry fails its bound
        dev = (N[..., 0, 1] - N[..., 1, 0], N[..., 0, 2] - N[..., 2, 0], N[..., 1, 2] - N[..., 2, 1],
               N[..., 0, 0] + N[..., 1, 1] + N[..., 2, 2] - 1.0)
        if np.all(np.abs(dev) <= 1e-10):
            return N
    raise ValueError("a structure tensor must be a finite, symmetric (3, 3) array with unit trace")


def extrapolating(model, D):
    """Per design row of D (G, m): True where it lies outside the model's declared ranges."""
    if model.d_bounds is None:
        return np.zeros(len(D), dtype=bool)
    lo, hi = model.d_bounds[:, 0], model.d_bounds[:, 1]
    return np.any((D < lo - 1e-12) | (D > hi + 1e-12), axis=1)


def _check_design(model, D, stacklevel=4):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if not np.all(np.isfinite(D)):
        raise ValueError("design parameters contain non-finite entries")
    if np.any(extrapolating(model, D)):
        warnings.warn(
            "design parameters outside the declared training ranges; "
            "the surrogate is extrapolating",
            stacklevel=stacklevel,
        )
    return D


def _designs(D, B):
    """Designs of B samples as (uD, group): unique rows and the sample -> row index.

    A single design row is shared by every sample without a np.unique call.
    """
    if D.shape[0] == 1:
        return D, np.zeros(B, dtype=np.intp)
    if D.shape[0] != B:
        raise ValueError("C and D batch sizes differ")
    uD, group = np.unique(D, axis=0, return_inverse=True)
    return uD, group.ravel()


def growth_coefficient(J, gamma):
    """dPsi_gr/dJ for Psi_gr = gamma (J + 1/J - 2)^2. Zero at J = 1."""
    return 2.0 * gamma * (J + 1.0 / J - 2.0) * (1.0 - 1.0 / J**2)


def growth_curvature(J, gamma):
    """d2Psi_gr/dJ2."""
    return 2.0 * gamma * ((1.0 - 1.0 / J**2) ** 2 + (J + 1.0 / J - 2.0) * 2.0 / J**3)


@dataclass
class NormCoefficients:
    """Reference-state quantities for a batch of design vectors."""

    psi_ref: np.ndarray  # network energy at the reference invariants
    g_ref: np.ndarray  # network gradient there, (G, n_active)
    c_sn: np.ndarray  # Psi_sn as invariant coefficients, (G, n_active)


# per mode, c_sn[:, column] = factor * o for Psi_sn's spherical term o, whose
# tr(a_i N_i) terms weigh the tensor's columns (gb_k, gb_k+1) by (w_k, w_k+1)
_SPHERICAL_TERM = {"polyconvex": (2, -2.0, (1.0, 1.0)), "unconstrained": (2, -2.0, (1.0, 1.0)),
                   "nonpoly_linearC": (0, -1.0, (0.0, 1.0))}


def _normalization_map(g_ref, Ns, alphas, mode):
    """c_sn, Psi_sn's coefficients on the invariants, as a linear map of g_ref."""
    col, f, (wk, wl) = _SPHERICAL_TERM[mode]
    c_sn = np.zeros_like(g_ref)
    o = g_ref[:, 0] + 2.0 * g_ref[:, 1] + 0.5 * g_ref[:, 2] - g_ref[:, 3]
    for k, N, a in zip((4, 6), Ns, alphas):
        if mode == "nonpoly_linearC":
            c_sn[:, k] = g_ref[:, k + 1] - g_ref[:, k]
        else:
            c_sn[:, k] = g_ref[:, k + 1]
            c_sn[:, k + 1] = g_ref[:, k]
        o = o + (wk * g_ref[:, k] + wl * g_ref[:, k + 1]) * a * np.trace(N, axis1=-2, axis2=-1)
    c_sn[:, col] = f * o
    return c_sn


class _Evaluation:
    """The energy's forward pass over a Workspace and its design rows uD.

    Ns are the active unit structure tensors, each (3, 3) or a (G, 3, 3)
    stack whose tensor g the samples of design g take. The invariants and
    bases are taken of Ns and scaled by (1, 1, 1, 1, a1, a1, a2, a2) where
    they meet the network. The sample rows and one reference row per design
    go through a single network call whose design path runs once per
    design; psi, S, CC and the training loss are read off this one
    evaluation, which rewrites the workspace's buffers.
    """

    def __init__(self, model, ws, uD, Ns):
        cfg = model.config
        n = cfg.n_active
        B, G = ws.C.shape[0], uD.shape[0]
        if ws.rows.size != B + G:
            raise ValueError(f"the workspace evaluates {ws.rows.size - B} designs, not {G}")
        self.model, self.ws, self.uD, self.group, self.Ns = model, ws, uD, ws.group, Ns
        self.alphas = alphas = model.aniso.alphas()[:len(Ns)] if Ns else ()
        self.row_Ns = tuple(N if N.ndim == 2 else N[ws.group] for N in Ns)
        self.scale = np.repeat((1.0, 1.0) + alphas, 2)
        self.Iref = tc.reference_invariants(Ns) * self.scale
        self.Iu = tc.invariants(ws, self.row_Ns)
        self.Bu = ws.invariant_bases(self.row_Ns)
        self.X = np.vstack([self.Iu * self.scale, np.broadcast_to(self.Iref, (G, n))])
        psi, g, ws.cache = picnn.value_and_grad(model.net, self.X, uD, return_cache=True,
                                                group=ws.rows, out=ws.cache)
        self.psi_net, self.g = psi[:B], g[:B]
        g_ref = g[B:]
        self.nc = NormCoefficients(psi[B:], g_ref, _normalization_map(g_ref, Ns, alphas, cfg.mode))

    def coefficients(self, with_sn=True):
        """dPsi/dI per sample row: network, growth and (with_sn) normalization terms."""
        c = self.g.copy()
        c[:, 2] += growth_coefficient(self.ws.J, self.model.config.gamma)
        if with_sn:
            c += self.nc.c_sn[self.group]
        return c

    def psi(self):
        J = self.ws.J
        out = self.psi_net + self.model.config.gamma * (J + 1.0 / J - 2.0) ** 2
        out -= self.nc.psi_ref[self.group]
        out += np.einsum("bi,bi->b", self.nc.c_sn[self.group], self.X[: J.size] - self.Iref)
        return out

    def stress(self):
        B, n = self.Iu.shape
        c = self.coefficients() * self.scale
        return 2.0 * (c[:, None, :] @ self.Bu.reshape(B, n, 9)).reshape(B, 3, 3)

    def tangent_blocks(self, with_sn=True):
        """The 6x6 tangent of each block of picnn.HESS_ROWS sample rows, in turn: (slice, M) pairs.

        The network Hessian is taken once for every row, in the cache's
        buffers: its matrix products run over the whole batch, and
        splitting them moves last bits. Every term past it is per row, so
        B6, H B6 and M are block arrays made once per call, which each
        block overwrites.
        """
        ws = self.ws
        B, n = self.Iu.shape
        H = picnn.hess_inputs(self.model.net, self.X, self.uD, cache=ws.cache, group=ws.rows)[:B]
        H[:, 2, 2] += growth_curvature(ws.J, self.model.config.gamma)
        rows = picnn.HESS_ROWS
        size = min(B, rows)
        B6, HB6, M = np.empty((size, n, 6)), np.empty((size, n, 6)), np.empty((size, 6, 6))
        c = self.coefficients(with_sn) * self.scale
        for r in range(0, B, rows):
            k = min(rows, B - r)
            b = slice(r, r + k)
            B6b = tc.sym_to_6(self.Bu[b], out=B6[:k])
            B6b *= self.scale[:, None]
            Mb = np.matmul(B6b.transpose(0, 2, 1), np.matmul(H[b], B6b, out=HB6[:k]), out=M[:k])
            Mb += tc.curvature_66(tc.CWorkspace(ws.C[b], ws.cof[b], ws.det[b], ws.J[b], ws.Cinv[b]),
                                  c[b], tuple(N if N.ndim == 2 else N[b] for N in self.row_Ns))
            Mb *= 4.0
            yield b, Mb


def _evaluate(model, C, D, structure=None, check=False, ws=None):
    """(_Evaluation, single) of a one-shot call, on a throwaway Workspace.

    C is a (3, 3) or (B, 3, 3) array or a CWorkspace; D holds one design
    row per C or a single row shared by all of them. ws, if given, is the
    Workspace of an earlier call on as many C and the same D, which takes
    the (B, 3, 3) array C in place of its own (Workspace.refill), so a
    caller whose C changes on every call reuses its buffers.
    """
    if ws is not None:
        cw, single = ws.refill(C), False
    elif isinstance(C, tc.CWorkspace):
        cw, single = C, False
    else:
        C = np.asarray(C, dtype=float)
        single = C.ndim == 2
        if check:
            tc.check_metric(C)
        cw = tc.c_workspace(C.reshape(-1, 3, 3))
    uD, group = _designs(_check_design(model, D), cw.C.shape[0])
    ws = _workspace(cw, group, uD.shape[0]) if ws is None else ws
    return _Evaluation(model, ws, uD, _resolve_structure(model, structure)), single


def normalization_coefficients(model, D, structure=None):
    """Stress-normalization data for design rows D (shape (G, m) or (m,))."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    no_samples = _workspace(tc.c_workspace(np.empty((0, 3, 3))), np.empty(0, dtype=np.intp), len(D))
    return _Evaluation(model, no_samples, D, _resolve_structure(model, structure)).nc


def psi(model, C, D, structure=None, check=False):
    """Total energy density for a batch (or a single pair) of (C, D).

    C may also be a tc.CWorkspace; D holds one design row per C or a single
    row shared by all of them.
    """
    ev, single = _evaluate(model, C, D, structure, check)
    out = ev.psi()
    return float(out[0]) if single else out


def stress(model, C, D, structure=None, check=False):
    """Second Piola-Kirchhoff stress S = 2 dPsi/dC, shape (..., 3, 3)."""
    ev, single = _evaluate(model, C, D, structure, check)
    S = ev.stress()
    return S[0] if single else S


def stress_per_design(model, C, D, structure=None):
    """Stresses of each of G design rows D (G, m) over the same B metrics, (G, B, 3, 3).

    C is a (B, 3, 3) array, its CWorkspace, or a Workspace from
    tiled_workspace(C, G), which a caller evaluating G designs at a time
    holds across calls. structure is as for stress, or holds one (G, 3, 3)
    stack per tensor, one tensor per design. All G x B rows go through one
    evaluation whose design path runs once per design.
    """
    D = _check_design(model, D, stacklevel=3)
    ws = C if isinstance(C, Workspace) else tiled_workspace(C, D.shape[0])
    ev = _Evaluation(model, ws, D, _resolve_structure(model, structure, D.shape[0]))
    return ev.stress().reshape(D.shape[0], -1, 3, 3)


def tangent(model, C, D, structure=None, with_sn=True, return_stress=False):
    """Material tangent CC = 4 d2Psi/dC dC in 6x6 component form.

    Built directly in 6x6 form as 4 [B6^T H B6 + sum_i c_i d2I_i/dC2],
    with B6 the packed bases, H the input Hessian of the network plus the
    growth curvature, and the second sum from tc.curvature_66.

    with_sn toggles the stress-normalization contribution, which enters
    through the sum of c_i d2I_i/dC2. The linear-C form's c_sn lies on I1,
    I5 and I7, whose curvature is zero, so there the flag changes nothing
    and the two results are bitwise identical.

    return_stress=True returns (S, CC) from the same evaluation, so a
    Newton iteration needs one constitutive call; S always carries the
    stress normalization.
    """
    ev, single = _evaluate(model, C, D, structure)
    M = np.empty((ev.Iu.shape[0], 6, 6))
    for b, Mb in ev.tangent_blocks(with_sn):
        M[b] = Mb
    if not return_stress:
        return M[0] if single else M
    S = ev.stress()
    return (S[0], M[0]) if single else (S, M)


# ---------------------------------------------------------------------------
# fused loss gradients for training


@dataclass
class Workspace(tc.CWorkspace):
    """The input of every evaluation: what stays fixed across calls on B samples.

    Constants: the C-workspace of the samples, ``group``, each sample's
    design row, and ``rows``, the (B + G) network row index (the samples,
    then one reference row per design). make_workspace adds the training
    designs uD, target stresses, optional (3, 3) per-component residual
    weights and ``scatter``, the (G, B) matrix that sums rows per design.

    Buffers, overwritten by each evaluation: ``cache``, the picnn cache
    holding the network's x path and hess_inputs' buffers, and ``Bu``, the
    (B, n, 3, 3) basis stack, whose four isotropic slots are computed once
    from C and whose anisotropic slots are rewritten for the current
    structure tensors. No array a public function returns aliases either.

    refill overwrites the C-workspace and Bu's isotropic slots with those of
    new metrics, so one Workspace serves a sequence of C (the iterations of
    a Newton solve) without allocating them again.
    """

    group: np.ndarray
    rows: np.ndarray
    uD: np.ndarray | None = None
    S_true: np.ndarray | None = None
    weight: np.ndarray | None = None
    scatter: object = None
    cache: object = None
    Bu: np.ndarray | None = None

    def invariant_bases(self, Ns):
        """tc.invariant_bases of the samples for the active tensors Ns, in the Bu buffer."""
        fresh = self.Bu is None or self.Bu.shape[1] != 4 + 2 * len(Ns)
        self.Bu = tc.invariant_bases(self, Ns) if fresh else tc.anisotropic_bases(self, Ns, self.Bu)
        return self.Bu

    def refill(self, C):
        """Take the (B, 3, 3) metrics C in place of the samples' own, in the buffers; returns self."""
        tc.c_workspace(C, out=self)
        if self.Bu is not None:
            tc.isotropic_bases(self, self.Bu)
        return self


def _workspace(cw, group, n_designs, **data):
    """Workspace over the C-workspace cw whose samples take design rows group of n_designs."""
    return Workspace(cw.C, cw.cof, cw.det, cw.J, cw.Cinv, group,
                     np.concatenate([group, np.arange(n_designs)]), **data)


def tiled_workspace(C, n_designs):
    """Workspace for stress_per_design: the B metrics of C once per design, design-major.

    C is a (B, 3, 3) array or its CWorkspace, whose cofactors the tiling reuses.
    """
    cw = tc.c_workspace(C if isinstance(C, tc.CWorkspace) else np.reshape(C, (-1, 3, 3)))
    tiled = tc.CWorkspace(*(np.tile(a, (n_designs,) + (1,) * (a.ndim - 1))
                            for a in (cw.C, cw.cof, cw.det, cw.J, cw.Cinv)))
    return _workspace(tiled, np.repeat(np.arange(n_designs), cw.C.shape[0]), n_designs)


def make_workspace(model, C, D, S_true, component_weights=None):
    """Training Workspace of the samples (C, D) and their target stresses S_true."""
    C = np.asarray(C, dtype=float)
    S_true = np.asarray(S_true, dtype=float)
    if C.size == 0:
        raise ValueError("empty dataset")
    tc.check_metric(C)
    if not np.all(np.isfinite(S_true)):
        raise ValueError("stress data contains non-finite entries")
    if component_weights is not None:
        component_weights = np.asarray(component_weights, dtype=float)
        if component_weights.shape != (3, 3):
            raise ValueError("component_weights must be a (3, 3) array")
    uD, group = _designs(np.atleast_2d(np.asarray(D, dtype=float)), C.shape[0])
    G = uD.shape[0]
    return _workspace(tc.c_workspace(C), group, G, uD=uD, S_true=S_true, weight=component_weights,
                      scatter=picnn.group_scatter(group, G))


@dataclass
class LossGradients:
    loss: float
    dnet: dict
    dalpha_bar: np.ndarray | None
    dphi: float | None
    dp_raw: np.ndarray | None
    S_hat: np.ndarray | None


def loss_and_param_gradients(model, ws, want_stress=False):
    """Mean squared Frobenius stress residual and its parameter gradients.

    Returns gradients with respect to the network weights and, where
    trainable, the activity logits alpha_bar and the orientation (phi,
    p_raw). Each active tensor enters only as M_i = a_i N_i, so the chain
    runs through one adjoint G_i = dL/dM_i: dL/da_i = G_i : N_i, and
    dL/dN_i = a_i G_i goes to the orientation through
    tc.structure_tensors_vjp, which keeps the unit-norm and orthogonality
    constraints of the rotation columns exact.
    """
    cfg = model.config
    n = cfg.n_active
    B = ws.C.shape[0]
    aniso = model.aniso
    k = N_DIRECTIONS[cfg.aniso_class]
    structure = aniso.structure() if k else ()
    ev = _Evaluation(model, ws, ws.uD, structure[:k])
    S_hat = ev.stress()

    Rm = S_hat - ws.S_true
    wR = Rm if ws.weight is None else ws.weight**2 * Rm
    loss = float(np.vdot(wR, Rm)) / B
    dS = (2.0 / B) * wR
    dS9 = dS.reshape(B, 9)

    # the sensitivity to c_i is u_i = 2 scale_i dS : Bu_i per sample, U its sum per design
    u = 2.0 * ev.scale * (ev.Bu.reshape(B, n, 9) @ dS9[:, :, None])[..., 0]
    U = ws.scatter @ u

    # reference-row seeds: the transpose of the map from g_ref to c_sn
    seed_ref = U @ _normalization_map(np.eye(n), ev.Ns, ev.alphas, cfg.mode).T

    dnet, dX = picnn.backprop(model.net, ev.X, ws.uD, None, np.vstack([u, seed_ref]),
                              cache=ws.cache, group=ws.rows)

    dalpha_bar = dphi = dp_raw = None
    if k and (aniso.trainable_alpha or aniso.trainable_orientation):
        # columns (tr(C M_i), tr(cof(C) M_i)) of each tensor; bases M_i and
        # det [tr(V M_i) V - V M_i V] with V = C^-1, weighted by 2 c against dS
        dI, dIref, c, gb = dX[:B, 4:], dX[B:, 4:], ev.coefficients()[:, 4:], ev.nc.g_ref[:, 4:]
        V9 = ws.Cinv.reshape(B, 9)
        w = 2.0 * c[:, 1::2] * ws.det[:, None]
        G = dI[:, 0::2].T @ ws.C.reshape(B, 9) + dI[:, 1::2].T @ ws.cof.reshape(B, 9)
        G += 2.0 * c[:, 0::2].T @ dS9
        G += (w * np.einsum("bi,bi->b", dS9, V9)[:, None]).T @ V9
        G -= w.T @ (ws.Cinv @ dS @ ws.Cinv).reshape(B, 9)
        # the tr(M_i) terms: both reference invariants and the normalization's o
        col, f, (wk, wl) = _SPHERICAL_TERM[cfg.mode]
        t = (dIref[:, 0::2] + dIref[:, 1::2]).sum(axis=0)
        t += f * (U[:, col] @ (wk * gb[:, 0::2] + wl * gb[:, 1::2]))
        G[:, ::4] += t[:, None]
        G = G.reshape(k, 3, 3)
        if aniso.trainable_alpha:
            a = np.array(aniso.alphas())
            dalpha_bar = np.zeros(2)
            dalpha_bar[:k] = np.einsum("kij,kij->k", G, ev.Ns)
            dalpha_bar *= a * (1.0 - a)
        if aniso.trainable_orientation:
            dphi, dp_raw = tc.structure_tensors_vjp(aniso.phi, aniso.p_raw, structure[2],
                                                    np.array(ev.alphas)[:, None, None] * G)

    return LossGradients(loss, dnet, dalpha_bar, dphi, dp_raw, S_hat if want_stress else None)


# ---------------------------------------------------------------------------
# checkpoint serialization

def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def save_model(model, path):
    """Write a model checkpoint as versioned JSON (floats round-trip exactly)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {
            "mode": model.config.mode,
            "class": model.config.aniso_class,
            "gamma": model.config.gamma,
        },
        "architecture": {k: getattr(model.net, k) for k in ARCHITECTURE},
        "weights": {k: v.tolist() for k, v in model.net.weights.items()},
        "aniso": None
        if model.aniso is None
        else {
            "alpha_bar": _jsonable(model.aniso.alpha_bar),
            "phi": float(model.aniso.phi),
            "p_raw": model.aniso.p_raw.tolist(),
            "trainable_alpha": model.aniso.trainable_alpha,
            "trainable_orientation": model.aniso.trainable_orientation,
        },
        "d_bounds": _jsonable(model.d_bounds),
        "meta": {k: _jsonable(v) for k, v in model.meta.items()},
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_model(path):
    """Load a checkpoint written by save_model."""
    with open(path) as f:
        payload = json.load(f)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    net = picnn.PicnnParams(*(payload["architecture"][k] for k in ARCHITECTURE),
                            {k: np.asarray(v, dtype=float) for k, v in payload["weights"].items()})
    for name, shape in net.weight_shapes().items():
        if name not in net.weights:
            raise ValueError(f"{path}: weight {name!r} is missing")
        if net.weights[name].shape != shape:
            raise ValueError(f"{path}: weight {name!r} has shape {net.weights[name].shape}, "
                             f"the architecture needs {shape}")
    cfg = EnergyConfig(payload["config"]["mode"], payload["config"]["class"], payload["config"]["gamma"])
    aniso = None
    if payload["aniso"] is not None:
        a = payload["aniso"]
        aniso = AnisotropyState(
            None if a["alpha_bar"] is None else np.asarray(a["alpha_bar"], dtype=float),
            a["phi"],
            np.asarray(a["p_raw"], dtype=float),
            a["trainable_alpha"],
            a["trainable_orientation"],
        )
    d_bounds = None if payload["d_bounds"] is None else np.asarray(payload["d_bounds"], dtype=float)
    return Model(net, cfg, aniso, d_bounds, payload.get("meta", {}))
