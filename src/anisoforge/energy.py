"""Strain-energy model assembly: network term, growth term, normalization.

The total energy for a metric C and design vector D is

    Psi(C, D) = Psi_net(I(C), D) + Psi_gr(J) + Psi_n(D) + Psi_sn(C, D)

with J = I3 = sqrt(det C) and

    Psi_gr = gamma (J + 1/J - 2)^2               (coercive volumetric growth)
    Psi_n  = -Psi_net(Iref, D)                    (energy zero at C = I)
    Psi_sn = stress normalization, one of two forms below.

Coefficient form ("polyconvex" and "unconstrained" modes): with
gb_i = dPsi_net/dI_i evaluated at the reference invariants Iref,

    Psi_sn = -o (I3 - 1) + p (I5 - I5r) + q (I6 - I6r) + r (I7 - I7r) + s (I8 - I8r)
    p = gb6, q = gb5, r = gb8, s = gb7
    o = 2 [ gb1 + 2 gb2 + gb3/2 - gb4 + (p + q) a1 tr N1 + (r + s) a2 tr N2 ]

The index swaps p<->q and r<->s make the structure-tensor parts of the
stress cancel at C = I; the o term then kills the remaining spherical part,
so S(I, D) = 0 identically for any weights. Each added term is affine in a
single polyconvex invariant with a C-independent slope, so polyconvexity of
the network term is preserved.

Linear-in-C form ("nonpoly_linearC" mode):

    Psi_sn = -Tref : (C - I),   Tref = sum_i gb_i Bref_i

also cancels the stress at C = I but is affine in C itself, hence invisible
to the tangent and outside the polyconvex invariant set.

Stress and tangent follow from the invariant chain rule:

    S  = 2 sum_i c_i B_i (+ S_sn in linear-C form),   B_i = dI_i/dC
    CC = 4 [ sum_ij (d2Psi/dI_i dI_j) B_i (x) B_j + sum_i c_i d2I_i/dC dC ]

The anisotropic invariants are linear in N, so an activity a_i acts as the
tensor a_i N_i (see tensor_core). The kernels see the unit tensors Ns; only
this module applies a_i: the column scale (1, 1, 1, 1, a1, a1, a2, a2) and o.

All of these are views of one evaluation, which takes two inputs:

* a C-workspace (tc.CWorkspace: C, cof, det, J, C^-1), built once per set
  of C and read by the invariant, basis and curvature kernels; callers that
  hold C fixed (inversion, the training Workspace) build it once;
* the designs as (uD, group): the unique design rows and the sample -> row
  index. A single design row is shared by every sample without np.unique.

stress_per_design evaluates G candidate designs over the same B metrics as
one such evaluation: the C-workspace tiled G times, uD the G designs and
group = repeat(arange(G), B). A structure override may then hold one
tensor per design, which the kernels take per sample row.

The sample rows I(C) and one reference row Iref per design go through a
single network call whose design path runs once per design. psi, stress,
tangent (assembled directly in 6x6 form from the packed bases and
tc.curvature_66), normalization_coefficients and the fused reverse-mode
gradient of the stress-fitting loss with respect to network weights,
activity logits and orientation (built on picnn.backprop) all read that
evaluation; every chain is finite-difference checked in the tests.
"""

from __future__ import annotations

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
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")

    @property
    def n_active(self):
        return 4 + 2 * N_DIRECTIONS[self.aniso_class]


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
        return AnisotropyState(
            None if self.alpha_bar is None else np.asarray(self.alpha_bar, dtype=float).copy(),
            float(self.phi),
            np.asarray(self.p_raw, dtype=float).copy(),
            self.trainable_alpha,
            self.trainable_orientation,
        )

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
        if self.config.aniso_class != "iso" and self.aniso is None:
            raise ValueError("anisotropic classes require an AnisotropyState")

    def copy(self):
        return Model(
            self.net.copy(),
            EnergyConfig(self.config.mode, self.config.aniso_class, self.config.gamma),
            None if self.aniso is None else self.aniso.copy(),
            None if self.d_bounds is None else self.d_bounds.copy(),
            dict(self.meta),
        )


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
        constrained=(mode != "unconstrained"),
        seed=seed,
    )
    if aniso is None and aniso_class != "iso":
        aniso = AnisotropyState.from_directions(tc.DEFAULT_N1, tc.DEFAULT_N2)
    return Model(net, cfg, aniso, None if d_bounds is None else np.asarray(d_bounds, float))


def _resolve_structure(model, structure=None, n_designs=None):
    """(Ns, alphas): the active unit structure tensors (or the checked override) and activities.

    With n_designs, an override may hold an (n_designs, 3, 3) stack per tensor.
    """
    k = N_DIRECTIONS[model.config.aniso_class]
    if k == 0:
        return (), ()
    Ns = model.aniso.structure() if structure is None else [
        _check_structure(structure[i], n_designs) for i in range(k)]
    return tuple(Ns[:k]), model.aniso.alphas()[:k]


def _check_structure(N, n_designs=None):
    """N as a float array; raises unless it is a finite, symmetric (3, 3) tensor of unit trace.

    With n_designs, N may also be a stack of n_designs such tensors, each
    checked. The reference invariants assume tr N = 1, so any other override
    would leave a stress at C = I.
    """
    N = np.asarray(N, dtype=float)
    if n_designs is not None and N.shape == (n_designs, 3, 3):
        for Ng in N:
            _check_structure(Ng)
        return N
    if N.shape == (3, 3):
        (a, b, c), (d, e, f), (g, h, i) = N.tolist()
        # each entry enters one of these terms once, so a NaN or inf entry fails its bound
        if all(abs(x) <= 1e-10 for x in (b - d, c - g, f - h, a + e + i - 1.0)):
            return N
    raise ValueError("a structure tensor must be a finite, symmetric (3, 3) array with unit trace")


def extrapolating(model, D):
    """Per design row of D (G, m): True where it lies outside the model's declared ranges."""
    if model.d_bounds is None:
        return np.zeros(len(D), dtype=bool)
    lo, hi = model.d_bounds[:, 0], model.d_bounds[:, 1]
    return np.any((D < lo - 1e-12) | (D > hi + 1e-12), axis=1)


def _check_design(model, D):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if not np.all(np.isfinite(D)):
        raise ValueError("design parameters contain non-finite entries")
    if np.any(extrapolating(model, D)):
        warnings.warn(
            "design parameters outside the declared training ranges; "
            "the surrogate is extrapolating",
            stacklevel=4,
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
    c_sn: np.ndarray | None  # coefficient-form corrections, (G, n_active)
    T_ref: np.ndarray | None  # linear-C form tensor, (G, 3, 3)


def _coefficient_corrections(g_ref, Ns, alphas):
    c_sn = np.zeros_like(g_ref)
    o = g_ref[:, 0] + 2.0 * g_ref[:, 1] + 0.5 * g_ref[:, 2] - g_ref[:, 3]
    for k, N, a in zip((4, 6), Ns, alphas):
        c_sn[:, k] = g_ref[:, k + 1]
        c_sn[:, k + 1] = g_ref[:, k]
        o = o + (g_ref[:, k] + g_ref[:, k + 1]) * a * np.trace(N, axis1=-2, axis2=-1)
    c_sn[:, 2] = -2.0 * o
    return c_sn


class _Evaluation:
    """The energy's forward pass over a C-workspace and designs (uD, group).

    The invariants and bases are taken of the unit structure tensors Ns and
    scaled by (1, 1, 1, 1, a1, a1, a2, a2) where they meet the network. The sample
    rows and one reference row per design go through a single network call
    whose design path runs once per design; psi, S, CC and the training
    loss are read off this one evaluation.

    With per_design, a structure override may hold one tensor per design
    (a (G, 3, 3) stack); the sample rows then take the tensor of their design.
    """

    def __init__(self, model, cw, uD, group, structure=None, per_design=False):
        cfg = model.config
        n = cfg.n_active
        self.model, self.cw, self.uD, self.group = model, cw, uD, group
        self.Ns, self.alphas = Ns, alphas = _resolve_structure(
            model, structure, uD.shape[0] if per_design else None)
        self.row_Ns = tuple(N if N.ndim == 2 else N[group] for N in Ns)
        self.scale = np.repeat((1.0, 1.0) + alphas, 2)
        self.Iref = tc.reference_invariants(Ns) * self.scale
        self.Iu = tc.invariants(cw, self.row_Ns)
        self.Bu = tc.invariant_bases(cw, self.row_Ns)
        B, G = self.Iu.shape[0], uD.shape[0]
        self.X = np.vstack([self.Iu * self.scale, np.broadcast_to(self.Iref, (G, n))])
        self.rows = np.concatenate([group, np.arange(G)])
        psi, g, self.cache = picnn.value_and_grad(model.net, self.X, uD, return_cache=True,
                                                  group=self.rows)
        self.psi_net, self.g = psi[:B], g[:B]
        g_ref = g[B:]
        if cfg.mode == "nonpoly_linearC":
            self.Bref = tc.reference_bases(Ns) * self.scale[:, None, None]
            Bref = self.Bref.reshape(-1, n, 9)  # shared, or one stack per design
            T_ref = g_ref @ Bref[0] if len(Bref) == 1 else (g_ref[:, None] @ Bref)[:, 0]
            self.nc = NormCoefficients(psi[B:], g_ref, None, T_ref.reshape(G, 3, 3))
        else:
            self.nc = NormCoefficients(psi[B:], g_ref,
                                       _coefficient_corrections(g_ref, Ns, alphas), None)

    def coefficients(self, with_sn=True):
        """dPsi/dI per sample row: network, growth and (with_sn) coefficient-form terms."""
        c = self.g.copy()
        c[:, 2] += growth_coefficient(self.cw.J, self.model.config.gamma)
        if with_sn and self.nc.c_sn is not None:
            c += self.nc.c_sn[self.group]
        return c

    def psi(self):
        J = self.cw.J
        out = self.psi_net + self.model.config.gamma * (J + 1.0 / J - 2.0) ** 2
        out -= self.nc.psi_ref[self.group]
        if self.nc.T_ref is not None:
            out -= np.einsum("bij,bij->b", self.nc.T_ref[self.group], self.cw.C - tc.EYE3)
        else:
            out += np.einsum("bi,bi->b", self.nc.c_sn[self.group], self.X[: J.size] - self.Iref)
        return out

    def stress(self):
        B, n = self.Iu.shape
        c = self.coefficients() * self.scale
        S = 2.0 * (c[:, None, :] @ self.Bu.reshape(B, n, 9)).reshape(B, 3, 3)
        if self.nc.T_ref is not None:
            S -= 2.0 * self.nc.T_ref[self.group]
        return S

    def tangent(self, with_sn=True):
        """4 [B6^T H B6 + sum_i c_i d2I_i/dC2] in 6x6 form, B6 the packed scaled bases."""
        B, n = self.Iu.shape
        H = picnn.hess_inputs(self.model.net, self.X, self.uD, cache=self.cache,
                              group=self.rows)[:B]
        H[:, 2, 2] += growth_curvature(self.cw.J, self.model.config.gamma)
        B6 = tc.sym_to_6(self.Bu) * self.scale[:, None]
        M = np.matmul(B6.transpose(0, 2, 1), np.matmul(H, B6))
        M += tc.curvature_66(self.cw, self.coefficients(with_sn) * self.scale, self.row_Ns)
        M *= 4.0
        return M


def _evaluate(model, C, D, structure=None, check=False, per_design=False):
    """(_Evaluation, single) for C (a (3, 3), (B, 3, 3) array or a CWorkspace) and D.

    per_design evaluates every row of D over all of C, on the C-workspace
    tiled once per design.
    """
    if isinstance(C, tc.CWorkspace):
        cw, single = C, False
    else:
        C = np.asarray(C, dtype=float)
        single = C.ndim == 2
        if check:
            tc.check_metric(C)
        cw = tc.c_workspace(C.reshape(-1, 3, 3))
    D = _check_design(model, D)
    if per_design:
        G, B = D.shape[0], cw.C.shape[0]
        cw = tc.CWorkspace(*(np.tile(a, (G,) + (1,) * (a.ndim - 1))
                             for a in (cw.C, cw.cof, cw.det, cw.J, cw.Cinv)))
        uD, group = D, np.repeat(np.arange(G), B)
    else:
        uD, group = _designs(D, cw.C.shape[0])
    return _Evaluation(model, cw, uD, group, structure, per_design), single


def normalization_coefficients(model, D, structure=None):
    """Stress-normalization data for design rows D (shape (G, m) or (m,))."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    no_samples = tc.c_workspace(np.empty((0, 3, 3)))
    return _Evaluation(model, no_samples, D, np.empty(0, dtype=np.intp), structure).nc


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

    C is a (B, 3, 3) array or its CWorkspace. structure is as for stress, or
    holds one (G, 3, 3) stack per tensor, one tensor per design. All G x B
    rows go through one evaluation whose design path runs once per design.
    """
    ev, _ = _evaluate(model, C, D, structure, per_design=True)
    return ev.stress().reshape(ev.uD.shape[0], -1, 3, 3)


def tangent(model, C, D, structure=None, with_sn=True, return_stress=False):
    """Material tangent CC = 4 d2Psi/dC dC in 6x6 component form.

    Built directly in 6x6 form as 4 [B6^T H B6 + sum_i c_i d2I_i/dC2],
    with B6 the packed bases, H the input Hessian of the network plus the
    growth curvature, and the second sum from tc.curvature_66.

    with_sn toggles the stress-normalization contribution. In coefficient
    form that contribution enters through the sum of c_i d2I_i/dC2; in the
    linear-C form Psi_sn is affine in C, so the flag changes nothing and the
    two results are bitwise identical.

    return_stress=True returns (S, CC) from the same evaluation, so a
    Newton iteration needs one constitutive call; S always carries the
    stress normalization.
    """
    ev, single = _evaluate(model, C, D, structure)
    M = ev.tangent(with_sn)
    if not return_stress:
        return M[0] if single else M
    S = ev.stress()
    return (S[0], M[0]) if single else (S, M)


# ---------------------------------------------------------------------------
# fused loss gradients for training


@dataclass
class Workspace(tc.CWorkspace):
    """Per-dataset constants reused across epochs: the C-workspace of the
    samples, their designs as (uD, group), the target stresses and optional
    (3, 3) per-component residual weights."""

    uD: np.ndarray
    group: np.ndarray
    S_true: np.ndarray
    weight: np.ndarray | None = None


def make_workspace(model, C, D, S_true, component_weights=None):
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
    cw = tc.c_workspace(C)
    return Workspace(cw.C, cw.cof, cw.det, cw.J, cw.Cinv, uD, group, S_true, component_weights)


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
    p_raw). The orientation chain runs through the rotation columns
    r_i = R e_i rather than the structure tensors, keeping the unit-norm
    and orthogonality constraints exact.
    """
    cfg = model.config
    n = cfg.n_active
    B = ws.C.shape[0]
    G = ws.uD.shape[0]
    aniso = model.aniso
    ev = _Evaluation(model, ws, ws.uD, ws.group)
    c = ev.coefficients()
    S_hat = ev.stress()

    Rm = S_hat - ws.S_true
    wR = Rm if ws.weight is None else ws.weight**2 * Rm
    loss = float(np.vdot(wR, Rm)) / B
    dS = (2.0 / B) * wR

    # v_i = 2 dS : Bu_i per sample; the sensitivity to c_i is u_i = scale_i v_i
    v = 2.0 * (ev.Bu.reshape(B, n, 9) @ dS.reshape(B, 9, 1))[..., 0]
    u = ev.scale * v
    U = np.zeros((G, n))
    np.add.at(U, ws.group, u)

    # seeds for the reference rows, through the normalization terms
    gb = ev.nc.g_ref
    if cfg.mode == "nonpoly_linearC":
        dT = np.zeros((G, 9))
        np.add.at(dT, ws.group, dS.reshape(B, 9))
        dT *= -2.0
        seed_ref = dT @ ev.Bref.reshape(n, 9).T
    else:
        u3 = U[:, 2]
        seed_ref = np.zeros((G, n))
        seed_ref[:, :4] = np.array([-2.0, -4.0, -1.0, 2.0]) * u3[:, None]
        for k, N, a in zip((4, 6), ev.Ns, ev.alphas):
            t = a * np.trace(N)
            seed_ref[:, k] = U[:, k + 1] - 2.0 * t * u3
            seed_ref[:, k + 1] = U[:, k] - 2.0 * t * u3

    dnet, dX = picnn.backprop(model.net, ev.X, ws.uD, None, np.vstack([u, seed_ref]),
                              cache=ev.cache, group=ev.rows)

    dalpha_bar = dphi = dp_raw = None
    if ev.Ns and (aniso.trainable_alpha or aniso.trainable_orientation):
        dI, dIref = dX[:B], dX[B:]
        Cinv = ws.Cinv
        dSV = np.einsum("bij,bij->b", dS, Cinv)
        VdSV = (Cinv @ dS @ Cinv).reshape(B, 9)
        das = np.zeros(2)
        dNs = [np.zeros((3, 3)), np.zeros((3, 3))]
        for j, (k, N, a) in enumerate(zip((4, 6), ev.Ns, ev.alphas)):
            kk = [k, k + 1]
            # invariant inputs a tr(C N), a tr(cof(C) N); both reference entries equal a
            da = np.sum(dI[:, kk] * ev.Iu[:, kk]) + np.sum(dIref[:, kk])
            # bases a N and a Bcof(C, N): dL/dB = 2 c dS
            da += c[:, k] @ v[:, k] + c[:, k + 1] @ v[:, k + 1]
            dN = dI[:, k] @ ws.C.reshape(B, 9) + dI[:, k + 1] @ ws.cof.reshape(B, 9)
            dN += 2.0 * c[:, k] @ dS.reshape(B, 9)
            # d(dS : det [tr(VN) V - V N V])/dN = det [(dS:V) V - V dS V]
            w = 2.0 * c[:, k + 1] * ws.det
            dN += (w * dSV) @ Cinv.reshape(B, 9) - w @ VdSV
            dN = a * dN.reshape(3, 3)
            trN = np.trace(N)
            if cfg.mode == "nonpoly_linearC":
                # Tref = sum_i gb_i Bref_i with Bref_k = a N, Bref_k+1 = a (tr(N) I - N)
                E = (gb[:, kk].T @ dT).reshape(2, 3, 3)
                da += np.vdot(E[0], N) + np.vdot(E[1], trN * tc.EYE3 - N)
                dN += a * (E[0] + np.trace(E[1]) * tc.EYE3 - E[1])
            else:
                # explicit (a tr N) dependence of the o coefficient: c3 = -2 o
                wo = -2.0 * float(U[:, 2] @ (gb[:, k] + gb[:, k + 1]))
                da += wo * trN
                dN += wo * a * tc.EYE3
            das[j], dNs[j] = da, dN
        if aniso.trainable_alpha:
            alphas = np.array(aniso.alphas())
            dalpha_bar = das * alphas * (1.0 - alphas)
        if aniso.trainable_orientation:
            dphi, dp_raw = _orientation_adjoints(aniso, aniso.structure()[2], *dNs)

    return LossGradients(loss, dnet, dalpha_bar, dphi, dp_raw, S_hat if want_stress else None)


def _orientation_adjoints(aniso, R, dN1, dN2):
    """Chain dL/dN_i -> (dL/dphi, dL/dp_raw) through r_i = R(phi, p) e_i."""
    r1, r2 = R[:, 0], R[:, 1]
    dr1 = (dN1 + dN1.T) @ r1
    dr2 = (dN2 + dN2.T) @ r2
    p_raw = np.asarray(aniso.p_raw, dtype=float)
    nrm = np.linalg.norm(p_raw)
    p_hat = p_raw / nrm
    P = tc.cross_matrix(p_hat)
    phi = aniso.phi
    dR_dphi = np.cos(phi) * P + np.sin(phi) * (P @ P)
    dphi = float(dr1 @ dR_dphi[:, 0] + dr2 @ dR_dphi[:, 1])
    dp_hat = np.zeros(3)
    for k in range(3):
        Ek = tc.cross_matrix(tc.EYE3[k])
        dR_dpk = np.sin(phi) * Ek + (1.0 - np.cos(phi)) * (Ek @ P + P @ Ek)
        dp_hat[k] = float(dr1 @ dR_dpk[:, 0] + dr2 @ dR_dpk[:, 1])
    dp_raw = (dp_hat - p_hat * float(p_hat @ dp_hat)) / nrm
    return dphi, dp_raw


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
        "architecture": {
            "n_inv": model.net.n_inv,
            "n_design": model.net.n_design,
            "width_x": model.net.width_x,
            "width_y": model.net.width_y,
            "depth": model.net.depth,
            "constrained": model.net.constrained,
        },
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
    arch = payload["architecture"]
    net = picnn.PicnnParams(
        arch["n_inv"],
        arch["n_design"],
        arch["width_x"],
        arch["width_y"],
        arch["depth"],
        arch["constrained"],
        {k: np.asarray(v, dtype=float) for k, v in payload["weights"].items()},
    )
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
