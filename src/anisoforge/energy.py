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

Both come from one shared evaluation; the tangent is assembled directly in
6x6 component form from the packed bases and tc.curvature_66.

This module also hosts the fused reverse-mode gradient of the stress-fitting
loss with respect to network weights, activity logits and orientation, built
on picnn.backprop; every chain is finite-difference checked in the tests.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import picnn
from . import tensor_core as tc

MODES = ("polyconvex", "nonpoly_linearC", "unconstrained")
CLASSES = ("iso", "transiso", "ortho")
N_ACTIVE = {"iso": 4, "transiso": 6, "ortho": 8}

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
        return N_ACTIVE[self.aniso_class]


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


def _resolve_structure(model, structure=None):
    """(N1, N2, a1, a2) honoring an optional structure-tensor override."""
    n = model.config.n_active
    if n == 4:
        return None, None, 1.0, 1.0
    if structure is not None:
        N1 = np.asarray(structure[0], dtype=float)
        N2 = np.asarray(structure[1], dtype=float) if n == 8 else None
    else:
        N1, N2, _ = model.aniso.structure()
        if n == 6:
            N2 = None
    a1, a2 = (1.0, 1.0) if model.aniso is None else model.aniso.alphas()
    return N1, N2, a1, a2


def _check_design(model, D):
    D = np.atleast_2d(np.asarray(D, dtype=float))
    if not np.all(np.isfinite(D)):
        raise ValueError("design parameters contain non-finite entries")
    if model.d_bounds is not None:
        lo, hi = model.d_bounds[:, 0], model.d_bounds[:, 1]
        if np.any(D < lo - 1e-12) or np.any(D > hi + 1e-12):
            warnings.warn(
                "design parameters outside the declared training ranges; "
                "the surrogate is extrapolating",
                stacklevel=3,
            )
    return D


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


def _coefficient_corrections(g_ref, N1, N2, a1, a2, n):
    c_sn = np.zeros_like(g_ref)
    o = g_ref[:, 0] + 2.0 * g_ref[:, 1] + 0.5 * g_ref[:, 2] - g_ref[:, 3]
    if n >= 6:
        c_sn[:, 4] = g_ref[:, 5]
        c_sn[:, 5] = g_ref[:, 4]
        o = o + (g_ref[:, 4] + g_ref[:, 5]) * a1 * np.trace(N1)
    if n == 8:
        c_sn[:, 6] = g_ref[:, 7]
        c_sn[:, 7] = g_ref[:, 6]
        o = o + (g_ref[:, 6] + g_ref[:, 7]) * a2 * np.trace(N2)
    c_sn[:, 2] = -2.0 * o
    return c_sn


def normalization_coefficients(model, D, structure=None):
    """Stress-normalization data for design rows D (shape (G, m) or (m,))."""
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n = model.config.n_active
    N1, N2, a1, a2 = _resolve_structure(model, structure)
    Iref = tc.reference_invariants(a1, a2, n)
    rows = np.broadcast_to(Iref, (D.shape[0], n))
    psi_ref, g_ref = picnn.value_and_grad(model.net, rows, D)
    if model.config.mode == "nonpoly_linearC":
        Bref = tc.reference_bases(N1, N2, a1, a2, n)
        T_ref = np.einsum("gi,ijk->gjk", g_ref, Bref)
        return NormCoefficients(psi_ref, g_ref, None, T_ref)
    return NormCoefficients(psi_ref, g_ref, _coefficient_corrections(g_ref, N1, N2, a1, a2, n), None)


def _batched_CD(model, C, D):
    C = np.asarray(C, dtype=float)
    single = C.ndim == 2
    C = C[None] if single else C
    D = _check_design(model, D)
    if D.shape[0] == 1 and C.shape[0] > 1:
        D = np.broadcast_to(D, (C.shape[0], D.shape[1]))
    if D.shape[0] != C.shape[0]:
        raise ValueError("C and D batch sizes differ")
    return C, D, single


def psi(model, C, D, structure=None, check=False):
    """Total energy density for a batch (or a single pair) of (C, D)."""
    C, D, single = _batched_CD(model, C, D)
    if check:
        tc.check_metric(C)
    n = model.config.n_active
    N1, N2, a1, a2 = _resolve_structure(model, structure)
    I = tc.invariants(C, N1, N2, a1, a2, n)
    J = I[:, 2]
    psi_net = picnn.value(model.net, I, D)
    uD, inv = np.unique(D, axis=0, return_inverse=True)
    inv = inv.ravel()
    nc = normalization_coefficients(model, uD, structure)
    out = psi_net + model.config.gamma * (J + 1.0 / J - 2.0) ** 2 - nc.psi_ref[inv]
    if model.config.mode == "nonpoly_linearC":
        out = out - np.einsum("bij,bij->b", nc.T_ref[inv], C - tc.EYE3)
    else:
        Iref = tc.reference_invariants(a1, a2, n)
        out = out + np.einsum("bi,bi->b", nc.c_sn[inv], I - Iref)
    return float(out[0]) if single else out


def _response(model, C, D, structure=None, want_stress=True, want_tangent=False,
              with_sn=True, check=False):
    """One constitutive evaluation behind stress and tangent: (S, CC66).

    Invariants, bases, the network pass, np.unique(D) and the normalization
    are computed once and shared by whichever of S and CC66 is wanted.
    """
    C, D, single = _batched_CD(model, C, D)
    if check:
        tc.check_metric(C)
    cfg = model.config
    n = cfg.n_active
    N1, N2, a1, a2 = _resolve_structure(model, structure)
    I = tc.invariants(C, N1, N2, a1, a2, n)
    J = I[:, 2]
    _, g, cache = picnn.value_and_grad(model.net, I, D, return_cache=True)
    c = g.copy()
    c[:, 2] += growth_coefficient(J, cfg.gamma)
    c_sn = T_ref = None
    if want_stress or (with_sn and cfg.mode != "nonpoly_linearC"):
        uD, inv = np.unique(D, axis=0, return_inverse=True)
        inv = inv.ravel()
        nc = normalization_coefficients(model, uD, structure)
        c_sn = None if nc.c_sn is None else nc.c_sn[inv]
        T_ref = None if nc.T_ref is None else nc.T_ref[inv]
    B = tc.invariant_bases(C, N1, N2, a1, a2, n)
    S = M = None
    if want_stress:
        S = 2.0 * np.einsum("bi,bijk->bjk", c if c_sn is None else c + c_sn, B, optimize=True)
        if T_ref is not None:
            S = S - 2.0 * T_ref
    if want_tangent:
        H = picnn.hess_inputs(model.net, I, D, cache=cache)
        H[:, 2, 2] += growth_curvature(J, cfg.gamma)
        if with_sn and c_sn is not None:
            c = c + c_sn
        B6 = tc.sym_to_6(B)
        M = np.matmul(B6.transpose(0, 2, 1), np.matmul(H, B6))
        M += tc.curvature_66(C, c, N1, N2, a1, a2, n)
        M *= 4.0
    if single:
        S = None if S is None else S[0]
        M = None if M is None else M[0]
    return S, M


def stress(model, C, D, structure=None, check=False):
    """Second Piola-Kirchhoff stress S = 2 dPsi/dC, shape (..., 3, 3)."""
    return _response(model, C, D, structure, check=check)[0]


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
    S, M = _response(model, C, D, structure, want_stress=return_stress, want_tangent=True,
                     with_sn=with_sn)
    return (S, M) if return_stress else M


# ---------------------------------------------------------------------------
# fused loss gradients for training


@dataclass
class Workspace:
    """Per-dataset constants reused across epochs."""

    C: np.ndarray
    D: np.ndarray
    S_true: np.ndarray
    uD: np.ndarray
    group: np.ndarray  # inverse index, sample -> unique-D row
    cof: np.ndarray
    det: np.ndarray
    J: np.ndarray
    Cinv: np.ndarray
    B_iso: np.ndarray  # bases 1..4, (B, 4, 3, 3)
    c_growth: np.ndarray
    weight: np.ndarray | None = None  # (3, 3) per-component residual weights


def make_workspace(model, C, D, S_true, component_weights=None):
    C = np.asarray(C, dtype=float)
    D = np.atleast_2d(np.asarray(D, dtype=float))
    S_true = np.asarray(S_true, dtype=float)
    if C.size == 0:
        raise ValueError("empty dataset")
    tc.check_metric(C)
    if not np.all(np.isfinite(S_true)):
        raise ValueError("stress data contains non-finite entries")
    uD, group = np.unique(D, axis=0, return_inverse=True)
    cof = tc.cofactor_sym(C)
    det = C[:, 0, 0] * cof[:, 0, 0] + C[:, 0, 1] * cof[:, 0, 1] + C[:, 0, 2] * cof[:, 0, 2]
    J = np.sqrt(det)
    Cinv = cof / det[:, None, None]
    B_iso = tc.invariant_bases(C, n_active=4)
    if component_weights is not None:
        component_weights = np.asarray(component_weights, dtype=float)
        if component_weights.shape != (3, 3):
            raise ValueError("component_weights must be a (3, 3) array")
    return Workspace(
        C, D, S_true, uD, group.ravel(), cof, det, J, Cinv, B_iso,
        growth_coefficient(J, model.config.gamma), component_weights,
    )


@dataclass
class LossGradients:
    loss: float
    dnet: dict
    dalpha_bar: np.ndarray | None
    dphi: float | None
    dp_raw: np.ndarray | None
    S_hat: np.ndarray | None


def _aniso_block(C_batch, cof, Cinv, det, N):
    """Contractions and unit basis tensors for one structure tensor."""
    cN = np.einsum("bij,ij->b", C_batch, N)
    cofN = np.einsum("bij,ij->b", cof, N)
    VNV = np.einsum("bij,jk,bkl->bil", Cinv, N, Cinv, optimize=True)
    trVN = np.einsum("bij,ij->b", Cinv, N)
    Bcof_unit = det[:, None, None] * (trVN[:, None, None] * Cinv - VNV)
    return cN, cofN, Bcof_unit


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
    train_alpha = aniso is not None and aniso.trainable_alpha
    train_orient = aniso is not None and aniso.trainable_orientation

    if n > 4:
        N1, N2, R = aniso.structure()
        a1, a2 = aniso.alphas()
    else:
        N1 = N2 = R = None
        a1 = a2 = 1.0

    # invariants and bases; isotropic parts come from the workspace
    I = np.empty((B, n))
    I[:, 0] = ws.C[:, 0, 0] + ws.C[:, 1, 1] + ws.C[:, 2, 2]
    I[:, 1] = ws.cof[:, 0, 0] + ws.cof[:, 1, 1] + ws.cof[:, 2, 2]
    I[:, 2] = ws.J
    I[:, 3] = -2.0 * ws.J
    Bst = np.empty((B, n, 3, 3))
    Bst[:, :4] = ws.B_iso
    if n >= 6:
        cN1, cofN1, B6unit = _aniso_block(ws.C, ws.cof, ws.Cinv, ws.det, N1)
        I[:, 4] = a1 * cN1
        I[:, 5] = a1 * cofN1
        Bst[:, 4] = a1 * N1
        Bst[:, 5] = a1 * B6unit
    if n == 8:
        cN2, cofN2, B8unit = _aniso_block(ws.C, ws.cof, ws.Cinv, ws.det, N2)
        I[:, 6] = a2 * cN2
        I[:, 7] = a2 * cofN2
        Bst[:, 6] = a2 * N2
        Bst[:, 7] = a2 * B8unit

    # one network call covering sample rows and reference rows
    Iref = tc.reference_invariants(a1, a2, n)
    Xrows = np.vstack([I, np.broadcast_to(Iref, (G, n))])
    Yrows = np.vstack([ws.D, ws.uD])
    _, gall, cache = picnn.value_and_grad(model.net, Xrows, Yrows, return_cache=True)
    g = gall[:B]
    gb = gall[B:]

    c = g.copy()
    c[:, 2] += ws.c_growth
    T_ref = None
    if cfg.mode == "nonpoly_linearC":
        Bref = tc.reference_bases(N1, N2, a1, a2, n)
        T_ref = np.einsum("gi,ijk->gjk", gb, Bref)
    else:
        c = c + _coefficient_corrections(gb, N1, N2, a1, a2, n)[ws.group]

    S_hat = 2.0 * np.einsum("bi,bijk->bjk", c, Bst, optimize=True)
    if T_ref is not None:
        S_hat = S_hat - 2.0 * T_ref[ws.group]

    Rm = S_hat - ws.S_true
    if ws.weight is None:
        loss = float(np.einsum("bij,bij->", Rm, Rm)) / B
        dS = (2.0 / B) * Rm
    else:
        w2 = ws.weight**2
        loss = float(np.einsum("ij,bij,bij->", w2, Rm, Rm)) / B
        dS = (2.0 / B) * w2 * Rm

    # sensitivity to the per-sample coefficients: u_i = dL/dc_i
    u = 2.0 * np.einsum("bjk,bnjk->bn", dS, Bst, optimize=True)
    U = np.zeros((G, n))
    np.add.at(U, ws.group, u)

    # seeds for the network gradient rows
    seed_ref = np.zeros((G, n))
    dT = None
    if cfg.mode == "nonpoly_linearC":
        dT = np.zeros((G, 3, 3))
        np.add.at(dT, ws.group, dS)
        dT *= -2.0
        seed_ref = np.einsum("gjk,ijk->gi", dT, Bref)
    else:
        u3 = U[:, 2]
        seed_ref[:, 0] = -2.0 * u3
        seed_ref[:, 1] = -4.0 * u3
        seed_ref[:, 2] = -u3
        seed_ref[:, 3] = 2.0 * u3
        if n >= 6:
            t1 = a1 * np.trace(N1)
            seed_ref[:, 4] = U[:, 5] - 2.0 * t1 * u3
            seed_ref[:, 5] = U[:, 4] - 2.0 * t1 * u3
        if n == 8:
            t2 = a2 * np.trace(N2)
            seed_ref[:, 6] = U[:, 7] - 2.0 * t2 * u3
            seed_ref[:, 7] = U[:, 6] - 2.0 * t2 * u3

    seeds = np.vstack([u, seed_ref])
    dnet, dX = picnn.backprop(model.net, Xrows, Yrows, None, seeds, cache=cache)
    dI = dX[:B]
    dIref = dX[B:]

    dalpha_bar = None
    dphi = None
    dp_raw = None
    if n > 4 and (train_alpha or train_orient):
        da1, dN1 = _structure_adjoints(
            ws, dS, dI[:, 4], dI[:, 5], dIref[:, 4], dIref[:, 5],
            c[:, 4], c[:, 5], cN1, cofN1, B6unit, N1, a1,
        )
        if n == 8:
            da2, dN2 = _structure_adjoints(
                ws, dS, dI[:, 6], dI[:, 7], dIref[:, 6], dIref[:, 7],
                c[:, 6], c[:, 7], cN2, cofN2, B8unit, N2, a2,
            )
        else:
            da2, dN2 = 0.0, np.zeros((3, 3))

        if cfg.mode == "nonpoly_linearC":
            # Tref = sum_i gb_i Bref_i with Bref5 = a1 N1, Bref6 = a1 (trN1 I - N1)
            dT_trace = np.einsum("gii->g", dT)
            da1 += float(
                np.einsum("g,gij,ij->", gb[:, 4], dT, N1)
                + gb[:, 5] @ (dT_trace * np.trace(N1) - np.einsum("gij,ij->g", dT, N1))
            )
            dN1 += a1 * np.einsum("g,gij->ij", gb[:, 4], dT)
            dN1 += a1 * (
                float(gb[:, 5] @ dT_trace) * tc.EYE3
                - np.einsum("g,gij->ij", gb[:, 5], dT)
            )
            if n == 8:
                da2 += float(
                    np.einsum("g,gij,ij->", gb[:, 6], dT, N2)
                    + gb[:, 7] @ (dT_trace * np.trace(N2) - np.einsum("gij,ij->g", dT, N2))
                )
                dN2 += a2 * np.einsum("g,gij->ij", gb[:, 6], dT)
                dN2 += a2 * (
                    float(gb[:, 7] @ dT_trace) * tc.EYE3
                    - np.einsum("g,gij->ij", gb[:, 7], dT)
                )
        else:
            # explicit (a tr N) dependence of the o coefficient: c3 = -2 o
            w1 = -2.0 * float(U[:, 2] @ (gb[:, 4] + gb[:, 5]))
            da1 += w1 * np.trace(N1)
            dN1 += w1 * a1 * tc.EYE3
            if n == 8:
                w2 = -2.0 * float(U[:, 2] @ (gb[:, 6] + gb[:, 7]))
                da2 += w2 * np.trace(N2)
                dN2 += w2 * a2 * tc.EYE3

        if train_alpha:
            dalpha_bar = np.array([da1 * a1 * (1.0 - a1), da2 * a2 * (1.0 - a2)])
        if train_orient:
            dphi, dp_raw = _orientation_adjoints(aniso, R, dN1, dN2)

    return LossGradients(loss, dnet, dalpha_bar, dphi, dp_raw, S_hat if want_stress else None)


def _structure_adjoints(ws, dS, dI_c, dI_cof, dIr_c, dIr_cof, c_c, c_cof, cN, cofN, Bcof_unit, N, a):
    """dL/da and dL/dN for one direction's invariant/basis appearances."""
    # invariant inputs I = a tr(C N) and a tr(cof(C) N)
    da = float(dI_c @ cN + dI_cof @ cofN)
    dN = a * np.einsum("b,bij->ij", dI_c, ws.C)
    dN += a * np.einsum("b,bij->ij", dI_cof, ws.cof)
    # reference rows: both reference entries equal a
    da += float(np.sum(dIr_c) + np.sum(dIr_cof))
    # bases: dL/dB_i = 2 c_i dS with B = a N and a Bcof_unit(C, N)
    da += 2.0 * float(np.einsum("b,bij,ij->", c_c, dS, N))
    da += 2.0 * float(np.einsum("b,bij,bij->", c_cof, dS, Bcof_unit))
    dN += 2.0 * a * np.einsum("b,bij->ij", c_c, dS)
    # d(dS : det [tr(VN) V - V N V])/dN = det [(dS:V) V - V dS V]
    dSV = np.einsum("bij,bij->b", dS, ws.Cinv)
    VdSV = np.einsum("bij,bjk,bkl->bil", ws.Cinv, dS, ws.Cinv, optimize=True)
    w = 2.0 * a * c_cof * ws.det
    dN += np.einsum("b,b,bij->ij", w, dSV, ws.Cinv) - np.einsum("b,bij->ij", w, VdSV)
    return da, dN


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
