"""Kernels for symmetric 3x3 tensors, rotations and anisotropic invariants.

Conventions used throughout the package:

* Symmetric second-order tensors are stored either as full ``(..., 3, 3)``
  arrays or packed 6-vectors in component order ``(11, 22, 33, 12, 13, 23)``.
  Double contraction of packed vectors carries factor-2 weights on the three
  shear entries.
* Fourth-order tensors with minor symmetries are stored as 6x6 matrices of
  raw tensor components in the same ordering (no shear scaling baked in).
  ``VOIGT_WEIGHTS`` holds the contraction weights.
* The right Cauchy-Green tensor is ``C = F^T F``; ``J = sqrt(det C)``.
* Structure tensors are ``N_i = n_i (x) n_i`` for unit preferred directions
  ``n_i``; the two directions are columns 1 and 2 of a rotation built from
  axis-angle parameters ``(phi, p)``.

The invariant set is:

    I1 = tr C                 I5 = tr(C N1)         I7 = tr(C N2)
    I2 = tr(cof C)            I6 = tr(cof(C) N1)    I8 = tr(cof(C) N2)
    I3 = J
    I4 = -2 J

The kernels take the active structure tensors as a sequence ``Ns`` of 0
(iso), 1 (transiso) or 2 (ortho) entries and return 4 + 2 len(Ns)
invariants. Every anisotropic term is linear in N, so an activity factor
a in (0, 1] is folded into the tensor: a N gives (a tr(C N), a tr(cof(C) N)).
Each N is one (3, 3) tensor shared by every C, or a (..., 3, 3) stack that
broadcasts against the batch shape of C (one tensor per row).

All derivative formulas below are with respect to C and are exercised by
finite-difference checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VOIGT = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
VOIGT_I = np.array([i for i, _ in VOIGT])
VOIGT_J = np.array([j for _, j in VOIGT])
# Voigt position of each component (i, j), the inverse of VOIGT
_V9 = np.empty((3, 3), dtype=int)
_V9[VOIGT_I, VOIGT_J] = _V9[VOIGT_J, VOIGT_I] = np.arange(6)
VOIGT_WEIGHTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
EYE3 = np.eye(3)

# Default preferred directions used by data generation and known-direction
# training runs: an orthonormal in-plane pair.
DEFAULT_N1 = np.array([1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0), 0.0])
DEFAULT_N2 = np.array([np.sqrt(2.0 / 3.0), -1.0 / np.sqrt(3.0), 0.0])


def sym_to_6(T):
    """Pack a symmetric (..., 3, 3) tensor into (...,6) component order (11,22,33,12,13,23)."""
    T = np.asarray(T)
    return np.stack([T[..., i, j] for i, j in VOIGT], axis=-1)


def sym_from_6(v):
    """Unpack a (..., 6) component vector into a full symmetric (..., 3, 3) tensor."""
    return np.take(np.asarray(v), _V9, axis=-1)


def cofactor_sym(C):
    """Cofactor matrix of a symmetric (..., 3, 3) tensor via 2x2 minors.

    For symmetric input the cofactor matrix equals the adjugate and is itself
    symmetric. Written componentwise so it stays finite and accurate for
    near-singular input, where forming det(C) * inv(C) would not.
    """
    C = np.asarray(C)
    c00, c11, c22 = C[..., 0, 0], C[..., 1, 1], C[..., 2, 2]
    c01, c02, c12 = C[..., 0, 1], C[..., 0, 2], C[..., 1, 2]
    out = np.empty_like(C)
    out[..., 0, 0] = c11 * c22 - c12 * c12
    out[..., 1, 1] = c00 * c22 - c02 * c02
    out[..., 2, 2] = c00 * c11 - c01 * c01
    out[..., 0, 1] = out[..., 1, 0] = c02 * c12 - c01 * c22
    out[..., 0, 2] = out[..., 2, 0] = c01 * c12 - c02 * c11
    out[..., 1, 2] = out[..., 2, 1] = c01 * c02 - c00 * c12
    return out


def _cofactor_det(C):
    """(cof(C), det(C)), the determinant expanded along the first row."""
    C = np.asarray(C)
    cof = cofactor_sym(C)
    det = C[..., 0, 0] * cof[..., 0, 0] + C[..., 0, 1] * cof[..., 0, 1] + C[..., 0, 2] * cof[..., 0, 2]
    return cof, det


@dataclass
class CWorkspace:
    """Per-C quantities shared by the invariants, bases and curvature kernels."""

    C: np.ndarray
    cof: np.ndarray
    det: np.ndarray
    J: np.ndarray
    Cinv: np.ndarray


def c_workspace(C):
    """CWorkspace of C, built from one cofactor evaluation; a CWorkspace passes through.

    invariants, invariant_bases and curvature_66 accept either C or its
    CWorkspace, so a caller holding C fixed computes the cofactors once.
    """
    if isinstance(C, CWorkspace):
        return C
    C = np.ascontiguousarray(C, dtype=float)
    cof, det = _cofactor_det(C)
    return CWorkspace(C, cof, det, np.sqrt(det), cof / det[..., None, None])


def det_sym(C):
    """Determinant of a symmetric (..., 3, 3) tensor, expanded along the first row."""
    return _cofactor_det(C)[1]


def inv_sym(C):
    """Inverse of a symmetric (..., 3, 3) tensor from its cofactors."""
    cof, det = _cofactor_det(C)
    return cof / det[..., None, None]


def is_spd(C, tol=0.0):
    """True when symmetric C is positive definite (checked by leading minors)."""
    C = np.asarray(C, dtype=float)
    m1 = C[..., 0, 0]
    m2 = C[..., 0, 0] * C[..., 1, 1] - C[..., 0, 1] ** 2
    m3 = det_sym(C)
    return (m1 > tol) & (m2 > tol) & (m3 > tol)


def check_metric(C, name="C"):
    """Validate a right Cauchy-Green tensor: symmetric, finite, positive definite."""
    C = np.asarray(C, dtype=float)
    if C.shape[-2:] != (3, 3):
        raise ValueError(f"{name} must have shape (..., 3, 3), got {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.allclose(C, C.swapaxes(-1, -2), atol=1e-10):
        raise ValueError(f"{name} is not symmetric")
    if not np.all(is_spd(C)):
        raise ValueError(f"{name} is not positive definite (invalid metric)")
    return C


def cross_matrix(p):
    """Cross-product matrix [p]_x with [p]_x v = p x v, for p of shape (..., 3)."""
    p = np.asarray(p, dtype=float)
    P = np.zeros(p.shape[:-1] + (3, 3))
    P[..., 0, 1], P[..., 0, 2] = -p[..., 2], p[..., 1]
    P[..., 1, 0], P[..., 1, 2] = p[..., 2], -p[..., 0]
    P[..., 2, 0], P[..., 2, 1] = -p[..., 1], p[..., 0]
    return P


def unit_vector(v):
    """v / |v| for v of shape (..., 3); any zero or non-finite vector is rejected.

    |v|^2 is one dot product per vector, as in np.linalg.norm of one vector.
    """
    v = np.asarray(v, dtype=float)
    norm = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    if not np.all(np.isfinite(norm) & (norm >= 1e-12)):
        raise ValueError("a direction or rotation axis must be a nonzero finite vector")
    return v / norm


def rotation_from_axis_angle(phi, p):
    """Rodrigues rotation about unit axis p by angle phi; (...) and (..., 3) give (..., 3, 3).

    R = I + sin(phi) P + (1 - cos(phi)) P^2 with P = [p]_x, so that a
    quarter turn about e3 maps e1 -> e2 and e2 -> -e1. The axis is
    normalized defensively; a zero axis is rejected.
    """
    P = cross_matrix(unit_vector(p))
    phi = np.asarray(phi, dtype=float)[..., None, None]
    return EYE3 + np.sin(phi) * P + (1.0 - np.cos(phi)) * (P @ P)


def axis_angle_from_rotation(R):
    """Inverse of rotation_from_axis_angle: extract (phi, p) with phi in [0, pi].

    For phi ~ 0 the axis is arbitrary and e3 is returned; for phi ~ pi the
    axis is recovered from the symmetric part. Round-trips through
    rotation_from_axis_angle to 1e-10 away from those edge cases.
    """
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    phi = float(np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)))
    if phi < 1e-8:
        return 0.0, np.array([0.0, 0.0, 1.0])
    if np.pi - phi > 1e-6:
        p = np.array(
            [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]
        ) / (2.0 * np.sin(phi))
        return phi, p / np.linalg.norm(p)
    # phi ~ pi: R ~ 2 p p^T - I, read the axis off the diagonal
    d = np.clip((np.diag(R) + 1.0) / 2.0, 0.0, None)
    k = int(np.argmax(d))
    p = np.sqrt(d)
    # fix signs from the off-diagonal products p_i p_j = (R_ij + R_ji)/4
    for j in range(3):
        if j != k and (R[k, j] + R[j, k]) < 0.0:
            p[j] = -p[j]
    if p[k] < 0.0:
        p = -p
    return phi, p / np.linalg.norm(p)


def rotation_from_direction_pair(n1, n2):
    """Rotation whose first two columns are the orthonormal pair (n1, n2), normalized here."""
    n1, n2 = unit_vector(n1), unit_vector(n2)
    if abs(float(n1 @ n2)) > 1e-8:
        raise ValueError("preferred directions must be orthogonal")
    return np.column_stack([n1, n2, np.cross(n1, n2)])


def structure_tensors(phi, p_raw):
    """Structure tensors N1, N2 from axis-angle parameters.

    The (possibly unnormalized) axis p_raw is normalized, the rotation
    R(phi, p) is formed, and N_i = r_i r_i^T for r_i = R e_i, i = 1, 2.
    Returns (N1, N2, R). phi (...) and p_raw (..., 3) give (..., 3, 3)
    stacks, each entry bitwise the call for that orientation alone.
    structure_tensors_vjp is its reverse-mode adjoint.
    """
    R = rotation_from_axis_angle(phi, p_raw)
    r1, r2 = R[..., :, 0, None], R[..., :, 1, None]
    return r1 * r1.swapaxes(-1, -2), r2 * r2.swapaxes(-1, -2), R


def structure_tensors_vjp(phi, p_raw, R, dNs):
    """Pull dL/dN_i back through structure_tensors to (dL/dphi, dL/dp_raw).

    R is the rotation structure_tensors returned for the scalar phi and the
    axis p_raw (3,); dNs holds dL/dN1 and, for two tensors, dL/dN2. The
    chain runs through the columns r_i = R e_i, whose adjoints
    (dN_i + dN_i^T) r_i form dL/dR. With P = [p]_x and E_k = [e_k]_x:

        dR/dphi = cos(phi) P + sin(phi) P^2
        dR/dp_k = sin(phi) E_k + (1 - cos(phi)) (E_k P + P E_k)

    and dL/dp_raw is dL/dp projected off p and divided by |p_raw|.
    """
    nrm = np.linalg.norm(p_raw)
    p = np.asarray(p_raw, dtype=float) / nrm
    P, E = cross_matrix(p), cross_matrix(EYE3)
    dNs = np.asarray(dNs, dtype=float)
    dR = np.zeros((3, 3))
    dR[:, :len(dNs)] = np.einsum("kij,jk->ik", dNs + dNs.swapaxes(-1, -2), R[:, :len(dNs)])
    dphi = np.vdot(np.cos(phi) * P + np.sin(phi) * (P @ P), dR)
    dp = np.einsum("kij,ij->k", np.sin(phi) * E + (1.0 - np.cos(phi)) * (E @ P + P @ E), dR)
    return float(dphi), (dp - p * (p @ dp)) / nrm


def invariants(C, Ns=()):
    """Invariant vector of C for the active structure tensors Ns.

    Parameters
    ----------
    C : (..., 3, 3) symmetric positive definite, or its CWorkspace.
    Ns : 0 (isotropic), 1 (transversely isotropic) or 2 (orthotropic)
        (3, 3) structure tensors, or per-row stacks, activity factors folded in.

    Returns
    -------
    (..., 4 + 2 len(Ns)) array (I1, I2, I3, I4[, I5, I6[, I7, I8]]).
    """
    w = c_workspace(C)
    C, cof, J = w.C, w.cof, w.J
    I1 = C[..., 0, 0] + C[..., 1, 1] + C[..., 2, 2]
    I2 = cof[..., 0, 0] + cof[..., 1, 1] + cof[..., 2, 2]
    cols = [I1, I2, J, -2.0 * J]
    for N in Ns:
        cols.append(np.einsum("...ij,...ij->...", C, N))
        cols.append(np.einsum("...ij,...ij->...", cof, N))
    return np.stack(cols, axis=-1)


def reference_invariants(Ns=()):
    """Invariants at C = I of unit-trace Ns: exactly (1, 1) per tensor, activity not applied."""
    return np.array([3.0, 3.0, 1.0, -2.0] + [1.0, 1.0] * len(Ns))


def invariant_bases(C, Ns=()):
    """First derivatives B_i = dI_i/dC as an (..., 4 + 2 len(Ns), 3, 3) stack.

        B1 = I
        B2 = tr(C) I - C
        B3 = (J/2) C^-1
        B4 = -J C^-1
        B5 = N1
        B6 = det(C) [tr(C^-1 N1) C^-1 - C^-1 N1 C^-1]
        B7, B8 : as B5, B6 with N2

    The anisotropic entries are symmetric by construction and symmetrized
    once more to shed roundoff asymmetry.
    """
    w = c_workspace(C)
    C, J, Cinv = w.C, w.J, w.Cinv
    shp = C.shape[:-2]
    I1 = C[..., 0, 0] + C[..., 1, 1] + C[..., 2, 2]
    eye = np.broadcast_to(EYE3, shp + (3, 3))
    out = np.empty(shp + (4 + 2 * len(Ns), 3, 3))
    out[..., 0, :, :] = eye
    out[..., 1, :, :] = I1[..., None, None] * eye - C
    out[..., 2, :, :] = 0.5 * J[..., None, None] * Cinv
    out[..., 3, :, :] = -J[..., None, None] * Cinv
    return anisotropic_bases(w, Ns, out)


def anisotropic_bases(C, Ns, out):
    """Write B5, B6[, B7, B8] of invariant_bases into slots 4 on of out; returns out.

    out is an (..., 4 + 2 len(Ns), 3, 3) stack; its four isotropic slots
    are left as they are, so a caller holding C fixed computes them once
    and refreshes only the bases that depend on Ns.
    """
    w = c_workspace(C)
    for k, N in enumerate(Ns):
        out[..., 4 + 2 * k, :, :] = N
        out[..., 5 + 2 * k, :, :] = _aniso_cof_basis(w.Cinv, w.det, N)
    return out


def _aniso_cof_basis(Cinv, det, N):
    VN = Cinv @ N
    n = np.trace(VN, axis1=-2, axis2=-1)
    B = det[..., None, None] * (n[..., None, None] * Cinv - VN @ Cinv)
    return 0.5 * (B + B.swapaxes(-1, -2))


def reference_bases(Ns=()):
    """B_i at C = I: {I, 2I, I/2, -I, N1, tr(N1) I - N1, N2, tr(N2) I - N2}.

    Shape (4 + 2 len(Ns), 3, 3), or (..., 4 + 2 len(Ns), 3, 3) for stacks of N.
    """
    shp = np.broadcast_shapes(*(np.shape(N)[:-2] for N in Ns))
    out = np.empty(shp + (4 + 2 * len(Ns), 3, 3))
    out[..., 0, :, :] = EYE3
    out[..., 1, :, :] = 2.0 * EYE3
    out[..., 2, :, :] = 0.5 * EYE3
    out[..., 3, :, :] = -EYE3
    for k, N in enumerate(Ns):
        out[..., 4 + 2 * k, :, :] = N
        out[..., 5 + 2 * k, :, :] = np.trace(N, axis1=-2, axis2=-1)[..., None, None] * EYE3 - N
    return out


def invariant_second_derivatives(C, Ns=()):
    """Second derivatives d^2 I_i / dC dC as an (..., 4 + 2 len(Ns), 3, 3, 3, 3) stack.

    Each block is curvature_66 with a unit weight on that invariant,
    expanded from 6x6 component form, so the formulas live only there.
    The I1, I5 and I7 blocks vanish (their bases are constant in C).
    """
    C = np.asarray(C, dtype=float)
    M = curvature_66(C[..., None, :, :], np.eye(4 + 2 * len(Ns)), Ns)
    return tensor4_from_66(M)


def _outer66(A, B):
    """(A (x) B)_ijkl = A_ij B_kl in 6x6 component form."""
    return sym_to_6(A)[..., :, None] * sym_to_6(B)[..., None, :]


def _sym66(A, B):
    """sym4(A, B)_ijkl = (A_ik B_jl + A_il B_jk)/2 in 6x6 component form."""
    i, j = VOIGT_I[:, None], VOIGT_J[:, None]
    k, l = VOIGT_I[None, :], VOIGT_J[None, :]
    return 0.5 * (A[..., i, k] * B[..., j, l] + A[..., i, l] * B[..., j, k])


_D2_I2 = _outer66(EYE3, EYE3) - _sym66(EYE3, EYE3)


def curvature_66(C, weights, Ns=()):
    """Weighted curvature sum_i w_i d^2 I_i / dC dC in 6x6 component form.

    weights (..., 4 + 2 len(Ns)) broadcasts against the batch shape of C.
    With V = C^-1, M_a = V N_a V, n_a = tr(V N_a) and sym4 as in _sym66:

        d2I2      = I (x) I - sym4(I, I)
        d2I3      = (J/4) [V (x) V - 2 sym4(V, V)],   d2I4 = -2 d2I3
        d2I(6|8)  = det(C) [n V (x) V - V (x) M - M (x) V
                            - n sym4(V, V) + sym4(V, M) + sym4(M, V)]

    Every block is linear in the outer and sym4 products of V with itself
    and with the weighted sum P = sum_a w_a det(C) M_a, so the sum takes
    the same six products whatever the number of invariants.
    """
    cw = c_workspace(C)
    det, V = cw.det, cw.Cinv
    w = np.asarray(weights, dtype=float)
    kJ = (0.25 * w[..., 2] - 0.5 * w[..., 3]) * cw.J
    s = np.zeros_like(kJ)
    P = np.zeros(kJ.shape + (3, 3))
    for k, N in enumerate(Ns):
        VN = V @ N
        wa = w[..., 5 + 2 * k] * det
        s = s + wa * np.trace(VN, axis1=-2, axis2=-1)
        P = P + wa[..., None, None] * (VN @ V)
    out = w[..., 1, None, None] * _D2_I2
    out = out + (kJ + s)[..., None, None] * _outer66(V, V) - (2.0 * kJ + s)[..., None, None] * _sym66(V, V)
    if len(Ns):
        out = out - _outer66(V, P) - _outer66(P, V) + _sym66(V, P) + _sym66(P, V)
    return out


def tensor4_to_66(T):
    """Project a minor-symmetric (..., 3, 3, 3, 3) tensor onto 6x6 component form."""
    return np.asarray(T)[..., VOIGT_I[:, None], VOIGT_J[:, None], VOIGT_I[None, :], VOIGT_J[None, :]]


def tensor4_from_66(M):
    """Expand a 6x6 component matrix back to a full minor-symmetric tensor."""
    return np.asarray(M)[..., _V9[:, :, None, None], _V9[None, None, :, :]]
