"""Total-Lagrangian finite elements driving the surrogate as a material law.

A small displacement-driven harness: structured hexahedral boxes, trilinear
elements with 2x2x2 Gauss quadrature, Newton iteration on the internal-force
residual with the consistent tangent

    K_aibj = int dN_a/dX_M (delta_ij S_MN + F_iK CC_KMNQ F_jQ) dN_b/dX_N dV,

assembled per element in Voigt form as sum_q w_q (B^T CC66 B + geometric
term), with B the 6x24 strain-displacement matrix of F and dN/dX. All
quadrature points of all elements go to the constitutive model in one
network evaluation per Newton iteration, which gives the stresses and the
residual. The tangent is read off the same evaluation only when the
residual check fails, just before the linear solve, so the iteration
that confirms convergence builds none. The assemblies of one solve share
one workspace, whose buffers each of them overwrites.

A solve walks one load loop over its ramps: one full-load step from a
held displacement, if there is one, then the cold ramp from zero, whose
failed load steps are retried from their last converged state with the
increment halved, to a fixed depth. An attempt whose linear solves fell
back to a general solve (below) warns once, prefixed "discarded Newton
attempt: " if it failed; extrapolation warnings are never prefixed.

K is sparse: a mesh holds its quadrature data and K's CSC pattern, built
on first use, and each assembly scatters the element matrices onto its
slots. The free-dof block is factored by banded Cholesky after a reverse
Cuthill-McKee reordering, whose band is planned once per solve, or once
per orientation search; a K that is not positive definite falls back to
a general sparse direct solve. The orientation search sets up the beam's
supports once, holds one workspace for all its solves, and starts each
solve of a restart from the previous one's converged displacement.

The canned load case is a simply supported beam with a prescribed downward
displacement on the midspan top face; the orientation inverse problem seeks
the fiber layout minimizing the peak Von Mises stress of that beam.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import energy, inverse, picnn
from . import tensor_core as tc

# local node corners of the reference cube, bottom face then top face
XI_NODES = np.array(
    [
        [-1.0, -1.0, -1.0],
        [1.0, -1.0, -1.0],
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, 1.0],
        [-1.0, 1.0, 1.0],
    ]
)
GAUSS_POINTS = XI_NODES / np.sqrt(3.0)
GAUSS_WEIGHTS = np.ones(8)


@dataclass
class HexMesh:
    """Hexahedral mesh, not modified after construction: it holds its quadrature."""

    nodes: np.ndarray  # (n_nodes, 3) reference coordinates
    elems: np.ndarray  # (n_elems, 8) node indices

    @cached_property
    def quadrature(self):
        return precompute_quadrature(self)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_dof(self):
        return 3 * self.nodes.shape[0]


def box_mesh(lengths=(4.0, 1.0, 1.0), divisions=(8, 2, 2)):
    """Structured hexahedral mesh of a box cornered at the origin."""
    nx, ny, nz = divisions
    if min(divisions) < 1:
        raise ValueError("divisions must be at least 1 per axis")
    xs = np.linspace(0.0, lengths[0], nx + 1)
    ys = np.linspace(0.0, lengths[1], ny + 1)
    zs = np.linspace(0.0, lengths[2], nz + 1)
    K, J, I = np.meshgrid(np.arange(nz + 1), np.arange(ny + 1), np.arange(nx + 1), indexing="ij")
    nodes = np.column_stack([xs[I.ravel()], ys[J.ravel()], zs[K.ravel()]])
    # node (i, j, k) is number i + (nx + 1) (j + (ny + 1) k); an element is its
    # lowest node plus the offsets of the XI_NODES corners
    lowest = np.arange(nodes.shape[0]).reshape(K.shape)[:-1, :-1, :-1].reshape(-1, 1)
    corners = ((XI_NODES + 1.0) / 2.0 @ [1, nx + 1, (nx + 1) * (ny + 1)]).astype(int)
    return HexMesh(nodes, lowest + corners)


def shape_gradients(xi):
    """Trilinear shape values (8,) and reference-cube gradients (8, 3) at xi."""
    s = XI_NODES
    terms = 1.0 + s * np.asarray(xi)[None, :]
    N = 0.125 * terms.prod(axis=1)
    dN = np.empty((8, 3))
    for d in range(3):
        others = [e for e in range(3) if e != d]
        dN[:, d] = 0.125 * s[:, d] * terms[:, others[0]] * terms[:, others[1]]
    return N, dN


def face_nodes(mesh, axis, value):
    """Indices of nodes lying on the plane coordinate[axis] == value, to within 1e-9."""
    return np.flatnonzero(np.abs(mesh.nodes[:, axis] - value) < 1e-9)


def dofs_of(nodes, components=(0, 1, 2)):
    """Flat dof indices for the given node indices and displacement components."""
    nodes = np.asarray(nodes, dtype=int)
    return np.concatenate([3 * nodes + c for c in components])


# ---------------------------------------------------------------------------
# assembly


@dataclass
class QuadratureData:
    dNdX: np.ndarray  # (n_elems, 8 qp, 8 nodes, 3)
    wdetJ: np.ndarray  # (n_elems, 8 qp)
    edofs: np.ndarray  # (n_elems, 24) element dofs, node-major
    k_index: np.ndarray  # (n_elems * 24 * 24,) slot of each element entry in K's pattern
    k_pattern: tuple  # (indices, indptr) of K's CSC pattern, rows sorted in each column
    voigt_grads: tuple  # (gM, gN), each (n_elems, 8 qp, 6, 8), from _voigt_gradients


def precompute_quadrature(mesh):
    dN_all = np.stack([shape_gradients(xi)[1] for xi in GAUSS_POINTS])  # (8qp, 8, 3)
    Xe = mesh.nodes[mesh.elems]  # (E, 8, 3)
    Jac = np.einsum("qad,eam->eqdm", dN_all, Xe)
    with np.errstate(invalid="ignore"):  # a NaN node fails the check below instead
        detJ = np.linalg.det(Jac)
    if not np.all(detJ > 0):
        raise ValueError("mesh has non-positive Jacobians")
    invJ = np.linalg.inv(Jac)
    dNdX = np.einsum("qad,eqmd->eqam", dN_all, invJ)
    edofs = (3 * mesh.elems[:, :, None] + np.arange(3)).reshape(-1, 24)
    k_index, k_pattern = _stiffness_pattern(edofs, mesh.n_dof)
    return QuadratureData(dNdX, detJ * GAUSS_WEIGHTS[None, :], edofs, k_index, k_pattern,
                          _voigt_gradients(dNdX))


def _stiffness_pattern(edofs, n_dof):
    """Slots of the element entries in K's CSC pattern, and the pattern."""
    # element entry (row edofs[e, r], column edofs[e, c]), keyed column-major
    keys = edofs[:, None, :] * n_dof + edofs[:, :, None]
    pattern, k_index = np.unique(keys, return_inverse=True)
    col, row = np.divmod(pattern, n_dof)
    indptr = np.searchsorted(col, np.arange(n_dof + 1))
    return k_index.ravel(), (row.astype(np.int32), indptr.astype(np.int32))


def deformation_gradients(mesh, quad, u):
    ue = u.reshape(-1, 3)[mesh.elems]  # (E, 8, 3)
    F = np.einsum("eai,eqam->eqim", ue, quad.dNdX)
    F += np.eye(3)
    return F


@dataclass
class AssemblyResult:
    residual: np.ndarray  # (n_dof,) internal forces (no external loads)
    K: scipy.sparse.csc_array  # (n_dof, n_dof) consistent tangent on the quad.k_pattern slots
    F: np.ndarray  # (E, 8, 3, 3) deformation gradients
    S: np.ndarray  # (E, 8, 3, 3) second Piola-Kirchhoff stresses


def strain_displacement(F, dNdX):
    """Voigt strain-displacement matrices B, (..., 6, 24), with dE = B du_e.

    Rows are dE_11, dE_22, dE_33, 2 dE_12, 2 dE_13, 2 dE_23 (engineering
    shears, matching the raw-component 6x6 tangent); columns are the
    element dofs (node a, component i) in node-major order:

        B_(MN),(ai) = F_iN dN_a/dX_M + F_iM dN_a/dX_N   (halved for M = N)
    """
    return _strain_displacement(F, *_voigt_gradients(dNdX))


def _voigt_gradients(dNdX):
    """Shape gradients of the Voigt pairs (M, N), (gM, gN) each (..., 6, 8),
    carrying the factor 1/2 on the normal rows (F-independent, so per mesh)."""
    h = 0.5 * tc.VOIGT_WEIGHTS[:, None]
    return h * dNdX[..., tc.VOIGT_I].swapaxes(-1, -2), h * dNdX[..., tc.VOIGT_J].swapaxes(-1, -2)


def _strain_displacement(F, gM, gN, out=None, scratch=None):
    """B of strain_displacement from _voigt_gradients' (gM, gN); out and
    scratch, if given, are (..., 6, 24) arrays, out receiving B."""
    FM = F[..., tc.VOIGT_I].swapaxes(-1, -2)  # (..., 6, 3)
    FN = F[..., tc.VOIGT_J].swapaxes(-1, -2)
    shape = gM.shape + (3,)
    Bm = np.multiply(gM[..., :, None], FN[..., None, :], out=None if out is None else out.reshape(shape))
    Bm += np.multiply(gN[..., :, None], FM[..., None, :],
                      out=None if scratch is None else scratch.reshape(shape))
    return Bm.reshape(Bm.shape[:-2] + (24,))


@dataclass
class _AssemblyWorkspace:
    """What the assemblies and Newton loops of one solve, or of one
    orientation search, share, each overwriting it.

    ``energy`` is the energy.Workspace of the quadrature points: their
    C-workspace, the network cache (with hess_inputs' Jacobians and
    Hessian) and the basis stack. ``ev`` is the evaluation of the last
    residual phase, which the tangent phase reads. ``Bv`` and ``WMB`` hold
    one block of B and of w CC66 B, and ``Ke`` every element matrix; the
    tangent phase makes them on its first call and overwrites them on
    every later one. The 6x6 tangents' block arrays are made per tangent
    phase. No array assemble returns aliases a buffer, so a solve's result
    survives the next solve. ``plan`` is the band plan of the free dofs,
    made by the first solve; ``u`` is the flat displacement of the last
    converged solve, from which the next solve starts warm, or None for a
    cold start.
    """

    energy: object = None
    ev: object = None
    Bv: np.ndarray | None = None
    WMB: np.ndarray | None = None
    Ke: np.ndarray | None = None
    plan: BandPlan | None = None
    u: np.ndarray | None = None


def assemble(mesh, quad, model, D, u, structure=None, with_tangent=True, _workspace=None):
    """Internal-force residual and (with_tangent) tangent for the current displacement.

    The residual phase forms F and C, evaluates the constitutive model
    once (one network pass) for S and sums the internal forces. The
    tangent phase (_tangent) reads that same evaluation for the 6x6
    tangent, builds B and the element matrices and scatters them onto K's
    pattern. The element stiffness is

        K_e = sum_q w_q [ B^T CC66 B + (dN S dN^T) (x) I_3 ],

    with dN the (8, 3) shape gradients, B from strain_displacement and CC66
    the 6x6 tangent. Each sum over the quadrature points is one matmul per
    element.

    _workspace is solve_displacement's _AssemblyWorkspace, which the
    assemblies of one solve share, with the same model and D (an
    orientation search also shares it across solves and structures); each
    assembly overwrites its buffers, and the Newton loop calls _tangent on
    it only before a linear solve. None gives a throwaway one.
    """
    E, Q = quad.wdetJ.shape
    aw = _AssemblyWorkspace() if _workspace is None else _workspace
    aw.ev = None  # the last evaluation's arrays go before the next is built
    F = deformation_gradients(mesh, quad, u)
    Fb = F.reshape(E * Q, 3, 3)
    aw.ev, _ = energy._evaluate(model, np.einsum("bki,bkj->bij", Fb, Fb), D, structure,
                                ws=aw.energy)
    aw.energy = aw.ev.ws
    S = aw.ev.stress().reshape(E, Q, 3, 3)

    P = np.einsum("eqik,eqkm->eqim", F, S)
    fe = np.einsum("eq,eqim,eqam->eai", quad.wdetJ, P, quad.dNdX)
    residual = np.bincount(quad.edofs.ravel(), weights=fe.ravel(), minlength=mesh.n_dof)
    return AssemblyResult(residual, _tangent(mesh, quad, aw, F, S) if with_tangent else None, F, S)


def _tangent(mesh, quad, aw, F, S):
    """K at the last residual phase on aw, whose F and S are given, built in aw's buffers.

    One pass over the row blocks of the evaluation's tangent_blocks, which
    hold whole elements since picnn.HESS_ROWS is a multiple of the 8
    points of an element: per block the 6x6 tangents, B^T CC66 B and the
    geometric term, each element one matmul. Bv and WMB hold one block and
    Ke every element. They are made before the first block's network
    Hessian: made after it, they cost an 8x2x2 orientation fit of 20
    solves about 60% more minor faults (10k against 6.2k).
    """
    E, Q = quad.wdetJ.shape
    if aw.Ke is None:
        block = (min(E, picnn.HESS_ROWS // Q), Q, 6, 24)
        aw.Bv, aw.WMB, aw.Ke = np.empty(block), np.empty(block), np.empty((E, 24, 24))
    w = quad.wdetJ[:, :, None, None]
    gM, gN = quad.voigt_grads
    for rows, M66 in aw.ev.tangent_blocks():
        b, n = slice(rows.start // Q, rows.stop // Q), M66.shape[0] // Q
        Bv = _strain_displacement(F[b], gM[b], gN[b], out=aw.Bv[:n], scratch=aw.WMB[:n])
        WMB = np.matmul(M66.reshape(n, Q, 6, 6), Bv, out=aw.WMB[:n])
        WMB *= w[b]
        Ke = np.matmul(Bv.reshape(n, Q * 6, 24).transpose(0, 2, 1), WMB.reshape(n, Q * 6, 24),
                       out=aw.Ke[b]).reshape(n, 8, 3, 8, 3)
        dN = quad.dNdX[b]
        WSg = w[b] * np.matmul(dN, S[b])  # (n, Q, 8, 3)
        G = np.matmul(WSg.transpose(0, 2, 1, 3).reshape(n, 8, Q * 3),
                      dN.transpose(0, 1, 3, 2).reshape(n, Q * 3, 8))
        for i in range(3):  # the geometric term, G (x) I_3
            Ke[:, :, i, :, i] += G
    indices, indptr = quad.k_pattern
    data = np.bincount(quad.k_index, weights=aw.Ke.ravel(), minlength=indices.size)
    return scipy.sparse.csc_array((data, indices, indptr), shape=(mesh.n_dof, mesh.n_dof))


# ---------------------------------------------------------------------------
# Newton solve


def von_mises(sigma):
    """Von Mises equivalent of (..., 3, 3) Cauchy stresses, sqrt(3/2 dev:dev)."""
    sigma = np.asarray(sigma, dtype=float)
    dev = sigma - np.trace(sigma, axis1=-2, axis2=-1)[..., None, None] / 3.0 * np.eye(3)
    return np.sqrt(1.5 * np.einsum("...ij,...ij->...", dev, dev))


@dataclass
class FemResult:
    u: np.ndarray                  # (n_nodes, 3)
    F: np.ndarray                  # (E, 8, 3, 3) at the final state
    S: np.ndarray                  # (E, 8, 3, 3)
    newton_norms: list             # per converged increment, list of residual infinity norms
    reactions: np.ndarray          # (n_dof,) internal forces at the final state

    def cauchy(self):
        J = np.linalg.det(self.F)
        return np.einsum("eqim,eqmn,eqjn->eqij", self.F, self.S, self.F) / J[..., None, None]

    def von_mises(self):
        return von_mises(self.cauchy())


def von_mises_max(state):
    """Peak Von Mises stress over all quadrature points of a converged state."""
    return float(state.von_mises().max())


# a failed load step restarts with its increment halved, at most this many times
CUTBACK_DEPTH = 4
# a Newton attempt fails once its residual exceeds this multiple of its first
DIVERGED = 1e3
NOT_SPD = "global stiffness is not positive definite; continuing with a general direct solve"


def solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=5, tol=1e-9,
                       max_iter=25, structure=None, _workspace=None):
    """Displacement-driven Newton solve with uniform load stepping.

    bc_dofs are flat dof indices held at bc_values (ramped linearly over the
    steps); all remaining dofs are free and carry no external load. A load
    step whose Newton loop fails (no convergence within max_iter
    iterations, a non-finite residual, tangent or network input, a residual
    above DIVERGED times the attempt's first, or a singular linear solve)
    restarts from the last converged displacement with its increment
    halved, at most CUTBACK_DEPTH times per load step.
    newton_norms holds one list of residual norms per converged increment,
    in order: n_steps lists when no step was cut back, one more per cut;
    failed attempts leave none. An attempt whose linear solves fell back to
    a general solve warns once, prefixed "discarded Newton attempt: " if it
    failed; extrapolation warnings are never prefixed. Raises ValueError
    for a tolerance that is not finite and positive or a step or iteration
    count below 1, and RuntimeError if a load step still fails at the
    smallest increment.

    _workspace is an _AssemblyWorkspace held by a caller that solves the
    same mesh with the same bc_dofs many times (invert_orientation): its
    band plan and buffers serve every solve. When it holds the displacement
    of an earlier converged solve, the load loop first walks a warm ramp
    from there: the full load in one step, with no cuts. It walks the cold
    ramp from zero only if that fails. None gives a throwaway one, so the
    solve starts cold.
    """
    bc_dofs = np.asarray(bc_dofs, dtype=int)
    bc_values = np.asarray(bc_values, dtype=float)
    if bc_dofs.size != bc_values.size:
        raise ValueError("bc_dofs and bc_values must have equal length")
    if np.unique(bc_dofs).size != bc_dofs.size:
        raise ValueError("bc_dofs contains duplicates")
    if np.any((bc_dofs < 0) | (bc_dofs >= mesh.n_dof)):
        raise ValueError(f"bc_dofs must lie in [0, {mesh.n_dof})")
    if not np.all(np.isfinite(bc_values)):
        raise ValueError("bc_values must be finite")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    for name, count in (("n_steps", n_steps), ("max_iter", max_iter)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    quad = mesh.quadrature
    held = _AssemblyWorkspace() if _workspace is None else _workspace
    if held.plan is None:
        held.plan = band_plan(quad, np.setdiff1d(np.arange(mesh.n_dof), bc_dofs))

    # (start displacement, load steps, cuts allowed per step): a held
    # displacement's one full-load step, then the cold ramp from zero
    ramps = [(np.zeros(mesh.n_dof), n_steps, CUTBACK_DEPTH)]
    if held.u is not None:
        ramps.insert(0, (held.u, 1, 0))
    for ramp, (start, steps, depth) in enumerate(ramps):
        u, norms_per_step = start.copy(), []
        for step in range(1, steps + 1):
            converged = u.copy()
            done, size, cuts = 0.0, 1.0, 0  # shares of the step: converged, next increment
            while done < 1.0:
                u[bc_dofs] = bc_values * ((step - 1 + done + size) / steps)
                first = ramp == len(ramps) - 1 and not norms_per_step and cuts == 0
                last = None  # the last increment's arrays go before the next is built
                norms, fallbacks, last = _newton(mesh, quad, model, D, u, structure, held, tol,
                                                 max_iter, first)
                if fallbacks:
                    prefix = "" if last is not None else "discarded Newton attempt: "
                    warnings.warn(prefix + NOT_SPD)
                if last is not None:
                    done += size
                    converged[:] = u
                    norms_per_step.append(norms)
                elif cuts < depth:
                    u[:] = converged
                    size, cuts = size / 2.0, cuts + 1
                else:
                    break
            if done < 1.0:
                break
        else:
            held.u = u
            return FemResult(u.reshape(-1, 3), last.F, last.S, norms_per_step, last.residual)
    raise RuntimeError(f"Newton did not converge in load step {step} after {max_iter} "
                       f"iterations (residual {(norms or [np.nan])[-1]:.3e}), its increment "
                       f"halved {CUTBACK_DEPTH} times")


def _newton(mesh, quad, model, D, u, structure, aw, tol, max_iter, first):
    """Newton iterations on u, in place, at its prescribed values.

    Returns the residual norms, the count of linear solves that fell back
    to a general solve, and the last assembly, or None in its place when
    the residual does not fall below tol within max_iter iterations, is not
    finite or exceeds DIVERGED times the first, an assembly finds a network
    input that is not, or the linear solve finds the free block singular or
    not finite. Only in the first increment from zero does the first
    assembly raise, as it would anywhere else: its fault is the
    configuration's, not a candidate's.
    The tangent is built only before a linear solve.
    """
    free = aw.plan.order
    norms, fallbacks = [], 0
    for it in range(max_iter):
        try:
            last = assemble(mesh, quad, model, D, u, structure=structure, with_tangent=False,
                            _workspace=aw)
        except ValueError:  # picnn's "non-finite network input"
            if it == 0 and first:
                raise
            break
        r_f = last.residual[free]
        norm = float(np.max(np.abs(r_f))) if free.size else 0.0
        norms.append(norm)
        if norm < tol:
            return norms, fallbacks, last
        if not np.isfinite(norm) or norm > DIVERGED * norms[0]:
            break
        try:
            du, banded = aw.plan._solve(_tangent(mesh, quad, aw, last.F, last.S), -r_f)
        except (RuntimeError, ValueError):  # splu finds K singular, solveh_banded not finite
            break
        u[free] += du
        fallbacks += not banded
    return norms, fallbacks, None


@dataclass
class BandPlan:
    """LAPACK upper band storage of K's free block in reverse Cuthill-McKee order.

    The (bandwidth + 1, n_free) band holds a[r, c] for r <= c <= r +
    bandwidth in row bandwidth + r - c and column c, r and c counted in
    `order`. It is stored column-major, as LAPACK reads it, at flat
    position c (bandwidth + 1) + bandwidth + r - c.
    """

    order: np.ndarray  # (n_free,) free dofs, reordered to narrow the band
    bandwidth: int
    src: np.ndarray  # pattern slots of the block's upper triangle
    dest: np.ndarray  # their flat positions in the band

    def band(self, K):
        ab = np.zeros((self.order.size, self.bandwidth + 1))
        ab.reshape(-1)[self.dest] = K.data[self.src]
        return ab.T

    def solve(self, K, b):
        """x with K[order][:, order] x = b: banded Cholesky, or a general
        sparse direct solve with a warning when the block is not positive
        definite. The Cholesky factor overwrites the band."""
        x, banded = self._solve(K, b)
        if not banded:
            warnings.warn(NOT_SPD)
        return x

    def _solve(self, K, b):
        """(x of solve, whether the banded Cholesky solved it), without the warning."""
        try:
            return scipy.linalg.solveh_banded(self.band(K), b, overwrite_ab=True), True
        except np.linalg.LinAlgError:
            return scipy.sparse.linalg.splu(K[self.order][:, self.order]).solve(b), False


def band_plan(quad, free):
    """Band plan for the free dofs `free` (sorted) of K's pattern."""
    indices, indptr = quad.k_pattern
    n_dof = indptr.size - 1
    local = np.full(n_dof, -1)
    local[free] = np.arange(free.size)
    rows = local[indices]
    cols = np.repeat(local, np.diff(indptr))
    src = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[src], cols[src]
    order, position = free, np.arange(free.size)
    if free.size:  # reverse_cuthill_mckee rejects an empty graph
        # the block's pattern, column-compressed (it is symmetric, so CSR reads the same)
        block_ptr = np.searchsorted(cols, np.arange(free.size + 1))
        graph = scipy.sparse.csr_array((np.ones(src.size), rows, block_ptr),
                                       shape=(free.size, free.size))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        order = free[perm]
        position[perm] = np.arange(free.size)
    rows, cols = position[rows], position[cols]
    upper = rows <= cols
    bandwidth = int(np.max(cols - rows, initial=0))
    dest = cols[upper] * (bandwidth + 1) + bandwidth + rows[upper] - cols[upper]
    return BandPlan(order, bandwidth, src[upper], dest)


def stretch_bc(mesh, stretch):
    """Clamp the x=0 face and pull the opposite face along x to the given stretch.

    The clamped face is fully fixed; on the pulled face only the axial
    component is prescribed, leaving lateral contraction free. Returns
    (bc_dofs, bc_values).
    """
    length = mesh.nodes[:, 0].max()
    fixed = face_nodes(mesh, 0, 0.0)
    pulled = face_nodes(mesh, 0, length)
    bc_dofs = np.concatenate([dofs_of(fixed), 3 * pulled])
    bc_values = np.concatenate([np.zeros(3 * fixed.size), np.full(pulled.size, (stretch - 1.0) * length)])
    return bc_dofs, bc_values


# ---------------------------------------------------------------------------
# the simply supported beam and its orientation inverse problem


@dataclass
class FemConfig:
    """Beam geometry, loading, solver settings, and the material inputs."""

    lengths: tuple = (4.0, 1.0, 1.0)
    divisions: tuple = (8, 2, 2)
    u0: float = 0.1  # downward midspan displacement magnitude
    n_steps: int = 5
    tol: float = 1e-9
    max_iter: int = 25
    D: np.ndarray | None = None
    phi: float | None = None  # orientation override; None keeps the model's own
    p_raw: np.ndarray | None = None

    def __post_init__(self):
        if len(self.lengths) != 3:
            raise ValueError(f"lengths must have 3 entries, got {self.lengths}")
        if len(self.divisions) != 3 or not all(isinstance(n, (int, np.integer)) for n in self.divisions):
            raise ValueError(f"divisions must be 3 integers, got {self.divisions}")
        if not all(0.0 < L < np.inf for L in self.lengths):
            raise ValueError(f"beam dimensions must be finite and positive, got lengths {self.lengths}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if not np.isfinite(self.u0):
            raise ValueError(f"u0 must be finite, got {self.u0}")
        if self.phi is not None and not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        for name in ("n_steps", "max_iter"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if (self.phi is None) != (self.p_raw is None):
            raise ValueError("an orientation override takes both phi and the rotation axis p_raw")
        p = None if self.p_raw is None else np.asarray(self.p_raw)
        if p is not None and (p.shape != (3,) or p.dtype.kind not in "iuf" or not np.all(np.isfinite(p))):
            raise ValueError(f"p_raw must hold 3 finite numbers, got {self.p_raw}")

    def structure(self):
        return None if self.phi is None else tc.structure_tensors(self.phi, self.p_raw)


def beam_bc(mesh, u0):
    """Simple supports on the bottom edges, prescribed dip at the midspan top.

    The bottom edge at x=0 is pinned, the one at x=L rolls along x, and the
    top-face node column at x=L/2 is pushed down by u0. Returns
    (bc_dofs, bc_values).
    """
    L = mesh.nodes[:, 0].max()
    H = mesh.nodes[:, 2].max()
    bottom = face_nodes(mesh, 2, 0.0)
    left = np.intersect1d(bottom, face_nodes(mesh, 0, 0.0))
    right = np.intersect1d(bottom, face_nodes(mesh, 0, L))
    mid_top = np.intersect1d(face_nodes(mesh, 2, H), face_nodes(mesh, 0, L / 2.0))
    if mid_top.size == 0:
        raise ValueError("no node column at midspan: use an even x division count")
    bc_dofs = np.concatenate([dofs_of(left), dofs_of(right, (1, 2)), 3 * mid_top + 2])
    bc_values = np.concatenate([np.zeros(3 * left.size + 2 * right.size), np.full(mid_top.size, -u0)])
    return bc_dofs, bc_values


def _beam_problem(mesh, cfg, model):
    """solve_displacement's positional arguments for the beam of cfg, whose
    design is checked against the model's design width."""
    if cfg.D is None:
        raise ValueError("FemConfig.D must hold the design vector")
    if np.shape(cfg.D) != (model.net.n_design,):
        raise ValueError(f"FemConfig.D has shape {np.shape(cfg.D)}, the model takes "
                         f"{model.net.n_design} design parameters")
    return (mesh, model, cfg.D, *beam_bc(mesh, cfg.u0), cfg.n_steps, cfg.tol, cfg.max_iter)


def solve_static(mesh, cfg, model):
    """Converged state of the simply supported beam under the configured dip."""
    return solve_displacement(*_beam_problem(mesh, cfg, model), structure=cfg.structure())


@dataclass
class OrientationFit:
    phi: float | None
    axis: np.ndarray | None
    n1: np.ndarray | None
    n2: np.ndarray | None
    objective: float  # peak Von Mises stress at the best orientation
    restarts: list = field(default_factory=list)  # (x, objective, stop) triples
    traces: list = field(default_factory=list)  # per restart, (evals, best f) pairs
    insensitive: bool = False

    def report(self):
        if self.insensitive:
            return {"insensitive": True, "objective": self.objective}
        return {
            "insensitive": False,
            "phi": self.phi,
            "axis": self.axis.tolist(),
            "n1": self.n1.tolist(),
            "n2": self.n2.tolist(),
            "objective": self.objective,
            "restarts": [
                {"x": x.tolist(), "objective": f, "stop": stop} for x, f, stop in self.restarts
            ],
        }


def invert_orientation(mesh, cfg, model, restarts=5, seed=0, max_evals=150, tol=1e-6):
    """Fiber orientation minimizing the beam's peak Von Mises stress.

    Nelder-Mead over axis-angle coordinates from seeded random starts;
    returns the best fit together with every restart's outcome and trace.
    Isotropic models carry no orientation, so the search is skipped and the
    result flagged insensitive. Raises if no restart produces a converged
    solve.

    The design and the supports are checked and set up once, so a
    configuration error raises with its own message; only a candidate's
    own failures (a zero rotation axis, or Newton failing at the smallest
    increment) score inf. Every solve of the search shares one band plan
    and one _AssemblyWorkspace, made per call. A restart's first solve
    ramps the load from zero; each later one first tries a single
    full-load Newton step from the restart's last converged displacement,
    and ramps from zero only if that fails. So every restart follows from
    its seed alone, and a warm objective value matches a cold solve's to
    within the Newton tolerance, not bit for bit.
    """
    for name, count in (("restarts", restarts), ("max_evals", max_evals)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if model.config.aniso_class == "iso":
        obj = von_mises_max(solve_static(mesh, cfg, model))
        return OrientationFit(None, None, None, None, obj, insensitive=True)

    problem, held = _beam_problem(mesh, cfg, model), _AssemblyWorkspace()

    def objective(x):
        try:
            structure = tc.structure_tensors(x[0], x[1:4])
        except ValueError:  # a zero rotation axis
            return np.inf
        try:
            state = solve_displacement(*problem, structure=structure, _workspace=held)
        except RuntimeError:  # Newton fails at the smallest increment
            return np.inf
        return von_mises_max(state)

    bounds = inverse._orientation_bounds()
    width = bounds[:, 1] - bounds[:, 0]
    rng = np.random.default_rng(seed)

    def start():
        x0 = bounds[:, 0] + width * rng.random(4)
        if np.linalg.norm(x0[1:]) < 1e-3:
            x0[1:] = np.array([0.3, 0.3, 0.9])
        return x0

    def minimize(x0, k):
        held.u = None  # a restart starts cold
        return inverse.nelder_mead(objective, x0, step=0.2 * width, bounds=bounds,
                                   max_evals=max_evals, tol=tol)

    best, summaries, traces, _ = inverse._multistart(minimize, [start() for _ in range(restarts)])
    return OrientationFit(*inverse._orientation_readout(best.x), best.fun, summaries, traces)


# ---------------------------------------------------------------------------
# output


VTK_HEADER = "# vtk DataFile Version 3.0"


def write_vtk(path, mesh, u, cell_data=None):
    """Legacy ASCII VTK unstructured grid: nodal displacements, optional cell scalars."""
    with open(path, "w") as f:
        f.write(f"{VTK_HEADER}\nanisoforge output\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        for p in mesh.nodes:
            f.write(f"{p[0]:.12g} {p[1]:.12g} {p[2]:.12g}\n")
        E = mesh.elems.shape[0]
        f.write(f"CELLS {E} {9 * E}\n")
        for e in mesh.elems:
            f.write("8 " + " ".join(str(n) for n in e) + "\n")
        f.write(f"CELL_TYPES {E}\n")
        f.writelines("12\n" for _ in range(E))
        f.write(f"POINT_DATA {mesh.n_nodes}\nVECTORS displacement double\n")
        for v in np.asarray(u).reshape(-1, 3):
            f.write(f"{v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        if cell_data:
            f.write(f"CELL_DATA {E}\n")
            for name, values in cell_data.items():
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in np.asarray(values).reshape(-1):
                    f.write(f"{v:.12g}\n")
