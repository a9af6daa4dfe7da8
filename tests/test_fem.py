"""Mesh, quadrature, assembly consistency, Newton solves, orientation fit."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from anisoforge import energy, fem, inverse, picnn, training
from anisoforge import tensor_core as tc
from util import rand_rotation


def tiny_model(aniso_class="iso", seed=0, **kw):
    kw.setdefault("width_x", 8)
    kw.setdefault("width_y", 6)
    kw.setdefault("depth", 2)
    model = training.model_for_known_class(2, aniso_class, seed=seed, **kw)
    model.d_bounds = np.array([[1.0, 5.0], [1.0, 5.0]])
    return model


# ---------------------------------------------------------------------------
# mesh and shape functions


def test_box_mesh_counts():
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (8, 2, 2))
    assert mesh.n_nodes == 9 * 3 * 3
    assert mesh.elems.shape == (32, 8)
    assert mesh.n_dof == 243
    assert mesh.nodes.min() == 0.0
    assert np.allclose(mesh.nodes.max(axis=0), [4.0, 1.0, 1.0])


def test_box_mesh_rejects_zero_divisions():
    with pytest.raises(ValueError, match="divisions"):
        fem.box_mesh((1.0, 1.0, 1.0), (0, 1, 1))


def test_box_mesh_elements_follow_the_corner_table():
    lengths, divisions = (3.0, 1.2, 0.5), (3, 2, 4)
    mesh = fem.box_mesh(lengths, divisions)
    Xe = mesh.nodes[mesh.elems]
    cell = np.asarray(lengths) / divisions
    assert np.allclose(Xe - Xe[:, :1], (fem.XI_NODES + 1.0) / 2.0 * cell, rtol=0.0, atol=1e-12)
    # the elements are distinct cells
    assert np.unique(Xe[:, 0], axis=0).shape[0] == np.prod(divisions)


def test_stiffness_pattern_is_the_nonzero_set_of_the_element_dofs():
    mesh = fem.box_mesh((3.0, 2.0, 1.0), (3, 2, 1))
    quad = fem.precompute_quadrature(mesh)
    indices, indptr = quad.k_pattern
    assert indices.dtype == indptr.dtype == np.int32
    E = mesh.elems.shape[0]
    rows = np.broadcast_to(quad.edofs[:, :, None], (E, 24, 24)).ravel()
    cols = np.broadcast_to(quad.edofs[:, None, :], (E, 24, 24)).ravel()
    dense = np.zeros((mesh.n_dof, mesh.n_dof), dtype=int)
    np.add.at(dense, (rows, cols), 1)
    for c in range(mesh.n_dof):
        assert np.array_equal(indices[indptr[c]:indptr[c + 1]], np.flatnonzero(dense[:, c]))
    assert indptr[-1] == indices.size == np.count_nonzero(dense)
    # each element entry's slot sits at that entry's row and column
    assert np.array_equal(indices[quad.k_index], rows)
    assert np.array_equal(np.searchsorted(indptr, quad.k_index, side="right") - 1, cols)


def test_shape_functions_partition_of_unity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        xi = rng.uniform(-1, 1, 3)
        N, dN = fem.shape_gradients(xi)
        assert np.isclose(N.sum(), 1.0)
        assert np.allclose(dN.sum(axis=0), 0.0, atol=1e-14)


def test_shape_functions_nodal_values():
    for a, xi in enumerate(fem.XI_NODES):
        N, _ = fem.shape_gradients(xi)
        expected = np.zeros(8)
        expected[a] = 1.0
        assert np.allclose(N, expected, atol=1e-14)


def test_quadrature_volume():
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (8, 2, 2))
    quad = fem.precompute_quadrature(mesh)
    assert np.isclose(quad.wdetJ.sum(), 4.0)


def test_face_nodes_and_dofs():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    left = fem.face_nodes(mesh, 0, 0.0)
    assert len(left) == 4
    assert np.all(mesh.nodes[left, 0] == 0.0)
    dofs = fem.dofs_of(left, components=(0,))
    assert np.array_equal(np.sort(dofs), np.sort(3 * left))


def test_deformation_gradient_exact_for_affine_fields():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 2, 2))
    quad = fem.precompute_quadrature(mesh)
    F0 = np.array([[1.05, 0.02, 0.0], [0.01, 0.97, 0.03], [0.0, 0.02, 1.04]])
    u = (mesh.nodes @ (F0 - np.eye(3)).T).reshape(-1)
    F = fem.deformation_gradients(mesh, quad, u)
    assert np.allclose(F, F0, atol=1e-13)
    u0 = np.zeros(mesh.n_dof)
    assert np.allclose(fem.deformation_gradients(mesh, quad, u0), np.eye(3), atol=1e-15)


# ---------------------------------------------------------------------------
# assembly consistency


def test_tangent_matches_fd_of_residual():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    quad = fem.precompute_quadrature(mesh)
    model = tiny_model("iso", seed=1)
    D = np.array([2.0, 3.0])
    rng = np.random.default_rng(2)
    u = 0.02 * rng.standard_normal(mesh.n_dof)
    out = fem.assemble(mesh, quad, model, D, u)
    K = out.K.toarray()
    assert np.allclose(K, K.T, atol=1e-9 * np.abs(K).max())
    h = 1e-6
    for d in rng.choice(mesh.n_dof, size=8, replace=False):
        up, um = u.copy(), u.copy()
        up[d] += h
        um[d] -= h
        rp = fem.assemble(mesh, quad, model, D, up, with_tangent=False).residual
        rm = fem.assemble(mesh, quad, model, D, um, with_tangent=False).residual
        col = (rp - rm) / (2 * h)
        scale = max(np.abs(col).max(), 1e-12)
        assert np.max(np.abs(col - out.K[:, d])) / scale < 1e-4


def test_tangent_matches_fd_anisotropic():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    quad = fem.precompute_quadrature(mesh)
    model = tiny_model("ortho", seed=3)
    model.net = training.model_for_known_class(2, "ortho", seed=3, width_x=8,
                                               width_y=6, depth=2).net
    D = np.array([1.5, 4.0])
    rng = np.random.default_rng(4)
    u = 0.02 * rng.standard_normal(mesh.n_dof)
    out = fem.assemble(mesh, quad, model, D, u)
    h = 1e-6
    for d in rng.choice(mesh.n_dof, size=5, replace=False):
        up, um = u.copy(), u.copy()
        up[d] += h
        um[d] -= h
        rp = fem.assemble(mesh, quad, model, D, up, with_tangent=False).residual
        rm = fem.assemble(mesh, quad, model, D, um, with_tangent=False).residual
        col = (rp - rm) / (2 * h)
        scale = max(np.abs(col).max(), 1e-12)
        assert np.max(np.abs(col - out.K[:, d])) / scale < 1e-4


def test_tangent_matches_fd_multi_element_with_structure_override():
    # shared nodes: each column collects contributions from up to four elements
    mesh = fem.box_mesh((2.0, 2.0, 1.0), (2, 2, 1))
    quad = fem.precompute_quadrature(mesh)
    model = tiny_model("transiso", seed=9)
    structure = tc.structure_tensors(0.8, np.array([0.4, -0.7, 0.6]))
    D = np.array([2.5, 3.5])
    rng = np.random.default_rng(10)
    u = 0.03 * rng.standard_normal(mesh.n_dof)
    out = fem.assemble(mesh, quad, model, D, u, structure=structure)
    K = out.K.toarray()
    assert np.allclose(K, K.T, atol=1e-9 * np.abs(K).max())
    h = 1e-6
    for d in range(mesh.n_dof):
        up, um = u.copy(), u.copy()
        up[d] += h
        um[d] -= h
        rp = fem.assemble(mesh, quad, model, D, up, structure=structure, with_tangent=False).residual
        rm = fem.assemble(mesh, quad, model, D, um, structure=structure, with_tangent=False).residual
        col = (rp - rm) / (2 * h)
        scale = max(np.abs(col).max(), 1e-12)
        assert np.max(np.abs(col - out.K[:, d])) / scale < 1e-4, d


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(energy.MODES),
    aniso_class=st.sampled_from(energy.CLASSES),
    seed=st.integers(0, 2**16),
    divisions=st.sampled_from([(1, 1, 1), (2, 1, 1)]),
    amplitude=st.floats(0.01, 0.05),
)
def test_residual_is_the_gradient_of_the_total_potential(mode, aniso_class, seed, divisions, amplitude):
    """The assembled residual equals the central-difference gradient of
    Pi(u) = sum_q w_q psi(C_q(u)), dof by dof.

    psi subtracts the network's reference energy, so each value carries
    an absolute roundoff near 1e-16 that the difference divides by h: the
    relative error grows as the displacement shrinks, to about 5e-7 at an
    amplitude of 0.01."""
    mesh = fem.box_mesh((float(divisions[0]), 1.0, 1.0), divisions)
    quad = fem.precompute_quadrature(mesh)
    model = energy.new_model(2, mode=mode, aniso_class=aniso_class, width_x=8, width_y=6, depth=2,
                             seed=seed)
    D = np.array([2.0, 3.0])
    u = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.n_dof)

    def potential(v):
        F = fem.deformation_gradients(mesh, quad, v).reshape(-1, 3, 3)
        return quad.wdetJ.ravel() @ energy.psi(model, np.einsum("bki,bkj->bij", F, F), D)

    residual = fem.assemble(mesh, quad, model, D, u, with_tangent=False).residual
    h = 1e-6
    grad = np.empty(mesh.n_dof)
    for d in range(mesh.n_dof):
        up, um = u.copy(), u.copy()
        up[d] += h
        um[d] -= h
        grad[d] = (potential(up) - potential(um)) / (2 * h)
    assert np.max(np.abs(residual - grad)) <= 1e-5 * np.max(np.abs(residual))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(energy.MODES),
    aniso_class=st.sampled_from(energy.CLASSES),
    seed=st.integers(0, 2**16),
    divisions=st.sampled_from([(1, 1, 1), (2, 1, 1)]),
    amplitude=st.floats(0.0, 0.05),
)
def test_assembled_stiffness_is_symmetric(mode, aniso_class, seed, divisions, amplitude):
    mesh = fem.box_mesh((float(divisions[0]), 1.0, 1.0), divisions)
    quad = fem.precompute_quadrature(mesh)
    model = energy.new_model(2, mode=mode, aniso_class=aniso_class, width_x=8, width_y=6, depth=2,
                             seed=seed)
    u = amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.n_dof)
    K = fem.assemble(mesh, quad, model, np.array([2.0, 3.0]), u).K.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(energy.MODES),
    aniso_class=st.sampled_from(energy.CLASSES),
    seed=st.integers(0, 2**16),
    divisions=st.sampled_from([(1, 1, 1), (2, 1, 1)]),
)
def test_rotated_affine_patch_gives_the_same_stress(mode, aniso_class, seed, divisions):
    """Objectivity: a fully prescribed affine patch under R F0 gives the S of F0
    at every quadrature point, and its displacements are those of F0 carried
    by x -> R x."""
    rng = np.random.default_rng(seed)
    mesh = fem.box_mesh((float(divisions[0]), 1.0, 1.0), divisions)
    model = energy.new_model(2, mode=mode, aniso_class=aniso_class, width_x=8, width_y=6, depth=2,
                             seed=seed)
    F0 = np.eye(3) + 0.05 * rng.uniform(-1.0, 1.0, (3, 3))
    R = rand_rotation(rng)

    def solve(F):
        u = mesh.nodes @ (F - np.eye(3)).T
        return fem.solve_displacement(mesh, model, np.array([2.0, 3.0]), np.arange(mesh.n_dof),
                                      u.ravel(), n_steps=1)

    plain, rotated = solve(F0), solve(R @ F0)
    assert np.max(np.abs(rotated.u - ((mesh.nodes + plain.u) @ R.T - mesh.nodes))) <= 1e-14
    assert np.max(np.abs(rotated.S - plain.S)) <= 1e-12 * np.max(np.abs(plain.S))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    aniso_class=st.sampled_from(energy.CLASSES),
    seed=st.integers(0, 2**16),
    divisions=st.sampled_from([(1, 1, 1), (2, 1, 1)]),
    stretch=st.floats(1.01, 1.05),
)
def test_newton_converges_quadratically_on_a_patch_step(aniso_class, seed, divisions, stretch):
    """With r_k the step's residual norms relative to the first, log r_{k+1} /
    log r_k >= 1.8 while r_{k+1} stays well above roundoff.

    An inconsistent tangent converges linearly, a ratio near 1, which a
    one-point FD check of the tangent can miss. The polyconvex mode keeps
    an untrained network's Newton step in its quadratic range; the two
    nonconvex modes reach quadratic constants near 1e4 that put the ratio
    below 1.8 with an FD-consistent tangent."""
    mesh = fem.box_mesh((float(divisions[0]), 1.0, 1.0), divisions)
    model = energy.new_model(2, mode="polyconvex", aniso_class=aniso_class, width_x=8, width_y=6,
                             depth=2, seed=seed)
    res = fem.solve_displacement(mesh, model, np.array([2.0, 3.0]), *fem.stretch_bc(mesh, stretch),
                                 n_steps=1, tol=1e-13)
    norms = np.array(res.newton_norms[0])
    rel = norms / norms[0]
    above = norms[2:] > 1e-11
    assume(above.any())
    assert np.all(np.log(rel[2:][above]) / np.log(rel[1:-1][above]) >= 1.8)


def test_strain_displacement_matches_fd_of_green_strain():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    quad = fem.precompute_quadrature(mesh)
    rng = np.random.default_rng(11)
    u = 0.05 * rng.standard_normal(mesh.n_dof)
    du = rng.standard_normal(mesh.n_dof)

    def green(v):
        F = fem.deformation_gradients(mesh, quad, v)
        return 0.5 * (np.einsum("eqki,eqkj->eqij", F, F) - np.eye(3))

    h = 1e-6
    dE = (green(u + h * du) - green(u - h * du)) / (2 * h)
    ref = tc.sym_to_6(dE) * tc.VOIGT_WEIGHTS  # engineering shears
    Bv = fem.strain_displacement(fem.deformation_gradients(mesh, quad, u), quad.dNdX)
    got = Bv @ du[quad.edofs[0]]
    assert np.max(np.abs(got - ref)) < 1e-8 * np.abs(ref).max()


def boundary_nodes(mesh):
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    on_face = (np.abs(mesh.nodes - lo) < 1e-12) | (np.abs(mesh.nodes - hi) < 1e-12)
    return np.flatnonzero(on_face.any(axis=1))


def test_patch_homogeneous_deformation():
    # affine boundary displacements must reproduce the homogeneous state exactly
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    model = tiny_model("iso", seed=5)
    D = np.array([2.0, 2.5])
    F0 = np.array([[1.04, 0.02, 0.0], [0.02, 0.98, 0.01], [0.0, 0.01, 1.03]])
    bnodes = boundary_nodes(mesh)
    assert len(bnodes) == 26  # all but the center node
    u_affine = mesh.nodes @ (F0 - np.eye(3)).T
    bc_dofs = np.concatenate([3 * bnodes + c for c in range(3)])
    bc_values = np.concatenate([u_affine[bnodes, c] for c in range(3)])
    res = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2)
    assert np.allclose(res.u, u_affine, atol=1e-8)
    assert np.allclose(res.F, F0, atol=1e-7)
    S_point = energy.stress(model, F0.T @ F0, D)
    assert np.max(np.abs(res.S - S_point)) < 1e-6


def test_beam_stretch_converges_and_balances():
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (4, 2, 2))
    model = tiny_model("iso", seed=6)
    D = np.array([2.0, 3.0])
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.1)
    res = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2)
    # converged: final residual below tolerance and a superlinear tail
    norms = res.newton_norms[-1]
    assert norms[-1] < 1e-9
    assert norms[-2] < 0.2 * norms[-3]
    # global equilibrium: reactions sum to zero componentwise
    total = res.reactions.reshape(-1, 3).sum(axis=0)
    assert np.allclose(total, 0.0, atol=1e-8)
    # the pulled face is in tension
    pulled = fem.face_nodes(mesh, 0, 4.0)
    fx = res.reactions.reshape(-1, 3)[pulled, 0].sum()
    assert fx > 0.0
    # lateral contraction happened
    assert res.u[pulled, 1].max() < 0.0 or res.u[pulled, 1].min() < 0.0


def test_newton_failure_raises():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("iso", seed=7)
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.5)
    # the brutal single-step stretch also exercises the indefinite-stiffness
    # fallback, which warns and continues with a general direct solve
    with pytest.warns(UserWarning, match="positive definite"):
        with pytest.raises(RuntimeError, match="Newton"):
            fem.solve_displacement(mesh, model, [2.0, 3.0], bc_dofs, bc_values,
                                   n_steps=1, max_iter=1)


def test_a_diverging_load_step_is_cut_back_and_matches_a_many_step_solve():
    """One 1.2 stretch step of this polyconvex patch does not converge in 25
    Newton iterations; two half increments do, and reach the stresses of a
    16-step solve."""
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = energy.new_model(2, mode="polyconvex", aniso_class="transiso", width_x=8, width_y=6,
                             depth=2, seed=3)
    D = np.array([2.0, 3.0])
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.2)
    # the full step's iterates reach a stiffness that is not positive definite
    with pytest.warns(UserWarning, match="positive definite"):
        cut = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=1)
    assert len(cut.newton_norms) == 2
    many = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=16)
    assert len(many.newton_norms) == 16
    assert np.max(np.abs(cut.S - many.S)) <= 1e-8 * np.max(np.abs(many.S))


def cut_back_patch():
    """The 1.2-stretch patch whose single full step fails and is cut back."""
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = energy.new_model(2, mode="polyconvex", aniso_class="transiso", width_x=8, width_y=6,
                             depth=2, seed=3)
    return mesh, model, np.array([2.0, 3.0])


def test_a_discarded_attempts_warnings_say_so():
    """The failed full step's indefinite stiffness is reported as discarded;
    the two kept half steps warn about nothing."""
    mesh, model, D = cut_back_patch()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cut = fem.solve_displacement(mesh, model, D, *fem.stretch_bc(mesh, 1.2), n_steps=1)
    assert len(cut.newton_norms) == 2
    messages = {str(w.message) for w in caught}
    assert messages == {"discarded Newton attempt: global stiffness is not positive definite; "
                        "continuing with a general direct solve"}
    assert {w.category for w in caught} == {UserWarning}


def test_a_kept_attempts_warnings_pass_unchanged():
    """A solve at a design outside the declared ranges converges, and its
    extrapolation warning reaches the caller as the model wrote it."""
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fem.solve_displacement(mesh, tiny_model("iso", seed=5), [6.0, 3.0], bc_dofs, bc_values,
                               n_steps=1)
    assert caught
    assert all(str(w.message).startswith("design parameters outside") for w in caught)


def test_a_diverging_newton_attempt_stops_once_its_residual_passes_diverged():
    """The failed full step of the cut-back patch goes 4.1e-2, 9.4, 6.9e4:
    its third residual is past DIVERGED times its first, so it stops there."""
    mesh, model, D = cut_back_patch()
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.2)
    quad = mesh.quadrature
    aw = fem._AssemblyWorkspace(plan=fem.band_plan(quad, np.setdiff1d(np.arange(mesh.n_dof),
                                                                      bc_dofs)))
    u = np.zeros(mesh.n_dof)
    u[bc_dofs] = bc_values
    norms, fallbacks, last = fem._newton(mesh, quad, model, D, u, None, aw, 1e-9, 25, True)
    assert last is None
    assert len(norms) <= 3
    assert norms[-1] > fem.DIVERGED * norms[0]
    assert fallbacks >= 1


def test_a_fallback_warns_once_per_attempt():
    """The discarded attempt falls back to a general solve at more than one
    iteration; it warns once."""
    mesh, model, D = cut_back_patch()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fem.solve_displacement(mesh, model, D, *fem.stretch_bc(mesh, 1.2), n_steps=1)
    assert [str(w.message) for w in caught] == ["discarded Newton attempt: " + fem.NOT_SPD]


def test_repeated_cut_back_solves_warn_once_under_the_default_filter():
    """No solve resets the once-per-location registry of the default filter."""
    mesh, model, D = cut_back_patch()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for _ in range(2):
            fem.solve_displacement(mesh, model, D, *fem.stretch_bc(mesh, 1.2), n_steps=1)
    assert sum("not positive definite" in str(w.message) for w in caught) == 1


def test_a_discarded_attempts_extrapolation_warning_is_not_prefixed():
    """The extrapolation warning describes the design, not the attempt."""
    mesh, model, D = cut_back_patch()
    model.d_bounds = np.array([[1.0, 1.5], [1.0, 1.5]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fem.solve_displacement(mesh, model, D, *fem.stretch_bc(mesh, 1.2), n_steps=1)
    assert {str(w.message) for w in caught} == {
        "discarded Newton attempt: " + fem.NOT_SPD,
        "design parameters outside the declared training ranges; the surrogate is extrapolating"}


@pytest.mark.parametrize("fault, error, match", [
    # the first assembly's fault is the configuration's: it raises as it is
    pytest.param("design", ValueError, "non-finite entries", id="first-assembly-raises"),
    # every attempt ends at its non-finite residual, down to the smallest increment
    pytest.param("weights", RuntimeError, r"residual nan\), its increment halved 4 times",
                 id="non-finite-residual-ends-attempts"),
])
def test_a_non_finite_model_or_design_fails_the_solve(fault, error, match):
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model, D = tiny_model("iso", seed=7), np.array([2.0, 3.0])
    if fault == "design":
        D[0] = np.nan
    else:
        model.net.weights["wout"] = np.full_like(model.net.weights["wout"], np.nan)
    with pytest.raises(error, match=match):
        fem.solve_displacement(mesh, model, D, *fem.stretch_bc(mesh, 1.1), n_steps=1)


def test_bc_validation():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    model = tiny_model("iso")
    with pytest.raises(ValueError, match="equal length"):
        fem.solve_displacement(mesh, model, [2.0, 3.0], [0, 1], [0.0])
    with pytest.raises(ValueError, match="duplicates"):
        fem.solve_displacement(mesh, model, [2.0, 3.0], [0, 0], [0.0, 0.0])
    for bad in ([-1, 1], [0, mesh.n_dof]):
        with pytest.raises(ValueError, match="bc_dofs must lie"):
            fem.solve_displacement(mesh, model, [2.0, 3.0], bad, [0.0, 0.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="bc_values must be finite"):
            fem.solve_displacement(mesh, model, [2.0, 3.0], [0, 1], [0.0, bad])


@pytest.mark.parametrize("kwargs, match", [
    ({"tol": 0.0}, "tolerance must be finite and positive"),
    ({"tol": np.nan}, "tolerance must be finite and positive"),
    ({"n_steps": 0}, "n_steps must be at least 1"),
    ({"max_iter": 0}, "max_iter must be at least 1"),
])
def test_solver_settings_validation(kwargs, match):
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    bc_dofs = np.arange(mesh.n_dof)
    with pytest.raises(ValueError, match=match):
        fem.solve_displacement(mesh, tiny_model("iso"), [2.0, 3.0], bc_dofs,
                               np.zeros(mesh.n_dof), **kwargs)


# ---------------------------------------------------------------------------
# sparse stiffness and the banded solve


def beam_tangent():
    """K and residual of a 4x2x2 beam halfway into its first load step, with
    the free dofs of its supports and their band plan."""
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (4, 2, 2))
    quad = fem.precompute_quadrature(mesh)
    model = tiny_model("transiso", seed=9)
    structure = tc.structure_tensors(0.8, np.array([0.4, -0.7, 0.6]))
    bc_dofs, bc_values = fem.beam_bc(mesh, 0.1)
    u = np.zeros(mesh.n_dof)
    u[bc_dofs] = 0.5 * bc_values
    out = fem.assemble(mesh, quad, model, np.array([2.5, 3.5]), u, structure=structure)
    free = np.setdiff1d(np.arange(mesh.n_dof), bc_dofs)
    return out, free, fem.band_plan(quad, free)


def test_banded_newton_update_matches_dense_solve():
    out, free, plan = beam_tangent()
    assert np.array_equal(np.sort(plan.order), free)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = plan.solve(out.K, -out.residual[plan.order])
    du = np.zeros(out.residual.size)
    du[plan.order] = x
    ref = np.linalg.solve(out.K.toarray()[free][:, free], -out.residual[free])
    assert np.max(np.abs(du[free] - ref)) <= 1e-10 * np.abs(ref).max()


def test_band_plan_holds_the_upper_triangle_of_the_free_block():
    out, free, plan = beam_tangent()
    A = out.K.toarray()[plan.order][:, plan.order]
    ab, w = plan.band(out.K), plan.bandwidth
    assert ab.shape == (w + 1, free.size)
    for d in range(w + 1):
        assert np.array_equal(ab[w - d, d:], np.diag(A, d))
        assert not ab[w - d, :d].any()
    assert not np.triu(A, w + 1).any()
    # the reordering narrows the band of the natural dof order
    rows, cols = np.nonzero(out.K.toarray()[free][:, free])
    assert w < np.max(cols - rows)


def test_all_dofs_prescribed_solve():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (1, 1, 1))
    model = tiny_model("iso", seed=5)
    D = np.array([2.0, 2.5])
    F0 = np.array([[1.04, 0.02, 0.0], [0.02, 0.98, 0.01], [0.0, 0.01, 1.03]])
    u_affine = mesh.nodes @ (F0 - np.eye(3)).T
    bc_dofs = np.concatenate([3 * np.arange(8) + c for c in range(3)])
    bc_values = np.concatenate([u_affine[:, c] for c in range(3)])
    res = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2)
    assert np.allclose(res.u, u_affine, atol=1e-15)
    assert np.max(np.abs(res.S - energy.stress(model, F0.T @ F0, D))) < 1e-6
    assert res.newton_norms == [[0.0], [0.0]]


def test_indefinite_stiffness_warns_and_matches_general_solve():
    out, free, plan = beam_tangent()
    K = out.K.copy()
    indices, indptr = K.indices, K.indptr
    diagonal = np.flatnonzero(indices == np.repeat(np.arange(K.shape[0]), np.diff(indptr)))
    # shift the spectrum of the free block to straddle zero, well away from it
    eig = np.linalg.eigvalsh(K.toarray()[free][:, free])
    mid = eig.size // 2
    K.data[diagonal] -= 0.5 * (eig[mid - 1] + eig[mid])
    b = -out.residual[plan.order]
    with pytest.warns(UserWarning, match="positive definite"):
        x = plan.solve(K, b)
    ref = np.linalg.solve(K.toarray()[plan.order][:, plan.order], b)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.abs(ref).max()


def test_cauchy_and_von_mises():
    mesh = fem.box_mesh((1.0, 1.0, 1.0), (2, 2, 2))
    model = tiny_model("iso", seed=8)
    D = np.array([2.0, 2.0])
    F0 = np.diag([1.06, 0.99, 0.99])
    bnodes = boundary_nodes(mesh)
    u_affine = mesh.nodes @ (F0 - np.eye(3)).T
    bc_dofs = np.concatenate([3 * bnodes + c for c in range(3)])
    bc_values = np.concatenate([u_affine[bnodes, c] for c in range(3)])
    res = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2)
    S = energy.stress(model, F0.T @ F0, D)
    sigma_ref = F0 @ S @ F0.T / np.linalg.det(F0)
    assert np.allclose(res.cauchy(), sigma_ref, atol=1e-6)
    vm = res.von_mises()
    assert vm.shape == res.S.shape[:2]
    dev = sigma_ref - np.trace(sigma_ref) / 3.0 * np.eye(3)
    assert np.allclose(vm, np.sqrt(1.5 * np.sum(dev * dev)), atol=1e-6)


# ---------------------------------------------------------------------------
# von Mises closed forms


def test_von_mises_closed_forms():
    assert fem.von_mises(np.zeros((3, 3))) == 0.0
    assert np.isclose(fem.von_mises(2.5 * np.eye(3)), 0.0, atol=1e-12)
    s = 3.7
    uni = np.diag([s, 0.0, 0.0])
    assert np.isclose(fem.von_mises(uni), s)


# ---------------------------------------------------------------------------
# the beam load case


def test_beam_bc_layout():
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (8, 2, 2))
    bc_dofs, bc_values = fem.beam_bc(mesh, 0.1)
    # 3 pinned nodes (x=0 bottom edge), 3 rollers (x=L bottom edge), 3 top midspan
    assert bc_dofs.size == 3 * 3 + 2 * 3 + 3
    assert np.all(bc_values[:-3] == 0.0)
    assert np.all(bc_values[-3:] == -0.1)
    with pytest.raises(ValueError, match="midspan"):
        fem.beam_bc(fem.box_mesh((3.0, 1.0, 1.0), (3, 1, 1)), 0.1)


def test_solve_static_zero_load():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("iso", seed=12)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.0,
                        n_steps=1, D=np.array([2.0, 3.0]))
    res = fem.solve_static(mesh, cfg, model)
    assert np.allclose(res.u, 0.0, atol=1e-12)
    assert np.max(np.abs(res.S)) < 1e-8


def test_solve_static_beam_bends():
    mesh = fem.box_mesh((4.0, 1.0, 1.0), (4, 1, 1))
    model = tiny_model("iso", seed=13)
    cfg = fem.FemConfig(divisions=(4, 1, 1), u0=0.05, n_steps=2, D=np.array([2.0, 3.0]))
    res = fem.solve_static(mesh, cfg, model)
    mid_top = np.intersect1d(fem.face_nodes(mesh, 2, 1.0), fem.face_nodes(mesh, 0, 2.0))
    assert np.allclose(res.u[mid_top, 2], -0.05, atol=1e-12)
    assert fem.von_mises_max(res) > 0.0


def test_mesh_quadrature_is_the_precomputed_quadrature():
    mesh = fem.box_mesh((3.0, 2.0, 1.0), (3, 2, 1))
    held, fresh = mesh.quadrature, fem.precompute_quadrature(mesh)
    assert mesh.quadrature is held
    for f in dataclasses.fields(fem.QuadratureData):
        a, b = getattr(held, f.name), getattr(fresh, f.name)
        for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def test_repeated_solves_on_one_mesh_match_a_fresh_mesh():
    model = tiny_model("transiso", seed=9)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=2,
                        D=np.array([2.0, 4.0]))
    mesh = fem.box_mesh(cfg.lengths, cfg.divisions)
    first, second = fem.solve_static(mesh, cfg, model), fem.solve_static(mesh, cfg, model)
    fresh = fem.solve_static(fem.box_mesh(cfg.lengths, cfg.divisions), cfg, model)
    for state in (first, second):
        for name in ("u", "F", "S", "reactions"):
            assert np.array_equal(getattr(state, name), getattr(fresh, name)), name
        assert state.newton_norms == fresh.newton_norms


def test_newton_builds_a_tangent_only_before_a_linear_solve(monkeypatch):
    """One network Hessian per Newton update and none for a converged
    check; the residual phase alone, and an assembly on a workspace that
    an assembly at another displacement used, give a fresh full
    assembly's results bit for bit."""
    model = tiny_model("transiso", seed=9)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    D = np.array([2.0, 4.0])
    bc_dofs, bc_values = fem.stretch_bc(mesh, 1.05)
    calls = []

    def counted(*args, _inner=picnn.hess_inputs, **kwargs):
        calls.append(1)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(picnn, "hess_inputs", counted)
    res = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2)
    assert len(res.newton_norms) == 2
    assert len(calls) == sum(len(norms) - 1 for norms in res.newton_norms) > 0

    quad = mesh.quadrature
    u = res.u.ravel() + 0.01 * np.random.default_rng(31).standard_normal(mesh.n_dof)
    full = fem.assemble(mesh, quad, model, D, u)
    lazy = fem.assemble(mesh, quad, model, D, u, with_tangent=False)
    workspace = fem._AssemblyWorkspace()
    fem.assemble(mesh, quad, model, D, res.u.ravel(), _workspace=workspace)
    reused = fem.assemble(mesh, quad, model, D, u, _workspace=workspace)
    assert lazy.K is None
    assert np.array_equal(reused.K.data, full.K.data)
    for name in ("residual", "F", "S"):
        assert np.array_equal(getattr(lazy, name), getattr(full, name)), name
        assert np.array_equal(getattr(reused, name), getattr(full, name)), name


def _two_block_assembly_case():
    """A 5x4x2 beam: 40 elements of 8 points, one full tangent block of
    picnn.HESS_ROWS rows (32 elements) and one partial block (8)."""
    mesh = fem.box_mesh((5.0, 4.0, 2.0), (5, 4, 2))
    quad = mesh.quadrature
    assert picnn.HESS_ROWS < quad.wdetJ.size < 2 * picnn.HESS_ROWS
    model = tiny_model("transiso", seed=12)
    structure = tc.structure_tensors(0.6, np.array([0.3, -0.5, 0.8]))
    u = 0.03 * np.random.default_rng(13).standard_normal(mesh.n_dof)
    return mesh, quad, model, np.array([2.5, 3.5]), u, structure


def test_two_block_tangent_matches_fd_of_residual():
    mesh, quad, model, D, u, structure = _two_block_assembly_case()
    K = fem.assemble(mesh, quad, model, D, u, structure=structure).K
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(3):
        v = rng.standard_normal(mesh.n_dof)
        rp, rm = (fem.assemble(mesh, quad, model, D, u + s * h * v, structure=structure,
                               with_tangent=False).residual for s in (1.0, -1.0))
        fd = (rp - rm) / (2 * h)
        assert np.max(np.abs(K @ v - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_two_block_stiffness_is_symmetric_and_a_reused_workspace_matches_a_fresh_one():
    mesh, quad, model, D, u, structure = _two_block_assembly_case()
    fresh = fem.assemble(mesh, quad, model, D, u, structure=structure).K
    K = fresh.toarray()
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
    workspace = fem._AssemblyWorkspace()
    fem.assemble(mesh, quad, model, D, 0.5 * u, structure=structure, _workspace=workspace)
    reused = fem.assemble(mesh, quad, model, D, u, structure=structure, _workspace=workspace).K
    assert np.array_equal(reused.data, fresh.data)


def test_successive_solves_share_no_memory():
    """A solve's held buffers never reach its result, so the next solve
    on the same mesh cannot overwrite it."""
    model = tiny_model("transiso", seed=9)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=2,
                        D=np.array([2.0, 4.0]))
    mesh = fem.box_mesh(cfg.lengths, cfg.divisions)
    first, second = fem.solve_static(mesh, cfg, model), fem.solve_static(mesh, cfg, model)
    names = ("u", "F", "S", "reactions")
    for a in names:
        for b in names:
            assert not np.shares_memory(getattr(first, a), getattr(second, b)), (a, b)


def test_fem_config_validation():
    with pytest.raises(ValueError, match="dimensions"):
        fem.FemConfig(lengths=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="tolerance"):
        fem.FemConfig(tol=0.0)
    with pytest.raises(ValueError, match="p_raw"):
        fem.FemConfig(phi=0.5).structure()
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    with pytest.raises(ValueError, match="design vector"):
        fem.solve_static(mesh, fem.FemConfig(divisions=(2, 1, 1), lengths=(2.0, 1.0, 1.0)),
                         tiny_model("iso"))


def test_orientation_changes_beam_response():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("transiso", seed=9)
    D = np.array([2.0, 4.0])
    bc_dofs, bc_values = fem.beam_bc(mesh, 0.05)
    a = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2,
                               structure=tc.structure_tensors(0.9, np.array([0.3, 0.8, 0.5])))
    b = fem.solve_displacement(mesh, model, D, bc_dofs, bc_values, n_steps=2,
                               structure=tc.structure_tensors(0.2, np.array([0.9, -0.1, 0.4])))
    assert not np.allclose(a.u, b.u, atol=1e-6)
    assert not np.isclose(fem.von_mises_max(a), fem.von_mises_max(b), rtol=1e-4)


# ---------------------------------------------------------------------------
# orientation inversion on the beam


def test_invert_orientation_runs_and_is_reproducible():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("transiso", seed=9)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05,
                        n_steps=2, D=np.array([2.0, 4.0]))
    fit = fem.invert_orientation(mesh, cfg, model, restarts=2, seed=14,
                                 max_evals=40, tol=1e-3)
    assert not fit.insensitive
    assert np.isfinite(fit.objective) and fit.objective > 0.0
    assert len(fit.restarts) == 2 and len(fit.traces) == 2
    # the best objective is no worse than any restart's outcome
    assert fit.objective <= min(f for _, f, _ in fit.restarts) + 1e-15
    again = fem.invert_orientation(mesh, cfg, model, restarts=2, seed=14,
                                   max_evals=40, tol=1e-3)
    assert again.objective == fit.objective
    assert np.array_equal(again.n1, fit.n1)
    report = fit.report()
    assert report["insensitive"] is False and len(report["restarts"]) == 2


def test_warm_started_search_matches_cold_solves(monkeypatch):
    """A restart's first solve ramps the load cold and every later one takes
    one warm step; a cold solve at each restart's result gives its value."""
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("transiso", seed=9)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05,
                        n_steps=2, D=np.array([2.0, 4.0]))
    steps, starts = [], []

    def recorded(*args, _inner=fem.solve_displacement, **kwargs):
        result = _inner(*args, **kwargs)
        steps.append(len(result.newton_norms))
        return result

    def restart(*args, _inner=inverse.nelder_mead, **kwargs):
        starts.append(len(steps))
        return _inner(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_displacement", recorded)
    monkeypatch.setattr(inverse, "nelder_mead", restart)
    fit = fem.invert_orientation(mesh, cfg, model, restarts=2, seed=14, max_evals=40, tol=1e-3)
    monkeypatch.undo()
    assert len(starts) == 2 and len(steps) > 2 * 5
    for first, end in zip(starts, starts[1:] + [len(steps)]):
        assert steps[first] == cfg.n_steps
        assert steps[first + 1:end] == [1] * (end - first - 1)
    for x, f, _ in fit.restarts:
        cold = fem.solve_static(mesh, dataclasses.replace(cfg, phi=x[0], p_raw=x[1:4]), model)
        assert abs(fem.von_mises_max(cold) - f) <= 1e-8 * f


def test_a_failed_warm_step_ramps_cold_bit_for_bit():
    """A held displacement from which the full-load step fails falls back to
    the cold ramp, which gives a direct cold solve's result bit for bit."""
    model = tiny_model("transiso", seed=9)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    D = np.array([2.0, 4.0])
    bc_dofs, small = fem.beam_bc(mesh, 0.02)
    large = fem.beam_bc(mesh, 0.15)[1]
    held = fem._AssemblyWorkspace()
    fem.solve_displacement(mesh, model, D, bc_dofs, small, n_steps=1, _workspace=held)
    assert held.u is not None
    # five iterations take the cold ramp's increments, not the full dip from held.u
    fallback = fem.solve_displacement(mesh, model, D, bc_dofs, large, n_steps=8, max_iter=5,
                                      _workspace=held)
    cold = fem.solve_displacement(mesh, model, D, bc_dofs, large, n_steps=8, max_iter=5)
    assert len(fallback.newton_norms) == 8
    for name in ("u", "F", "S", "reactions"):
        assert np.array_equal(getattr(fallback, name), getattr(cold, name)), name
    assert fallback.newton_norms == cold.newton_norms


def test_a_failed_warm_step_falls_back_into_a_cut_cold_ramp_bit_for_bit():
    """From a held 1.02 stretch the full 1.2 step fails; the one-step cold
    ramp after it is cut back into two halves, as a direct cold solve is."""
    mesh, model, D = cut_back_patch()
    bc_dofs, small = fem.stretch_bc(mesh, 1.02)
    large = fem.stretch_bc(mesh, 1.2)[1]
    held = fem._AssemblyWorkspace()
    fem.solve_displacement(mesh, model, D, bc_dofs, small, n_steps=1, _workspace=held)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the failed steps' indefinite stiffness
        fallback = fem.solve_displacement(mesh, model, D, bc_dofs, large, n_steps=1,
                                          _workspace=held)
        cold = fem.solve_displacement(mesh, model, D, bc_dofs, large, n_steps=1)
    assert len(fallback.newton_norms) == 2
    for name in ("u", "F", "S", "reactions"):
        assert np.array_equal(getattr(fallback, name), getattr(cold, name)), name
    assert fallback.newton_norms == cold.newton_norms
    assert np.array_equal(held.u, cold.u.ravel())


def test_invert_orientation_raises_on_configuration_errors():
    """A bad design or a beam without a midspan column is not a candidate's
    failure: it raises with its own message before the search."""
    model = tiny_model("transiso", seed=9)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=1,
                        D=np.array([2.0, 4.0]))
    for D, match in ((None, "design vector"), (np.array([2.0, 4.0, 1.0]), "design parameters")):
        with pytest.raises(ValueError, match=match):
            fem.invert_orientation(mesh, dataclasses.replace(cfg, D=D), model, restarts=1,
                                   max_evals=5)
    odd = dataclasses.replace(cfg, lengths=(3.0, 1.0, 1.0), divisions=(3, 1, 1))
    with pytest.raises(ValueError, match="no node column at midspan"):
        fem.invert_orientation(fem.box_mesh(odd.lengths, odd.divisions), odd, model, restarts=1,
                               max_evals=5)


def test_orientation_search_repairs_a_start_axis_near_zero_and_scores_a_zero_axis_inf(
        monkeypatch):
    """A start whose axis coordinates are all near zero is moved onto a
    fixed axis; a candidate with a zero axis scores inf without a solve."""
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=1,
                        D=np.array([2.0, 4.0]))
    seen = []

    class MidBox:  # every draw lands on the middle of the box: axis coordinates 0
        def random(self, n):
            return np.full(n, 0.5)

    def probe(objective, x0, **kwargs):
        seen.append((x0.copy(), objective(np.array([1.0, 0.0, 0.0, 0.0]))))
        return inverse.OptimizeResult(x0, objective(x0), 2, 1, "probe", [])

    model = tiny_model("transiso", seed=9)
    monkeypatch.setattr(fem.np.random, "default_rng", lambda seed: MidBox())
    monkeypatch.setattr(inverse, "nelder_mead", probe)
    fit = fem.invert_orientation(mesh, cfg, model, restarts=1)
    (x0, zero_axis), = seen
    assert np.array_equal(x0, [np.pi / 2, 0.3, 0.3, 0.9])
    assert zero_axis == np.inf
    assert np.isfinite(fit.objective)


@pytest.mark.parametrize("target", ["assemble", "_tangent"])
def test_a_candidates_failed_attempt_is_cut_back_within_the_search(monkeypatch, target):
    """A non-finite network input at the first assembly of load step 2, or a
    non-finite tangent, fails that Newton attempt only: the increment is cut
    back and the search returns."""
    model = tiny_model("transiso", seed=9)
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=2,
                        D=np.array([2.0, 4.0]))
    dofs, values = fem.beam_bc(mesh, cfg.u0)
    dip = np.argmax(np.abs(values))
    fired = []

    def once(*args, _inner=getattr(fem, target), **kwargs):
        if fired:
            return _inner(*args, **kwargs)
        if target == "assemble":
            if args[4][dofs[dip]] == values[dip]:  # the full dip: load step 2
                fired.append(target)
                raise ValueError("non-finite network input")
            return _inner(*args, **kwargs)
        fired.append(target)
        K = _inner(*args, **kwargs).copy()
        K.data[:] = np.nan
        return K

    monkeypatch.setattr(fem, target, once)
    fit = fem.invert_orientation(mesh, cfg, model, restarts=2, seed=14, max_evals=20, tol=1e-3)
    assert fired == [target]
    assert np.isfinite(fit.objective) and len(fit.restarts) == 2


def test_invert_orientation_iso_is_insensitive():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("iso", seed=11)
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05,
                        n_steps=2, D=np.array([2.0, 3.0]))
    fit = fem.invert_orientation(mesh, cfg, model)
    assert fit.insensitive
    assert fit.objective > 0.0
    assert fit.report()["insensitive"] is True


def test_invert_orientation_raises_when_every_solve_fails():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    model = tiny_model("transiso", seed=9)
    # one Newton iteration never reaches this tolerance, so every solve fails
    cfg = fem.FemConfig(lengths=(2.0, 1.0, 1.0), divisions=(2, 1, 1), u0=0.05, n_steps=1,
                        tol=1e-300, max_iter=1, D=np.array([2.0, 4.0]))
    with pytest.raises(RuntimeError, match="no finite values on the initial simplex"):
        fem.invert_orientation(mesh, cfg, model, restarts=2, seed=14, max_evals=10)


# ---------------------------------------------------------------------------
# output


def test_write_vtk(tmp_path):
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    u = 0.01 * np.arange(mesh.n_dof, dtype=float).reshape(-1, 3)
    path = tmp_path / "out.vtk"
    fem.write_vtk(path, mesh, u=u, cell_data={"von_mises": np.arange(2.0)})
    text = path.read_text().splitlines()
    assert text[0] == fem.VTK_HEADER
    assert f"POINTS {mesh.n_nodes} double" in text
    assert "VECTORS displacement double" in text
    assert "SCALARS von_mises double 1" in text
    assert text.count("12") >= 2


def test_fem_config_rejects_non_finite_lengths_and_tolerance():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lengths"):
            fem.FemConfig(lengths=(bad, 1.0, 1.0))
    with pytest.raises(ValueError, match="tolerance must be finite"):
        fem.FemConfig(tol=np.nan)


@pytest.mark.parametrize("field, value", [("lengths", (4.0, 1.0)), ("divisions", (8, 2)),
                                          ("divisions", (8.5, 2, 2))])
def test_fem_config_names_a_malformed_geometry_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        fem.FemConfig(**{field: value})


@pytest.mark.parametrize("p_raw", [[1.0, 0.0], [1.0, np.nan, 0.0], [[1.0, 0.0, 0.0]], ["x", "y", "z"]])
def test_fem_config_names_a_malformed_rotation_axis(p_raw):
    with pytest.raises(ValueError, match="^p_raw must hold 3 finite numbers"):
        fem.FemConfig(phi=0.3, p_raw=p_raw)


def test_quadrature_rejects_nan_jacobians():
    mesh = fem.box_mesh((2.0, 1.0, 1.0), (2, 1, 1))
    mesh.nodes[-1, 0] = np.nan
    with pytest.raises(ValueError, match="Jacobians"):
        fem.precompute_quadrature(mesh)
