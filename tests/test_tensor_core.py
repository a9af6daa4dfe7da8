import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from anisoforge import tensor_core as tc
from util import rand_spd, rand_rotation, fd_grad_wrt_C, rel_err, default_structure_tensors


def test_rodrigues_quarter_turn_about_e3():
    R = tc.rotation_from_axis_angle(np.pi / 2, [0.0, 0.0, 1.0])
    assert np.allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)
    assert np.allclose(R @ np.array([0.0, 1, 0]), [-1, 0, 0], atol=1e-12)


def test_rodrigues_orthonormal_and_zero_angle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.uniform(0, np.pi)
        p = rng.standard_normal(3)
        R = tc.rotation_from_axis_angle(phi, p)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)
    assert np.allclose(tc.rotation_from_axis_angle(0.0, [0, 1, 0]), np.eye(3))
    with pytest.raises(ValueError):
        tc.rotation_from_axis_angle(1.0, [0.0, 0.0, 0.0])


def test_axis_angle_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        phi = rng.uniform(1e-3, np.pi - 1e-3)
        p = rng.standard_normal(3)
        p /= np.linalg.norm(p)
        R = tc.rotation_from_axis_angle(phi, p)
        phi2, p2 = tc.axis_angle_from_rotation(R)
        R2 = tc.rotation_from_axis_angle(phi2, p2)
        assert np.max(np.abs(R - R2)) < 1e-10
    # half-turn edge case
    R = tc.rotation_from_axis_angle(np.pi, [1 / np.sqrt(2), 1 / np.sqrt(2), 0])
    phi2, p2 = tc.axis_angle_from_rotation(R)
    assert np.max(np.abs(tc.rotation_from_axis_angle(phi2, p2) - R)) < 1e-8


@pytest.mark.parametrize("phi", [0.0, 1e-9, np.pi - 1e-7, np.pi])
@pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [1.0, -2.0, 0.5], [-0.3, 0.4, -1.0]])
def test_axis_angle_round_trip_near_no_turn_and_a_half_turn(phi, axis):
    """Near phi = 0 the axis is e3; near pi it is read off the symmetric
    part, with the signs of the off-diagonal products."""
    R = tc.rotation_from_axis_angle(phi, axis)
    phi2, p2 = tc.axis_angle_from_rotation(R)
    assert 0.0 <= phi2 <= np.pi
    if phi < 1e-8:
        assert phi2 == 0.0 and np.array_equal(p2, [0.0, 0.0, 1.0])
    assert np.max(np.abs(tc.rotation_from_axis_angle(phi2, p2) - R)) <= 2e-7


def test_structure_tensors_orthogonal_unit_trace():
    N1, N2, R = tc.structure_tensors(0.73, [0.2, -1.1, 0.4])
    for N in (N1, N2):
        assert np.isclose(np.trace(N), 1.0, atol=1e-12)
        assert np.allclose(N, N.T)
        assert np.allclose(N @ N, N, atol=1e-12)  # projector
    assert np.allclose(N1 @ N2, np.zeros((3, 3)), atol=1e-12)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)


def test_default_directions_orthonormal():
    assert np.isclose(np.linalg.norm(tc.DEFAULT_N1), 1.0)
    assert np.isclose(np.linalg.norm(tc.DEFAULT_N2), 1.0)
    assert np.isclose(tc.DEFAULT_N1 @ tc.DEFAULT_N2, 0.0, atol=1e-15)


def test_cofactor_det_inv_against_numpy():
    rng = np.random.default_rng(2)
    C = rand_spd(rng, 64)
    assert np.allclose(tc.det_sym(C), np.linalg.det(C), rtol=1e-12)
    assert np.allclose(tc.inv_sym(C), np.linalg.inv(C), rtol=1e-9, atol=1e-12)
    cof_ref = np.linalg.det(C)[:, None, None] * np.linalg.inv(C)
    assert np.allclose(tc.cofactor_sym(C), cof_ref, rtol=1e-9, atol=1e-12)


def test_cofactor_finite_for_singular_input():
    C = np.diag([1.0, 1.0, 0.0])  # rank-deficient
    cof = tc.cofactor_sym(C)
    assert np.all(np.isfinite(cof))
    assert np.allclose(cof, np.diag([0.0, 0.0, 1.0]))


def test_invariants_identity_and_spheres():
    N1, N2 = default_structure_tensors()
    I = tc.invariants(np.eye(3), (N1, N2))
    assert np.allclose(I, [3, 3, 1, -2, 1, 1, 1, 1], atol=1e-14)
    # C = diag(4,1,1): iso entries
    I = tc.invariants(np.diag([4.0, 1.0, 1.0]), (N1, N2))
    assert np.allclose(I[:4], [6.0, 9.0, 2.0, -4.0], atol=1e-12)


def test_invariants_alpha_scaling_and_masking():
    rng = np.random.default_rng(4)
    C = rand_spd(rng)
    N1, N2 = default_structure_tensors()
    I_full = tc.invariants(C, (0.3 * N1, 0.7 * N2))
    I_unit = tc.invariants(C, (N1, N2))
    assert np.allclose(I_full[4:6], 0.3 * I_unit[4:6])
    assert np.allclose(I_full[6:8], 0.7 * I_unit[6:8])
    assert tc.invariants(C).shape == (4,)
    assert tc.invariants(C, (N1,)).shape == (6,)


def test_reference_invariants():
    N1, N2 = default_structure_tensors()
    scale = np.repeat([1.0, 1.0, 0.25, 0.5], 2)
    assert np.allclose(tc.reference_invariants((N1, N2)) * scale,
                       [3, 3, 1, -2, 0.25, 0.25, 0.5, 0.5])
    assert np.allclose(tc.reference_invariants(), [3, 3, 1, -2])


def test_invariants_objectivity_kernel_identity():
    rng = np.random.default_rng(5)
    N1, N2 = default_structure_tensors()
    for _ in range(100):
        C = rand_spd(rng)
        Q = rand_rotation(rng)
        I0 = tc.invariants(C, (0.8 * N1, 0.6 * N2))
        I1 = tc.invariants(Q.T @ C @ Q, (0.8 * Q.T @ N1 @ Q, 0.6 * Q.T @ N2 @ Q))
        assert np.max(np.abs(I0 - I1)) < 1e-10


def test_reference_bases_identity_values():
    N1, N2 = default_structure_tensors()
    B = tc.reference_bases((N1, N2))
    assert np.allclose(B[0], np.eye(3))
    assert np.allclose(B[1], 2 * np.eye(3))
    assert np.allclose(B[2], 0.5 * np.eye(3))
    assert np.allclose(B[3], -np.eye(3))
    assert np.allclose(B[4], N1)
    assert np.allclose(B[5], np.eye(3) - N1)
    assert np.allclose(B[6], N2)
    assert np.allclose(B[7], np.eye(3) - N2)
    # consistency with the general-C code path at C = I
    Bg = tc.invariant_bases(np.eye(3), (N1, N2))
    assert np.max(np.abs(B - Bg)) < 1e-14


def test_per_row_structure_tensors_match_one_call_per_row():
    rng = np.random.default_rng(31)
    C = rand_spd(rng, 5)
    R = rand_rotation(rng, 5)
    N1 = np.einsum("bi,bj->bij", R[:, :, 0], R[:, :, 0])
    N2 = 0.7 * np.einsum("bi,bj->bij", R[:, :, 1], R[:, :, 1])
    I = tc.invariants(C, (N1, N2))
    Bu = tc.invariant_bases(C, (N1, N2))
    Bref = tc.reference_bases((N1, N2))
    assert I.shape == (5, 8) and Bu.shape == Bref.shape == (5, 8, 3, 3)
    for b in range(5):
        assert np.max(np.abs(I[b] - tc.invariants(C[b], (N1[b], N2[b])))) < 1e-14
        assert np.max(np.abs(Bu[b] - tc.invariant_bases(C[b], (N1[b], N2[b])))) < 1e-14
        assert np.array_equal(Bref[b], tc.reference_bases((N1[b], N2[b])))


def test_basis_example_trC_I_minus_C():
    C = np.diag([4.0, 1.0, 1.0])
    B = tc.invariant_bases(C)
    assert np.allclose(B[1], np.diag([2.0, 5.0, 5.0]), atol=1e-13)


def test_bases_match_fd_of_invariants():
    rng = np.random.default_rng(6)
    N1, N2 = default_structure_tensors()
    a1, a2 = 0.9, 0.4
    for _ in range(40):
        C = rand_spd(rng)
        B = tc.invariant_bases(C, (a1 * N1, a2 * N2))
        for i in range(8):
            g = fd_grad_wrt_C(lambda X: tc.invariants(X, (a1 * N1, a2 * N2))[i], C)
            assert rel_err(B[i], g) < 1e-6, f"basis {i} FD mismatch"


def test_second_derivatives_match_fd_of_bases():
    rng = np.random.default_rng(7)
    N1, N2 = default_structure_tensors()
    a1, a2 = 0.7, 0.55
    for _ in range(10):
        C = rand_spd(rng)
        D2 = tc.invariant_second_derivatives(C, (a1 * N1, a2 * N2))
        for i in (1, 2, 3, 5, 7):
            for k in range(3):
                for l in range(3):
                    g = fd_grad_wrt_C(
                        lambda X: tc.invariant_bases(X, (a1 * N1, a2 * N2))[i, k, l], C
                    )
                    assert np.allclose(D2[i, k, l], g, rtol=1e-5, atol=1e-8)
        for i in (0, 4, 6):
            assert np.all(D2[i] == 0.0)


def test_second_derivatives_major_symmetry():
    rng = np.random.default_rng(8)
    N1, N2 = default_structure_tensors()
    C = rand_spd(rng)
    D2 = tc.invariant_second_derivatives(C, (N1, N2))
    for i in range(8):
        assert np.max(np.abs(D2[i] - D2[i].transpose(2, 3, 0, 1))) < 1e-10
        assert np.max(np.abs(D2[i] - D2[i].transpose(1, 0, 2, 3))) < 1e-10


def test_sym6_round_trip_and_voigt_weights():
    rng = np.random.default_rng(9)
    A = rand_spd(rng, 5)
    assert np.allclose(tc.sym_from_6(tc.sym_to_6(A)), A)
    # packed double contraction with weights equals full contraction
    B = rand_spd(rng, 5)
    full = np.einsum("bij,bij->b", A, B)
    packed = np.einsum("bk,bk->b", tc.sym_to_6(A) * tc.VOIGT_WEIGHTS, tc.sym_to_6(B))
    assert np.allclose(full, packed)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(A=hnp.arrays(float, st.tuples(st.integers(0, 3), st.just(3), st.just(3)),
                    elements=st.floats(allow_nan=False)))
def test_sym6_round_trip_is_exact(A):
    S = np.where(np.triu(np.ones((3, 3), bool)), A, A.swapaxes(-1, -2))  # symmetric copy
    v = tc.sym_to_6(S)
    assert tc.sym_from_6(v).tobytes() == S.tobytes()
    assert tc.sym_to_6(tc.sym_from_6(v)).tobytes() == v.tobytes()


def test_sym_from_6_and_cofactor_return_c_contiguous_arrays():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((6, 4, 5)).transpose(1, 2, 0)  # a strided view
    assert tc.sym_from_6(v).flags.c_contiguous
    assert tc.sym_from_6(np.ascontiguousarray(v)).flags.c_contiguous
    assert tc.cofactor_sym(rand_spd(rng, 20)).flags.c_contiguous


def test_tensor4_66_round_trip_and_apply():
    rng = np.random.default_rng(10)
    N1, N2 = default_structure_tensors()
    C = rand_spd(rng)
    T = tc.invariant_second_derivatives(C, (N1, N2))[2]  # d2 J / dC2
    M = tc.tensor4_to_66(T)
    assert np.max(np.abs(tc.tensor4_from_66(M) - T)) < 1e-14


def test_is_spd_and_check_metric():
    assert tc.is_spd(np.eye(3))
    assert not tc.is_spd(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="positive definite"):
        tc.check_metric(np.diag([1.0, -2.0, 1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        tc.check_metric(np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="finite"):
        tc.check_metric(np.diag([np.nan, 1.0, 1.0]))


def test_rotation_from_direction_pair():
    R = tc.rotation_from_direction_pair(tc.DEFAULT_N1, tc.DEFAULT_N2)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.allclose(R[:, 0], tc.DEFAULT_N1)
    assert np.allclose(R[:, 1], tc.DEFAULT_N2)
    assert np.isclose(np.linalg.det(R), 1.0)
    with pytest.raises(ValueError, match="orthogonal"):
        tc.rotation_from_direction_pair([1, 0, 0], [1, 1, 0])
    for bad in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="nonzero finite"):
            tc.rotation_from_direction_pair(bad, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero finite"):
            tc.rotation_from_direction_pair([0.0, 1.0, 0.0], bad)


orientations = st.lists(
    st.tuples(st.floats(-7.0, 7.0),
              st.tuples(*[st.floats(-1e3, 1e3)] * 3).filter(lambda p: np.linalg.norm(p) > 1e-6)),
    min_size=1, max_size=8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(batch=orientations)
def test_batched_structure_tensors_match_one_call_per_orientation(batch):
    """A stack of orientations gives, entry by entry, the bits of the call for that orientation."""
    phi = np.array([o[0] for o in batch])
    p = np.array([o[1] for o in batch])
    stacks = tc.structure_tensors(phi, p)
    assert [S.shape for S in stacks] == [(len(batch), 3, 3)] * 3
    for i in range(len(batch)):
        for S, one in zip(stacks, tc.structure_tensors(float(phi[i]), p[i])):
            assert S[i].tobytes() == one.tobytes()


def test_batched_structure_tensors_reject_a_zero_axis():
    p = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 3))
    phi = np.linspace(0.1, 2.0, 5)
    tc.structure_tensors(phi, p)
    for bad in ([0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0]):
        p[2] = bad
        with pytest.raises(ValueError, match="nonzero finite"):
            tc.structure_tensors(phi, p)


adjoint_seeds = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
    lambda v: np.reshape(v, (3, 3)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(phi=st.floats(0.0, np.pi),
       p_raw=st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda p: np.linalg.norm(p) > 0.2),
       dN1=adjoint_seeds, dN2=adjoint_seeds, transiso=st.booleans())
def test_structure_tensors_vjp_matches_central_differences(phi, p_raw, dN1, dN2, transiso):
    """(dL/dphi, dL/dp_raw) of L = dN1 : N1 + dN2 : N2, with dN2 = 0 for one tensor."""
    dNs = [dN1] if transiso else [dN1, dN2]
    p_raw = np.array(p_raw)

    def L(phi, p):
        return sum(np.vdot(dN, N) for dN, N in zip(dNs, tc.structure_tensors(phi, p)))

    got_phi, got_p = tc.structure_tensors_vjp(phi, p_raw, tc.structure_tensors(phi, p_raw)[2], dNs)
    h = 1e-6
    fd_phi = (L(phi + h, p_raw) - L(phi - h, p_raw)) / (2 * h)
    fd_p = np.array([(L(phi, p_raw + h * e) - L(phi, p_raw - h * e)) / (2 * h) for e in np.eye(3)])
    assert abs(got_phi - fd_phi) <= 1e-7 * (1.0 + abs(fd_phi))
    assert np.max(np.abs(got_p - fd_p)) <= 1e-7 * (1.0 + np.max(np.abs(fd_p)))
    if transiso:
        padded = tc.structure_tensors_vjp(phi, p_raw, tc.structure_tensors(phi, p_raw)[2],
                                          [dN1, np.zeros((3, 3))])
        assert padded[0] == got_phi and np.array_equal(padded[1], got_p)
