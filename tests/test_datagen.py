"""Reference materials, deformation samplers, dataset files, isotropy probe."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from anisoforge import datagen as dg
from anisoforge import tensor_core as tc

from util import fd_grad_wrt_C, rand_spd, rel_err


# ---------------------------------------------------------------------------
# closed-form materials


MATERIALS = [
    dg.NeoHookean(2.0, 3.5),
    dg.Hgo(1.5, 4.0, 0.0),
    dg.Hgo(1.5, 4.0, 3.0),
]


@pytest.mark.parametrize("mat", MATERIALS, ids=lambda m: type(m).__name__ + str(MATERIALS.index(m)))
def test_stress_free_reference(mat):
    assert np.allclose(mat.stress(np.eye(3)), 0.0, atol=1e-12)
    assert abs(mat.psi(np.eye(3))) < 1e-12


@pytest.mark.parametrize("mat", MATERIALS, ids=lambda m: type(m).__name__ + str(MATERIALS.index(m)))
def test_stress_is_energy_gradient(mat):
    rng = np.random.default_rng(3)
    for _ in range(5):
        C = rand_spd(rng, spread=0.15)
        S = mat.stress(C)
        S_fd = 2.0 * fd_grad_wrt_C(mat.psi, C)
        assert rel_err(S, S_fd) < 2e-6


def test_materials_batch_like_single():
    rng = np.random.default_rng(4)
    C = np.stack([rand_spd(rng) for _ in range(6)])
    for mat in MATERIALS:
        S = mat.stress(C)
        psi = mat.psi(C)
        assert S.shape == (6, 3, 3) and psi.shape == (6,)
        assert np.allclose(S[2], mat.stress(C[2]))
        assert np.isclose(psi[2], mat.psi(C[2]))


def test_hgo_second_family_toggle():
    rng = np.random.default_rng(5)
    C = rand_spd(rng, spread=0.2)
    off = dg.Hgo(1.5, 4.0, 0.0)
    on = dg.Hgo(1.5, 4.0, 3.0)
    N2 = np.outer(tc.DEFAULT_N2, tc.DEFAULT_N2)
    i6 = np.einsum("ij,ij->", C, N2)
    expected = 8.0 * 3.0 * (i6 - 1.0) ** 3 * np.exp(3.0 * (i6 - 1.0) ** 4) * N2
    assert np.allclose(on.stress(C) - off.stress(C), expected, atol=1e-12)
    # the two fiber families sit along distinct directions
    assert abs(np.dot(tc.DEFAULT_N1, tc.DEFAULT_N2)) < 1e-12


def test_material_for_class():
    iso = dg.material_for_class("iso", {"c1": 1.0, "c2": 2.0})
    assert isinstance(iso, dg.NeoHookean)
    tr = dg.material_for_class("transiso", {"c1": 1.0, "c4": 4.0})
    assert isinstance(tr, dg.Hgo) and tr.c5 == 0.0
    ortho = dg.material_for_class("ortho", {"c1": 1.0, "c4": 4.0, "c5": 2.0})
    assert isinstance(ortho, dg.Hgo) and ortho.c5 == 2.0
    with pytest.raises(ValueError, match="unknown anisotropy class"):
        dg.material_for_class("cubic", {})


# ---------------------------------------------------------------------------
# samplers


def test_lhs_bounds_and_determinant():
    F = dg.sample_F_lhs(260, delta=0.2, seed=1)
    assert F.shape == (260, 3, 3)
    dev = F - np.eye(3)
    assert np.all(np.abs(dev) <= 0.2 + 1e-12)
    assert np.all(np.linalg.det(F) > 0.1)


def test_lhs_deterministic():
    a = dg.sample_F_lhs(40, seed=7)
    b = dg.sample_F_lhs(40, seed=7)
    assert np.array_equal(a, b)
    c = dg.sample_F_lhs(40, seed=8)
    assert not np.array_equal(a, c)


def test_lhs_zero_delta_gives_identity():
    F = dg.sample_F_lhs(10, delta=0.0, seed=0)
    assert np.allclose(F, np.eye(3), atol=1e-15)


def test_lhs_input_validation():
    with pytest.raises(ValueError, match="count"):
        dg.sample_F_lhs(0)
    with pytest.raises(ValueError, match="delta"):
        dg.sample_F_lhs(5, delta=1.0)
    with pytest.raises(ValueError, match="delta"):
        dg.sample_F_lhs(5, delta=-0.1)


def test_dedupe_zero_tol_keeps_all():
    rng = np.random.default_rng(12)
    C = np.stack([rand_spd(rng) for _ in range(4)])
    stacked = np.concatenate([C, C], axis=0)
    keep = dg.dedupe_invariant_space(stacked, "iso", tol=0.0)
    assert keep.size == 8


def test_lhs_stratification():
    # one sample per bin and component by the Latin hypercube property
    n = 260
    F = dg.sample_F_lhs(n, delta=0.2, seed=3)
    flat = F.reshape(n, 9) - np.eye(3).ravel()
    bins = np.floor((flat + 0.2) / 0.4 * n).astype(int)
    for j in range(9):
        assert len(np.unique(bins[:, j])) == n


def test_lhs_redraw_exhaustion():
    with pytest.raises(RuntimeError, match="redraws"):
        dg.sample_F_lhs(50, delta=0.9, seed=0, det_min=0.99, max_tries=3)


def test_polar_singular_values_in_bounds():
    F = dg.sample_F_polar(80, stretch_bounds=(0.8, 1.45), seed=2)
    sv = np.linalg.svd(F, compute_uv=False)
    assert np.all(sv >= 0.8 - 1e-9) and np.all(sv <= 1.45 + 1e-9)
    assert np.all(np.linalg.det(F) > 0)


def test_polar_unit_bounds_give_rotations():
    F = dg.sample_F_polar(20, stretch_bounds=(1.0, 1.0), seed=2)
    sv = np.linalg.svd(F, compute_uv=False)
    assert np.allclose(sv, 1.0, atol=1e-12)


def test_polar_invalid_bounds():
    with pytest.raises(ValueError, match="stretch bounds"):
        dg.sample_F_polar(5, stretch_bounds=(0.0, 1.0))


# ---------------------------------------------------------------------------
# invariant-space dedup


def test_dedupe_drops_exact_copies():
    rng = np.random.default_rng(9)
    C = np.stack([rand_spd(rng) for _ in range(5)])
    stacked = np.concatenate([C, C[[1, 3]]], axis=0)
    keep = dg.dedupe_invariant_space(stacked, "iso")
    assert np.array_equal(keep, np.arange(5))


def test_dedupe_catches_rotated_isotropic_duplicates():
    rng = np.random.default_rng(10)
    C = rand_spd(rng)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    rotated = Q @ C @ Q.T
    keep = dg.dedupe_invariant_space(np.stack([C, rotated]), "iso", tol=1e-8)
    assert np.array_equal(keep, [0])
    # the rotation changes fiber invariants, so higher classes keep both
    keep = dg.dedupe_invariant_space(np.stack([C, rotated]), "ortho", tol=1e-8)
    assert np.array_equal(keep, [0, 1])


def test_dedupe_first_seen_wins():
    rng = np.random.default_rng(11)
    C = rand_spd(rng)
    other = rand_spd(rng)
    keep = dg.dedupe_invariant_space(np.stack([C, other, C]), "transiso")
    assert np.array_equal(keep, [0, 1])


# ---------------------------------------------------------------------------
# dataset assembly and files


def test_default_grid_ranges():
    names, pts = dg.design_grid(dg.DataConfig(aniso_class="ortho", grid_points=3))
    assert names == ["c1", "c4", "c5"]
    assert pts.shape == (27, 3)
    assert pts[:, 0].min() == 1.0 and pts[:, 0].max() == 5.0
    assert pts[:, 1].min() == 3.0 and pts[:, 1].max() == 7.0
    assert pts[:, 2].min() == 2.0 and pts[:, 2].max() == 6.0



@pytest.mark.parametrize("setting, match", [
    ({"aniso_class": "foo"}, "unknown anisotropy class 'foo'"),
    ({"sampler": "sobol"}, "unknown sampler 'sobol'"),
    ({"grid_points": 0}, "grid_points must be at least 1"),
    ({"dedupe_tol": np.nan}, "dedupe_tol must be finite"),
    ({"dedupe_tol": np.inf}, "dedupe_tol must be finite"),
    ({"dedupe_tol": -1e-8}, "dedupe_tol must be finite and nonnegative"),
])
def test_data_config_rejects_bad_settings(setting, match):
    # these used to fail later with a KeyError, a numpy concatenate error, or
    # (a NaN dedupe_tol) not at all, keeping every duplicate
    with pytest.raises(ValueError, match=match):
        dg.DataConfig(**setting)


def test_data_config_rejects_empty_deformation_sets():
    # the polar sampler used to write a dataset of 0 records, and n_f < 0
    # failed inside numpy
    for n_f in (0, -3):
        for sampler in ("lhs", "polar"):
            with pytest.raises(ValueError, match=f"n_f must be at least 1, got {n_f}"):
                dg.DataConfig(n_f=n_f, sampler=sampler)


def test_data_config_accepts_edge_settings():
    assert len(dg.build_dataset(dg.DataConfig(grid_points=1, n_f=3, dedupe=True, dedupe_tol=0.0))) == 3

def test_build_counts_shared_deformations():
    cfg = dg.DataConfig(aniso_class="iso", grid_points=5, n_f=20, seed=1)
    ds = dg.build_dataset(cfg)
    assert len(ds) == 25 * 20
    assert ds.param_names == ["c1", "c2"]
    # every design point sees the same metric block
    assert np.array_equal(ds.C[:20], ds.C[20:40])
    # stresses come from the closed form at the matching design point
    mat = dg.NeoHookean(*ds.D[37])
    assert np.allclose(ds.S[37], mat.stress(ds.C[37]), atol=1e-12)


def test_build_independent_deformations_differ():
    cfg = dg.DataConfig(aniso_class="iso", grid_points=2, n_f=10, independent_f=True)
    ds = dg.build_dataset(cfg)
    assert not np.array_equal(ds.C[:10], ds.C[10:20])


def test_build_custom_grid():
    cfg = dg.DataConfig(
        aniso_class="ortho",
        grid={"c1": [3.0], "c4": [3.0, 5.0, 7.0], "c5": [2.0, 4.0, 6.0]},
        n_f=15,
    )
    ds = dg.build_dataset(cfg)
    assert len(ds) == 9 * 15
    assert np.all(ds.D[:, 0] == 3.0)
    assert ds.meta["n1"] == tc.DEFAULT_N1.tolist()


def test_dataset_roundtrip_exact(tmp_path):
    cfg = dg.DataConfig(aniso_class="transiso", grid_points=2, n_f=8, seed=5)
    ds = dg.build_dataset(cfg)
    path = tmp_path / "set.txt"
    dg.save_dataset(ds, path)
    back = dg.load_dataset(path)
    assert np.array_equal(back.D, ds.D)
    assert np.array_equal(back.C, ds.C)
    assert np.array_equal(back.S, ds.S)
    assert back.param_names == ds.param_names
    assert back.meta["class"] == "transiso"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_dataset_round_trip_property(tmp_path_factory, data):
    """save_dataset -> load_dataset returns every float bit for bit."""
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    D = data.draw(hnp.arrays(float, (n, m), elements=finite))
    S = tc.sym_from_6(data.draw(hnp.arrays(float, (n, 6), elements=finite)))
    # diagonally dominant, hence positive definite
    diag = data.draw(hnp.arrays(float, (n, 3), elements=st.floats(1.0, 2.0)))
    off = data.draw(hnp.arrays(float, (n, 3), elements=st.floats(-0.3, 0.3)))
    C = tc.sym_from_6(np.hstack([diag, off]))
    ds = dg.Dataset(D, C, S, [f"p{i}" for i in range(m)], {"class": "iso"})
    path = tmp_path_factory.mktemp("roundtrip") / "set.txt"
    dg.save_dataset(ds, path)
    back = dg.load_dataset(path)
    for got, want in ((back.D, D), (back.C, C), (back.S, S)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert back.param_names == ds.param_names
    assert back.meta == {"class": "iso"}


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="bad magic"):
        dg.load_dataset(path)


def test_load_rejects_wrong_columns(tmp_path):
    cfg = dg.DataConfig(aniso_class="iso", grid_points=2, n_f=4)
    ds = dg.build_dataset(cfg)
    path = tmp_path / "set.txt"
    dg.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1] + " 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="columns"):
        dg.load_dataset(path)


def test_load_rejects_record_count_mismatch(tmp_path):
    cfg = dg.DataConfig(aniso_class="iso", grid_points=2, n_f=4)
    ds = dg.build_dataset(cfg)
    path = tmp_path / "set.txt"
    dg.save_dataset(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="records"):
        dg.load_dataset(path)


def test_load_rejects_short_rows_and_non_finite_entries(tmp_path):
    ds = dg.build_dataset(dg.DataConfig(aniso_class="iso", grid_points=2, n_f=4))
    path = tmp_path / "set.txt"
    dg.save_dataset(ds, path)
    header, *rows = path.read_text().splitlines()
    # every row one column short, so the file parses as a table of 13 columns
    path.write_text("\n".join([header] + [r.rsplit(" ", 1)[0] for r in rows]) + "\n")
    with pytest.raises(ValueError, match="expected 14 columns, found 13"):
        dg.load_dataset(path)
    rows[1] = "nan " + rows[1].split(" ", 1)[1]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match="non-finite"):
        dg.load_dataset(path)


@pytest.mark.filterwarnings("error::UserWarning")
def test_load_rejects_a_file_without_records(tmp_path):
    ds = dg.build_dataset(dg.DataConfig(aniso_class="iso", grid_points=2, n_f=4))
    path = tmp_path / "set.txt"
    dg.save_dataset(ds, path)
    header = path.read_text().splitlines()[0]
    for body in ("", "\n\n", "# a note\n"):
        path.write_text(header + "\n" + body)
        with pytest.raises(ValueError, match="holds no records"):
            dg.load_dataset(path)


# ---------------------------------------------------------------------------
# isotropy probe


def test_probe_flags_isotropic_material():
    mat = dg.NeoHookean(2.0, 3.0)
    report = dg.isotropy_probe(mat.stress)
    assert report.max_deviation < 1e-10
    assert report.magnitudes.shape == (6, 13)


def test_probe_flags_fiber_material():
    mat = dg.Hgo(1.5, 4.0, 3.0)
    report = dg.isotropy_probe(mat.stress)
    assert report.max_deviation > 1e-2
