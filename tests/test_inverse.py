"""Derivative-free optimizers and design recovery from stress observations."""

import warnings

import numpy as np
import pytest

from anisoforge import datagen as dg
from anisoforge import energy, inverse, training
from anisoforge import tensor_core as tc


def sphere(x):
    return float(np.sum(x**2))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


# ---------------------------------------------------------------------------
# CMA-ES


def test_cma_sphere():
    res = inverse.cma_es(sphere, np.full(4, 2.0), 0.5, max_evals=5000, f_target=1e-10, seed=1)
    assert res.fun <= 1e-10
    assert res.n_evals <= 5000
    assert np.all(np.abs(res.x) < 1e-4)


def test_cma_rosenbrock():
    res = inverse.cma_es(rosenbrock, np.zeros(2), 0.3, max_evals=20000, f_target=1e-6, seed=2)
    assert res.fun <= 1e-6
    assert np.allclose(res.x, 1.0, atol=1e-2)


def test_cma_deterministic():
    a = inverse.cma_es(sphere, np.ones(3), 0.4, max_evals=600, seed=5)
    b = inverse.cma_es(sphere, np.ones(3), 0.4, max_evals=600, seed=5)
    assert np.array_equal(a.x, b.x) and a.fun == b.fun
    c = inverse.cma_es(sphere, np.ones(3), 0.4, max_evals=600, seed=6)
    assert not np.array_equal(a.x, c.x)


def test_cma_respects_bounds():
    bounds = np.array([[1.0, 3.0], [1.0, 3.0]])
    res = inverse.cma_es(sphere, np.array([2.5, 2.5]), 0.5, bounds=bounds,
                         max_evals=2000, seed=3)
    assert np.all(res.x >= 1.0 - 1e-12) and np.all(res.x <= 3.0 + 1e-12)
    # the constrained minimum of the sphere sits at the lower corner
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-3)


def test_cma_nan_regions_are_skirted():
    def holey(x):
        if x[0] < 0.0:
            return np.nan
        return sphere(x - 1.0)

    res = inverse.cma_es(holey, np.array([3.0, 3.0]), 0.5, max_evals=4000, f_target=1e-8, seed=4)
    assert res.fun <= 1e-8


def test_cma_all_nan_raises():
    with pytest.raises(RuntimeError, match="no finite values"):
        inverse.cma_es(lambda x: np.nan, np.zeros(2), 0.5, max_evals=100, seed=0)


def test_cma_rejects_bad_arguments():
    for sigma0 in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma0"):
            inverse.cma_es(sphere, np.zeros(2), sigma0, max_evals=100)
    with pytest.raises(ValueError, match="popsize"):
        inverse.cma_es(sphere, np.zeros(2), 0.5, max_evals=100, popsize=1)
    # n = 2 gives the default popsize 6: no generation would run
    with pytest.raises(ValueError, match="max_evals"):
        inverse.cma_es(sphere, np.zeros(2), 0.5, max_evals=5)
    # a zero-width design box gives sigma0 = 0, which stays allowed
    assert inverse.cma_es(sphere, np.ones(2), 0.0, max_evals=100).fun == sphere(np.ones(2))


def test_cma_vectorized_matches_scalar_run():
    def batched_sphere(X):
        return np.sum(X**2, axis=1)

    for bounds in (None, [[0.5, 3.0]] * 3):
        a = inverse.cma_es(sphere, np.ones(3), 0.4, bounds=bounds, max_evals=600, seed=5)
        b = inverse.cma_es(batched_sphere, np.ones(3), 0.4, bounds=bounds, max_evals=600, seed=5,
                           vectorized=True)
        assert np.array_equal(a.x, b.x) and a.fun == b.fun
        assert (a.n_evals, a.n_iters, a.stop, a.history) == (b.n_evals, b.n_iters, b.stop, b.history)


def test_cma_history_monotone():
    res = inverse.cma_es(sphere, np.ones(3), 0.3, max_evals=900, seed=7)
    fb = [f for _, f in res.history]
    assert all(b <= a + 1e-300 for a, b in zip(fb, fb[1:]))
    evals = [e for e, _ in res.history]
    assert evals == sorted(evals)


def test_cma_stop_reasons():
    res = inverse.cma_es(sphere, np.ones(2), 0.3, max_evals=10**6, f_target=1e-9, seed=8)
    assert res.stop == "f_target"
    res = inverse.cma_es(lambda x: 0.0, np.ones(2), 0.3, max_evals=10**6, seed=8,
                         tol_stagnation=20)
    assert res.stop == "stagnation"


# ---------------------------------------------------------------------------
# Nelder-Mead


def test_nm_quadratic():
    res = inverse.nelder_mead(sphere, np.array([1.0, -2.0, 0.5]), step=0.5, tol=1e-12)
    assert res.fun < 1e-20
    assert np.all(np.abs(res.x) < 1e-10)


def test_nm_respects_bounds():
    bounds = np.array([[2.0, 5.0]])
    res = inverse.nelder_mead(sphere, np.array([4.0]), step=0.5, bounds=bounds, tol=1e-12)
    assert 2.0 - 1e-12 <= res.x[0] <= 5.0
    assert np.isclose(res.x[0], 2.0, atol=1e-6)


def test_nm_simplex_diameter_stop():
    res = inverse.nelder_mead(sphere, np.ones(2), step=0.3, tol=1e-8, max_evals=10**6)
    assert res.stop == "tol"


def test_nm_initial_simplex_respects_the_budget():
    points = []

    def f(x):
        points.append(x.copy())
        return float(x @ x)

    res = inverse.nelder_mead(f, np.ones(4), max_evals=2)
    assert res.n_evals == len(points) == 2
    assert res.stop == "max_evals"
    assert np.array_equal(res.x, np.ones(4)) and res.fun == 4.0
    with pytest.raises(ValueError, match="max_evals"):
        inverse.nelder_mead(f, np.ones(4), max_evals=0)


def test_nm_rosenbrock_local():
    res = inverse.nelder_mead(rosenbrock, np.array([-1.0, 1.0]), step=0.2,
                              max_evals=4000, tol=1e-14)
    assert res.fun < 1e-10


def test_nm_custom_coefficients():
    res = inverse.nelder_mead(sphere, np.array([1.0, -2.0]), step=0.4, tol=1e-12,
                              reflection=0.9, expansion=1.8, contraction=0.4, shrink=0.6)
    assert res.fun < 1e-18
    # degenerate expansion never improves on reflection but still converges
    res = inverse.nelder_mead(sphere, np.array([1.0, -2.0]), step=0.4, tol=1e-10,
                              expansion=1.0)
    assert res.fun < 1e-14


@pytest.mark.parametrize("optimizer, setting, match", [
    ("nm", {"step": np.nan}, "step must be finite"),
    ("nm", {"step": np.inf}, "step must be finite"),
    ("nm", {"step": 0.0}, "nonzero on every axis"),
    ("nm", {"step": [0.1, 0.0]}, "nonzero on every axis"),
    ("nm", {"reflection": np.nan}, "reflection must be finite"),
    ("nm", {"expansion": np.inf}, "expansion must be finite"),
    ("nm", {"contraction": np.nan}, "contraction must be finite"),
    ("nm", {"shrink": -np.inf}, "shrink must be finite"),
    ("nm", {"tol": np.nan}, "tol must be finite"),
    ("nm", {"f_target": np.nan}, "f_target must not be NaN"),
    ("cma", {"tol_x": np.nan}, "tol_x must not be NaN"),
    ("cma", {"f_target": np.nan}, "f_target must not be NaN"),
    ("invert", {"f_target": np.nan}, "f_target must not be NaN"),
    ("invert", {"options": {"tol_x": np.nan}}, "tol_x must not be NaN"),
    ("invert", {"method": "nelder-mead", "options": {"step": np.nan}}, "step must be finite"),
])
def test_optimizers_reject_bad_settings(optimizer, setting, match, trained_like_model):
    """Each of these used to spend the budget or stop at once and return a normal-looking result."""
    def f(x):
        return float(np.sum((x - 1.0) ** 2))

    with pytest.raises(ValueError, match=match):
        if optimizer == "nm":
            inverse.nelder_mead(f, np.zeros(2), **setting)
        elif optimizer == "cma":
            inverse.cma_es(f, np.zeros(2), 0.5, max_evals=100, **setting)
        else:
            model, C = trained_like_model
            inverse.invert_design(model, C, np.zeros_like(C), restarts=1, max_evals=50, **setting)


def test_nm_zero_step_is_allowed_on_a_pinned_axis():
    # like cma_es's sigma0 = 0 on a zero-width box: the pinned coordinate needs no edge
    res = inverse.nelder_mead(lambda x: float(np.sum((x - 1.0) ** 2)), np.zeros(2), step=[0.5, 0.0],
                              bounds=[[-5.0, 5.0], [0.0, 0.0]], tol=1e-12)
    assert res.x[1] == 0.0 and abs(res.x[0] - 1.0) < 1e-5


def test_fit_direction_from_structure_tensor():
    e2 = np.array([0.0, 1.0, 0.0])
    n, res = inverse.fit_direction(np.outer(e2, e2), x0=(1.0, 0.0, 0.0))
    assert abs(n @ e2) > 1.0 - 1e-6
    assert res.fun < 1e-10


def test_fit_direction_sign_invariant_objective():
    rng = np.random.default_rng(20)
    target = rng.standard_normal(3)
    target /= np.linalg.norm(target)
    N = np.outer(target, target)
    n_pos, _ = inverse.fit_direction(N, x0=target + 0.1)
    n_neg, _ = inverse.fit_direction(N, x0=-(target + 0.1))
    # n and -n carry the same structure tensor, so both poles are minima
    assert np.isclose(abs(n_pos @ target), 1.0, atol=1e-6)
    assert np.isclose(abs(n_neg @ target), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# design inversion on a synthetic surrogate


@pytest.fixture(scope="module")
def trained_like_model():
    # an untrained surrogate is still a deterministic map D -> stress field,
    # which is all the inversion layer needs for an exactness check
    model = training.model_for_known_class(2, "transiso", seed=11,
                                           width_x=8, width_y=6, depth=2)
    model.d_bounds = np.array([[1.0, 5.0], [3.0, 7.0]])
    F = dg.sample_F_lhs(16, seed=12)
    C = np.einsum("bki,bkj->bij", F, F)
    return model, C


def test_invert_recovers_design(trained_like_model):
    model, C = trained_like_model
    D_true = np.array([2.3, 5.1])
    S_obs = energy.stress(model, C, np.broadcast_to(D_true, (C.shape[0], 2)).copy())
    res = inverse.invert_design(model, C, S_obs, restarts=2, seed=13,
                                max_evals=6000, f_target=1e-18)
    assert res.objective < 1e-12
    assert np.allclose(res.D, D_true, atol=1e-4)
    assert res.orientation is None


def test_invert_free_orientation(trained_like_model):
    model, C = trained_like_model
    D_true = np.array([3.0, 4.0])
    R = tc.rotation_from_axis_angle(0.8, np.array([0.2, 1.0, 0.4]))
    structure = (np.outer(R[:, 0], R[:, 0]), np.outer(R[:, 1], R[:, 1]), R)
    S_obs = energy.stress(model, C, np.broadcast_to(D_true, (C.shape[0], 2)).copy(),
                          structure=structure)
    res = inverse.invert_design(model, C, S_obs, restarts=4, seed=14,
                                free_orientation=True, max_evals=8000, f_target=1e-16)
    assert res.objective < 1e-10
    assert np.allclose(res.D, D_true, atol=1e-3)
    n1 = res.orientation["n1"]
    assert abs(n1 @ R[:, 0]) > 0.99


def test_invert_trace_file(trained_like_model, tmp_path):
    model, C = trained_like_model
    D_true = np.array([2.0, 6.0])
    S_obs = energy.stress(model, C, np.broadcast_to(D_true, (C.shape[0], 2)).copy())
    trace = tmp_path / "trace.csv"
    res = inverse.invert_design(model, C, S_obs, restarts=2, seed=15,
                                max_evals=600, trace_path=trace)
    lines = trace.read_text().splitlines()
    assert lines[0] == "restart,evals,best_objective"
    assert len(lines) > 2
    report = res.report()
    assert set(report) >= {"design", "objective", "n_evals", "restarts"}


def test_invert_counts_extrapolated_candidates(trained_like_model):
    model, C = trained_like_model
    S_obs = energy.stress(model, C, np.array([2.3, 5.1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # extrapolation is counted, not warned about
        inside = inverse.invert_design(model, C, S_obs, restarts=1, seed=3, max_evals=120)
        wide = inverse.invert_design(model, C, S_obs, d_bounds=[[0.0, 6.0], [2.0, 8.0]],
                                     restarts=1, seed=3, max_evals=120)
    assert inside.report()["n_extrapolated"] == 0
    assert 0 < wide.report()["n_extrapolated"] <= wide.n_evals


def test_invert_lets_other_warnings_through(trained_like_model, monkeypatch):
    model, C = trained_like_model
    S_obs = energy.stress(model, C, np.array([2.3, 5.1]))
    inner = energy.stress_per_design

    def noisy(*args, **kwargs):
        warnings.warn("a surrogate warning", RuntimeWarning)
        return inner(*args, **kwargs)

    monkeypatch.setattr(energy, "stress_per_design", noisy)
    with pytest.warns(RuntimeWarning, match="a surrogate warning"):
        inverse.invert_design(model, C, S_obs, restarts=1, max_evals=12)


def test_invert_nelder_mead_route(trained_like_model):
    model, C = trained_like_model
    D_true = np.array([4.2, 3.4])
    S_obs = energy.stress(model, C, np.broadcast_to(D_true, (C.shape[0], 2)).copy())
    res = inverse.invert_design(model, C, S_obs, method="nelder-mead", restarts=3,
                                seed=16, max_evals=3000, f_target=1e-18)
    assert res.objective < 1e-10
    assert np.allclose(res.D, D_true, atol=1e-3)


def test_invert_requires_bounds():
    model = training.model_for_known_class(2, "iso", width_x=8, width_y=6, depth=2)
    C = np.eye(3)[None]
    with pytest.raises(ValueError, match="bounds"):
        inverse.invert_design(model, C, np.zeros((1, 3, 3)))


def test_invert_rejects_stresses_not_shaped_like_c(trained_like_model, monkeypatch):
    """A target of the wrong shape raises before the search spends an evaluation."""
    model, C = trained_like_model
    calls = []
    monkeypatch.setattr(energy, "stress_per_design", lambda *a, **k: calls.append(1))
    for S_obs in (np.zeros((C.shape[0] - 1, 3, 3)), np.zeros((C.shape[0], 9))):
        with pytest.raises(ValueError, match="S_obs has shape"):
            inverse.invert_design(model, C, S_obs, restarts=1, max_evals=50)
    assert calls == []


def test_invert_unknown_method(trained_like_model):
    model, C = trained_like_model
    with pytest.raises(ValueError, match="unknown method"):
        inverse.invert_design(model, C, np.zeros_like(C), method="gradient", restarts=1)


def test_fun_is_the_objective_at_the_returned_point():
    """With the minimum outside the box, x is clipped onto the box and fun is f(x) there,
    not the repaired objective of the unclipped point the optimizer ranked best."""
    def off_box(x):
        return float(np.sum((x - np.array([2.0, -3.0])) ** 2))

    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    for res in (inverse.cma_es(off_box, np.zeros(2), 0.5, bounds=bounds, max_evals=600, seed=8),
                inverse.nelder_mead(off_box, np.zeros(2), bounds=bounds, max_evals=600)):
        assert np.all(np.abs(res.x) <= 1.0)
        assert np.allclose(res.x, [1.0, -1.0], atol=1e-3)
        assert res.fun == off_box(res.x)
