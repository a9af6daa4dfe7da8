"""Design and orientation recovery by derivative-free minimization.

The surrogate is cheap to evaluate but its gradients with respect to the
design inputs are not exposed, so inversion runs on function values only:
a covariance-matrix-adaptation evolution strategy (CMA-ES) as the default
global method and Nelder-Mead for cheap local polishing. Both handle box
bounds by repairing samples onto the box and penalizing the repair
distance, treat non-finite objective values as +inf, and report the best
point on the box with f there.

The candidates of one CMA-ES generation are independent, so cma_es can
hand a batched objective the whole population at once; invert_design
evaluates each generation as one surrogate call over all candidates.
Nelder-Mead is sequential and evaluates one point at a time.

invert_design factors C once and holds one energy.tiled_workspace per
candidate count for all its generations. Without a free orientation it
resolves the model's structure tensors once, so each workspace builds its
invariants and network rows once; with one, a generation builds its
candidates' structure tensors in one batched call.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import energy
from . import tensor_core as tc


def _as_bounds(bounds, n):
    """bounds as (n, 2) rows [lo, hi]; None is the unbounded box (-inf, inf)."""
    b = np.tile([-np.inf, np.inf], (n, 1)) if bounds is None else np.asarray(bounds, dtype=float)
    if b.shape != (n, 2) or np.any(b[:, 0] > b[:, 1]):
        raise ValueError(f"bounds must be ({n}, 2) with lo <= hi")
    return b


def _check_settings(finite=(), not_nan=()):
    """Raise ValueError for a (name, value) of finite that is not finite, or of not_nan that is NaN."""
    for name, v in finite:
        if not np.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    for name, v in not_nan:
        if v is not None and np.isnan(v):
            raise ValueError(f"{name} must not be NaN")


def _per_row(f):
    """A scalar objective f(x) as a batched one, (k, n) -> k values."""
    return lambda X: [f(x) for x in X]


def _repair_and_penalize(f, bounds):
    """Wrap a batched f, (k, n) -> ((k,), (k,)): f at each row's clamped point plus a scaled
    repair penalty (0 on unbounded axes), which the optimizer ranks, and f there alone.
    Non-finite values become inf."""
    lo, hi = bounds[:, 0], bounds[:, 1]
    width = np.maximum(hi - lo, 1e-12)

    def wrapped(X):
        Xc = np.clip(X, lo, hi)
        v = np.asarray(f(Xc), dtype=float)
        ok = np.isfinite(v)
        return (np.where(ok, v + 1e3 * np.sum(((X - Xc) / width) ** 2, axis=1), np.inf),
                np.where(ok, v, np.inf))

    return wrapped


# ---------------------------------------------------------------------------
# CMA-ES


@dataclass
class OptimizeResult:
    x: np.ndarray  # the best point, on the bounds
    fun: float  # f(x)
    n_evals: int
    n_iters: int
    stop: str
    history: list = field(default_factory=list)  # (evals, best repaired objective) per iteration


def cma_es(f, x0, sigma0, bounds=None, max_evals=20000, f_target=None,
           popsize=None, seed=0, tol_x=1e-14, tol_stagnation=200, vectorized=False):
    """(mu/mu_w, lambda)-CMA-ES with rank-one and rank-mu covariance updates.

    f takes one point, or with vectorized=True the (lambda, n) population of
    a generation and returns its lambda values. Stops on max_evals,
    f <= f_target, step collapse (sigma times the largest covariance scale
    below tol_x), or tol_stagnation iterations without improvement of the
    best value.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    bounds = _as_bounds(bounds, n)
    obj = _repair_and_penalize(f if vectorized else _per_row(f), bounds)
    rng = np.random.default_rng(seed)

    _check_settings(not_nan=(("tol_x", tol_x), ("f_target", f_target)))
    sigma = float(sigma0)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma0 must be finite and non-negative, got {sigma0}")
    lam = popsize if popsize is not None else 4 + int(3 * np.log(n))
    if lam < 2:
        raise ValueError(f"popsize must be at least 2, got {lam}")
    if max_evals < lam:
        raise ValueError(f"max_evals {max_evals} is below the population size {lam}: no generation")
    mu = lam // 2
    w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mu_eff = 1.0 / np.sum(w**2)

    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

    mean = x0.copy()
    C = np.eye(n)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)
    best_x, best_f, best_v = mean.copy(), np.inf, np.inf
    n_evals = 0
    history = []
    stop = "max_evals"
    last_improvement = 0

    for it in range(1, max_evals // lam + 1):
        d2, B = np.linalg.eigh(C)
        d = np.sqrt(np.maximum(d2, 1e-14))
        Z = rng.standard_normal((lam, n))
        Y = Z * d[None, :] @ B.T
        X = mean[None, :] + sigma * Y
        fs, vs = obj(X)
        n_evals += lam
        if it == 1 and not np.any(np.isfinite(fs)):
            raise RuntimeError("objective returned no finite values in the first generation")

        order = np.argsort(fs)
        if fs[order[0]] < best_f:
            best_f, best_v = fs[order[0]], vs[order[0]]
            best_x = np.clip(X[order[0]], bounds[:, 0], bounds[:, 1])
            last_improvement = it
        history.append((n_evals, best_f))

        y_sel = Y[order[:mu]]
        y_w = w @ y_sel
        mean = mean + sigma * y_w

        inv_sqrt = B * (1.0 / d)[None, :] @ B.T
        p_sigma = (1.0 - c_sigma) * p_sigma + np.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * (inv_sqrt @ y_w)
        h_sig = (
            np.linalg.norm(p_sigma) / np.sqrt(1.0 - (1.0 - c_sigma) ** (2 * it))
            < (1.4 + 2.0 / (n + 1.0)) * chi_n
        )
        p_c = (1.0 - c_c) * p_c + h_sig * np.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w

        rank_mu = (y_sel * w[:, None]).T @ y_sel
        C = (
            (1.0 - c_1 - c_mu) * C
            + c_1 * (np.outer(p_c, p_c) + (1.0 - h_sig) * c_c * (2.0 - c_c) * C)
            + c_mu * rank_mu
        )
        C = 0.5 * (C + C.T)
        sigma *= np.exp((c_sigma / d_sigma) * (np.linalg.norm(p_sigma) / chi_n - 1.0))

        if f_target is not None and best_f <= f_target:
            stop = "f_target"
            break
        if sigma * d.max() < tol_x:
            stop = "tol_x"
            break
        if it - last_improvement >= tol_stagnation:
            stop = "stagnation"
            break

    return OptimizeResult(best_x, best_v, n_evals, len(history), stop, history)


# ---------------------------------------------------------------------------
# Nelder-Mead


def nelder_mead(f, x0, step=0.1, bounds=None, max_evals=10000, f_target=None, tol=1e-10,
                reflection=1.0, expansion=2.0, contraction=0.5, shrink=0.5):
    """Downhill simplex, defaulting to the standard (1, 2, 0.5, 0.5) coefficients.

    Stops when the simplex diameter falls below tol, f reaches f_target, or
    the evaluation budget runs out. step sets the initial simplex edge per
    coordinate (scalar or vector). A budget below n + 1 evaluates only the
    first max_evals vertices and returns the best of them.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    bounds = _as_bounds(bounds, n)
    if max_evals < 1:
        raise ValueError(f"max_evals must be at least 1, got {max_evals}")
    repaired = _repair_and_penalize(_per_row(f), bounds)

    def obj(x):
        fx, vx = repaired(x[None])
        return fx[0], vx[0]

    step = np.broadcast_to(np.asarray(step, dtype=float), (n,))
    # a zero edge is right only along an axis the bounds pin (lo == hi)
    if not np.all(np.isfinite(step)) or np.any((step == 0.0) & (bounds[:, 0] < bounds[:, 1])):
        raise ValueError(f"step must be finite, and nonzero on every axis the bounds leave free, got {step}")
    _check_settings(finite=(("reflection", reflection), ("expansion", expansion),
                            ("contraction", contraction), ("shrink", shrink), ("tol", tol)),
                    not_nan=(("f_target", f_target),))

    simplex = np.vstack([x0] + [x0 + step[i] * np.eye(n)[i] for i in range(n)])
    n_evals = min(n + 1, max_evals)
    # fs ranks the vertices (repaired objective), vs holds f at each vertex's clamped point
    fs, vs = np.full(n + 1, np.inf), np.full(n + 1, np.inf)
    fs[:n_evals], vs[:n_evals] = repaired(simplex[:n_evals])
    if not np.any(np.isfinite(fs)):
        raise RuntimeError("objective returned no finite values on the initial simplex")
    history = []
    stop = "max_evals"

    while n_evals < max_evals:
        order = np.argsort(fs)
        simplex, fs, vs = simplex[order], fs[order], vs[order]
        history.append((n_evals, fs[0]))
        if f_target is not None and fs[0] <= f_target:
            stop = "f_target"
            break
        diameter = np.max(np.linalg.norm(simplex[1:] - simplex[0], axis=1))
        if diameter < tol:
            stop = "tol"
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + reflection * (centroid - simplex[-1])
        fr, vr = obj(xr)
        n_evals += 1
        if fr < fs[0]:
            xe = centroid + expansion * (centroid - simplex[-1])
            fe, ve = obj(xe)
            n_evals += 1
            simplex[-1], fs[-1], vs[-1] = (xe, fe, ve) if fe < fr else (xr, fr, vr)
        elif fr < fs[-2]:
            simplex[-1], fs[-1], vs[-1] = xr, fr, vr
        else:
            inside = fr >= fs[-1]
            xc = centroid + contraction * ((simplex[-1] if inside else xr) - centroid)
            fc, vc = obj(xc)
            n_evals += 1
            if fc < min(fr, fs[-1]):
                simplex[-1], fs[-1], vs[-1] = xc, fc, vc
            else:
                simplex[1:] = simplex[0] + shrink * (simplex[1:] - simplex[0])
                fs[1:], vs[1:] = repaired(simplex[1:])
                n_evals += n

    best = np.argsort(fs)[0]
    return OptimizeResult(np.clip(simplex[best], bounds[:, 0], bounds[:, 1]), vs[best], n_evals,
                          len(history), stop, history)


def fit_direction(N_target, x0=(1.0, 0.0, 0.0)):
    """Unit direction whose structure tensor best matches N_target.

    Minimizes ||n(x) (x) n(x) - N_target||_F^2 over unnormalized coordinates
    with Nelder-Mead; the objective is invariant under n -> -n, so the
    returned direction is determined up to sign.
    """
    N_target = np.asarray(N_target, dtype=float)

    def objective(x):
        norm = np.linalg.norm(x)
        if norm < 1e-12:
            return np.inf
        n = x / norm
        return float(np.sum((np.outer(n, n) - N_target) ** 2))

    res = nelder_mead(objective, np.asarray(x0, dtype=float), step=0.1, tol=1e-12, max_evals=5000)
    return res.x / np.linalg.norm(res.x), res


# ---------------------------------------------------------------------------
# design inversion against observed stresses


@dataclass
class InversionResult:
    D: np.ndarray
    objective: float
    n_evals: int
    restarts: list  # per-restart (x, f, stop)
    orientation: dict | None = None  # phi, axis, directions when fitted
    n_extrapolated: int = 0  # evaluated candidates outside the model's declared design ranges

    def report(self):
        out = {
            "design": self.D.tolist(),
            "objective": self.objective,
            "n_evals": self.n_evals,
            "n_extrapolated": self.n_extrapolated,
            "restarts": [
                {"x": x.tolist(), "objective": f, "stop": stop} for x, f, stop in self.restarts
            ],
        }
        if self.orientation is not None:
            out["orientation"] = {
                "phi": self.orientation["phi"],
                "axis": self.orientation["axis"].tolist(),
                "n1": self.orientation["n1"].tolist(),
                "n2": self.orientation["n2"].tolist(),
            }
        return out


def stress_mismatch(model, C, S_obs, D, structure=None):
    """Mean squared Frobenius residual of the surrogate stress on (C, S) pairs.

    D is one design (m,), giving a float, or G candidate designs (G, m),
    giving (G,) from one energy.stress_per_design call; structure may then
    hold one (G, 3, 3) stack per tensor. C may also be a tc.CWorkspace or an
    energy.tiled_workspace for G designs, which a caller holding C fixed
    builds once. It does not warn about extrapolation; invert_design counts it.
    """
    D = np.asarray(D, dtype=float)
    res = energy.stress_per_design(model, C, np.atleast_2d(D), structure=structure) - S_obs
    f = np.mean(np.einsum("gbij,gbij->gb", res, res), axis=1)
    return float(f[0]) if D.ndim == 1 else f


def _orientation_bounds():
    return np.array([[0.0, np.pi], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])


def _orientation_readout(x):
    """(phi, unit axis, n1, n2) of the axis-angle coordinates x = (phi, p_raw)."""
    R = tc.structure_tensors(x[0], x[1:4])[2]
    return float(x[0]), tc.unit_vector(x[1:4]), R[:, 0].copy(), R[:, 1].copy()


def _multistart(minimize, starts, f_target=None):
    """Best of minimize(x0, k) over the start points, in order.

    Stops early once the best value reaches f_target. Returns (best result,
    per-restart (x, f, stop) summaries, per-restart histories, total evals).
    """
    if len(starts) < 1:
        raise ValueError("restarts must be at least 1")
    best = None
    summaries, traces = [], []
    total_evals = 0
    for k, x0 in enumerate(starts):
        res = minimize(x0, k)
        total_evals += res.n_evals
        summaries.append((res.x, res.fun, res.stop))
        traces.append(res.history)
        if best is None or res.fun < best.fun:
            best = res
        if f_target is not None and best.fun <= f_target:
            break
    return best, summaries, traces, total_evals


def invert_design(model, C, S_obs, d_bounds=None, method="cma", restarts=5, seed=0,
                  free_orientation=False, max_evals=6000, f_target=None, trace_path=None,
                  sigma0=None, options=None):
    """Recover the design vector (and optionally the orientation) from stresses.

    Minimizes the mean squared stress residual over the design box with
    multiple restarts: the first from the box center, the rest from seeded
    uniform draws. With free_orientation the search space grows by axis-angle
    coordinates (phi, p_raw) and the result reports the fitted directions.
    sigma0 defaults to 0.3 times the widest bound; options holds extra
    keyword arguments for the chosen optimizer (popsize, tol_x, simplex
    coefficients, ...).

    CMA-ES evaluates each generation as one surrogate call over all its
    candidates; Nelder-Mead evaluates one candidate at a time. Candidates
    outside the model's declared design ranges are counted in
    n_extrapolated rather than warned about.
    """
    cw = tc.c_workspace(np.asarray(C, dtype=float))
    S_obs = np.asarray(S_obs, dtype=float)
    if cw.C.ndim != 3 or S_obs.shape != cw.C.shape:
        raise ValueError(f"S_obs has shape {S_obs.shape}; it must be shaped like C, "
                         f"(B, 3, 3), here {cw.C.shape}")
    m = model.net.n_design
    if d_bounds is None:
        if model.d_bounds is None:
            raise ValueError("no design bounds: pass d_bounds or train the model first")
        d_bounds = model.d_bounds
    d_bounds = _as_bounds(d_bounds, m)
    fit_orientation = free_orientation and model.config.aniso_class != "iso"
    bounds = np.vstack([d_bounds, _orientation_bounds()]) if fit_orientation else d_bounds
    if method not in ("cma", "nelder-mead"):
        raise ValueError(f"unknown method {method!r}")
    if max_evals < 1:
        raise ValueError(f"max_evals must be at least 1, got {max_evals}")

    failures = (ValueError, FloatingPointError, np.linalg.LinAlgError)
    n_extrapolated = 0
    # one held workspace of C tiled per candidate count, for every generation of this call
    workspace = functools.cache(lambda k: energy.tiled_workspace(cw, k))
    fixed = None if fit_orientation else energy._resolve_structure(model)

    def mismatch(X):
        """Stress mismatch of the k candidate rows of X, (k,), from one surrogate call."""
        nonlocal n_extrapolated
        structure = tc.structure_tensors(X[:, m], X[:, m + 1 : m + 4])[:2] if fit_orientation else fixed
        f = stress_mismatch(model, workspace(len(X)), S_obs, X[:, :m], structure=structure)
        n_extrapolated += int(np.count_nonzero(energy.extrapolating(model, X[:, :m])))
        return f

    def objective(X):
        """Stress mismatch of each candidate row of X, (k,); inf where a candidate fails."""
        try:
            return mismatch(X)
        except failures:
            # a faulty candidate (a zero rotation axis, a non-finite design) fails the
            # whole batch: evaluate each alone, so only it gets inf
            f = np.full(len(X), np.inf)
            for i in range(len(X)):
                try:
                    f[i] = mismatch(X[i : i + 1])[0]
                except failures:
                    pass
            return f

    opts = dict(options or {})
    step = opts.pop("step", None)
    width = bounds[:, 1] - bounds[:, 0]

    def minimize(x0, k):
        if method == "cma":
            s0 = sigma0 if sigma0 is not None else 0.3 * float(np.max(width))
            return cma_es(objective, x0, s0, bounds=bounds, max_evals=max_evals,
                          f_target=f_target, seed=seed + 101 * k, vectorized=True, **opts)
        return nelder_mead(lambda x: objective(x[None])[0], x0,
                           step=0.25 * width if step is None else step, bounds=bounds,
                           max_evals=max_evals, f_target=f_target, **opts)

    rng = np.random.default_rng(seed)
    starts = [bounds.mean(axis=1) if k == 0 else bounds[:, 0] + width * rng.random(bounds.shape[0])
              for k in range(restarts)]
    best, summaries, traces, total_evals = _multistart(minimize, starts, f_target)
    if trace_path is not None:
        _write_trace(trace_path, traces)

    orientation = None
    if fit_orientation:
        orientation = dict(zip(("phi", "axis", "n1", "n2"), _orientation_readout(best.x[m:])))
    return InversionResult(best.x[:m].copy(), best.fun, total_evals, summaries, orientation,
                           n_extrapolated)


def _write_trace(trace_path, traces):
    path = Path(trace_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["restart", "evals", "best_objective"])
        for k, history in enumerate(traces):
            for evals, fval in history:
                writer.writerow([k, evals, f"{fval:.10e}"])
