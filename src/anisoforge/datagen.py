"""Synthetic stress-strain data: reference materials, samplers, dataset files.

Datasets pair design vectors D with deformation states C and second
Piola-Kirchhoff stresses S generated by closed-form reference materials.
The on-disk format is a plain text table with a JSON metadata header:

    #ANISOFORGE-DATASET v1 {"class": "transiso", ...}
    d_1 ... d_m  C11 C22 C33 C12 C13 C23  S11 S22 S33 S12 S13 S23

written with 17 significant digits so float64 values round-trip exactly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import energy
from . import tensor_core as tc

DATASET_MAGIC = "#ANISOFORGE-DATASET v1 "

DEFAULT_GRIDS = {
    "iso": {"c1": (1.0, 5.0), "c2": (1.0, 5.0)},
    "transiso": {"c1": (1.0, 5.0), "c4": (3.0, 7.0)},
    "ortho": {"c1": (1.0, 5.0), "c4": (3.0, 7.0), "c5": (2.0, 6.0)},
}


# ---------------------------------------------------------------------------
# reference materials


@dataclass
class NeoHookean:
    """Compressible neo-Hookean solid.

    psi = c1/2 (I1 - 3) - c1 ln J + c2/2 (J - 1)^2
    S   = c1 (I - C^-1) + c2 J (J - 1) C^-1
    """

    c1: float
    c2: float

    def psi(self, C):
        C = np.asarray(C, dtype=float)
        I1 = np.trace(C, axis1=-2, axis2=-1)
        J = np.sqrt(tc.det_sym(C))
        return 0.5 * self.c1 * (I1 - 3.0) - self.c1 * np.log(J) + 0.5 * self.c2 * (J - 1.0) ** 2

    def stress(self, C):
        C = np.asarray(C, dtype=float)
        Cinv = tc.inv_sym(C)
        J = np.sqrt(tc.det_sym(C))
        return self.c1 * (tc.EYE3 - Cinv) + self.c2 * (J * (J - 1.0))[..., None, None] * Cinv


@dataclass
class Hgo:
    """Holzapfel-type fiber-reinforced solid with a volumetric modification.

    psi = c1 (I1 - 3) + c1/c2 (det(C)^-c2 - 1)
        + c3 (exp(c4 (i4 - 1)^4) + exp(c5 (i6 - 1)^4) - 2)

    with fiber stretches i4 = tr(C N1), i6 = tr(C N2). c5 = 0 switches the
    second family off, giving transverse isotropy; both nonzero give
    orthotropy. c2 and c3 are held at their standard values by default.
    """

    c1: float
    c4: float
    c5: float = 0.0
    c2: float = 0.75
    c3: float = 1.0
    n1: np.ndarray = field(default_factory=lambda: tc.DEFAULT_N1.copy())
    n2: np.ndarray = field(default_factory=lambda: tc.DEFAULT_N2.copy())

    def _structure(self):
        return np.outer(self.n1, self.n1), np.outer(self.n2, self.n2)

    def psi(self, C):
        C = np.asarray(C, dtype=float)
        N1, N2 = self._structure()
        I1 = np.trace(C, axis1=-2, axis2=-1)
        det = tc.det_sym(C)
        i4 = np.einsum("...ij,ij->...", C, N1)
        i6 = np.einsum("...ij,ij->...", C, N2)
        fib = np.exp(self.c4 * (i4 - 1.0) ** 4) + np.exp(self.c5 * (i6 - 1.0) ** 4) - 2.0
        return self.c1 * (I1 - 3.0) + self.c1 / self.c2 * (det**-self.c2 - 1.0) + self.c3 * fib

    def stress(self, C):
        C = np.asarray(C, dtype=float)
        N1, N2 = self._structure()
        det = tc.det_sym(C)
        Cinv = tc.inv_sym(C)
        i4 = np.einsum("...ij,ij->...", C, N1)
        i6 = np.einsum("...ij,ij->...", C, N2)
        S = 2.0 * self.c1 * np.broadcast_to(tc.EYE3, C.shape).copy()
        S -= (2.0 * self.c1 * det**-self.c2)[..., None, None] * Cinv
        f1 = 8.0 * self.c3 * self.c4 * (i4 - 1.0) ** 3 * np.exp(self.c4 * (i4 - 1.0) ** 4)
        f2 = 8.0 * self.c3 * self.c5 * (i6 - 1.0) ** 3 * np.exp(self.c5 * (i6 - 1.0) ** 4)
        S += f1[..., None, None] * N1 + f2[..., None, None] * N2
        return S


def material_for_class(aniso_class, params):
    """Reference material generating data for one anisotropy class.

    iso -> NeoHookean(c1, c2); transiso -> Hgo(c1, c4, c5=0);
    ortho -> Hgo(c1, c4, c5).
    """
    if aniso_class == "iso":
        return NeoHookean(params["c1"], params["c2"])
    if aniso_class == "transiso":
        return Hgo(params["c1"], params["c4"], 0.0)
    if aniso_class == "ortho":
        return Hgo(params["c1"], params["c4"], params["c5"])
    raise ValueError(f"unknown anisotropy class {aniso_class!r}")


# ---------------------------------------------------------------------------
# deformation sampling


def sample_F_lhs(n, delta=0.2, seed=0, det_min=0.1, max_tries=100):
    """Latin-hypercube deformation gradients F_ij in [delta_ij - delta, delta_ij + delta].

    The whole set is redrawn (with an advanced seed) if any sample violates
    det F > det_min, preserving the marginal stratification of the result.
    """
    if n < 1:
        raise ValueError("sample count must be positive")
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    for attempt in range(max_tries):
        sampler = qmc.LatinHypercube(d=9, seed=seed + attempt)
        U = sampler.random(n)
        F = np.eye(3).ravel() + delta * (2.0 * U - 1.0)
        F = F.reshape(n, 3, 3)
        if np.all(np.linalg.det(F) > det_min):
            return F
    raise RuntimeError(f"no valid deformation set in {max_tries} redraws (det_min={det_min})")


def sample_F_polar(n, stretch_bounds=(0.8, 1.45), seed=0):
    """Deformation gradients F = R U from LHS stretches and random rotations.

    U is a symmetric stretch assembled from an LHS draw whose eigenvalues
    are clamped into stretch_bounds, so every singular value of F lands in
    the bounds by construction.
    """
    lo, hi = stretch_bounds
    if not (0.0 < lo <= hi):
        raise ValueError("stretch bounds must satisfy 0 < lo <= hi")
    sampler = qmc.LatinHypercube(d=6, seed=seed)
    U01 = sampler.random(n)
    diag = lo + (hi - lo) * U01[:, :3]
    off = (hi - lo) * 0.5 * (2.0 * U01[:, 3:] - 1.0)
    Usym = tc.sym_from_6(np.hstack([diag, off]))
    lam, Q = np.linalg.eigh(Usym)
    lam = np.clip(lam, lo, hi)
    U = np.einsum("bik,bk,bjk->bij", Q, lam, Q)
    rng = np.random.default_rng(seed)
    R = _random_rotations(rng, n)
    return np.matmul(R, U)


def _random_rotations(rng, n):
    A = rng.standard_normal((n, 3, 3))
    Q, Rr = np.linalg.qr(A)
    sign = np.sign(np.diagonal(Rr, axis1=-2, axis2=-1))
    Q = Q * sign[:, None, :]
    det = np.linalg.det(Q)
    Q[:, :, 0] *= det[:, None]
    return Q


def dedupe_invariant_space(C, aniso_class, tol=1e-8, directions=None):
    """Indices of first-seen representatives in invariant space.

    Two samples are duplicates when their invariant vectors (activity
    factors at 1, given or default directions) agree within tol in the
    infinity norm. Order-preserving, first occurrence wins.
    """
    C = np.asarray(C, dtype=float)
    n1, n2 = (tc.DEFAULT_N1, tc.DEFAULT_N2) if directions is None else directions
    Ns = [np.outer(n, n) for n in (n1, n2)][: energy.N_DIRECTIONS[aniso_class]]
    I = tc.invariants(C, Ns)
    kept = []
    for i in range(I.shape[0]):
        if kept and np.min(np.max(np.abs(I[kept] - I[i]), axis=1)) < tol:
            continue
        kept.append(i)
    return np.asarray(kept, dtype=int)


# ---------------------------------------------------------------------------
# dataset assembly


@dataclass
class DataConfig:
    aniso_class: str = "iso"
    grid: dict | None = None  # name -> array of values; defaults to DEFAULT_GRIDS
    grid_points: int = 5  # per-parameter count when grid is None
    n_f: int = 260
    delta: float = 0.2
    seed: int = 0
    independent_f: bool = False  # fresh deformation draws per parameter set
    sampler: str = "lhs"  # lhs | polar
    stretch_bounds: tuple = (0.8, 1.45)
    dedupe: bool = False
    dedupe_tol: float = 1e-8

    def __post_init__(self):
        if self.aniso_class not in DEFAULT_GRIDS:
            raise ValueError(f"unknown anisotropy class {self.aniso_class!r}, expected one of "
                             f"{', '.join(DEFAULT_GRIDS)}")
        if self.sampler not in ("lhs", "polar"):
            raise ValueError(f"unknown sampler {self.sampler!r}, expected lhs or polar")
        for name in ("grid_points", "n_f"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # a chained comparison, False for NaN
        if not 0.0 <= self.dedupe_tol < np.inf:
            raise ValueError(f"dedupe_tol must be finite and nonnegative, got {self.dedupe_tol}")


@dataclass
class Dataset:
    D: np.ndarray  # (N, m)
    C: np.ndarray  # (N, 3, 3)
    S: np.ndarray  # (N, 3, 3)
    param_names: list
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.D.shape[0]


def design_grid(cfg):
    """Cartesian product of the per-parameter value arrays."""
    if cfg.grid is not None:
        names = list(cfg.grid.keys())
        axes = [np.asarray(cfg.grid[k], dtype=float) for k in names]
    else:
        ranges = DEFAULT_GRIDS[cfg.aniso_class]
        names = list(ranges.keys())
        axes = [np.linspace(lo, hi, cfg.grid_points) for lo, hi in ranges.values()]
    mesh = np.meshgrid(*axes, indexing="ij")
    return names, np.column_stack([m.ravel() for m in mesh])


def build_dataset(cfg):
    """Deterministic dataset for one anisotropy class on a design grid.

    By default one deformation set is shared by every design point; with
    independent_f each design point gets its own draws (seeded by the
    point's index), which covers more of deformation space at equal N_F.
    """
    names, points = design_grid(cfg)

    def metrics(seed):
        """C of one deformation draw, deduplicated if asked."""
        if cfg.sampler == "lhs":
            F = sample_F_lhs(cfg.n_f, cfg.delta, seed)
        else:
            F = sample_F_polar(cfg.n_f, cfg.stretch_bounds, seed)
        C = np.einsum("bki,bkj->bij", F, F)
        return C[dedupe_invariant_space(C, cfg.aniso_class, cfg.dedupe_tol)] if cfg.dedupe else C

    shared = None if cfg.independent_f else metrics(cfg.seed)
    D_rows, C_rows, S_rows = [], [], []
    for k, point in enumerate(points):
        C = metrics(cfg.seed + 1000 * (k + 1)) if cfg.independent_f else shared
        params = dict(zip(names, point))
        mat = material_for_class(cfg.aniso_class, params)
        S = mat.stress(C)
        D_rows.append(np.broadcast_to(point, (C.shape[0], point.size)).copy())
        C_rows.append(C)
        S_rows.append(S)

    meta = {
        "class": cfg.aniso_class,
        "params": names,
        "n_f": cfg.n_f,
        "delta": cfg.delta,
        "seed": cfg.seed,
        "independent_f": cfg.independent_f,
        "sampler": cfg.sampler,
        "dedupe": cfg.dedupe,
    }
    if cfg.aniso_class != "iso":
        meta["n1"] = tc.DEFAULT_N1.tolist()
        meta["n2"] = tc.DEFAULT_N2.tolist()
    return Dataset(np.vstack(D_rows), np.vstack(C_rows), np.vstack(S_rows), names, meta)


def save_dataset(ds, path):
    """Write the text format described in the module docstring."""
    meta = dict(ds.meta)
    meta["param_names"] = list(ds.param_names)
    meta["n_records"] = len(ds)
    with open(path, "w") as f:
        f.write(DATASET_MAGIC + json.dumps(meta) + "\n")
        C6 = tc.sym_to_6(ds.C)
        S6 = tc.sym_to_6(ds.S)
        for d, c, s in zip(ds.D, C6, S6):
            row = np.concatenate([d, c, s])
            f.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_dataset(path):
    """Read a dataset file, validating the header and the metrics."""
    with open(path) as f:
        header = f.readline()
        if not header.startswith(DATASET_MAGIC):
            raise ValueError(f"{path}: not a dataset file (bad magic line)")
        meta = json.loads(header[len(DATASET_MAGIC):])
        with warnings.catch_warnings():  # a file without records is refused below
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            rows = np.loadtxt(f, ndmin=2)
    names = meta.pop("param_names", None) if isinstance(meta, dict) else None
    if not isinstance(names, list):
        raise ValueError(f"{path}: the header must be a JSON object with a param_names list")
    if rows.size == 0:
        raise ValueError(f"{path}: the file holds no records")
    m = len(names)
    if rows.shape[1] != m + 12:
        raise ValueError(f"{path}: expected {m + 12} columns, found {rows.shape[1]}")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{path}: non-finite entries")
    n_records = meta.pop("n_records", rows.shape[0])
    if n_records != rows.shape[0]:
        raise ValueError(f"{path}: header claims {n_records} records, file has {rows.shape[0]}")
    D = rows[:, :m]
    C = tc.sym_from_6(rows[:, m : m + 6])
    S = tc.sym_from_6(rows[:, m + 6 :])
    tc.check_metric(C, name=f"{path}: C")
    return Dataset(D, C, S, names, meta)


# ---------------------------------------------------------------------------
# isotropy probe

SHEAR_PLANES = (
    ("12", np.array([1.0, 0, 0]), np.array([0.0, 1, 0])),
    ("23", np.array([0.0, 1, 0]), np.array([0.0, 0, 1])),
    ("13", np.array([1.0, 0, 0]), np.array([0.0, 0, 1])),
    ("d12", np.array([1.0, 1, 0]) / np.sqrt(2), np.array([1.0, -1, 0]) / np.sqrt(2)),
    ("d23", np.array([0.0, 1, 1]) / np.sqrt(2), np.array([0.0, 1, -1]) / np.sqrt(2)),
    ("d13", np.array([1.0, 0, 1]) / np.sqrt(2), np.array([1.0, 0, -1]) / np.sqrt(2)),
)


@dataclass
class IsotropyReport:
    gammas: np.ndarray
    labels: list
    magnitudes: np.ndarray  # (n_planes, n_gammas) Frobenius stress norms
    max_deviation: float  # max over gamma of relative spread across planes


def isotropy_probe(stress_fn, gamma_max=0.3, n_gamma=13):
    """Simple-shear sweeps in six planes; isotropic responses coincide.

    stress_fn maps a batch of metrics C (n, 3, 3) to stresses (n, 3, 3).
    The deviation is the worst-case relative spread of the Frobenius norm
    curves across the shear planes (zero for an isotropic material, up to
    roundoff).
    """
    if n_gamma < 2 or not gamma_max > 0.0:
        raise ValueError(f"the shear sweep needs n_gamma >= 2 and gamma_max > 0, "
                         f"got {n_gamma} and {gamma_max}")
    gammas = np.linspace(0.0, gamma_max, n_gamma)
    mags = np.zeros((len(SHEAR_PLANES), n_gamma))
    for i, (_, a, b) in enumerate(SHEAR_PLANES):
        F = np.broadcast_to(np.eye(3), (n_gamma, 3, 3)).copy()
        F += gammas[:, None, None] * np.outer(a, b)
        C = np.einsum("bki,bkj->bij", F, F)
        S = stress_fn(C)
        mags[i] = np.sqrt(np.einsum("bij,bij->b", S, S))
    spread = mags.max(axis=0) - mags.min(axis=0)
    scale = np.maximum(np.abs(mags).mean(axis=0), 1e-300)
    dev = float(np.max(spread[1:] / scale[1:]))
    return IsotropyReport(gammas, [lbl for lbl, _, _ in SHEAR_PLANES], mags, dev)
