"""Command-line entry point wiring data generation, training, inversion,
and the finite-element harness together.

Configuration lives in an INI file with sections [data], [train],
[inverse], [fem]; command-line flags override file values, and the fully
resolved configuration is echoed into the run directory so every command
can be reproduced from it. Artifacts land under
runs/<name>/{config,checkpoints,logs,reports}.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure (Newton breakdown, divergent training, non-finite objectives),
4 I/O or file-format error.

Heavy imports happen inside the command handlers so that --threads (or
the ANISOFORGE_THREADS fallback) can cap the BLAS pools before numpy
first loads.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from pathlib import Path


class UsageError(Exception):
    """Bad flags, bad config values, or an inconsistent request."""


class IoError(Exception):
    """Unreadable, unwritable, or malformed files."""


# ---------------------------------------------------------------------------
# thread capping, applied before numpy is imported anywhere

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap(argv):
    """Set the BLAS pool sizes from --threads or ANISOFORGE_THREADS."""
    raw = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            raw = argv[i + 1]
        elif arg.startswith("--threads="):
            raw = arg.split("=", 1)[1]
    if raw is None:
        raw = os.environ.get("ANISOFORGE_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"--threads expects a positive integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"--threads expects a positive integer, got {raw!r}")
    for var in THREAD_VARS:
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# configuration schema


def _bool(raw):
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


DATA_KEYS = {
    "model": str,
    "class": str,
    "grid": str,
    "nf": int,
    "delta": float,
    "seed": int,
    "independent_f": _bool,
    "sampler": str,
    "stretch_lo": float,
    "stretch_hi": float,
    "dedupe": _bool,
    "dedupe_tol": float,
}

TRAIN_KEYS = {
    "epochs": int,
    "lr": float,
    "eps": float,
    "p": float,
    "warmup_frac": float,
    "seed": int,
    "log_every": int,
    "early_stop": _bool,
    "plateau_tol": float,
    "plateau_window": int,
    "normalize_components": _bool,
    "known_class": str,
    "direction": str,
    "direction2": str,
    "mode": str,
    "gamma": float,
    "width_x": int,
    "width_y": int,
    "depth": int,
}

INVERSE_KEYS = {
    "method": str,
    "restarts": int,
    "seed": int,
    "max_evals": int,
    "f_target": float,
    "sigma0": float,
    "popsize": int,
    "tol_x": float,
    "tol_stagnation": int,
    "step": float,
    "tol": float,
    "reflection": float,
    "expansion": float,
    "contraction": float,
    "shrink": float,
    "free_orientation": _bool,
}

FEM_KEYS = {
    "lengths": str,
    "divisions": str,
    "u0": float,
    "n_steps": int,
    "tol": float,
    "max_iter": int,
    "d": str,
    "phi": float,
    "axis": str,
    "restarts": int,
    "seed": int,
    "max_evals": int,
}

VALID_KEYS = {"data": DATA_KEYS, "train": TRAIN_KEYS, "inverse": INVERSE_KEYS, "fem": FEM_KEYS}

DATA_DEFAULTS = {
    "model": None,
    "class": None,
    "grid": None,
    "nf": 260,
    "delta": 0.2,
    "seed": 0,
    "independent_f": False,
    "sampler": "lhs",
    "stretch_lo": 0.8,
    "stretch_hi": 1.45,
    "dedupe": False,
    "dedupe_tol": 1e-8,
}

TRAIN_DEFAULTS = {
    "epochs": 20000,
    "lr": 1e-3,
    "eps": 1e-3,
    "p": 0.25,
    "warmup_frac": 0.1,
    "seed": 0,
    "log_every": 100,
    "early_stop": False,
    "plateau_tol": 1e-10,
    "plateau_window": 1000,
    "normalize_components": False,
    "known_class": None,
    "direction": None,
    "direction2": None,
    "mode": "polyconvex",
    "gamma": 1.0,
    "width_x": 40,
    "width_y": 30,
    "depth": 3,
}

INVERSE_DEFAULTS = {
    "method": "cma",
    "restarts": 5,
    "seed": 0,
    "max_evals": 6000,
    "f_target": None,
    "sigma0": None,
    "popsize": None,
    "tol_x": 1e-14,
    "tol_stagnation": 200,
    "step": None,
    "tol": 1e-10,
    "reflection": 1.0,
    "expansion": 2.0,
    "contraction": 0.5,
    "shrink": 0.5,
    "free_orientation": False,
}

FEM_DEFAULTS = {
    "lengths": "4,1,1",
    "divisions": "8,2,2",
    "u0": 0.1,
    "n_steps": 5,
    "tol": 1e-9,
    "max_iter": 25,
    "d": None,
    "phi": None,
    "axis": None,
    "restarts": 5,
    "seed": 0,
    "max_evals": 150,
}


def load_config(path):
    """Parse and validate an INI config into {section: {key: value}}."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise IoError(f"cannot read config file: {e}")
    except configparser.Error as e:
        raise UsageError(f"malformed config file {path}: {e}")
    out = {}
    for section in parser.sections():
        if section not in VALID_KEYS:
            raise UsageError(
                f"unknown config section [{section}]; valid sections: "
                + ", ".join(sorted(VALID_KEYS))
            )
        keys = VALID_KEYS[section]
        out[section] = {}
        for key, raw in parser[section].items():
            if key not in keys:
                raise UsageError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    + ", ".join(sorted(keys))
                )
            try:
                out[section][key] = keys[key](raw)
            except ValueError:
                raise UsageError(f"bad value for {section}.{key}: {raw!r}")
    return out


def resolve_section(section, args, defaults, aliases=None):
    """defaults <- config file <- command-line flags, skipping unset flags.

    aliases maps config keys to argparse attribute names where they differ
    (e.g. the [data] key "class" lives on args.klass).
    """
    aliases = aliases or {}
    resolved = dict(defaults)
    file_cfg = load_config(args.config) if args.config else {}
    resolved.update(file_cfg.get(section, {}))
    for key in defaults:
        flag = getattr(args, aliases.get(key, key), None)
        if flag is not None:
            resolved[key] = flag
    return resolved


# ---------------------------------------------------------------------------
# run directories and report files


def make_run_dir(args):
    run = Path(args.runs_root) / args.run
    for sub in ("config", "checkpoints", "logs", "reports"):
        (run / sub).mkdir(parents=True, exist_ok=True)
    return run


def _fmt_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(run, sections):
    """Write the resolved configuration the command actually used."""
    parser = configparser.ConfigParser()
    for name, resolved in sections.items():
        parser[name] = {
            key: _fmt_value(value) for key, value in sorted(resolved.items()) if value is not None
        }
    with open(run / "config" / "resolved.ini", "w") as f:
        parser.write(f)


def write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# shared parsing and loading helpers


def _floats(raw, n=None, what="value list"):
    try:
        values = [float(x) for x in str(raw).split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated numbers, got {raw!r}")
    if n is not None and len(values) != n:
        raise UsageError(f"{what} must have {n} entries, got {len(values)}")
    return values


def _ints(raw, sep, what):
    try:
        return [int(x) for x in str(raw).split(sep)]
    except ValueError:
        raise UsageError(f"{what} must be {sep!r}-separated integers, got {raw!r}")


def _aniso_class(model, cls):
    """Map the material/--class flags onto an anisotropy class name."""
    if model is None:
        raise UsageError("--model is required (neo-hookean or aniso-hgo)")
    if model == "neo-hookean":
        if cls not in (None, "iso"):
            raise UsageError("neo-hookean is isotropic; drop --class")
        return "iso"
    if model == "aniso-hgo":
        mapped = {None: "ortho", "ortho": "ortho", "trans": "transiso", "transiso": "transiso"}
        if cls not in mapped:
            raise UsageError(f"unknown --class {cls!r}; expected trans or ortho")
        return mapped[cls]
    raise UsageError(f"unknown --model {model!r}; expected neo-hookean or aniso-hgo")


def _load_dataset(path):
    from . import datagen

    try:
        return datagen.load_dataset(path)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot load dataset: {e}")


def _load_model(path):
    from . import energy

    try:
        return energy.load_model(path)
    except (OSError, ValueError, KeyError) as e:
        raise IoError(f"cannot load checkpoint: {e}")


def _data_config(resolved, n_f=None):
    """DataConfig from a resolved [data] section."""
    import numpy as np

    from . import datagen

    aniso_class = _aniso_class(resolved["model"], resolved["class"])
    grid = None
    grid_points = 5
    if resolved["grid"] is not None:
        counts = _ints(resolved["grid"], "x", "--grid")
        names = list(datagen.DEFAULT_GRIDS[aniso_class])
        if len(counts) != len(names):
            raise UsageError(
                f"--grid has {len(counts)} axes but class {aniso_class} has "
                f"{len(names)} design parameters ({', '.join(names)})"
            )
        if min(counts) < 1:
            raise UsageError("--grid counts must be positive")
        grid = {
            name: np.linspace(lo, hi, counts[i])
            for i, (name, (lo, hi)) in enumerate(datagen.DEFAULT_GRIDS[aniso_class].items())
        }
    try:
        return datagen.DataConfig(
            aniso_class=aniso_class,
            grid=grid,
            grid_points=grid_points,
            n_f=resolved["nf"] if n_f is None else n_f,
            delta=resolved["delta"],
            seed=resolved["seed"],
            independent_f=resolved["independent_f"],
            sampler=resolved["sampler"],
            stretch_bounds=(resolved["stretch_lo"], resolved["stretch_hi"]),
            dedupe=resolved["dedupe"],
            dedupe_tol=resolved["dedupe_tol"],
        )
    except ValueError as e:
        raise UsageError(str(e))


def _fem_config(resolved, model):
    import numpy as np

    from . import fem

    if resolved["d"] is None:
        raise UsageError("--d is required (comma-separated design vector)")
    d = np.asarray(_floats(resolved["d"], what="--d"), dtype=float)
    if d.size != model.net.n_design:
        raise UsageError(
            f"--d has {d.size} entries but the checkpoint expects {model.net.n_design}"
        )
    axis = resolved["axis"]
    if axis is not None:
        axis = np.asarray(_floats(axis, n=3, what="--axis"), dtype=float)
    try:
        return fem.FemConfig(
            lengths=tuple(_floats(resolved["lengths"], n=3, what="--lengths")),
            divisions=tuple(_ints(resolved["divisions"], ",", "--divisions")),
            u0=resolved["u0"],
            n_steps=resolved["n_steps"],
            tol=resolved["tol"],
            max_iter=resolved["max_iter"],
            D=d,
            phi=resolved["phi"],
            p_raw=axis,
        )
    except ValueError as e:
        raise UsageError(str(e))


def _train_config(resolved):
    from . import training

    try:
        return training.TrainConfig(
            epochs=resolved["epochs"],
            lr=resolved["lr"],
            eps=resolved["eps"],
            p=resolved["p"],
            warmup_frac=resolved["warmup_frac"],
            seed=resolved["seed"],
            log_every=resolved["log_every"],
            early_stop=resolved["early_stop"],
            plateau_tol=resolved["plateau_tol"],
            plateau_window=resolved["plateau_window"],
            normalize_components=resolved["normalize_components"],
        )
    except ValueError as e:
        raise UsageError(str(e))


def _fresh_model(resolved, n_design):
    """Discovery or known-class model per the resolved [train] section."""
    import numpy as np

    from . import training

    net_kwargs = {
        "mode": resolved["mode"],
        "gamma": resolved["gamma"],
        "seed": resolved["seed"],
        "width_x": resolved["width_x"],
        "width_y": resolved["width_y"],
        "depth": resolved["depth"],
    }
    known = resolved["known_class"]
    try:
        if known is None:
            return training.model_for_discovery(n_design, **net_kwargs)
        mapped = {"iso": "iso", "trans": "transiso", "transiso": "transiso", "ortho": "ortho"}
        if known not in mapped:
            raise UsageError(f"unknown --known-class {known!r}; expected iso, trans, or ortho")
        n1 = n2 = None
        if resolved["direction"] is not None:
            n1 = np.asarray(_floats(resolved["direction"], n=3, what="--direction"), dtype=float)
            n1 = n1 / np.linalg.norm(n1)
            if resolved["direction2"] is not None:
                n2 = np.asarray(
                    _floats(resolved["direction2"], n=3, what="--direction2"), dtype=float
                )
            else:
                # any unit vector orthogonal to n1 completes the frame
                seed_axis = np.eye(3)[int(np.argmin(np.abs(n1)))]
                n2 = seed_axis - (seed_axis @ n1) * n1
                n2 = n2 / np.linalg.norm(n2)
        return training.model_for_known_class(n_design, mapped[known], n1=n1, n2=n2, **net_kwargs)
    except ValueError as e:
        raise UsageError(str(e))


def _check_class_metadata(model, ds, what):
    """Reject a target whose generator class differs from the training data's."""
    trained_on = model.meta.get("data_class")
    ds_class = ds.meta.get("class")
    if trained_on is not None and ds_class is not None and trained_on != ds_class:
        raise IoError(
            f"class metadata mismatch: checkpoint was trained on {trained_on!r} data "
            f"but {what} is {ds_class!r}"
        )


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args):
    run = make_run_dir(args)
    resolved = resolve_section("data", args, DATA_DEFAULTS, aliases={"class": "klass"})
    cfg = _data_config(resolved)

    from . import datagen

    ds = datagen.build_dataset(cfg)
    out = Path(args.out) if args.out else run / "dataset.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    datagen.save_dataset(ds, out)
    echo_config(run, {"data": resolved})
    print(f"wrote {len(ds)} records to {out}")
    return 0


def cmd_train(args):
    run = make_run_dir(args)
    resolved = resolve_section("train", args, TRAIN_DEFAULTS)
    ds = _load_dataset(args.data)

    from . import energy, training

    cfg = _train_config(resolved)
    if args.resume:
        model = _load_model(args.resume)
        start_epoch = int(model.meta.get("trained_epochs", 0))
        if start_epoch >= cfg.epochs:
            raise UsageError(
                f"checkpoint already trained for {start_epoch} epochs; "
                f"raise --epochs past that to continue"
            )
        if model.net.n_design != ds.D.shape[1]:
            raise IoError(
                f"checkpoint expects {model.net.n_design} design parameters, "
                f"dataset has {ds.D.shape[1]}"
            )
    else:
        model = _fresh_model(resolved, ds.D.shape[1])
        start_epoch = 0

    try:
        result = training.train(model, ds, cfg, log_dir=run / "logs", start_epoch=start_epoch)
    except training.TrainingDiverged as e:
        energy.save_model(e.model, run / "checkpoints" / "diverged.json")
        raise

    ckpt = run / "checkpoints" / "model.json"
    if ds.meta.get("class") is not None:
        result.model.meta["data_class"] = ds.meta["class"]
    result.model.meta["param_names"] = list(ds.param_names)
    energy.save_model(result.model, ckpt)

    aniso = result.model.aniso
    directions = {
        label: vec.tolist() for label, vec in training.extract_directions(result.model)
    }
    report = {
        "class": training.classify(result.model),
        "final_loss": result.final_loss,
        "epochs_run": int(result.model.meta["trained_epochs"]),
        "stopped_early": result.stopped_early,
        "wall_time_s": result.wall_time,
        "loss": result.history["loss"],
        "trajectory": {
            "epoch": result.history["epoch"],
            "alpha": result.history["alpha"],
            "phi": result.history["phi"],
        },
        "alphas": list(aniso.alphas()) if aniso is not None else [1.0, 1.0],
        "phi": aniso.phi if aniso is not None else None,
        "axis": None,
        "directions": directions,
    }
    if aniso is not None:
        import numpy as np

        report["axis"] = (aniso.p_raw / np.linalg.norm(aniso.p_raw)).tolist()
    write_json(run / "reports" / "train_report.json", report)
    echo_config(run, {"train": resolved})
    print(
        f"trained {report['epochs_run']} epochs, final loss {result.final_loss:.6e}, "
        f"class {report['class']}; checkpoint at {ckpt}"
    )
    return 0


def cmd_invert(args):
    run = make_run_dir(args)
    resolved = resolve_section("inverse", args, INVERSE_DEFAULTS)
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    _check_class_metadata(model, ds, "target dataset")
    if ds.D.shape[1] != model.net.n_design:
        raise IoError(
            f"checkpoint expects {model.net.n_design} design parameters, "
            f"target dataset has {ds.D.shape[1]}"
        )

    from . import inverse

    method = resolved["method"]
    if method == "cma":
        options = {
            k: resolved[k]
            for k in ("popsize", "tol_x", "tol_stagnation")
            if resolved[k] is not None
        }
    elif method == "nelder-mead":
        options = {
            k: resolved[k]
            for k in ("step", "tol", "reflection", "expansion", "contraction", "shrink")
            if resolved[k] is not None
        }
    else:
        raise UsageError(f"unknown method {method!r}; expected cma or nelder-mead")

    try:
        result = inverse.invert_design(
            model,
            ds.C,
            ds.S,
            method=method,
            restarts=resolved["restarts"],
            seed=resolved["seed"],
            free_orientation=resolved["free_orientation"],
            max_evals=resolved["max_evals"],
            f_target=resolved["f_target"],
            trace_path=run / "logs" / "trace.csv",
            sigma0=resolved["sigma0"],
            options=options,
        )
    except ValueError as e:
        raise UsageError(str(e))

    report = result.report()
    report["method"] = method
    report["seed"] = resolved["seed"]
    write_json(run / "reports" / "inversion.json", report)
    echo_config(run, {"inverse": resolved})
    design = ", ".join(f"{x:.6g}" for x in result.D)
    print(f"recovered design [{design}] with objective {result.objective:.6e}")
    return 0


def cmd_fem(args):
    run = make_run_dir(args)
    resolved = resolve_section("fem", args, FEM_DEFAULTS)
    model = _load_model(args.model)
    cfg = _fem_config(resolved, model)

    from . import fem

    mesh = fem.box_mesh(cfg.lengths, cfg.divisions)
    state = fem.solve_static(mesh, cfg, model)

    vm = state.von_mises()
    fem.write_vtk(
        run / "reports" / "beam.vtk",
        mesh,
        u=state.u,
        cell_data={"von_mises_max": vm.max(axis=1)},
    )
    report = {
        "max_von_mises": float(vm.max()),
        "newton_iterations": [len(norms) for norms in state.newton_norms],
        "final_residual": float(state.newton_norms[-1][-1]),
        "n_nodes": int(mesh.n_nodes),
        "n_elements": int(mesh.elems.shape[0]),
    }
    write_json(run / "reports" / "fem.json", report)
    echo_config(run, {"fem": resolved})
    print(f"solved {cfg.n_steps} load steps; max Von Mises {report['max_von_mises']:.6e}")
    return 0


def cmd_fem_invert(args):
    run = make_run_dir(args)
    resolved = resolve_section("fem", args, FEM_DEFAULTS)
    model = _load_model(args.model)
    cfg = _fem_config(resolved, model)

    from . import fem

    mesh = fem.box_mesh(cfg.lengths, cfg.divisions)
    fit = fem.invert_orientation(
        mesh,
        cfg,
        model,
        restarts=resolved["restarts"],
        seed=resolved["seed"],
        max_evals=resolved["max_evals"],
    )

    for k, trace in enumerate(fit.traces):
        with open(run / "logs" / f"trace_restart_{k}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["evals", "best_objective"])
            for evals, fval in trace:
                writer.writerow([evals, f"{fval:.10e}"])

    write_json(run / "reports" / "orientation.json", fit.report())
    echo_config(run, {"fem": resolved})
    if fit.insensitive:
        print(f"isotropic model: orientation has no effect; max Von Mises {fit.objective:.6e}")
    else:
        axis = ", ".join(f"{x:.6g}" for x in fit.axis)
        print(
            f"best orientation phi={fit.phi:.6g}, axis=[{axis}], "
            f"max Von Mises {fit.objective:.6e}"
        )
    return 0


def cmd_probe_isotropy(args):
    run = make_run_dir(args)
    model = _load_model(args.model)

    import numpy as np

    from . import datagen, energy

    if args.d is None:
        raise UsageError("--d is required (comma-separated design vector)")
    d = np.asarray(_floats(args.d, what="--d"), dtype=float)
    if d.size != model.net.n_design:
        raise UsageError(
            f"--d has {d.size} entries but the checkpoint expects {model.net.n_design}"
        )

    probe = datagen.isotropy_probe(lambda C: energy.stress(model, C, d),
                                   gamma_max=args.gamma_max, n_gamma=args.n_gamma)
    report = {
        "max_deviation": probe.max_deviation,
        "gammas": probe.gammas.tolist(),
        "planes": probe.labels,
        "magnitudes": probe.magnitudes.tolist(),
    }
    write_json(run / "reports" / "isotropy.json", report)
    print(f"max deviation from isotropy: {probe.max_deviation:.6e}")
    return 0


def cmd_study_samples(args):
    run = make_run_dir(args)
    data_resolved = resolve_section(
        "data", args, DATA_DEFAULTS, aliases={"class": "klass", "seed": "data_seed"}
    )
    train_resolved = resolve_section("train", args, TRAIN_DEFAULTS)
    sizes = _ints(args.sizes, ",", "--sizes")
    if any(s < 1 for s in sizes):
        raise UsageError("--sizes entries must be positive")

    from . import datagen, training

    cfg = _train_config(train_resolved)
    final_losses = {}
    for size in sizes:
        dcfg = _data_config(data_resolved, n_f=size)
        ds = datagen.build_dataset(dcfg)
        model = _fresh_model(train_resolved, ds.D.shape[1])
        result = training.train(model, ds, cfg)
        with open(run / "logs" / f"loss_n{size}.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "loss"])
            for epoch, value in enumerate(result.history["loss"]):
                writer.writerow([epoch, f"{value:.10e}"])
        final_losses[str(size)] = result.final_loss
        print(f"n_f={size}: {len(ds)} records, final loss {result.final_loss:.6e}")

    write_json(
        run / "reports" / "study.json",
        {"sizes": sizes, "epochs": cfg.epochs, "final_losses": final_losses},
    )
    echo_config(run, {"data": data_resolved, "train": train_resolved})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp, default_run):
    sp.add_argument("--run", default=default_run, help="run name under the runs root")
    sp.add_argument("--runs-root", default="runs", help="directory holding all runs")
    sp.add_argument("--config", help="INI config file; flags override its values")
    sp.add_argument("--threads", type=int, help="cap BLAS threads (env: ANISOFORGE_THREADS)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anisoforge",
        description="polyconvex hyperelastic surrogates: data, training, inversion, FE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a stress-strain dataset")
    _add_common(p, "gen-data")
    p.add_argument("--model", help="material: neo-hookean or aniso-hgo")
    p.add_argument("--class", dest="klass", help="anisotropy class for aniso-hgo: trans or ortho")
    p.add_argument("--grid", help="design grid counts, e.g. 5x5 or 3x3x3")
    p.add_argument("--nf", type=int, help="deformation samples per design point")
    p.add_argument("--delta", type=float, help="entrywise half-width of the F box")
    p.add_argument("--seed", type=int)
    p.add_argument("--independent-f", action=argparse.BooleanOptionalAction, default=None,
                   help="fresh deformation draws per design point")
    p.add_argument("--sampler", choices=("lhs", "polar"))
    p.add_argument("--stretch-lo", type=float, help="polar sampler lower stretch bound")
    p.add_argument("--stretch-hi", type=float, help="polar sampler upper stretch bound")
    p.add_argument("--dedupe", action=argparse.BooleanOptionalAction, default=None,
                   help="drop samples that coincide in invariant space")
    p.add_argument("--dedupe-tol", type=float)
    p.add_argument("--out", help="dataset path (default <run>/dataset.txt)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a surrogate to a dataset")
    _add_common(p, "train")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--resume", help="checkpoint to continue training from")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--eps", type=float, help="sparsity penalty weight")
    p.add_argument("--p", type=float, help="sparsity penalty exponent")
    p.add_argument("--warmup-frac", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--log-every", type=int)
    p.add_argument("--early-stop", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--plateau-tol", type=float)
    p.add_argument("--plateau-window", type=int)
    p.add_argument("--normalize-components", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--known-class", help="fix the class: iso, trans, or ortho")
    p.add_argument("--direction", help="first preferred direction, e.g. 0,0,1")
    p.add_argument("--direction2", help="second preferred direction")
    p.add_argument("--mode", choices=("polyconvex", "nonpoly_linearC", "unconstrained"))
    p.add_argument("--gamma", type=float, help="volumetric growth weight")
    p.add_argument("--width-x", type=int)
    p.add_argument("--width-y", type=int)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("invert", help="recover design parameters from target stresses")
    _add_common(p, "invert")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--data", required=True, help="target dataset file")
    p.add_argument("--method", choices=("cma", "nelder-mead"))
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-evals", type=int)
    p.add_argument("--f-target", type=float)
    p.add_argument("--sigma0", type=float, help="CMA-ES initial step size")
    p.add_argument("--popsize", type=int, help="CMA-ES population size")
    p.add_argument("--tol-x", type=float, help="CMA-ES step-size stop tolerance")
    p.add_argument("--tol-stagnation", type=int, help="CMA-ES stagnation window")
    p.add_argument("--step", type=float, help="simplex initial edge length")
    p.add_argument("--tol", type=float, help="simplex diameter stop tolerance")
    p.add_argument("--reflection", type=float)
    p.add_argument("--expansion", type=float)
    p.add_argument("--contraction", type=float)
    p.add_argument("--shrink", type=float)
    p.add_argument("--free-orientation", action=argparse.BooleanOptionalAction, default=None,
                   help="also fit the orientation (phi, axis)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("fem", help="solve the simply supported beam and write VTK")
    _add_common(p, "fem")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--d", help="design vector, e.g. 2.0,3.0")
    p.add_argument("--phi", type=float, help="orientation angle override")
    p.add_argument("--axis", help="orientation axis override, e.g. 0,0,1")
    p.add_argument("--lengths", help="beam dimensions, e.g. 4,1,1")
    p.add_argument("--divisions", help="mesh divisions, e.g. 8,2,2")
    p.add_argument("--u0", type=float, help="midspan dip magnitude")
    p.add_argument("--n-steps", type=int)
    p.add_argument("--tol", type=float, help="Newton residual tolerance")
    p.add_argument("--max-iter", type=int)
    p.set_defaults(func=cmd_fem)

    p = sub.add_parser("fem-invert", help="find the orientation minimizing peak Von Mises")
    _add_common(p, "fem-invert")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--d", help="design vector, e.g. 2.0,3.0")
    p.add_argument("--phi", type=float, help="orientation override (the search replaces it)")
    p.add_argument("--axis", help="orientation override (the search replaces it)")
    p.add_argument("--lengths")
    p.add_argument("--divisions")
    p.add_argument("--u0", type=float)
    p.add_argument("--n-steps", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-evals", type=int)
    p.set_defaults(func=cmd_fem_invert)

    p = sub.add_parser("probe-isotropy", help="shear-sweep isotropy check of a checkpoint")
    _add_common(p, "probe-isotropy")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--d", help="design vector, e.g. 2.0,3.0")
    p.add_argument("--gamma-max", type=float, default=0.3)
    p.add_argument("--n-gamma", type=int, default=13)
    p.set_defaults(func=cmd_probe_isotropy)

    p = sub.add_parser("study-samples", help="train at several sample sizes, emit loss CSVs")
    _add_common(p, "study-samples")
    p.add_argument("--sizes", default="20,50,100", help="comma-separated deformation counts")
    p.add_argument("--model", help="material: neo-hookean or aniso-hgo")
    p.add_argument("--class", dest="klass", help="anisotropy class for aniso-hgo")
    p.add_argument("--grid", help="design grid counts, e.g. 3x3")
    p.add_argument("--delta", type=float)
    p.add_argument("--data-seed", type=int, help="seed for the dataset draws")
    p.add_argument("--independent-f", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--log-every", type=int)
    p.add_argument("--known-class")
    p.add_argument("--mode", choices=("polyconvex", "nonpoly_linearC", "unconstrained"))
    p.add_argument("--width-x", type=int)
    p.add_argument("--width-y", type=int)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_study_samples)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except IoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (RuntimeError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
