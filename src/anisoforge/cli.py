"""Command-line entry point wiring data generation, training, inversion,
and the finite-element harness together.

Configuration lives in an INI file with sections [data], [train],
[inverse], [fem]; command-line flags override file values, and the fully
resolved configuration is echoed into the run directory so every command
can be reproduced from it. SECTIONS declares every key once: its parser,
default, help and choices, from which the config check, the defaults and
each command's flags follow. Artifacts land under
runs/<name>/{config,checkpoints,logs,reports}.

Exit codes (EXIT_CODES): 0 success, 2 usage or configuration error,
3 numerical failure (Newton breakdown, divergent training, non-finite
objectives), 4 I/O or file-format error.

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
from typing import NamedTuple


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
# configuration schema: one table per section. Each key gets its config-file
# parser, its default and its flag from here; plain builtins only, so the
# table loads before numpy.


def _bool(raw):
    lowered = str(raw).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


class Opt(NamedTuple):
    """One config key: file-value parser, default, flag help, allowed values."""

    parse: object
    default: object = None
    help: str | None = None
    choices: tuple | None = None


SECTIONS = {
    "data": {
        "model": Opt(str, None, "material: neo-hookean or aniso-hgo"),
        "class": Opt(str, None, "anisotropy class for aniso-hgo: trans or ortho"),
        "grid": Opt(str, None, "design grid counts, e.g. 5x5 or 3x3x3"),
        "nf": Opt(int, 260, "deformation samples per design point"),
        "delta": Opt(float, 0.2, "entrywise half-width of the F box"),
        "seed": Opt(int, 0, "seed for the dataset draws"),
        "independent_f": Opt(_bool, False, "fresh deformation draws per design point"),
        "sampler": Opt(str, "lhs", None, ("lhs", "polar")),
        "stretch_lo": Opt(float, 0.8, "polar sampler lower stretch bound"),
        "stretch_hi": Opt(float, 1.45, "polar sampler upper stretch bound"),
        "dedupe": Opt(_bool, False, "drop samples that coincide in invariant space"),
        "dedupe_tol": Opt(float, 1e-8),
    },
    "train": {
        "epochs": Opt(int, 20000),
        "lr": Opt(float, 1e-3),
        "eps": Opt(float, 1e-3, "sparsity penalty weight"),
        "p": Opt(float, 0.25, "sparsity penalty exponent"),
        "warmup_frac": Opt(float, 0.1),
        "seed": Opt(int, 0, "training seed"),
        "log_every": Opt(int, 100),
        "early_stop": Opt(_bool, False),
        "plateau_tol": Opt(float, 1e-10),
        "plateau_window": Opt(int, 1000),
        "normalize_components": Opt(_bool, False),
        "known_class": Opt(str, None, "fix the class: iso, trans, or ortho"),
        "direction": Opt(str, None, "first preferred direction, e.g. 0,0,1"),
        "direction2": Opt(str, None, "second preferred direction"),
        "mode": Opt(str, "polyconvex", None, ("polyconvex", "nonpoly_linearC", "unconstrained")),
        "gamma": Opt(float, 1.0, "volumetric growth weight"),
        "width_x": Opt(int, 40),
        "width_y": Opt(int, 30),
        "depth": Opt(int, 3),
    },
    "inverse": {
        "method": Opt(str, "cma", None, ("cma", "nelder-mead")),
        "restarts": Opt(int, 5),
        "seed": Opt(int, 0),
        "max_evals": Opt(int, 6000),
        "f_target": Opt(float),
        "sigma0": Opt(float, None, "CMA-ES initial step size"),
        "popsize": Opt(int, None, "CMA-ES population size"),
        "tol_x": Opt(float, 1e-14, "CMA-ES step-size stop tolerance"),
        "tol_stagnation": Opt(int, 200, "CMA-ES stagnation window"),
        "step": Opt(float, None, "simplex initial edge length"),
        "tol": Opt(float, 1e-10, "simplex diameter stop tolerance"),
        "reflection": Opt(float, 1.0),
        "expansion": Opt(float, 2.0),
        "contraction": Opt(float, 0.5),
        "shrink": Opt(float, 0.5),
        "free_orientation": Opt(_bool, False, "also fit the orientation (phi, axis)"),
    },
    "fem": {
        "d": Opt(str, None, "design vector, e.g. 2.0,3.0"),
        "phi": Opt(float, None, "orientation angle override"),
        "axis": Opt(str, None, "orientation axis override, e.g. 0,0,1"),
        "lengths": Opt(str, "4,1,1", "beam dimensions, e.g. 4,1,1"),
        "divisions": Opt(str, "8,2,2", "mesh divisions, e.g. 8,2,2"),
        "u0": Opt(float, 0.1, "midspan dip magnitude"),
        "n_steps": Opt(int, 5),
        "tol": Opt(float, 1e-9, "Newton residual tolerance"),
        "max_iter": Opt(int, 25),
        "restarts": Opt(int, 5),
        "seed": Opt(int, 0),
        "max_evals": Opt(int, 150),
    },
}


def load_config(path):
    """Parse and validate an INI config into {section: {key: value}}."""
    # a "%" is a plain character, and with no default section [DEFAULT] is
    # an ordinary one, which the section check below rejects
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as e:
        raise IoError(f"cannot read config file: {e}")
    except configparser.Error as e:
        raise UsageError(f"malformed config file {path}: {e}")
    out = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise UsageError(
                f"unknown config section [{section}]; valid sections: "
                + ", ".join(sorted(SECTIONS))
            )
        opts = SECTIONS[section]
        out[section] = {}
        for key, raw in parser[section].items():
            if key not in opts:
                raise UsageError(
                    f"unknown key {key!r} in [{section}]; valid keys: "
                    + ", ".join(sorted(opts))
                )
            opt = opts[key]
            try:
                out[section][key] = opt.parse(raw)
            except ValueError:
                raise UsageError(f"bad value for {section}.{key}: {raw!r}")
            if opt.choices and out[section][key] not in opt.choices:
                raise UsageError(
                    f"bad value for {section}.{key}: {raw!r}; expected one of "
                    + ", ".join(opt.choices)
                )
    return out


def resolve_section(section, args, config):
    """defaults <- config file <- command-line flags, skipping unset flags.

    config is the parsed file (load_config) or {}; a key's flag stores its
    value under the attribute "<section>.<key>".
    """
    resolved = {key: opt.default for key, opt in SECTIONS[section].items()}
    resolved.update(config.get(section, {}))
    for key in resolved:
        flag = getattr(args, f"{section}.{key}", None)
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
    parser = configparser.ConfigParser(interpolation=None)
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


def _write_series(path, header, series):
    """A CSV of (count, value) rows under the two-name header, values to 10 digits."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([count, f"{value:.10e}"] for count, value in series)


# ---------------------------------------------------------------------------
# shared parsing and loading helpers


def _floats(raw, n=None, what="value list"):
    try:
        values = [float(x) for x in str(raw).split(",")]
    except ValueError:
        raise UsageError(f"{what} must be comma-separated numbers, got {raw!r}")
    if n is not None and len(values) != n:
        raise UsageError(f"{what} must have {n} entries, got {len(values)}")
    return values


def _ints(raw, sep, what, n=None):
    try:
        values = [int(x) for x in str(raw).split(sep)]
    except ValueError:
        raise UsageError(f"{what} must be {sep!r}-separated integers, got {raw!r}")
    if n is not None and len(values) != n:
        raise UsageError(f"{what} must have {n} entries, got {len(values)}")
    return values


CLASS_NAMES = {"iso": "iso", "trans": "transiso", "transiso": "transiso", "ortho": "ortho"}


def _class_name(raw, flag, allowed=("iso", "trans", "ortho")):
    """Canonical anisotropy class of a --class or --known-class value."""
    if CLASS_NAMES.get(raw) not in {CLASS_NAMES[a] for a in allowed}:
        raise UsageError(f"unknown {flag} {raw!r}; expected {', '.join(allowed)}")
    return CLASS_NAMES[raw]


def _aniso_class(model, cls):
    """Map the material/--class flags onto an anisotropy class name."""
    if model is None:
        raise UsageError("--model is required (neo-hookean or aniso-hgo)")
    if model == "neo-hookean":
        if cls not in (None, "iso"):
            raise UsageError("neo-hookean is isotropic; drop --class")
        return "iso"
    if model == "aniso-hgo":
        return _class_name("ortho" if cls is None else cls, "--class", ("trans", "ortho"))
    raise UsageError(f"unknown --model {model!r}; expected neo-hookean or aniso-hgo")


def _design_vector(raw, model):
    """The --d design vector, checked against the checkpoint's design width."""
    import numpy as np

    if raw is None:
        raise UsageError("--d is required (comma-separated design vector)")
    d = np.asarray(_floats(raw, what="--d"), dtype=float)
    if d.size != model.net.n_design:
        raise UsageError(
            f"--d has {d.size} entries but the checkpoint expects {model.net.n_design}"
        )
    return d


def _load_dataset(path):
    from . import datagen

    try:
        return datagen.load_dataset(path)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot load dataset: {e}")


def _read_checkpoint(path):
    from . import energy

    try:
        return energy.load_model(path)
    except (OSError, ValueError) as e:
        raise IoError(f"cannot load checkpoint: {e}")


def _load_model(path):
    """A checkpoint whose weights, activity logits, orientation and design
    bounds are all finite; train --resume reads a diverged one as written."""
    import numpy as np

    model = _read_checkpoint(path)
    numbers = {f"weight {k!r}": v for k, v in model.net.weights.items()}
    if model.aniso is not None:
        a = model.aniso
        numbers.update(alpha_bar=a.alpha_bar, phi=a.phi, p_raw=a.p_raw)
    numbers["d_bounds"] = model.d_bounds
    for name, value in numbers.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise IoError(f"cannot load checkpoint: {path}: {name} has non-finite entries")
    return model


def _data_config(resolved, n_f=None):
    """DataConfig from a resolved [data] section."""
    import numpy as np

    from . import datagen

    aniso_class = _aniso_class(resolved["model"], resolved["class"])
    grid = None
    if resolved["grid"] is not None:
        ranges = datagen.DEFAULT_GRIDS[aniso_class]
        counts = _ints(resolved["grid"], "x", "--grid")
        if len(counts) != len(ranges):
            raise UsageError(
                f"--grid has {len(counts)} axes but class {aniso_class} has "
                f"{len(ranges)} design parameters ({', '.join(ranges)})"
            )
        if min(counts) < 1:
            raise UsageError("--grid counts must be positive")
        grid = {name: np.linspace(lo, hi, n) for (name, (lo, hi)), n in zip(ranges.items(), counts)}
    shared = ("delta", "seed", "independent_f", "sampler", "dedupe", "dedupe_tol")
    return datagen.DataConfig(
        aniso_class=aniso_class,
        grid=grid,
        n_f=resolved["nf"] if n_f is None else n_f,
        stretch_bounds=(resolved["stretch_lo"], resolved["stretch_hi"]),
        **{key: resolved[key] for key in shared},
    )


def _fem_config(resolved, model):
    import numpy as np

    from . import fem

    axis = resolved["axis"]
    return fem.FemConfig(
        D=_design_vector(resolved["d"], model),
        p_raw=None if axis is None else np.asarray(_floats(axis, n=3, what="--axis")),
        lengths=tuple(_floats(resolved["lengths"], n=3, what="--lengths")),
        divisions=tuple(_ints(resolved["divisions"], ",", "--divisions", n=3)),
        **{key: resolved[key] for key in ("u0", "n_steps", "tol", "max_iter", "phi")},
    )


def _train_config(resolved):
    from dataclasses import fields

    from . import training

    return training.TrainConfig(**{f.name: resolved[f.name] for f in fields(training.TrainConfig)})


def _fresh_model(resolved, n_design):
    """Discovery or known-class model per the resolved [train] section."""
    import numpy as np

    from . import tensor_core as tc
    from . import training

    net_keys = ("mode", "gamma", "seed", "width_x", "width_y", "depth")
    net_kwargs = {key: resolved[key] for key in net_keys}
    known = resolved["known_class"]
    direction, direction2 = resolved["direction"], resolved["direction2"]
    if direction2 is not None and direction is None:
        raise UsageError("--direction2 needs --direction")
    if direction is not None and known is None:
        raise UsageError("--direction needs --known-class; discovery learns the directions")
    if known is None:
        return training.model_for_discovery(n_design, **net_kwargs)
    aniso_class = _class_name(known, "--known-class")
    n1 = n2 = None
    if direction is not None:
        n1 = tc.unit_vector(_floats(direction, n=3, what="--direction"))
        if direction2 is not None:
            n2 = np.asarray(_floats(direction2, n=3, what="--direction2"), dtype=float)
        else:
            # any unit vector orthogonal to n1 completes the frame
            seed_axis = np.eye(3)[int(np.argmin(np.abs(n1)))]
            n2 = tc.unit_vector(seed_axis - (seed_axis @ n1) * n1)
    return training.model_for_known_class(n_design, aniso_class, n1=n1, n2=n2, **net_kwargs)


def _resume_model_keys(model, resolved, args):
    """Set the [train] keys that choose the model to the resumed checkpoint's.

    A flag or config-file value that disagrees with the checkpoint is a usage error.
    """
    stored = {key: getattr(model.net, key) for key in ("width_x", "width_y", "depth")}
    fixed_class = model.aniso is None or model.aniso.alpha_bar is None
    stored.update(mode=model.config.mode, gamma=model.config.gamma, direction=None, direction2=None,
                  known_class=model.config.aniso_class if fixed_class else None)
    in_file = args.file_config.get("train", {})
    for key, value in stored.items():
        given, name = getattr(args, f"train.{key}"), "--" + key.replace("_", "-")
        if given is None:
            given, name = in_file.get(key), f"[train] {key}"
        if key == "known_class" and given is not None:
            given = _class_name(given, name)
        if given is not None and given != value:
            raise UsageError(f"{name} {given} disagrees with the resumed checkpoint's {key} {value}")
    resolved.update(stored)


def _check_dataset(model, ds, what):
    """Reject a dataset of another generator class or design width than the checkpoint's."""
    trained_on = model.meta.get("data_class")
    ds_class = ds.meta.get("class")
    if trained_on is not None and ds_class is not None and trained_on != ds_class:
        raise IoError(
            f"class metadata mismatch: checkpoint was trained on {trained_on!r} data "
            f"but {what} is {ds_class!r}"
        )
    if model.net.n_design != ds.D.shape[1]:
        raise IoError(
            f"checkpoint expects {model.net.n_design} design parameters, "
            f"{what} has {ds.D.shape[1]}"
        )


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags, the run directory and its resolved
# config sections; main echoes those sections once the command succeeds


def cmd_gen_data(args, run, sections):
    from . import datagen

    ds = datagen.build_dataset(_data_config(sections["data"]))
    out = Path(args.out) if args.out else run / "dataset.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    datagen.save_dataset(ds, out)
    print(f"wrote {len(ds)} records to {out}")


def cmd_train(args, run, sections):
    resolved = sections["train"]
    ds = _load_dataset(args.data)

    from . import energy, training
    from . import tensor_core as tc

    cfg = _train_config(resolved)
    if args.resume:
        # a diverged checkpoint resumes, so that training reports its divergence
        model = _read_checkpoint(args.resume)
        start_epoch = int(model.meta.get("trained_epochs", 0))
        if start_epoch >= cfg.epochs:
            raise UsageError(
                f"checkpoint already trained for {start_epoch} epochs; "
                f"raise --epochs past that to continue"
            )
        _check_dataset(model, ds, "dataset")
        _resume_model_keys(model, resolved, args)
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
        "axis": tc.unit_vector(aniso.p_raw).tolist() if aniso is not None else None,
        "directions": directions,
    }
    write_json(run / "reports" / "train_report.json", report)
    print(
        f"trained {report['epochs_run']} epochs, final loss {result.final_loss:.6e}, "
        f"class {report['class']}; checkpoint at {ckpt}"
    )


def cmd_invert(args, run, sections):
    resolved = sections["inverse"]
    model = _load_model(args.model)
    ds = _load_dataset(args.data)
    _check_dataset(model, ds, "target dataset")

    from . import inverse

    method = resolved["method"]
    if method == "cma":
        option_keys = ("popsize", "tol_x", "tol_stagnation")
    else:
        option_keys = ("step", "tol", "reflection", "expansion", "contraction", "shrink")
    result = inverse.invert_design(
        model,
        ds.C,
        ds.S,
        method=method,
        trace_path=run / "logs" / "trace.csv",
        options={k: resolved[k] for k in option_keys if resolved[k] is not None},
        **{k: resolved[k] for k in ("restarts", "seed", "free_orientation", "max_evals",
                                    "f_target", "sigma0")},
    )

    report = result.report()
    report["method"] = method
    report["seed"] = resolved["seed"]
    write_json(run / "reports" / "inversion.json", report)
    design = ", ".join(f"{x:.6g}" for x in result.D)
    print(f"recovered design [{design}] with objective {result.objective:.6e}")


def cmd_fem(args, run, sections):
    model = _load_model(args.model)
    cfg = _fem_config(sections["fem"], model)

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
    print(f"solved {cfg.n_steps} load steps; max Von Mises {report['max_von_mises']:.6e}")


def cmd_fem_invert(args, run, sections):
    resolved = sections["fem"]
    model = _load_model(args.model)
    cfg = _fem_config(resolved, model)

    from . import fem

    mesh = fem.box_mesh(cfg.lengths, cfg.divisions)
    fit = fem.invert_orientation(
        mesh, cfg, model, **{k: resolved[k] for k in ("restarts", "seed", "max_evals")}
    )

    for k, trace in enumerate(fit.traces):
        _write_series(run / "logs" / f"trace_restart_{k}.csv", ("evals", "best_objective"), trace)

    write_json(run / "reports" / "orientation.json", fit.report())
    if fit.insensitive:
        print(f"isotropic model: orientation has no effect; max Von Mises {fit.objective:.6e}")
    else:
        axis = ", ".join(f"{x:.6g}" for x in fit.axis)
        print(
            f"best orientation phi={fit.phi:.6g}, axis=[{axis}], "
            f"max Von Mises {fit.objective:.6e}"
        )


def cmd_probe_isotropy(args, run, sections):
    model = _load_model(args.model)
    d = _design_vector(args.d, model)

    from . import datagen, energy

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


def cmd_study_samples(args, run, sections):
    sizes = _ints(args.sizes, ",", "--sizes")
    if any(s < 1 for s in sizes):
        raise UsageError("--sizes entries must be positive")

    from . import datagen, training

    cfg = _train_config(sections["train"])
    final_losses = {}
    for size in sizes:
        ds = datagen.build_dataset(_data_config(sections["data"], n_f=size))
        model = _fresh_model(sections["train"], ds.D.shape[1])
        result = training.train(model, ds, cfg)
        _write_series(run / "logs" / f"loss_n{size}.csv", ("epoch", "loss"),
                      enumerate(result.history["loss"]))
        final_losses[str(size)] = result.final_loss
        print(f"n_f={size}: {len(ds)} records, final loss {result.final_loss:.6e}")

    write_json(
        run / "reports" / "study.json",
        {"sizes": sizes, "epochs": cfg.epochs, "final_losses": final_losses},
    )


# ---------------------------------------------------------------------------
# argument parsing


def _section_flags(p, *sections, skip=(), rename=None):
    """One flag per key of each section the command reads.

    A flag stores under "<section>.<key>" and defaults to None, so an unset
    flag leaves the config-file value alone; skip and rename take the same
    "<section>.<key>" names.
    """
    for section in sections:
        for key, opt in SECTIONS[section].items():
            dest = f"{section}.{key}"
            if dest in skip:
                continue
            flag = (rename or {}).get(dest, "--" + key.replace("_", "-"))
            if opt.parse is _bool:
                p.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction,
                               default=None, help=opt.help)
            else:
                metavar = None if opt.choices else flag[2:].replace("-", "_").upper()
                p.add_argument(flag, dest=dest, type=opt.parse, choices=opt.choices,
                               metavar=metavar, help=opt.help)
    p.set_defaults(sections=sections)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anisoforge",
        description="polyconvex hyperelastic surrogates: data, training, inversion, FE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--run", default=name, help="run name under the runs root")
        p.add_argument("--runs-root", default="runs", help="directory holding all runs")
        p.add_argument("--config", help="INI config file; flags override its values")
        p.add_argument("--threads", type=int, help="cap BLAS threads (env: ANISOFORGE_THREADS)")
        p.set_defaults(func=func, sections=())
        return p

    p = command("gen-data", cmd_gen_data, "generate a stress-strain dataset")
    p.add_argument("--out", help="dataset path (default <run>/dataset.txt)")
    _section_flags(p, "data")

    p = command("train", cmd_train, "fit a surrogate to a dataset")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--resume", help="checkpoint to continue training from")
    _section_flags(p, "train")

    p = command("invert", cmd_invert, "recover design parameters from target stresses")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--data", required=True, help="target dataset file")
    _section_flags(p, "inverse")

    p = command("fem", cmd_fem, "solve the simply supported beam and write VTK")
    p.add_argument("--model", required=True, help="trained checkpoint")
    _section_flags(p, "fem", skip={"fem.restarts", "fem.seed", "fem.max_evals"})

    p = command("fem-invert", cmd_fem_invert, "find the orientation minimizing peak Von Mises")
    p.add_argument("--model", required=True, help="trained checkpoint")
    _section_flags(p, "fem")

    p = command("probe-isotropy", cmd_probe_isotropy, "shear-sweep isotropy check of a checkpoint")
    p.add_argument("--model", required=True, help="trained checkpoint")
    p.add_argument("--d", help="design vector, e.g. 2.0,3.0")
    p.add_argument("--gamma-max", type=float, default=0.3)
    p.add_argument("--n-gamma", type=int, default=13)

    p = command("study-samples", cmd_study_samples, "train at several sample sizes, emit loss CSVs")
    p.add_argument("--sizes", default="20,50,100", help="comma-separated deformation counts")
    _section_flags(p, "data", "train", skip={"data.nf"}, rename={"data.seed": "--data-seed"})

    return parser


# the exit code of an error: the first row whose types it is an instance of
EXIT_CODES = (
    (UsageError, 2),
    (IoError, 4),
    ((RuntimeError, FloatingPointError), 3),
    (ValueError, 2),
    (OSError, 4),
)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap(argv)
        args = build_parser().parse_args(argv)
        run = make_run_dir(args)
        config = args.file_config = load_config(args.config) if args.config and args.sections else {}
        sections = {section: resolve_section(section, args, config) for section in args.sections}
        args.func(args, run, sections)
        if sections:
            echo_config(run, sections)
        return 0
    except Exception as e:
        code = next((code for types, code in EXIT_CODES if isinstance(e, types)), None)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
