"""Command line driver for table and figure-data reproduction.

Commands: analyze, optimize, simulate, compare, sweep, sensitivity. Each
reads an optional JSON config plus flag overrides (flags win), runs the
experiment, and writes CSV artifacts plus a metadata JSON that re-parses to
the same configuration. Exit codes: 0 success, 2 configuration error,
3 numerical degeneracy (any NumericalDegeneracyError), 4 standard output
could not be written (every artifact is written first).
"""

import gc

if __name__ == "__main__":  # a command's own process: its imports run no collection
    gc.disable()

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

import circulant_ilc as ilc  # the other layers load on a command's first call (PEP 562)
from .errors import ConfigError, NumericalDegeneracyError, check_integer, check_real, shown
from .exports import fmt, matrix_filename, write_json, write_matrix, write_rows
from .lifted import DeletedModel, LiftedModel, circulant_inverse, delete_initial_steps
from .plants import PRESETS, ContinuousPlant, Preset, discretize_zoh, realize

__all__ = ["main", "run", "ExperimentConfig", "build_config"]

_TRAJ_CHOICES = ("yd1", "yd2", "worst_case")
_MAX_SWEEP_POINTS = 100_000
# One memory budget bounds the work fields: 2**24 float64 entries (128 MiB) in the
# N x N lifted matrices, the two (iterations + 1) x N learning histories (the inputs,
# and the errors with the deleted steps' errors) and the descent trace.
_MAX_ENTRIES = 2**24


def _setting(default, help=None, *, flag=None, choices=None, least=None):
    """A config field that declares its command-line flag (default --name-with-dashes)
    and its bound: an integer is at least `least`, a float above it."""
    metadata = {"help": help, "flag": flag, "choices": choices, "least": least}
    return field(default=default, metadata=metadata)


def _optimize(ws):
    config = ilc.OptimizerConfig(
        iterations=ws.cfg.opt_iterations,
        weight=ws.cfg.opt_weight,
        region_size=ws.cfg.region_size,
        reselect_region=ws.preset.reselect_region,
    )
    return ilc.optimize(ws.deleted, config)


def _optimized_law(ws):
    trace = _optimize(ws)
    if trace.diagnostic is not None:
        raise trace.diagnostic
    return trace.law


# The one list of law kinds, in the order of the --law choices. Each constructor takes
# the _Workspace and reads its own parameter from the config.
_LAWS = {
    "inverse_circulant": lambda ws: ilc.inverse_circulant_law(ws.deleted),
    "optimized_inverse_circulant": _optimized_law,
    "accelerated": lambda ws: ilc.accelerated_law(ws.deleted, ws.cfg.power),
    "scaled_inverse_circulant": lambda ws: ilc.scaled_inverse_circulant_law(
        ws.deleted, ws.cfg.phi
    ),
    "partial_isometry": lambda ws: ilc.partial_isometry_law(ws.deleted.toeplitz),
    "contraction_mapping": lambda ws: ilc.contraction_mapping_law(
        ws.deleted.toeplitz, ws.cfg.law_gain
    ),
    "quadratic_cost": lambda ws: ilc.quadratic_cost_law(ws.deleted.toeplitz, ws.cfg.law_weight),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings shared by all commands, each with its flag."""

    # a config file may also give an inline plant spec dict
    plant: object = _setting("third_order", "preset name (third_order, fourth_order, fifth_order) or plant spec JSON file")
    n: int = _setting(Preset.horizon, "horizon length in steps", least=1)
    sample_hz: float = _setting(Preset.sample_hz, "sample rate in Hz", flag="--hz", least=0.0)
    q: int | None = _setting(None, "deleted initial steps (analyze defaults to 0, other commands to the plant default)")
    law: str = _setting("inverse_circulant", "learning law kind", choices=tuple(_LAWS))
    power: int = _setting(1, "propagation-matrix power / accelerated-law power (simulate --traj worst_case: the power when above 1, else the paper's 6)", least=1)
    phi: float = _setting(1.0, "overall gain for the scaled law")
    law_gain: float = _setting(1.0, "contraction-mapping gain")
    law_weight: float = _setting(1.0, "quadratic-cost weight", least=0.0)
    # OptimizerConfig's defaults stay literals: reading them would load optimizer for every command
    opt_weight: float = _setting(0.1, "descent weight factor", least=0.0)
    opt_iterations: int | None = _setting(None, "descent iterations", least=1)  # None: the plant's
    region_size: int = _setting(5, "corner block size for adjusted gains (presets that re-pick their region adjust as many positions)", least=1)
    phi_min: float = _setting(-1.0)
    phi_max: float = _setting(2.0)
    phi_step: float = _setting(0.05, least=0.0)
    traj: str = _setting("yd1", "desired trajectory", choices=_TRAJ_CHOICES)
    iterations: int = _setting(100, "learning iterations (optimize: descent iterations if --opt-iterations absent)", least=0)
    out: str = _setting(".", "output directory")


def _is_section(entry):
    return isinstance(entry, dict) and set(entry) == {"omega", "zeta"}


def _parse_plant_dict(spec):
    if not isinstance(spec, dict):
        raise ConfigError("plant", f"expected a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - {"first_order", "second_order", "sample_hz", "N"}
    if unknown:
        raise ConfigError("plant", f"unknown plant field {shown(sorted(unknown)[0])}")
    first, second = spec.get("first_order", []), spec.get("second_order", [])
    # the JSON shape only: ContinuousPlant checks each number
    if not isinstance(first, (list, tuple)):
        raise ConfigError("plant", "first_order must be a list of numbers")
    if not (isinstance(second, (list, tuple)) and all(map(_is_section, second))):
        raise ConfigError("plant", "each second_order entry needs numeric omega and zeta, nothing else")
    try:
        plant = ContinuousPlant(tuple(first), tuple((s["omega"], s["zeta"]) for s in second))
    except ValueError as exc:
        raise ConfigError("plant", str(exc)) from None
    defaults = {"sample_hz": spec.get("sample_hz"), "horizon": spec.get("N")}
    return Preset(plant, **{name: value for name, value in defaults.items() if value is not None})


def _read_json(field, source):
    """The JSON value in file `source`; an unreadable or invalid file is a ConfigError."""
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
        reason = getattr(exc, "strerror", exc)  # an OSError's text repeats the path
        raise ConfigError(field, f"cannot read JSON from {shown(source)}: {reason}") from None


def _resolve_plant(source) -> Preset:
    """The named preset, or the plant spec's plant with its sample_hz and N
    (unchecked here: the config validates them as sample_hz and n)."""
    if isinstance(source, str) and source in PRESETS:
        return PRESETS[source]
    if isinstance(source, str):
        try:
            exists = Path(source).exists()
        except OSError:  # a name the file system cannot hold, such as one too long
            exists = False
        if not exists:
            raise ConfigError("plant", f"{shown(source)} is not a preset or an existing file")
        source = _read_json("plant", source)
    return _parse_plant_dict(source)


def build_config(args=None, file_config=None) -> ExperimentConfig:
    """Merge defaults, JSON config file values, and flag overrides (flags win)."""
    return _configure(args, file_config)[0]


def _configure(args, file_config):
    """The validated config plus the Preset its plant resolved to."""
    merged = {}
    if file_config is not None:
        if not isinstance(file_config, dict):
            raise ConfigError("config", f"expected a JSON object, got {type(file_config).__name__}")
        unknown = set(file_config) - {f for f in ExperimentConfig.__dataclass_fields__}
        if unknown:
            raise ConfigError("config", f"unknown configuration field {shown(sorted(unknown)[0])}")
        merged.update(file_config)
    if args is not None:
        for name in ExperimentConfig.__dataclass_fields__:
            value = getattr(args, name, None)
            if value is not None:
                merged[name] = value

    plant_source = merged.get("plant", ExperimentConfig.plant)
    preset = _resolve_plant(plant_source)
    merged.setdefault("sample_hz", preset.sample_hz)
    merged.setdefault("n", preset.horizon)
    if merged.get("opt_iterations") is None:
        merged["opt_iterations"] = preset.optimizer_iterations

    cfg = ExperimentConfig(**{**merged, "plant": plant_source})
    _validate(cfg)
    return cfg, preset


def _checked(name, call, *args):
    """call(*args), with a check's ValueError "<name> <rule>" raised as the
    ConfigError "<name>: <rule>"."""
    try:
        return call(*args)
    except ValueError as exc:
        raise ConfigError(name, str(exc).removeprefix(f"{name} ")) from None


def _grid_steps(cfg: ExperimentConfig) -> float:
    """The sweep grid's step count: its floor(count) + 1 points pass phi_max by at most 1e-9 step."""
    return (cfg.phi_max - cfg.phi_min) / cfg.phi_step + 1e-9


def _validate(cfg: ExperimentConfig):
    for f in fields(ExperimentConfig):
        value, least = getattr(cfg, f.name), f.metadata["least"]
        if f.type is int or (f.type == int | None and value is not None):
            _checked(f.name, check_integer, value, f.name, least)
        elif f.type is float:
            _checked(f.name, check_real, value, f.name, least)
        if f.type is str and not isinstance(value, str):
            raise ConfigError(f.name, f"must be a string, got {shown(value)}")
        if f.metadata["choices"] and value not in f.metadata["choices"]:
            raise ConfigError(f.name, f"must be one of {f.metadata['choices']}")
    _checked("sample_hz", check_real, 1.0 / cfg.sample_hz, "period")
    if cfg.phi_max < cfg.phi_min:
        raise ConfigError("phi_max", "must not be below phi_min")
    if not (steps := _grid_steps(cfg)) < _MAX_SWEEP_POINTS:  # inf fails too; np.floor keeps it
        raise ConfigError("phi_step", f"{np.floor(steps) + 1:.6g} grid points exceed {_MAX_SWEEP_POINTS}")
    # the largest value whose arrays fit: n^2, 2 (iterations + 1) n or opt_iterations + 1 entries
    for name, value, limit in (
        ("n", cfg.n, math.isqrt(_MAX_ENTRIES)),
        ("iterations", cfg.iterations, _MAX_ENTRIES // (2 * cfg.n) - 1),
        ("opt_iterations", cfg.opt_iterations, _MAX_ENTRIES - 1),
    ):
        if value > limit:  # the limit, not the value: an int can have 4300 digits
            raise ConfigError(name, f"at most {limit} fits the {_MAX_ENTRIES}-entry memory budget")
    if cfg.q is not None:  # after the budget: n then prints short
        _checked("q", check_integer, cfg.q, "q", 0, cfg.n)


@dataclass(frozen=True)
class _Workspace:
    """One run's config, models and output directory, shared by the command handlers."""

    cfg: ExperimentConfig
    preset: Preset
    model: LiftedModel
    inverse: np.ndarray
    deleted: DeletedModel
    out: Path


def _workspace(cfg: ExperimentConfig, preset: Preset, default_q=None) -> _Workspace:
    """Deletion count: explicit --q, else the command default (analyze: 0),
    else the preset's q, else (q None) the plant's unstable zero count."""
    discrete = discretize_zoh(realize(preset.plant), 1.0 / cfg.sample_hz)
    model = LiftedModel.build(discrete, cfg.n)
    inverse = circulant_inverse(model)
    q = cfg.q if cfg.q is not None else default_q
    if q is None:
        q = preset.q
    deleted = _checked("q", delete_initial_steps, model, inverse, q)  # q None: unstable zero count
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", exc)  # an OSError's text repeats the path
        raise ConfigError("out", f"cannot create directory {shown(cfg.out)}: {reason}") from None
    return _Workspace(cfg, preset, model, inverse, deleted, out)


def cmd_analyze(ws: _Workspace):
    cfg = ws.cfg
    law = _LAWS[cfg.law](ws)
    E = ilc.error_propagation(ws.deleted.toeplitz, law)
    if cfg.power > 1 and cfg.law != "accelerated":
        E = np.linalg.matrix_power(E, cfg.power)
    report = ilc.analyze(E)
    spectra = zip(report.singular_values, report.eigenvalue_magnitudes)
    write_rows(
        ws.out / "table.csv",
        ["order", "singular_value", "eigenvalue_magnitude"],
        [(i, s, v) for i, (s, v) in enumerate(spectra, start=1)],
    )
    write_json(
        ws.out / "report.json",
        {
            "singular_values": [fmt(v) for v in report.singular_values],
            "eigenvalue_magnitudes": [fmt(v) for v in report.eigenvalue_magnitudes],
            "spectral_radius": fmt(report.spectral_radius),
            "converges": report.converges,
            "monotonic": report.monotonic,
        },
    )
    line = (
        f"sigma_max = {fmt(report.sigma_max)}  spectral_radius = {fmt(report.spectral_radius)}"
        f"  monotonic = {report.monotonic}  converges = {report.converges}"
    )
    return {"q": ws.deleted.q, "law": cfg.law}, line


def cmd_optimize(ws: _Workspace):
    cfg, kind = ws.cfg, "optimized_inverse_circulant"
    trace = _optimize(ws)
    write_rows(ws.out / "trace.csv", ["iteration", "sigma_max"], enumerate(trace.sigma))
    tag = matrix_filename(f"law_{kind}", cfg.n, ws.deleted.q)
    write_matrix(ws.out / tag, trace.gain)
    params = {"weight": cfg.opt_weight, "iterations": cfg.opt_iterations}
    write_json(ws.out / (tag[:-4] + ".json"), {"kind": kind, "q": ws.deleted.q, "params": params})
    resolved = {"q": ws.deleted.q, "reselect_region": ws.preset.reselect_region}
    if trace.diagnostic is not None:
        return resolved, trace.diagnostic
    return resolved, f"sigma_max = {fmt(trace.sigma[-1])}  spectral_radius = {fmt(trace.rho[-1])}"


def cmd_simulate(ws: _Workspace):
    """A diverging run writes its finite iterations and ends with the error
    naming the first non-finite one."""
    cfg = ws.cfg
    resolved, diverged = {"traj": cfg.traj}, None
    try:
        if cfg.traj == "worst_case":
            kind, power = "accelerated", cfg.power if cfg.power > 1 else 6
            law = ilc.accelerated_law(delete_initial_steps(ws.model, ws.inverse, 0), power)
            resolved["power"] = power
            result = ilc.worst_case_experiment(ws.model, law, cfg.iterations)
        else:
            kind, law = cfg.law, _LAWS[cfg.law](ws)
            traj = ilc.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
            result = ilc.run_ilc(ws.model, law, traj, cfg.iterations)
    except ilc.DivergedRunError as exc:  # the one error that carries a run's record
        diverged, result = exc, exc.result
    write_rows(
        ws.out / "rms.csv",
        ["iteration", "rms"],
        [(j, v) for j, v in enumerate(result.rms)],
    )
    resolved = {**resolved, "q": law.q, "law": kind}
    if diverged is not None:
        return resolved, diverged
    return resolved, (
        f"rms[0] = {fmt(result.rms[0])}  rms[{result.iterations}] = {fmt(result.rms[-1])}"
    )


def cmd_compare(ws: _Workspace):
    cfg = ws.cfg
    kinds = (
        "optimized_inverse_circulant", "partial_isometry", "contraction_mapping", "quadratic_cost"
    )
    compared = [_LAWS[kind](ws) for kind in kinds]
    traj = ilc.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
    # only the rms: one run's histories are live at a time
    rms = {
        kind: ilc.run_ilc(ws.model, law, traj, cfg.iterations).rms
        for kind, law in zip(kinds, compared)
    }
    header = ["iteration"] + [f"rms_{kind}" for kind in rms]
    rows = [[j] + [r[j] for r in rms.values()] for j in range(cfg.iterations + 1)]
    write_rows(ws.out / "compare.csv", header, rows)
    line = "  ".join(f"{kind}: rms[-1]={fmt(r[-1])}" for kind, r in rms.items())
    return {"q": ws.deleted.q, "laws": list(rms), "traj": cfg.traj}, line


def cmd_sweep(ws: _Workspace):
    cfg = ws.cfg
    grid = cfg.phi_min + cfg.phi_step * np.arange(math.floor(_grid_steps(cfg)) + 1)
    sweep = ilc.gain_sweep(ws.deleted, grid)
    write_rows(
        ws.out / "sweep.csv",
        ["phi", "sigma_max", "spectral_radius"],
        list(zip(sweep.gains, sweep.sigma_max, sweep.spectral_radius)),
    )
    line = (
        f"minimum sigma_max = {fmt(sweep.sigma_max[sweep.best_index])} "
        f"at phi = {fmt(sweep.best_gain)}"
    )
    return {"q": ws.deleted.q}, line


def cmd_sensitivity(ws: _Workspace):
    surface = ilc.sensitivity_map(ws.deleted)
    write_matrix(ws.out / matrix_filename("sensitivity", ws.cfg.n, ws.deleted.q), surface.matrix)
    flagged = surface.flagged_columns.tolist()
    return {"q": ws.deleted.q, "flagged_columns": flagged}, f"flagged columns: {flagged}"


# Each handler returns (resolved meta fields, its stdout line or the error that stopped it).
_COMMANDS = {
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "sensitivity": cmd_sensitivity,
}
_DEFAULT_Q = {"analyze": 0}  # the undeleted spectrum tables; other commands use the plant's q


def _integer(text):
    """int(text); an unparsable value shows only its first 20 characters."""
    try:
        return int(text)
    except ValueError:  # also past Python's 4300-digit limit
        raise argparse.ArgumentTypeError(f"invalid integer {shown(text)}") from None


_FLAG_TYPES = {int: _integer, int | None: _integer, float: float}  # other fields: the string


def _flag(setting) -> str:
    """The command-line flag of an ExperimentConfig field."""
    return setting.metadata["flag"] or "--" + setting.name.replace("_", "-")


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("experiment")
    g.add_argument("--config", help="JSON config file; flags override its values")
    for f in fields(ExperimentConfig):
        g.add_argument(_flag(f), dest=f.name, type=_FLAG_TYPES.get(f.type),
                       choices=f.metadata["choices"], help=f.metadata["help"])

    parser = argparse.ArgumentParser(
        prog="circulant-ilc",
        description="Design and evaluate inverse-circulant iterative learning controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        file_config = _read_json("config", args.config) if args.config else None
        if args.command == "optimize" and args.opt_iterations is None and args.iterations is not None:
            args.opt_iterations, args.iterations = args.iterations, None
        cfg, preset = _configure(args, file_config)
        if args.command == "compare" and cfg.traj == "worst_case":  # the accelerated law's own
            raise ConfigError("traj", "compare runs the yd1 or yd2 trajectory")
        ws = _workspace(cfg, preset, _DEFAULT_Q.get(args.command))
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are checked
                resolved, ending = _COMMANDS[args.command](ws)
            write_json(ws.out / f"{args.command}_meta.json", {"config": asdict(cfg), "resolved": resolved})
        except OSError as exc:  # an artifact write: a directory in a file's place, a full disk
            path = cfg.out if exc.filename is None else exc.filename
            raise ConfigError("out", f"cannot write {shown(path)}: {exc.strerror}") from None
        if isinstance(ending, NumericalDegeneracyError):
            raise ending
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    try:  # flushed here, so a buffered stdout fails as an unbuffered one does
        print(ending, flush=True)
    except OSError as exc:  # a closed pipe, a full disk: every artifact is written
        print(f"cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 4
    return 0


def run(argv=None):
    """The process entry point: main with the cyclic collector off, then the
    process ends with main's exit code through os._exit once stdout and stderr
    are flushed, so the interpreter's teardown (atexit handlers with it) never
    runs. argparse's SystemExit and an uncaught exception leave as they would
    from main. In-process callers use main."""
    gc.disable()
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):  # None: the process started with it closed
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # only a stdout whose failure main reported (exit 4) holds bytes
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
