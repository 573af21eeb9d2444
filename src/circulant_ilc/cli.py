"""Command line driver for table and figure-data reproduction.

Commands: analyze, optimize, simulate, compare, sweep, sensitivity. Each
reads an optional JSON config plus flag overrides (flags win), runs the
experiment, and writes CSV artifacts plus a metadata JSON that re-parses to
the same configuration. Exit codes: 0 success, 2 configuration error,
3 numerical degeneracy (any NumericalDegeneracyError).
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import convergence, laws, optimizer, simulation
from .errors import ConfigError, NumericalDegeneracyError
from .exports import fmt, matrix_filename, write_json, write_matrix, write_rows
from .lifted import DeletedModel, LiftedModel, circulant_inverse, delete_initial_steps
from .plants import PRESETS, ContinuousPlant, Preset, discretize_zoh, realize

__all__ = ["main", "ExperimentConfig", "build_config"]

_TRAJ_CHOICES = ("yd1", "yd2", "worst_case")
_MAX_SWEEP_POINTS = 100_000
# One memory budget bounds the work fields: 2**24 float64 entries (128 MiB) in the
# N x N lifted matrices, the (iterations + 1) x N learning record and the descent trace.
_MAX_ENTRIES = 2**24


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings shared by all commands."""

    plant: object = "third_order"   # preset name or inline plant spec dict
    n: int = 51
    sample_hz: float = 50.0
    q: int | None = None            # None: command-specific default
    law: str = "inverse_circulant"
    power: int = 1
    phi: float = 1.0
    law_gain: float = 1.0
    law_weight: float = 1.0
    opt_weight: float = 0.1
    opt_iterations: int | None = None
    region_size: int = 5
    phi_min: float = -1.0
    phi_max: float = 2.0
    phi_step: float = 0.05
    traj: str = "yd1"
    iterations: int = 100
    out: str = "."


def _is_number(value):
    """A float, or an int (not a bool) within the float range."""
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float)


def _is_section(entry):
    return isinstance(entry, dict) and set(entry) == {"omega", "zeta"} and all(
        map(_is_number, entry.values())
    )


def _parse_plant_dict(spec):
    if not isinstance(spec, dict):
        raise ConfigError("plant", f"expected a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - {"first_order", "second_order", "sample_hz", "N"}
    if unknown:
        raise ConfigError("plant", f"unknown plant field {sorted(unknown)[0]!r}")
    first, second = spec.get("first_order", []), spec.get("second_order", [])
    if not (isinstance(first, (list, tuple)) and all(map(_is_number, first))):
        raise ConfigError("plant", "first_order must be a list of numbers")
    if not (isinstance(second, (list, tuple)) and all(map(_is_section, second))):
        raise ConfigError("plant", "each second_order entry needs numeric omega and zeta, nothing else")
    try:
        plant = ContinuousPlant(tuple(first), tuple((s["omega"], s["zeta"]) for s in second))
    except ValueError as exc:
        raise ConfigError("plant", str(exc)) from None
    return plant, spec.get("sample_hz"), spec.get("N")


def _read_json(field, source):
    """The JSON value in file `source`; an unreadable or invalid file is a ConfigError."""
    try:
        return json.loads(Path(source).read_text())
    except (OSError, ValueError) as exc:  # ValueError: invalid JSON or UTF-8
        raise ConfigError(field, f"cannot read JSON from {source!r}: {exc}") from None


def _resolve_plant(source):
    """Return (ContinuousPlant, default hz, default N, Preset or None)."""
    if isinstance(source, str) and source in PRESETS:
        p = PRESETS[source]
        return p.plant, p.sample_hz, p.horizon, p
    if isinstance(source, str):
        if not Path(source).exists():
            raise ConfigError("plant", f"{source!r} is not a preset or an existing file")
        source = _read_json("plant", source)
    return (*_parse_plant_dict(source), None)


def build_config(args=None, file_config=None) -> ExperimentConfig:
    """Merge defaults, JSON config file values, and flag overrides (flags win)."""
    return _configure(args, file_config)[0]


def _configure(args, file_config):
    """The validated config plus the plant and Preset (or None) it resolved."""
    merged = {}
    if file_config is not None:
        if not isinstance(file_config, dict):
            raise ConfigError("config", f"expected a JSON object, got {type(file_config).__name__}")
        unknown = set(file_config) - {f for f in ExperimentConfig.__dataclass_fields__}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        merged.update(file_config)
    if args is not None:
        for name in ExperimentConfig.__dataclass_fields__:
            value = getattr(args, name, None)
            if value is not None:
                merged[name] = value

    plant_source = merged.get("plant", ExperimentConfig.plant)
    plant, hz_default, n_default, preset = _resolve_plant(plant_source)
    for name, value in (("sample_hz", hz_default), ("n", n_default)):
        if value is not None:
            merged.setdefault(name, value)
    if merged.get("opt_iterations") is None and preset is not None:
        merged["opt_iterations"] = preset.optimizer_iterations

    cfg = ExperimentConfig(**{**merged, "plant": plant_source})
    _validate(cfg)
    return cfg, plant, preset


def _validate(cfg: ExperimentConfig):
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.type is int or (f.type == int | None and value is not None):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f.name, f"must be an integer, got {value!r}")
        elif f.type is float:
            if not (_is_number(value) and abs(value) <= sys.float_info.max):  # NaN and inf fail
                raise ConfigError(f.name, f"must be a finite number, got {value!r}")
        elif f.type is str and not isinstance(value, str):
            raise ConfigError(f.name, f"must be a string, got {value!r}")
    if cfg.n < 1:
        raise ConfigError("n", "horizon must be at least 1")
    if not (cfg.sample_hz > 0 and np.isfinite(1.0 / cfg.sample_hz)):
        raise ConfigError("sample_hz", "sample rate must be positive, with a finite period")
    if cfg.law not in _LAWS:
        raise ConfigError("law", f"must be one of {tuple(_LAWS)}")
    if cfg.power < 1:
        raise ConfigError("power", "must be at least 1")
    if cfg.opt_weight <= 0:
        raise ConfigError("opt_weight", "must be positive")
    if cfg.opt_iterations is not None and cfg.opt_iterations < 1:
        raise ConfigError("opt_iterations", "must be at least 1")
    if cfg.law_weight <= 0:
        raise ConfigError("law_weight", "must be positive")
    if cfg.region_size < 1:
        raise ConfigError("region_size", "must be at least 1")
    if cfg.phi_step <= 0:
        raise ConfigError("phi_step", "must be positive")
    if cfg.phi_max < cfg.phi_min:
        raise ConfigError("phi_max", "must not be below phi_min")
    steps = (cfg.phi_max - cfg.phi_min) / cfg.phi_step
    if steps > _MAX_SWEEP_POINTS - 1:
        raise ConfigError("phi_step", f"{steps:.3g} grid steps exceed {_MAX_SWEEP_POINTS} points")
    if cfg.traj not in _TRAJ_CHOICES:
        raise ConfigError("traj", f"must be one of {_TRAJ_CHOICES}")
    if cfg.iterations < 0:
        raise ConfigError("iterations", "must be nonnegative")
    # the largest value whose arrays fit: n^2, (iterations + 1) n or opt_iterations + 1 entries
    for name, value, limit in (
        ("n", cfg.n, math.isqrt(_MAX_ENTRIES)),
        ("iterations", cfg.iterations, _MAX_ENTRIES // cfg.n - 1),
        ("opt_iterations", cfg.opt_iterations or 0, _MAX_ENTRIES - 1),
    ):
        if value > limit:  # the limit, not the value: an int can have 4300 digits
            raise ConfigError(name, f"at most {limit} fits the {_MAX_ENTRIES}-entry memory budget")
    if cfg.q is not None and not 0 <= cfg.q < cfg.n:  # after the budget: n then prints short
        raise ConfigError("q", f"must satisfy 0 <= q < {cfg.n}")


@dataclass(frozen=True)
class _Workspace:
    """One run's config, models and output directory, shared by the command handlers."""

    cfg: ExperimentConfig
    preset: Preset | None
    model: LiftedModel
    inverse: np.ndarray
    deleted: DeletedModel
    out: Path


def _workspace(cfg: ExperimentConfig, plant, preset, default_q=None) -> _Workspace:
    """Deletion count: explicit --q, else the command default (analyze: 0),
    else the preset's q, else the plant's unstable zero count."""
    discrete = discretize_zoh(realize(plant), 1.0 / cfg.sample_hz)
    model = LiftedModel.build(discrete, cfg.n)
    inverse = circulant_inverse(model)
    q = cfg.q if cfg.q is not None else default_q
    if q is None and preset is not None:
        q = preset.q
    try:
        deleted = delete_initial_steps(model, inverse, q)  # q None: unstable zero count
    except ValueError as exc:
        raise ConfigError("q", str(exc)) from None
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError("out", f"cannot create directory {cfg.out!r}: {exc}") from None
    return _Workspace(cfg, preset, model, inverse, deleted, out)


def _optimize(ws: _Workspace):
    deleted = ws.deleted
    region = optimizer.GainRegion.corner_blocks(
        deleted.circulant_inverse.shape, ws.cfg.region_size
    )
    config = optimizer.OptimizerConfig(
        iterations=ws.cfg.opt_iterations or Preset.optimizer_iterations,  # None without a preset
        weight=ws.cfg.opt_weight,
        region=region,
        reselect_region=getattr(ws.preset, "reselect_region", False),
    )
    return optimizer.optimize(deleted, config)


def _optimized_law(ws: _Workspace):
    trace = _optimize(ws)
    if trace.diagnostic is not None:
        raise trace.diagnostic
    return trace.law


# One constructor per law, in laws.KINDS order; each reads its own parameter from the config.
_LAWS = {
    "inverse_circulant": lambda ws: laws.inverse_circulant_law(ws.deleted),
    "optimized_inverse_circulant": _optimized_law,
    "accelerated": lambda ws: laws.accelerated_law(ws.deleted, ws.cfg.power),
    "scaled_inverse_circulant": lambda ws: laws.scaled_inverse_circulant_law(
        ws.deleted, ws.cfg.phi
    ),
    "partial_isometry": lambda ws: laws.partial_isometry_law(ws.deleted.toeplitz),
    "contraction_mapping": lambda ws: laws.contraction_mapping_law(
        ws.deleted.toeplitz, ws.cfg.law_gain
    ),
    "quadratic_cost": lambda ws: laws.quadratic_cost_law(ws.deleted.toeplitz, ws.cfg.law_weight),
}


def cmd_analyze(ws: _Workspace):
    cfg = ws.cfg
    law = _LAWS[cfg.law](ws)
    E = laws.error_propagation(ws.deleted.toeplitz, law)
    if cfg.power > 1 and cfg.law != "accelerated":
        E = np.linalg.matrix_power(E, cfg.power)
    report = convergence.analyze(E)
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
    print(
        f"sigma_max = {fmt(report.sigma_max)}  spectral_radius = {fmt(report.spectral_radius)}"
        f"  monotonic = {report.monotonic}  converges = {report.converges}"
    )
    return {"q": ws.deleted.q, "law": law.kind}, None


def cmd_optimize(ws: _Workspace):
    trace = _optimize(ws)
    write_rows(
        ws.out / "trace.csv",
        ["iteration", "sigma_max", "spectral_radius"],
        [(i, s, r) for i, (s, r) in enumerate(zip(trace.sigma, trace.rho))],
    )
    tag = matrix_filename("law_optimized_inverse_circulant", ws.cfg.n, ws.deleted.q)
    write_matrix(ws.out / tag, trace.gain)
    write_json(
        ws.out / (tag[:-4] + ".json"),
        {"kind": trace.law.kind, "q": trace.law.q, "params": trace.law.params},
    )
    if trace.diagnostic is None:
        print(f"sigma_max = {fmt(trace.sigma[-1])}  spectral_radius = {fmt(trace.rho[-1])}")
    resolved = {"q": ws.deleted.q, "reselect_region": getattr(ws.preset, "reselect_region", False)}
    return resolved, trace.diagnostic


def cmd_simulate(ws: _Workspace):
    """A diverging run writes its finite iterations and returns the error
    naming the first non-finite one."""
    cfg = ws.cfg
    diverged = None
    try:
        if cfg.traj == "worst_case":
            power = cfg.power if cfg.power > 1 else 6
            law = laws.accelerated_law(delete_initial_steps(ws.model, ws.inverse, 0), power)
            result = simulation.worst_case_experiment(ws.model, law, cfg.iterations)
        else:
            law = _LAWS[cfg.law](ws)
            traj = simulation.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
            result = simulation.run_ilc(ws.model, law, traj, cfg.iterations)
    except NumericalDegeneracyError as exc:
        if exc.result is None:  # the law broke down before any run
            raise
        diverged, result = exc, exc.result
    write_rows(
        ws.out / "rms.csv",
        ["iteration", "rms"],
        [(j, v) for j, v in enumerate(result.rms)],
    )
    if diverged is None:
        print(f"rms[0] = {fmt(result.rms[0])}  rms[{result.iterations}] = {fmt(result.rms[-1])}")
    return {"q": result.q, "law": result.law_kind, "traj": cfg.traj}, diverged


def cmd_compare(ws: _Workspace):
    cfg = ws.cfg
    kinds = (
        "optimized_inverse_circulant", "partial_isometry", "contraction_mapping", "quadratic_cost"
    )
    compared = [_LAWS[kind](ws) for kind in kinds]
    traj = simulation.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
    results = [simulation.run_ilc(ws.model, law, traj, cfg.iterations) for law in compared]
    header = ["iteration"] + [f"rms_{r.law_kind}" for r in results]
    rows = [
        [j] + [r.rms[j] for r in results] for j in range(cfg.iterations + 1)
    ]
    write_rows(ws.out / "compare.csv", header, rows)
    print("  ".join(f"{r.law_kind}: rms[-1]={fmt(r.rms[-1])}" for r in results))
    return {"q": ws.deleted.q, "laws": [r.law_kind for r in results], "traj": cfg.traj}, None


def cmd_sweep(ws: _Workspace):
    cfg = ws.cfg
    count = int(round((cfg.phi_max - cfg.phi_min) / cfg.phi_step))
    grid = cfg.phi_min + cfg.phi_step * np.arange(count + 1)
    sweep = convergence.gain_sweep(ws.deleted, grid)
    write_rows(
        ws.out / "sweep.csv",
        ["phi", "sigma_max", "spectral_radius"],
        list(zip(sweep.gains, sweep.sigma_max, sweep.spectral_radius)),
    )
    print(
        f"minimum sigma_max = {fmt(sweep.sigma_max[sweep.best_index])} "
        f"at phi = {fmt(sweep.best_gain)}"
    )
    return {"q": ws.deleted.q}, None


def cmd_sensitivity(ws: _Workspace):
    surface = optimizer.sensitivity_map(ws.deleted)
    write_matrix(ws.out / matrix_filename("sensitivity", ws.cfg.n, ws.deleted.q), surface.matrix)
    print(f"flagged columns: {surface.flagged_columns.tolist()}")
    return {"q": ws.deleted.q, "flagged_columns": surface.flagged_columns.tolist()}, None


# Each handler returns (resolved meta fields, the error that stopped it or None).
_COMMANDS = {
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "sensitivity": cmd_sensitivity,
}
_DEFAULT_Q = {"analyze": 0}  # the undeleted spectrum tables; other commands use the plant's q


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("experiment")
    g.add_argument("--config", help="JSON config file; flags override its values")
    g.add_argument("--plant", help="preset name (third_order, fourth_order, fifth_order) or plant spec JSON file")
    g.add_argument("--n", type=int, help="horizon length in steps")
    g.add_argument("--hz", dest="sample_hz", type=float, help="sample rate in Hz")
    g.add_argument("--q", type=int, help="deleted initial steps (analyze defaults to 0, other commands to the plant default)")
    g.add_argument("--law", choices=laws.KINDS, help="learning law kind")
    g.add_argument("--power", type=int, help="propagation-matrix power / accelerated-law power")
    g.add_argument("--phi", type=float, help="overall gain for the scaled law")
    g.add_argument("--law-gain", dest="law_gain", type=float, help="contraction-mapping gain")
    g.add_argument("--law-weight", dest="law_weight", type=float, help="quadratic-cost weight")
    g.add_argument("--opt-weight", dest="opt_weight", type=float, help="descent weight factor")
    g.add_argument("--opt-iterations", dest="opt_iterations", type=int, help="descent iterations")
    g.add_argument("--region-size", dest="region_size", type=int, help="corner block size for adjusted gains (presets that re-pick their region adjust as many positions)")
    g.add_argument("--phi-min", dest="phi_min", type=float)
    g.add_argument("--phi-max", dest="phi_max", type=float)
    g.add_argument("--phi-step", dest="phi_step", type=float)
    g.add_argument("--traj", choices=_TRAJ_CHOICES, help="desired trajectory")
    g.add_argument("--iterations", type=int, help="learning iterations (optimize: descent iterations if --opt-iterations absent)")
    g.add_argument("--out", help="output directory")

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
        cfg, plant, preset = _configure(args, file_config)
        if args.command == "compare" and cfg.traj == "worst_case":  # the accelerated law's own
            raise ConfigError("traj", "compare runs the yd1 or yd2 trajectory")
        ws = _workspace(cfg, plant, preset, _DEFAULT_Q.get(args.command))
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are checked
            resolved, stopped = _COMMANDS[args.command](ws)
        write_json(ws.out / f"{args.command}_meta.json", {"config": asdict(cfg), "resolved": resolved})
        if stopped is not None:
            raise stopped
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
