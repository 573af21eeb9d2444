"""Command line driver for table and figure-data reproduction.

Commands: analyze, optimize, simulate, compare, sweep, sensitivity. Each
reads an optional JSON config plus flag overrides (flags win), runs the
experiment, and writes CSV artifacts plus a metadata JSON that re-parses to
the same configuration. Exit codes: 0 success, 2 configuration error,
3 numerical degeneracy.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import convergence, laws, optimizer, simulation
from .errors import (
    ConfigError,
    DegenerateSingularValueError,
    DivergedRunError,
    IllConditionedCirculantError,
    RankDeficientPlantError,
)
from .exports import fmt, matrix_filename, write_json, write_matrix, write_rows
from .lifted import DeletedModel, LiftedModel, circulant_inverse, delete_initial_steps
from .plants import PRESETS, ContinuousPlant, discretize_zoh, realize

__all__ = ["main", "ExperimentConfig", "build_config"]

_TRAJ_CHOICES = ("yd1", "yd2", "worst_case")
_INT_FIELDS = ("n", "q", "power", "opt_iterations", "region_size", "iterations")
_FLOAT_FIELDS = (
    "sample_hz", "phi", "law_gain", "law_weight", "opt_weight", "phi_min", "phi_max", "phi_step"
)
_MAX_SWEEP_POINTS = 100_000


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


def _parse_plant_dict(spec):
    if not isinstance(spec, dict):
        raise ConfigError("plant", f"expected a JSON object, got {type(spec).__name__}")
    try:
        first = tuple(spec.get("first_order", ()))
        second = tuple((s["omega"], s["zeta"]) for s in spec.get("second_order", ()))
        plant = ContinuousPlant(first_order=first, second_order=second)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("plant", str(exc)) from None
    return plant, spec.get("sample_hz"), spec.get("N")


def _resolve_plant(source):
    """Return (ContinuousPlant, default hz, default N, Preset or None)."""
    if isinstance(source, str) and source in PRESETS:
        p = PRESETS[source]
        return p.plant, p.sample_hz, p.horizon, p
    if isinstance(source, str):
        path = Path(source)
        if not path.exists():
            raise ConfigError("plant", f"{source!r} is not a preset or an existing file")
        try:
            spec = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("plant", f"invalid JSON in {source}: {exc}") from None
        return (*_parse_plant_dict(spec), None)
    return (*_parse_plant_dict(source), None)


def build_config(args=None, file_config=None) -> ExperimentConfig:
    """Merge defaults, JSON config file values, and flag overrides (flags win)."""
    merged = {}
    if file_config:
        unknown = set(file_config) - {f for f in ExperimentConfig.__dataclass_fields__}
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        merged.update(file_config)
    if args is not None:
        for name in ExperimentConfig.__dataclass_fields__:
            value = getattr(args, name, None)
            if value is not None:
                merged[name] = value

    plant_source = merged.get("plant", "third_order")
    plant, hz_default, n_default, preset = _resolve_plant(plant_source)
    merged.setdefault("sample_hz", hz_default if hz_default is not None else 50.0)
    merged.setdefault("n", n_default if n_default is not None else 51)
    if merged.get("opt_iterations") is None and preset is not None:
        merged["opt_iterations"] = preset.optimizer_iterations

    cfg = ExperimentConfig(**{**merged, "plant": plant_source})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    for name in _INT_FIELDS:
        value = getattr(cfg, name)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(name, f"must be an integer, got {value!r}")
    for name in _FLOAT_FIELDS:
        value = getattr(cfg, name)
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (numeric and math.isfinite(value)):
            raise ConfigError(name, f"must be a finite number, got {value!r}")
    if not isinstance(cfg.out, str):
        raise ConfigError("out", f"must be a path string, got {cfg.out!r}")
    if cfg.n < 1:
        raise ConfigError("n", "horizon must be at least 1")
    if cfg.sample_hz <= 0:
        raise ConfigError("sample_hz", "sample rate must be positive")
    if cfg.q is not None and not 0 <= cfg.q < cfg.n:
        raise ConfigError("q", f"must satisfy 0 <= q < {cfg.n}")
    if cfg.law not in laws.KINDS:
        raise ConfigError("law", f"must be one of {laws.KINDS}")
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


@dataclass(frozen=True)
class _Workspace:
    """Models shared by the command handlers."""

    cfg: ExperimentConfig
    model: LiftedModel
    inverse: np.ndarray
    deleted: DeletedModel
    reselect_region: bool = False   # descent region policy, from the preset

    @property
    def q(self):
        return self.deleted.q


def _workspace(cfg: ExperimentConfig, default_q=None) -> _Workspace:
    """Deletion count: explicit --q, else the command default (analyze: 0),
    else the preset's q, else the plant's unstable zero count."""
    plant, _, _, preset = _resolve_plant(cfg.plant)
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
    reselect = preset is not None and preset.reselect_region
    return _Workspace(
        cfg=cfg, model=model, inverse=inverse, deleted=deleted, reselect_region=reselect
    )


def _opt_iterations(cfg: ExperimentConfig) -> int:
    return cfg.opt_iterations if cfg.opt_iterations is not None else 1000


def _optimize(ws: _Workspace):
    deleted = ws.deleted
    region = optimizer.GainRegion.corner_blocks(
        deleted.circulant_inverse.shape, ws.cfg.region_size
    )
    config = optimizer.OptimizerConfig(
        iterations=_opt_iterations(ws.cfg),
        weight=ws.cfg.opt_weight,
        region=region,
        reselect_region=ws.reselect_region,
    )
    return optimizer.optimize(deleted, config)


def _build_law(ws: _Workspace, kind: str):
    deleted = ws.deleted
    cfg = ws.cfg
    if kind == "inverse_circulant":
        return laws.inverse_circulant_law(deleted)
    if kind == "scaled_inverse_circulant":
        return laws.scaled_inverse_circulant_law(deleted, cfg.phi)
    if kind == "accelerated":
        return laws.accelerated_law(deleted, cfg.power)
    if kind == "optimized_inverse_circulant":
        trace = _optimize(ws)
        if trace.diagnostic:
            raise DegenerateSingularValueError(0, 0.0, float(trace.sigma[-1]))
        return trace.law
    if kind == "partial_isometry":
        return laws.partial_isometry_law(deleted.toeplitz)
    if kind == "contraction_mapping":
        return laws.contraction_mapping_law(deleted.toeplitz, cfg.law_gain)
    if kind == "quadratic_cost":
        return laws.quadratic_cost_law(deleted.toeplitz, cfg.law_weight)
    raise ConfigError("law", f"unknown law kind {kind!r}")


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_metadata(path: Path, cfg: ExperimentConfig, resolved: dict):
    write_json(path, {"config": asdict(cfg), "resolved": resolved})


def cmd_analyze(cfg: ExperimentConfig) -> int:
    ws = _workspace(cfg, default_q=0)
    law = _build_law(ws, cfg.law)
    E = laws.error_propagation(ws.deleted.toeplitz, law)
    if cfg.power > 1 and cfg.law != "accelerated":
        E = np.linalg.matrix_power(E, cfg.power)
    report = convergence.analyze(E)
    out = _outdir(cfg)
    write_rows(
        out / "table.csv",
        ["order", "singular_value", "eigenvalue_magnitude"],
        [
            (i + 1, s, v)
            for i, (s, v) in enumerate(
                zip(report.singular_values, report.eigenvalue_magnitudes)
            )
        ],
    )
    write_json(
        out / "report.json",
        {
            "singular_values": [fmt(v) for v in report.singular_values],
            "eigenvalue_magnitudes": [fmt(v) for v in report.eigenvalue_magnitudes],
            "spectral_radius": fmt(report.spectral_radius),
            "converges": report.converges,
            "monotonic": report.monotonic,
        },
    )
    _write_metadata(out / "analyze_meta.json", cfg, {"q": ws.q, "law": law.kind})
    print(
        f"sigma_max = {fmt(report.sigma_max)}  spectral_radius = {fmt(report.spectral_radius)}"
        f"  monotonic = {report.monotonic}  converges = {report.converges}"
    )
    return 0


def cmd_optimize(cfg: ExperimentConfig) -> int:
    ws = _workspace(cfg)
    trace = _optimize(ws)
    out = _outdir(cfg)
    write_rows(
        out / "trace.csv",
        ["iteration", "sigma_max", "spectral_radius"],
        [(i, s, r) for i, (s, r) in enumerate(zip(trace.sigma, trace.rho))],
    )
    tag = matrix_filename("law_optimized_inverse_circulant", cfg.n, ws.q)
    write_matrix(out / tag, trace.gain)
    write_json(
        out / (tag[:-4] + ".json"),
        {"kind": trace.law.kind, "q": trace.law.q, "params": trace.law.params},
    )
    _write_metadata(
        out / "optimize_meta.json", cfg, {"q": ws.q, "reselect_region": ws.reselect_region}
    )
    if trace.diagnostic:
        print(trace.diagnostic, file=sys.stderr)
        return 3
    print(f"sigma_max = {fmt(trace.sigma[-1])}  spectral_radius = {fmt(trace.rho[-1])}")
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """A diverging run writes its finite iterations, names the first
    non-finite one on stderr and exits 3."""
    ws = _workspace(cfg)
    out = _outdir(cfg)
    diverged = None
    try:
        if cfg.traj == "worst_case":
            power = cfg.power if cfg.power > 1 else 6
            law = laws.accelerated_law(delete_initial_steps(ws.model, ws.inverse, 0), power)
            result = simulation.worst_case_experiment(ws.model, law, cfg.iterations)
        else:
            law = _build_law(ws, cfg.law)
            traj = simulation.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
            result = simulation.run_ilc(ws.model, law, traj, cfg.iterations)
    except DivergedRunError as exc:
        diverged, result = exc, exc.result
    write_rows(
        out / "rms.csv",
        ["iteration", "rms"],
        [(j, v) for j, v in enumerate(result.rms)],
    )
    _write_metadata(
        out / "simulate_meta.json",
        cfg,
        {"q": result.q, "law": result.law_kind, "traj": cfg.traj},
    )
    if diverged is not None:
        print(f"numerical degeneracy: {diverged}", file=sys.stderr)
        return 3
    print(f"rms[0] = {fmt(result.rms[0])}  rms[{result.iterations}] = {fmt(result.rms[-1])}")
    return 0


def cmd_compare(cfg: ExperimentConfig) -> int:
    ws = _workspace(cfg)
    deleted = ws.deleted
    compared = [
        _build_law(ws, "optimized_inverse_circulant"),
        laws.partial_isometry_law(deleted.toeplitz),
        laws.contraction_mapping_law(deleted.toeplitz, cfg.law_gain),
        laws.quadratic_cost_law(deleted.toeplitz, cfg.law_weight),
    ]
    traj = simulation.make_trajectory(cfg.traj, ws.model.plant, cfg.n)
    results = [simulation.run_ilc(ws.model, law, traj, cfg.iterations) for law in compared]
    out = _outdir(cfg)
    header = ["iteration"] + [f"rms_{r.law_kind}" for r in results]
    rows = [
        [j] + [r.rms[j] for r in results] for j in range(cfg.iterations + 1)
    ]
    write_rows(out / "compare.csv", header, rows)
    _write_metadata(
        out / "compare_meta.json",
        cfg,
        {"q": ws.q, "laws": [r.law_kind for r in results], "traj": cfg.traj},
    )
    print("  ".join(f"{r.law_kind}: rms[-1]={fmt(r.rms[-1])}" for r in results))
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    ws = _workspace(cfg)
    count = int(round((cfg.phi_max - cfg.phi_min) / cfg.phi_step))
    grid = cfg.phi_min + cfg.phi_step * np.arange(count + 1)
    sweep = convergence.gain_sweep(ws.deleted, grid)
    out = _outdir(cfg)
    write_rows(
        out / "sweep.csv",
        ["phi", "sigma_max", "spectral_radius"],
        list(zip(sweep.gains, sweep.sigma_max, sweep.spectral_radius)),
    )
    _write_metadata(out / "sweep_meta.json", cfg, {"q": ws.q})
    print(
        f"minimum sigma_max = {fmt(sweep.sigma_max[sweep.best_index])} "
        f"at phi = {fmt(sweep.best_gain)}"
    )
    return 0


def cmd_sensitivity(cfg: ExperimentConfig) -> int:
    ws = _workspace(cfg)
    surface = optimizer.sensitivity_map(ws.deleted)
    out = _outdir(cfg)
    write_matrix(out / matrix_filename("sensitivity", cfg.n, ws.q), surface.matrix)
    _write_metadata(
        out / "sensitivity_meta.json",
        cfg,
        {"q": ws.q, "flagged_columns": surface.flagged_columns.tolist()},
    )
    print(f"flagged columns: {surface.flagged_columns.tolist()}")
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "sensitivity": cmd_sensitivity,
}


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
        file_config = None
        if args.config:
            path = Path(args.config)
            if not path.exists():
                raise ConfigError("config", f"file {args.config!r} does not exist")
            try:
                file_config = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"invalid JSON: {exc}") from None
        if args.command == "optimize" and args.opt_iterations is None and args.iterations is not None:
            args.opt_iterations, args.iterations = args.iterations, None
        cfg = build_config(args, file_config)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        DegenerateSingularValueError,
        DivergedRunError,
        IllConditionedCirculantError,
        RankDeficientPlantError,
    ) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
