"""Seeded inputs, jobs and correctness checks of the benchmark workloads.

Every job calls circulant_ilc's public API, or its CLI in a fresh interpreter,
on inputs drawn here from the seed; the program sees only those inputs. Each
check compares a job's output with a reference computed apart from the timed
path, and runs after the job's clock has stopped.
"""

import csv
import functools
import json
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import circulant_ilc as cil
from bench_env import BENCH_DIR, ROOT, child_env

FAMILIES = ("third_order", "fourth_order", "fifth_order")
SCALE_RANGE = (0.8, 1.25)
GAIN_GRID = -1.0 + 0.05 * np.arange(61)  # criterion 4: phi from -1 to 2 in steps of 0.05


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


@dataclass(frozen=True)
class Context:
    """What a running job may use: a scratch directory and, when traced, the tracer."""

    work_dir: Path
    tracer: object = None


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable  # (Context) -> output; the timed part
    check: Callable  # (output) -> None; raises CheckFailed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable  # (rng, tiny) -> list[Job]


def seeded_plant(rng, family):
    """The family's preset plant with each pole frequency and damping ratio
    scaled by its own log-uniform factor in [0.8, 1.25]."""
    lo, hi = np.log(SCALE_RANGE)

    def scale(x):
        return float(x * np.exp(rng.uniform(lo, hi)))

    base = cil.PRESETS[family].plant
    return cil.ContinuousPlant(
        first_order=tuple(scale(a) for a in base.first_order),
        second_order=tuple((scale(w), scale(z)) for w, z in base.second_order),
    )


def _expect_close(what, got, want, rtol, atol=0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r}")


def _discrete(plant, hz):
    return cil.discretize_zoh(cil.realize(plant), 1.0 / hz)


# --- descent -----------------------------------------------------------------

DESCENT_ITERATIONS = 500
RECIPE_ITERATIONS = 1000
RECIPE_ENDPOINT = (0.2224, 0.0712)  # README: third-order sigma_1 and rho after 1000 iterations


def _descent_run(plant, hz, n, q, iterations, ctx):
    model = cil.LiftedModel.build(_discrete(plant, hz), n)
    deleted = cil.delete_initial_steps(model, cil.circulant_inverse(model), q)
    trace = cil.optimize(deleted, cil.OptimizerConfig(iterations=iterations, weight=0.1))
    cil.analyze(cil.error_propagation(deleted.toeplitz, trace.law))
    return deleted, trace


def _descent_check(iterations, endpoint, output):
    deleted, trace = output
    if trace.diagnostic is not None or trace.sigma.size != iterations + 1:
        raise CheckFailed(
            f"descent did {trace.sigma.size - 1} of {iterations} iterations: {trace.diagnostic}"
        )
    P = deleted.toeplitz
    dense = np.linalg.svd(np.eye(P.shape[0]) - P @ trace.gain, compute_uv=False)[0]
    _expect_close("final sigma_1", trace.sigma[-1], dense, rtol=1e-9)
    if endpoint is not None:
        sigma, rho = endpoint
        _expect_close("recipe sigma_1", trace.sigma[-1], sigma, rtol=0.0, atol=5e-5)
        _expect_close("recipe rho", trace.rho[-1], rho, rtol=0.0, atol=5e-5)


def _descent_job(label, plant, q, iterations, endpoint=None):
    preset = cil.PRESETS["third_order"]  # all families share 50 Hz and N = 51
    return Job(
        label,
        functools.partial(_descent_run, plant, preset.sample_hz, preset.horizon, q, iterations),
        functools.partial(_descent_check, iterations, endpoint),
    )


def descent_jobs(rng, tiny):
    """The third-order recipe, the other two presets, and one seeded plant per family.

    Presets use their own q; seeded plants use their unstable zero count.
    """
    iterations = 5 if tiny else DESCENT_ITERATIONS
    jobs = [
        _descent_job(
            "third_order recipe",
            cil.PRESETS["third_order"].plant,
            cil.PRESETS["third_order"].q,
            5 if tiny else RECIPE_ITERATIONS,
            None if tiny else RECIPE_ENDPOINT,
        )
    ]
    for family in FAMILIES[1:]:
        preset = cil.PRESETS[family]
        jobs.append(_descent_job(family, preset.plant, preset.q, iterations))
    for family in FAMILIES:
        jobs.append(_descent_job(f"seeded {family}", seeded_plant(rng, family), None, iterations))
    return jobs


# --- horizon -----------------------------------------------------------------

# A 61-point sweep costs about 0.8 s at N = 256, 6 s at 512 and 40 s at 1024
# on the reference machine. The ladder stops at 256 so that a run repeats
# every job a few times.
HORIZON_LADDER = (128, 192, 256)
HORIZON_PLANTS_PER_FAMILY = 2
HORIZON_ILC_ITERATIONS = 10


def _horizon_run(plant, hz, n, ctx):
    discrete = _discrete(plant, hz)
    model = cil.LiftedModel.build(discrete, n)
    inverse = cil.circulant_inverse(model)
    cil.dft_verify(model)
    deleted = cil.delete_initial_steps(model, inverse)
    P = deleted.toeplitz
    laws = (
        cil.inverse_circulant_law(deleted),
        cil.scaled_inverse_circulant_law(deleted, 0.5),
        cil.accelerated_law(deleted, 6),
        cil.partial_isometry_law(P),
        cil.contraction_mapping_law(P),
        cil.quadratic_cost_law(P),
    )
    for law in laws:
        cil.analyze(cil.error_propagation(P, law))
    sweep = cil.gain_sweep(deleted, GAIN_GRID)
    trajectory = cil.make_trajectory("yd1", discrete, n)
    cil.run_ilc(model, laws[0], trajectory, HORIZON_ILC_ITERATIONS)
    return model, inverse, deleted, sweep


def _horizon_check(samples, output):
    model, inverse, deleted, sweep = output
    C = model.circulant
    residual = np.max(np.abs(C @ inverse - np.eye(C.shape[0])))
    scale = np.linalg.norm(C, 1) * np.linalg.norm(inverse, 1)
    if not residual <= 1e-12 * scale:
        raise CheckFailed(f"circulant @ inverse - I = {residual:.3e}, condition {scale:.3e}")
    base = deleted.toeplitz @ deleted.circulant_inverse
    for i in samples:
        E = np.eye(base.shape[0]) - GAIN_GRID[i] * base
        sigma = np.linalg.svd(E, compute_uv=False)[0]
        rho = np.max(np.abs(np.linalg.eigvals(E)))
        _expect_close(f"sweep sigma_max[{i}]", sweep.sigma_max[i], sigma, rtol=1e-9)
        _expect_close(f"sweep spectral_radius[{i}]", sweep.spectral_radius[i], rho, rtol=1e-9)


def horizon_jobs(rng, tiny):
    """Two seeded plants per family on every rung of the horizon ladder.

    At one N a plant's job time moves by up to 1.7x with its seeded
    parameters, so the median job is taken among six plants on the middle
    rung rather than one.
    """
    jobs = []
    for n in (8, 12) if tiny else HORIZON_LADDER:
        for family in FAMILIES:
            for _ in range(HORIZON_PLANTS_PER_FAMILY):
                plant = seeded_plant(rng, family)
                samples = tuple(int(k) for k in rng.choice(GAIN_GRID.size, 3, replace=False))
                jobs.append(
                    Job(
                        f"N={n} seeded {family}",
                        functools.partial(_horizon_run, plant, cil.PRESETS[family].sample_hz, n),
                        functools.partial(_horizon_check, samples),
                    )
                )
    return jobs


# --- cli_presets -------------------------------------------------------------

CLI_COMMANDS = (
    ("analyze",),
    ("analyze", "--q", "1"),
    ("analyze", "--power", "6"),
    ("sweep",),
    ("simulate",),
    ("simulate", "--traj", "worst_case"),
    ("sensitivity",),
)
_SIMULATE_ITERATIONS = 100  # the CLI's default --iterations

_PRINTED = {
    "analyze": re.compile(r"sigma_max = (?P<sigma_max>\S+)"),
    "sweep": re.compile(r"minimum sigma_max = (?P<sigma_max>\S+) at phi = (?P<phi>\S+)"),
    "simulate": re.compile(r"rms\[0\] = (?P<rms_first>\S+)  rms\[\d+\] = (?P<rms_last>\S+)"),
    "sensitivity": re.compile(r"flagged columns: (?P<flagged>\[.*\])"),
}


def _cli_run(argv, ctx):
    out = Path(tempfile.mkdtemp(dir=ctx.work_dir))
    argv = [*argv, "--out", str(out)]
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "circulant_ilc.cli", *argv]
    else:
        spans = out.with_name(out.name + ".spans.json")
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans), *argv]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120
    )
    if ctx.tracer is not None and spans.exists():
        ctx.tracer.merge(json.loads(spans.read_text()))
    return proc, out


@functools.cache
def cli_reference(preset_name, command):
    """What the command should print, from dense numpy on the library's matrices."""
    preset = cil.PRESETS[preset_name]
    discrete = _discrete(preset.plant, preset.sample_hz)
    model = cil.LiftedModel.build(discrete, preset.horizon)
    inverse = cil.circulant_inverse(model)
    name, flags = command[0], dict(zip(command[1::2], command[2::2]))
    q = int(flags.get("--q", 0 if name == "analyze" else preset.q))
    P, L = model.toeplitz[q:], inverse[:, q:]
    E = np.eye(P.shape[0]) - P @ L
    if name == "analyze":
        E = np.linalg.matrix_power(E, int(flags.get("--power", 1)))
        return {"sigma_max": np.linalg.svd(E, compute_uv=False)[0]}
    if name == "sweep":
        base = P @ L
        sigma = [
            np.linalg.svd(np.eye(base.shape[0]) - phi * base, compute_uv=False)[0]
            for phi in GAIN_GRID
        ]
        best = int(np.argmin(sigma))
        return {"sigma_max": sigma[best], "phi": GAIN_GRID[best]}
    if name == "simulate":
        if flags.get("--traj") == "worst_case":
            law = cil.accelerated_law(cil.delete_initial_steps(model, inverse, 0), 6)
            E = np.eye(preset.horizon) - model.toeplitz @ law.gain
            error = np.linalg.svd(E)[2][0]
        else:
            error = cil.make_trajectory("yd1", discrete, preset.horizon).samples[q:]
        first = np.linalg.norm(error) / np.sqrt(error.size)
        for _ in range(_SIMULATE_ITERATIONS):
            error = E @ error
        return {"rms_first": first, "rms_last": np.linalg.norm(error) / np.sqrt(error.size)}
    U, _, Vt = np.linalg.svd(E)
    scores = np.max(np.abs(np.outer(P.T @ U[:, 0], Vt[0])), axis=0)
    return {"flagged": np.flatnonzero(scores > 10.0 * np.median(scores)).tolist()}


def _numeric(row):
    try:
        [float(v) for v in row]
    except ValueError:
        return False
    return True


def _check_artifacts(out):
    csvs, jsons = sorted(out.glob("*.csv")), sorted(out.glob("*.json"))
    if not csvs or not jsons:
        found = sorted(p.name for p in out.iterdir())
        raise CheckFailed(f"expected CSV and JSON artifacts, found {found}")
    for path in csvs:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows if rows and _numeric(rows[0]) else rows[1:]
        if not body or not all(_numeric(row) for row in body):
            raise CheckFailed(f"{path.name} has no numeric rows or a non-numeric cell")
    for path in jsons:
        try:
            json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{path.name}: {exc}") from None


def _cli_check(preset_name, command, output):
    proc, out = output
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    _check_artifacts(out)
    match = _PRINTED[command[0]].search(proc.stdout)
    if match is None:
        raise CheckFailed(f"unexpected output {proc.stdout!r}")
    want = cli_reference(preset_name, command)
    if "flagged" in want:
        if json.loads(match["flagged"]) != want["flagged"]:
            raise CheckFailed(f"flagged columns {match['flagged']} != {want['flagged']}")
        return
    got = {key: float(value) for key, value in match.groupdict().items()}
    if "sigma_max" in want:
        _expect_close("sigma_max", got["sigma_max"], want["sigma_max"], rtol=1e-9)
    if "phi" in want:
        _expect_close("phi", got["phi"], want["phi"], rtol=0.0, atol=1e-12)
    if "rms_first" in want:
        _expect_close("rms[0]", got["rms_first"], want["rms_first"], rtol=1e-9)
        _expect_close(
            "rms[last]", got["rms_last"], want["rms_last"],
            rtol=1e-6, atol=1e-9 * want["rms_first"],
        )


def cli_jobs(rng, tiny):
    """Every table command on every preset, in a seeded order."""
    presets = FAMILIES[:1] if tiny else FAMILIES
    commands = CLI_COMMANDS[::3] if tiny else CLI_COMMANDS
    jobs = [
        Job(
            f"{preset} {' '.join(command)}",
            functools.partial(_cli_run, (*command, "--plant", preset)),
            functools.partial(_cli_check, preset, command),
        )
        for preset in presets
        for command in commands
    ]
    return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "descent",
            "sigma_1 descent (optimize) at N = 51 on the presets and seeded plants, with the "
            "1000-iteration third-order recipe; a design spends its time here",
            descent_jobs,
        ),
        Workload(
            "horizon",
            "seeded plants at N = 128-256 through build, inverse, dft_verify, every closed-form "
            "law with analyze, a 61-point gain sweep and run_ilc: dense O(N^3) work",
            horizon_jobs,
        ),
        Workload(
            "cli_presets",
            "analyze, sweep, simulate and sensitivity CLI commands on the three presets, each in "
            "a fresh interpreter; import and per-call overhead dominate",
            cli_jobs,
        ),
    )
}


def generate(name, seed, tiny=False):
    """The job list of one run, drawn from the seed: the same seed, the same inputs."""
    return WORKLOADS[name].make_jobs(np.random.default_rng(seed), tiny)
