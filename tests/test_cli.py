"""Command-line driver tests: artifacts, exit codes, determinism, round trips."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    PRESETS,
    ConfigError,
    DegenerateSingularValueError,
    DivergedRunError,
    IllConditionedCirculantError,
    LiftedModel,
    NonFiniteGainError,
    NonFiniteSamplingError,
    NumericalDegeneracyError,
    OptimizerConfig,
    circulant_inverse,
    contraction_mapping_law,
    delete_initial_steps,
    discretize_zoh,
    error_propagation,
    RankDeficientPlantError,
    optimize,
    realize,
)
from circulant_ilc import cli as cli_module
from circulant_ilc.cli import (
    _COMMANDS, _LAWS, _TRAJ_CHOICES, ExperimentConfig, _flag, build_config, main
)
from circulant_ilc.errors import shown
from circulant_ilc.exports import fmt
from strategies import PROPERTY

KINDS = tuple(_LAWS)  # the law kinds, in the order of the --law choices


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_analyze_default_reproduces_full_map_table(tmp_path, capsys):
    assert run(["analyze", "--out", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "table.csv")
    assert header == ["order", "singular_value", "eigenvalue_magnitude"]
    assert float(rows[0][1]) == pytest.approx(18.2151, rel=1e-2)
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-3)
    assert "monotonic = False" in capsys.readouterr().out


def test_analyze_deleted_reproduces_deleted_table(tmp_path):
    assert run(["analyze", "--q", 1, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "table.csv")
    assert float(rows[0][1]) == pytest.approx(13.8093, rel=1e-2)
    assert float(rows[1][1]) == pytest.approx(0.5417, rel=1e-2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert float(report["spectral_radius"]) == pytest.approx(0.9987, abs=1e-3)
    assert report["monotonic"] is False


def degenerate_stub(monkeypatch):
    """Replace the CLI's descent with one stopped on a sigma_1 gap of 1.234e-09."""
    from circulant_ilc import LearningLaw, OptimizationTrace

    stub = OptimizationTrace(
        sigma=np.array([1.0]),
        rho=np.array([1.0]),
        law=LearningLaw(np.eye(51, 50)),
        diagnostic=DegenerateSingularValueError(1.234e-09, 1.0),
    )
    monkeypatch.setattr(cli_module, "_optimize", lambda ws: stub)


def test_optimize_degeneracy_exits_three(tmp_path, capsys, monkeypatch):
    degenerate_stub(monkeypatch)
    assert run(["optimize", "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical degeneracy: ")
    assert "1.234e-09" in err
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert meta["resolved"] == {"q": 1, "reselect_region": False}


@pytest.mark.parametrize("command", ["analyze", "simulate", "compare"])
def test_optimized_law_degeneracy_reports_true_gap(tmp_path, capsys, monkeypatch, command):
    degenerate_stub(monkeypatch)
    args = [command, "--law", "optimized_inverse_circulant", "--out", tmp_path]
    assert run(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical degeneracy: ")
    assert "gap 1.234e-09" in err
    assert not (tmp_path / f"{command}_meta.json").exists()


@pytest.mark.parametrize(
    "error, builtin",
    [
        (IllConditionedCirculantError, RuntimeError),
        (NonFiniteSamplingError, ArithmeticError),
        (NonFiniteGainError, ArithmeticError),
        (DegenerateSingularValueError, RuntimeError),
        (RankDeficientPlantError, ValueError),
        (DivergedRunError, ArithmeticError),
    ],
)
def test_numerical_failures_are_one_family(error, builtin):
    # the builtin base stays, so an except clause written for it still matches
    assert issubclass(error, NumericalDegeneracyError) and issubclass(error, builtin)


def test_new_family_member_exits_three(tmp_path, capsys, monkeypatch):
    # the CLI lists no failure type: a new one needs no edit there
    class NewFailure(NumericalDegeneracyError):
        pass

    def fail(ws):
        raise NewFailure("a failure the CLI has never seen")

    monkeypatch.setitem(cli_module._COMMANDS, "analyze", fail)
    assert run(["analyze", "--out", tmp_path]) == 3
    assert capsys.readouterr().err == "numerical degeneracy: a failure the CLI has never seen\n"


def test_analyze_sixth_power(tmp_path):
    assert run(["analyze", "--power", 6, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "table.csv")
    assert float(rows[0][1]) == pytest.approx(12.7055, rel=1e-2)
    assert float(rows[1][1]) < 2.7e-12  # second singular value at the noise floor


def test_optimize_writes_trace_and_law(tmp_path, capsys):
    assert run(["optimize", "--opt-iterations", 5, "--out", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "trace.csv")
    assert header == ["iteration", "sigma_max"]
    assert len(rows) == 6
    law = tmp_path / "law_optimized_inverse_circulant_N51_q1.csv"
    sidecar = json.loads((tmp_path / "law_optimized_inverse_circulant_N51_q1.json").read_text())
    assert law.exists()
    assert sidecar == {
        "kind": "optimized_inverse_circulant",
        "q": 1,
        "params": {"weight": 0.1, "iterations": 5},
    }
    assert "sigma_max" in capsys.readouterr().out


def test_optimize_sidecar_params_keep_the_config_values(tmp_path):
    # the sidecar writes the config's own values: an integer weight stays 1, not 1.0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"opt_weight": 1, "opt_iterations": 3, "q": 2}))
    assert run(["optimize", "--config", config, "--out", tmp_path]) == 0
    sidecar = json.loads((tmp_path / "law_optimized_inverse_circulant_N51_q2.json").read_text())
    assert sidecar == {"kind": "optimized_inverse_circulant", "q": 2,
                       "params": {"weight": 1, "iterations": 3}}
    assert type(sidecar["params"]["weight"]) is int


def test_optimize_fifth_order_uses_preset_region_policy(tmp_path):
    # the CLI and the test fixtures must run one descent recipe per preset
    assert run(["optimize", "--plant", "fifth_order", "--opt-iterations", 50,
                "--out", tmp_path]) == 0
    preset = PRESETS["fifth_order"]
    model = LiftedModel.build(
        discretize_zoh(realize(preset.plant), 1.0 / preset.sample_hz), preset.horizon
    )
    deleted = delete_initial_steps(model, circulant_inverse(model), preset.q)
    trace = optimize(deleted, OptimizerConfig(iterations=50, reselect_region=True))
    written = np.loadtxt(tmp_path / "law_optimized_inverse_circulant_N51_q2.csv", delimiter=",")
    assert np.array_equal(written, trace.gain)
    meta = json.loads((tmp_path / "optimize_meta.json").read_text())
    assert meta["resolved"] == {"q": 2, "reselect_region": True}

    fixed = tmp_path / "third"
    assert run(["optimize", "--opt-iterations", 2, "--out", fixed]) == 0
    meta = json.loads((fixed / "optimize_meta.json").read_text())
    assert meta["resolved"]["reselect_region"] is False


def test_optimize_region_size_flag_matches_the_api(tmp_path, third):
    assert run(["optimize", "--region-size", 3, "--opt-iterations", 5, "--out", tmp_path]) == 0
    trace = optimize(third.deleted(1), OptimizerConfig(iterations=5, region_size=3))
    written = np.loadtxt(tmp_path / "law_optimized_inverse_circulant_N51_q1.csv", delimiter=",")
    assert np.array_equal(written, trace.gain)


def test_optimize_rejects_zero_iterations(tmp_path, capsys):
    assert run(["optimize", "--iterations", 0, "--out", tmp_path]) == 2
    assert "opt_iterations" in capsys.readouterr().err


def test_simulate_rms_decays(tmp_path):
    assert run(["simulate", "--traj", "yd1", "--law", "partial_isometry",
                "--iterations", 8, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "rms.csv")
    rms = [float(r[1]) for r in rows]
    assert len(rms) == 9
    assert rms[-1] < rms[0]


def test_simulate_divergence_exits_three(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported, not warned about
        code = run(["simulate", "--law", "contraction_mapping", "--law-gain", 1e6,
                    "--iterations", 200, "--out", tmp_path])
    assert code == 3
    _, rows = read_csv(tmp_path / "rms.csv")
    assert 0 < len(rows) < 201
    assert all(np.isfinite(float(r[1])) for r in rows)
    err = capsys.readouterr().err
    assert f"not finite at iteration {len(rows)}" in err
    assert err.count("\n") == 1
    meta = json.loads((tmp_path / "simulate_meta.json").read_text())
    assert meta["resolved"]["law"] == "contraction_mapping"
    # compare raises out of the command, before any artifact or meta is written
    out = tmp_path / "compare"
    assert run(["compare", "--law-gain", 1e6, "--opt-iterations", 5,
                "--iterations", 200, "--out", out]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not (out / "compare_meta.json").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_analyze_every_law_kind(tmp_path, kind):
    code = run(["analyze", "--law", kind, "--opt-iterations", 5, "--out", tmp_path])
    meta = tmp_path / "analyze_meta.json"
    if kind == "partial_isometry":  # analyze's q = 0 leaves P rank deficient
        assert code == 3 and not meta.exists()
        return
    assert code == 0
    assert json.loads(meta.read_text())["resolved"]["law"] == kind


@pytest.mark.parametrize("plant", sorted(PRESETS))
def test_analyze_rank_deficient_partial_isometry_exits_three(tmp_path, capsys, plant):
    # analyze defaults to q = 0, where the unstable sampling zero leaves P
    # numerically singular
    assert run(["analyze", "--plant", plant, "--law", "partial_isometry",
                "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "rank deficient" in err
    assert err.count("\n") == 1


def test_simulate_worst_case_stalls(tmp_path):
    assert run(["simulate", "--traj", "worst_case", "--power", 6,
                "--iterations", 10, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "rms.csv")
    rms = [float(r[1]) for r in rows]
    assert abs(rms[-1] / rms[1] - 1.0) < 0.05


@pytest.mark.parametrize("flag, power", [([], 6), (["--power", 3], 3), (["--power", 1], 6)])
def test_simulate_worst_case_records_the_power_it_ran(tmp_path, flag, power):
    # the config default power is 1; the worst-case run takes the paper's 6 for any power <= 1
    assert run(["simulate", "--traj", "worst_case", "--iterations", 2, *flag,
                "--out", tmp_path]) == 0
    meta = json.loads((tmp_path / "simulate_meta.json").read_text())
    # the worst case runs the accelerated law on the undeleted model
    assert meta["resolved"] == {"traj": "worst_case", "power": power, "q": 0, "law": "accelerated"}


def test_compare_emits_four_law_columns(tmp_path):
    assert run(["compare", "--opt-iterations", 5, "--iterations", 6,
                "--out", tmp_path]) == 0
    header, rows = read_csv(tmp_path / "compare.csv")
    kinds = ["optimized_inverse_circulant", "partial_isometry", "contraction_mapping",
             "quadratic_cost"]
    assert header == ["iteration"] + [f"rms_{kind}" for kind in kinds]
    assert len(rows) == 7
    meta = json.loads((tmp_path / "compare_meta.json").read_text())
    assert meta["resolved"] == {"q": 1, "laws": kinds, "traj": "yd1"}


@pytest.mark.parametrize("command, table", [
    (["optimize", "--opt-iterations", 5], "trace.csv"),
    (["simulate", "--iterations", 6], "rms.csv"),
    (["compare", "--opt-iterations", 5, "--iterations", 6], "compare.csv"),
])
def test_printed_values_end_with_the_last_csv_row(tmp_path, capsys, command, table):
    # what a command prints last is its final iteration, not an earlier one; each
    # column is matched by name: "sigma_max = v", "rms[6] = v", "quadratic_cost: rms[-1]=v"
    assert run([*command, "--out", tmp_path]) == 0
    printed = dict(re.findall(r"(\w+)(?:: rms)?(?:\[-?\d+\])? ?= ?(\S+)", capsys.readouterr().out))
    header, rows = read_csv(tmp_path / table)
    named = {column: printed[column.removeprefix("rms_")] for column in header[1:]}
    assert named == dict(zip(header[1:], rows[-1][1:]))


def test_compare_keeps_one_run_of_histories_live(tmp_path):
    # compare writes only each law's rms; it used to hold all four runs' histories
    history = 2 * 2001 * 51 * 8  # one run's inputs and errors in bytes, at N = 51
    tracemalloc.start()
    try:
        assert run(["compare", "--opt-iterations", 5, "--iterations", 2000,
                    "--out", tmp_path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * history, f"peak {peak / history:.2f} runs of histories"


def test_no_command_writes_into_the_inverse(tmp_path, monkeypatch):
    # deleted models and laws view the inverse, so it must stay as built
    built = []

    def spy(model):
        inverse = circulant_inverse(model)
        built.append((inverse, inverse.tobytes()))
        return inverse

    monkeypatch.setattr(cli_module, "circulant_inverse", spy)
    runs = [[command] for command in _COMMANDS]
    runs += [[command, "--law", kind, "--q", 1] for command in ("analyze", "simulate")
             for kind in KINDS]
    for args in runs:
        assert run([*args, "--opt-iterations", 3, "--iterations", 5, "--out", tmp_path]) == 0, args
    assert len(built) == len(runs)
    for inverse, snapshot in built:
        assert not inverse.flags.writeable and inverse.tobytes() == snapshot


def test_sweep_minimum_at_zero_gain(tmp_path, capsys):
    assert run(["sweep", "--phi-min", -0.2, "--phi-max", 0.3, "--phi-step", 0.1,
                "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    gains = [float(r[0]) for r in rows]
    sigmas = [float(r[1]) for r in rows]
    assert len(rows) == 6
    assert gains[sigmas.index(min(sigmas))] == pytest.approx(0.0, abs=1e-12)
    assert "at phi = 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "phi_max, step, gains",
    [(1.0, 0.6, [0.0, 0.6]), (0.3, 0.1, [0.0, 0.1, 0.2, 0.3])],  # 0.3 / 0.1 < 3 by rounding
)
def test_sweep_grid_ends_at_phi_max(tmp_path, phi_max, step, gains):
    assert run(["sweep", "--phi-min", 0, "--phi-max", phi_max, "--phi-step", step,
                "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert_allclose([float(r[0]) for r in rows], gains, rtol=0, atol=1e-15)


def test_sweep_default_grid_is_criterion_four(tmp_path):
    # phi from -1 to 2 in steps of 0.05
    assert run(["sweep", "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert_allclose([float(r[0]) for r in rows], -1.0 + 0.05 * np.arange(61), rtol=0, atol=1e-12)


def test_contraction_mapping_gain_defaults_to_one(tmp_path):
    for out, flags in (("default", []), ("one", ["--law-gain", 1.0])):
        assert run(["analyze", "--law", "contraction_mapping", "--q", 1, *flags,
                    "--out", tmp_path / out]) == 0
    assert (tmp_path / "default" / "table.csv").read_bytes() == (
        tmp_path / "one" / "table.csv"
    ).read_bytes()


def test_presets_descend_for_their_iteration_counts():
    # the paper's recipes: 10^3 iterations on third_order, 10^4 on the others
    counts = {name: build_config(file_config={"plant": name}).opt_iterations for name in PRESETS}
    assert counts == {"third_order": 1000, "fourth_order": 10000, "fifth_order": 10000}


@pytest.mark.parametrize("gain", [1e160, 1e200])
def test_sweep_overflowing_gain_exits_three(tmp_path, capsys, gain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is reported, not warned about
        code = run(["sweep", "--phi-min", gain, "--phi-max", gain, "--phi-step", 1,
                    "--out", tmp_path])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical degeneracy: ")
    assert f"phi = {gain:.6g}" in err
    assert err.count("\n") == 1


def test_sweep_huge_finite_gain_is_quiet(tmp_path, capsys, third):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["sweep", "--phi-min", 1e100, "--phi-max", 1e100, "--phi-step", 1,
                    "--out", tmp_path])
    assert code == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "sweep.csv")
    deleted = third.deleted(1)
    base = deleted.toeplitz @ deleted.circulant_inverse
    dense = np.linalg.svd(np.eye(base.shape[0]) - 1e100 * base, compute_uv=False)[0]
    assert float(rows[0][1]) == pytest.approx(dense, rel=1e-12)


def test_sensitivity_writes_surface_and_flags(tmp_path):
    assert run(["sensitivity", "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "sensitivity_N51_q1.csv")
    assert len(rows) + 1 == 51  # 51 rows total including the first
    meta = json.loads((tmp_path / "sensitivity_meta.json").read_text())
    assert meta["resolved"]["flagged_columns"]


def test_config_file_with_flag_override(tmp_path):
    cfg = {"plant": "third_order", "q": 0, "iterations": 4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["analyze", "--config", path, "--q", 1, "--out", out]) == 0
    meta = json.loads((out / "analyze_meta.json").read_text())
    assert meta["config"]["q"] == 1  # flag wins over file


def test_config_errors_name_the_field(tmp_path, capsys):
    assert run(["analyze", "--plant", "sixth_order", "--out", tmp_path]) == 2
    assert "plant" in capsys.readouterr().err
    assert run(["analyze", "--n", 0, "--out", tmp_path]) == 2
    assert "n:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": 51}))
    assert run(["analyze", "--config", bad, "--out", tmp_path]) == 2
    assert "horizon" in capsys.readouterr().err
    # wrongly typed values exit 2 naming the field instead of ending in a TypeError
    spec = {"first_order": [8.8], "second_order": [{"omega": 37.0, "zeta": 0.5}]}
    plant = tmp_path / "plant.json"
    for extra, field in (({"sample_hz": "fifty"}, "sample_hz:"), ({"N": 51.5}, "n:")):
        plant.write_text(json.dumps({**spec, **extra}))
        assert run(["analyze", "--plant", plant, "--out", tmp_path]) == 2
        assert field in capsys.readouterr().err
    for config, field in (
        ({"n": "51"}, "n:"),
        ({"out": 5}, "out:"),
        ({"plant": 5}, "plant: expected a JSON object, got int"),
        ({"law": "nope"}, "law: must be one of ("),
        ({"phi_min": 1.0, "phi_max": 0.5}, "phi_max: must not be below phi_min"),
    ):
        bad.write_text(json.dumps({"out": str(tmp_path), **config}))
        assert run(["analyze", "--config", bad]) == 2
        assert field in capsys.readouterr().err
    plant.write_text(json.dumps({"first_order": 5}))
    assert run(["analyze", "--plant", plant, "--out", tmp_path]) == 2
    assert "plant:" in capsys.readouterr().err
    assert run(["sweep", "--phi-max", "inf", "--out", tmp_path]) == 2
    assert "phi_max:" in capsys.readouterr().err
    # the fifth-order preset deletes two steps, which a two-step horizon cannot spare
    assert run(["simulate", "--plant", "fifth_order", "--n", 2, "--out", tmp_path]) == 2
    assert "q:" in capsys.readouterr().err


def test_sweep_grid_is_bounded(tmp_path, capsys):
    # a 1e18-point grid used to end in an allocation error
    assert run(["sweep", "--phi-max", 1e9, "--phi-step", 1e-9, "--out", tmp_path]) == 2
    assert "phi_step" in capsys.readouterr().err
    # the bound counts the floor(steps) + 1 points the sweep builds, from the one count in
    # _grid_steps: 0..99999.5 is exactly 10^5 of them
    assert Path(cli_module.__file__).read_text(encoding="utf-8").count("/ cfg.phi_step") == 1
    for phi_max in (99_999, 99_999.5):
        assert build_config(None, {"phi_min": 0, "phi_max": phi_max, "phi_step": 1}).phi_max == phi_max
    with pytest.raises(ConfigError, match="^phi_step: 100001 grid points exceed 100000$"):
        build_config(None, {"phi_min": 0, "phi_max": 100_000, "phi_step": 1})
    # a subnormal step's count overflows to inf, which is refused too
    assert run(["sweep", "--phi-step", 1e-310, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == "configuration error: phi_step: inf grid points exceed 100000\n"


@pytest.mark.parametrize(
    "field, accepted, rejected",
    [
        ("n", 4096, 4097),                          # 4096**2 = 2**24 lifted entries
        ("iterations", 164_481, 164_482),           # 2 (iterations + 1) * 51 entries
        ("opt_iterations", 2**24 - 1, 2**24),       # iterations + 1 trace entries
        # power is bounded below only, since no allocation grows with it; the id names
        # the edge of the power * 51**2 budget this row pinned until doubling removed it
        pytest.param("power", 10**4000, 0, id="power-6450-6451"),
    ],
)
def test_work_fields_are_bounded(field, accepted, rejected):
    # configuration only: the accepted maxima are never run
    assert getattr(build_config(None, {field: accepted}), field) == accepted
    with pytest.raises(ConfigError, match=f"^{field}:"):
        build_config(None, {field: rejected})


@pytest.mark.parametrize(
    "field, args",
    [
        ("iterations", ["simulate", "--iterations", 1_000_000_000]),
        ("opt_iterations", ["optimize", "--opt-iterations", 2_000_000_000]),
        # power 100_000_000 now runs (test_power_is_outside_the_budget); only its
        # lower bound still exits two
        ("power", ["analyze", "--law", "accelerated", "--power", -100_000_000]),
        ("n", ["analyze", "--n", 200_000]),
        ("iterations", ["simulate", "--n", 4096, "--iterations", 4096]),  # 4097 * 4096 entries
    ],
)
def test_oversized_work_exits_two(tmp_path, capsys, field, args):
    # each used to end in an allocation error or to run for minutes
    out = tmp_path / "out"
    assert run([*args, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field}:")
    assert not out.exists()


def test_power_is_outside_the_budget(tmp_path):
    # the accelerated law sums its series by doubling and --power squares, so no
    # allocation grows with power; the budget used to reject power * N**2 > 2**24
    assert build_config(None, {"power": 10**4000}).power == 10**4000
    with pytest.raises(ConfigError, match="^power: must be at least 1"):
        build_config(None, {"power": 0})
    assert run(["analyze", "--law", "accelerated", "--power", 100_000_000,
                "--out", tmp_path]) == 0


BOUNDS = {"n": 1, "sample_hz": 0.0, "power": 1, "opt_iterations": 1, "region_size": 1,
          "iterations": 0, "opt_weight": 0.0, "law_weight": 0.0, "phi_step": 0.0}


def test_bounds_are_declared_with_their_settings():
    declared = {f.name: f.metadata["least"] for f in fields(ExperimentConfig)}
    assert {name: least for name, least in declared.items() if least is not None} == BOUNDS


@pytest.mark.parametrize("name, least", BOUNDS.items(), ids=list(BOUNDS))
def test_each_bound_admits_its_edge(name, least):
    # integers: at least `least`; floats: above it. A one-point grid lets phi_step be tiny;
    # a sample rate's period must be finite as well, so its edge is 5.6e-309 Hz
    grid = {"phi_min": 0.0, "phi_max": 0.0}
    if isinstance(least, int):
        edge, outside, message = least, [least - 1, -(10**5000)], f"must be at least {least}"
    else:
        edge = 5.56268464626801e-309 if name == "sample_hz" else 5e-324
        outside, message = [0.0, -0.0, -1.0], "must be positive"
    assert getattr(build_config(None, {**grid, name: edge}), name) == edge
    for value in outside:
        with pytest.raises(ConfigError, match=f"^{name}: {message}$"):
            build_config(None, {**grid, name: value})


def test_accelerated_law_cost_grows_with_log_power(tmp_path):
    # the loop took 1.6e7 dense 1 x 1 products and 31 s; doubling takes fewer than 100
    start = time.perf_counter()
    assert run(["analyze", "--law", "accelerated", "--n", 1, "--power", 16_000_000,
                "--out", tmp_path]) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("digits", [401, 4300])
@pytest.mark.parametrize("q", [None, -1])
def test_budget_message_is_compact(tmp_path, capsys, digits, q):
    # the message printed the whole entry count: 874 bytes at 401 digits, and a
    # ValueError traceback at 4300 digits, whose square Python will not print;
    # a bad q printed every digit of n
    config = tmp_path / "config.json"
    config.write_text(f'{{"q": {json.dumps(q)}, "n": 1' + "0" * (digits - 1) + "}")
    assert run(["analyze", "--config", config, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: n:") and len(err.encode()) < 200, err


SECTION = "section parameters a, omega and zeta must be a finite number,"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"second_order": [{"omega": 37}]}, "each second_order entry needs numeric omega and zeta"),
        ({"second_order": ["x"]}, "each second_order entry needs numeric omega and zeta"),
        ({"second_order": [{"omega": 37, "zeta": "0.5"}]}, f"{SECTION} got '0.5'"),
        ({"second_order": [{"omega": 37, "zeta": 0.5, "gain": 2}]}, "each second_order entry"),
        ({"first_order": 5}, "first_order must be a list of numbers"),
        ({"first_order": ["x"]}, f"{SECTION} got 'x'"),
        ({"first_order": [10**400]}, f"{SECTION} got '1{'0' * 19}'... (401 characters)"),
        ([1, 2], "expected a JSON object, got list"),
    ],
    ids=["missing_zeta", "string_entry", "string_zeta", "extra_field", "number", "string_pole",
         "pole_beyond_float", "list"],
)
def test_plant_sections_say_what_is_wrong(tmp_path, capsys, spec, message):
    # these used to print Python's own words: plant: 'zeta', plant: string indices
    # must be integers, not 'str', plant: 'int' object is not iterable. The shape is
    # the CLI's check, each number ContinuousPlant's
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(spec))
    assert run(["analyze", "--plant", plant, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: plant: ") and message in err, err


CIRCULANT = "circulant inverse is ill-conditioned"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--hz", 1e300], CIRCULANT),
        (["--hz", 1e-300], "zero-order-hold sampling at period 1e+300 s is not finite"),
        (["--plant", {"first_order": [1e308]}], "zero-order-hold sampling at period 0.02 s"),
    ],
    ids=["zero_markov", "nan_markov_hz", "nan_markov_pole"],
)
def test_degenerate_markov_sequence_exits_three(tmp_path, capsys, args, message):
    # all-zero or NaN Markov parameters used to pass the circulant inverse and
    # end in an SVD that did not converge; an overflowing ZOH exponential is
    # named as such, not blamed on the circulant
    if isinstance(args[1], dict):
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps(args[1]))
        args = [args[0], plant]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 1e-300 Hz aliases every pole
        assert run(["analyze", *args, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical degeneracy: {message}")
    assert err.count("\n") == 1


def test_ill_conditioned_circulant_line_is_short(tmp_path, capsys):
    # every one of the 1024 bad frequencies used to be listed: a 10,260-byte line
    assert run(["analyze", "--hz", 1e300, "--n", 1024, "--out", tmp_path / "out"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert err.startswith(f"numerical degeneracy: {CIRCULANT} at 1024 frequency indices")


def test_plant_file_is_read_once(tmp_path, monkeypatch):
    # one read per run: the file cannot change between validation and use
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"first_order": [8.8], "second_order": [], "N": 12}))
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert run(["analyze", "--plant", path, "--out", tmp_path / "out"]) == 0
    assert reads.count(path) == 1


def test_plant_spec_file(tmp_path):
    spec = {
        "first_order": [8.8],
        "second_order": [{"omega": 37.0, "zeta": 0.5}],
        "sample_hz": 50.0,
        "N": 51,
    }
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run(["analyze", "--plant", path, "--out", out]) == 0
    _, rows = read_csv(out / "table.csv")
    assert float(rows[0][1]) == pytest.approx(18.2151, rel=1e-2)
    meta = json.loads((out / "analyze_meta.json").read_text())
    assert meta["config"]["n"] == 51 and meta["config"]["sample_hz"] == 50.0


def test_plant_file_meta_records_its_descent_defaults(tmp_path):
    # a plant file's descent ran 1000 iterations while its meta recorded null
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"first_order": [8.8], "second_order": [{"omega": 37.0, "zeta": 0.5}]}))
    assert run(["optimize", "--plant", path, "--out", tmp_path / "a"]) == 0
    config = json.loads((tmp_path / "a" / "optimize_meta.json").read_text())["config"]
    assert (config["opt_iterations"], config["sample_hz"], config["n"]) == (1000, 50.0, 51)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["optimize", "--config", tmp_path / "config.json", "--out", tmp_path / "b"]) == 0
    trace = [(tmp_path / out / "trace.csv").read_bytes() for out in ("a", "b")]
    assert trace[0] == trace[1]


def test_inline_plant_in_config_file(tmp_path):
    cfg = {
        "plant": {
            "first_order": [2.0],
            "second_order": [],
            "sample_hz": 10.0,
            "N": 12,
        },
        "q": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["analyze", "--config", path, "--out", out]) == 0
    _, rows = read_csv(out / "table.csv")
    assert len(rows) == 12
    meta = json.loads((out / "analyze_meta.json").read_text())
    assert meta["config"]["plant"]["first_order"] == [2.0]
    reparsed = build_config(None, meta["config"])
    assert reparsed.n == 12 and reparsed.sample_hz == 10.0


def test_nondefault_horizon(tmp_path):
    assert run(["analyze", "--n", 20, "--q", 1, "--out", tmp_path]) == 0
    _, rows = read_csv(tmp_path / "table.csv")
    assert len(rows) == 19  # N - q spectrum entries


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "a"
    args = ["sweep", "--phi-min", -1, "--phi-max", 2, "--phi-step", 0.25, "--out", out]
    assert run(args) == 0
    first = ((out / "sweep.csv").read_bytes(), (out / "sweep_meta.json").read_bytes())
    assert run(args) == 0
    second = ((out / "sweep.csv").read_bytes(), (out / "sweep_meta.json").read_bytes())
    assert first == second


def test_metadata_round_trips_to_equivalent_config(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "--q", 1, "--power", 3, "--out", out]) == 0
    meta = json.loads((out / "analyze_meta.json").read_text())
    reparsed = build_config(None, meta["config"])
    assert asdict(reparsed) == meta["config"]


# --- fuzz: drawn configs and plant specs end in exit 0, 2 or 3, never a traceback

JUNK = st.sampled_from(
    [None, True, "x", "51", [], [1.0], {}, {"a": 1}, -1, 0, 2**63, 10**400,
     1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
)


def _mixer(junk):
    """Every draw valid, or (junk) about one draw in four a wrong type or an extreme value."""
    return (lambda valid: st.one_of(valid, valid, valid, JUNK)) if junk else (lambda valid: valid)


RARELY = st.sampled_from([True, False, False, False])


@st.composite
def plant_specs(draw):
    """A plant spec of 1-4 sections; half the specs hold junk."""
    junk = draw(st.booleans())
    maybe = _mixer(junk)
    pole = maybe(st.floats(0.5, 500.0))
    section = st.fixed_dictionaries({"omega": pole, "zeta": maybe(st.floats(0.05, 2.0))})
    kinds = {
        "first_order": st.lists(pole, min_size=1, max_size=2),
        "second_order": st.lists(maybe(section), min_size=1, max_size=2),
    }
    keys = draw(st.sampled_from([["first_order"], ["second_order"], sorted(kinds)]))
    spec = {key: draw(maybe(kinds[key])) for key in keys}
    for key, valid in (("sample_hz", st.floats(5.0, 500.0)), ("N", st.integers(1, 64))):
        if draw(st.booleans()):
            spec[key] = draw(maybe(valid))
    if junk and draw(RARELY):
        spec["horizon"] = 51  # an unknown field
    return spec


@st.composite
def configs(draw):
    """A config file; half the configs hold junk. Valid values keep each run small."""
    junk = draw(st.booleans())
    maybe = _mixer(junk)
    fields = {
        "plant": st.one_of(st.sampled_from(sorted(PRESETS)), plant_specs()),
        "n": st.integers(1, 64),
        "sample_hz": st.floats(5.0, 500.0),
        "q": st.one_of(st.none(), st.integers(0, 3)),
        "law": st.sampled_from(KINDS),
        "power": st.integers(1, 8),
        "phi": st.floats(-3.0, 3.0),
        "law_gain": st.floats(-3.0, 3.0),
        "law_weight": st.floats(0.01, 10.0),
        "opt_weight": st.floats(0.01, 10.0),
        "region_size": st.integers(1, 10),
        "traj": st.sampled_from(_TRAJ_CHOICES),
        "iterations": st.integers(0, 20),
    }
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    config = {key: draw(maybe(fields[key])) for key in keys}
    if draw(st.booleans()):  # all three, or the default 61-point grid
        lo, step = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.01, 1.0))
        hi = lo + draw(st.integers(0, 63)) * step
        grid = {"phi_min": lo, "phi_max": hi, "phi_step": step}
        config.update({key: draw(maybe(st.just(value))) for key, value in grid.items()})
    opt = st.integers(1, 20)
    if junk:  # never None: the fourth- and fifth-order presets default to 10^4 iterations
        opt = st.one_of(opt, opt, opt, st.sampled_from([0, "5", 5.0, 10**400, math.nan]))
    config["opt_iterations"] = draw(opt)
    if junk and draw(RARELY):
        config["out"] = draw(st.sampled_from([5, None, [], "/dev/null/x"]))
    if junk and draw(RARELY):
        config = draw(st.sampled_from([[config], 5, "analyze"]))  # not a JSON object
    return config


def _fuzz_run(command, config, plant_file):
    """main's exit code and stderr, with the run's artifacts checked."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if isinstance(config, dict):  # a relative out lands in the run's directory
            out = config.get("out", "out")
            config = {**config, "out": str(tmp / out) if isinstance(out, str) else out}
        if plant_file is not None and isinstance(config, dict):
            (tmp / "plant.json").write_text(json.dumps(plant_file))
            config["plant"] = str(tmp / "plant.json")
        if isinstance(config, str):  # a --config path, passed as it is
            config_file = config
        else:
            config_file = tmp / "config.json"
            config_file.write_text(json.dumps(config))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, "--config", str(config_file)])
        err = err.getvalue()
        assert code in (0, 2, 3)
        # a warning adds stderr lines; only a pole at or above Nyquist is warned about
        assert all("aliases" in str(w.message) for w in caught), [str(w.message) for w in caught]
        for table in (tmp / "out").glob("*.csv"):
            cells = [cell for row in read_csv(table)[1] for cell in row]
            assert np.isfinite(np.array(cells, dtype=float)).all(), table.name
        if code == 0:
            assert err == ""
            meta = json.loads((tmp / "out" / f"{command}_meta.json").read_text())
            assert asdict(build_config(None, meta["config"])) == meta["config"]
        else:
            prefix = "configuration error: " if code == 2 else "numerical degeneracy: "
            assert err.startswith(prefix) and err.count("\n") == 1, err
        if code == 2:
            field = err[len(prefix):].split(":")[0]
            assert field in {*ExperimentConfig.__dataclass_fields__, "config"}, err
        return code, err


NAN_POLE = {"first_order": [math.nan]}
INF_POLE = {"first_order": [math.inf]}
HUGE_OMEGA = {"second_order": [{"omega": 1e200, "zeta": 0.5}]}
HUGE_ZETA = {"second_order": [{"omega": 37, "zeta": 1e308}]}
LONG_DIR = "/" + "./" * 150  # the root directory, named in 301 characters
NOT_JSON = LONG_DIR + json.__file__  # the json module's own source, by a long name


@PROPERTY
@given(command=st.sampled_from(sorted(_COMMANDS)), config=configs(),
       plant_file=st.one_of(st.none(), plant_specs()))
@example(command="analyze", config={}, plant_file=NAN_POLE)
@example(command="analyze", config={}, plant_file=INF_POLE)
@example(command="analyze", config={}, plant_file=HUGE_OMEGA)
@example(command="analyze", config={}, plant_file=HUGE_ZETA)
@example(command="analyze", config={"law": {}}, plant_file=None)
@example(command="analyze", config={"out": "/dev/null/x"}, plant_file=None)
@example(command="analyze", config={"law": "scaled_inverse_circulant", "phi": 1e308},
         plant_file=None)
@example(command="analyze", config={"law": "contraction_mapping", "law_gain": 1e300,
                                     "power": 3}, plant_file=None)
def test_cli_fuzz_exits_cleanly(command, config, plant_file):
    _fuzz_run(command, config, plant_file)


@pytest.mark.parametrize(
    "command, config, plant_file, code, message",
    [
        ("analyze", {}, NAN_POLE, 2, "plant: section parameters"),
        ("analyze", {}, INF_POLE, 2, f"plant: {SECTION} got inf"),
        ("analyze", {}, HUGE_OMEGA, 2, "plant: realization overflows"),
        ("analyze", {}, HUGE_ZETA, 2, "plant: realization overflows"),
        ("analyze", {"law": {}}, None, 2, "law: must be a string"),
        ("analyze", {"out": "/dev/null/x"}, None, 2, "out: cannot create directory"),
        ("analyze", {"law": "scaled_inverse_circulant", "phi": 1e308}, None, 3,
         "error propagation matrix has a non-finite entry"),
        ("analyze", {"law": "contraction_mapping", "law_gain": 1e300, "power": 3}, None, 3,
         "error propagation matrix has a non-finite entry"),
        ("analyze", {"n": None}, None, 2, "n: must be an integer"),
        ("analyze", {"sample_hz": 10**400}, None, 2, "sample_hz: must be a finite number"),
        ("analyze", {"sample_hz": 5e-324}, None, 2,
         "sample_hz: period must be a finite number, got inf"),
        ("analyze", 5, None, 2, "config: expected a JSON object"),
        ("compare", {"traj": "worst_case"}, None, 2, "traj: compare runs"),
        # the first three printed the whole value: 5,050, 6,057 and 4,063 bytes of stderr
        ("analyze", {"n": "x" * 5000}, None, 2,
         "n: must be an integer, got 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
        ("analyze", {"n": [0] * 2000}, None, 2,
         "n: must be an integer, got '[0, 0, 0, 0, 0, 0, 0'... (6000 characters)"),
        ("analyze", {"phi": 10**3999}, None, 2,
         f"phi: must be a finite number, got '1{'0' * 19}'... (4000 characters)"),
        ("analyze", {}, {"first_order": [10**3999]}, 2,
         f"plant: {SECTION} got '1{'0' * 19}'... (4000 characters)"),
        # a name longer than the file system allows: Path.exists raised OSError
        ("analyze", {"plant": "x" * 5000}, None, 2,
         "plant: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters) is not a preset or an existing file"),
        # a path that exists but cannot be read: the OSError text repeated it whole
        ("analyze", {"plant": LONG_DIR}, None, 2,
         "plant: cannot read JSON from '/./././././././././.'... (301 characters): Is a directory"),
        ("analyze", LONG_DIR, None, 2,
         "config: cannot read JSON from '/./././././././././.'... (301 characters): Is a directory"),
        # each printed a long path or key whole, the directory's twice (705 bytes for 310
        # characters); the blocked artifact is a directory in table.csv's place
        ("analyze", NOT_JSON, None, 2,
         f"config: cannot read JSON from '/./././././././././.'... ({len(NOT_JSON)} characters): "
         "Expecting value"),
        ("analyze", {"out": "/dev/null/" + "x" * 300}, None, 2,
         "out: cannot create directory '/dev/null/xxxxxxxxxx'... (310 characters): Not a directory"),
        ("analyze", {"out": "dir/" * 75 + "table.csv/.."}, None, 2, "characters): Is a directory"),
        ("analyze", {}, {"x" * 5000: 1}, 2,
         "plant: unknown plant field 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
        ("analyze", {"x" * 5000: 1}, None, 2,
         "config: unknown configuration field 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"),
    ],
    ids=["nan_pole", "inf_pole", "huge_omega", "huge_zeta", "dict_law", "out_not_dir",
         "phi_1e308", "gain_1e300_cubed", "null_n", "int_hz_beyond_float",
         "hz_with_infinite_period", "config_not_object", "compare_worst_case",
         "long_string_n", "long_list_n", "long_int_phi", "long_int_pole", "long_plant_name",
         "long_plant_dir", "long_config_dir", "long_config_not_json", "long_out_not_dir",
         "long_blocked_artifact", "long_plant_field", "long_config_key"],
)
def test_reproduced_tracebacks_exit_with_one_line(command, config, plant_file, code, message):
    # each of these used to end in a traceback (exit 1) or to print a long value whole
    got, err = _fuzz_run(command, config, plant_file)
    assert got == code
    assert message in err and len(err.encode()) < 200, err


def test_plant_and_config_files_fail_closed(tmp_path, capsys):
    # a misspelt section used to be ignored, so a different plant ran
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps({"first_order": [8.8], "second_ordr": []}))
    assert run(["analyze", "--plant", plant, "--out", tmp_path / "out"]) == 2
    assert "plant: unknown plant field 'second_ordr'" in capsys.readouterr().err
    # an integer over Python's 4300-digit limit used to end in a ValueError
    config = tmp_path / "config.json"
    config.write_text('{"phi": 1' + "0" * 5000 + "}")
    assert run(["analyze", "--config", config, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: config: cannot read JSON")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "blocker",
    [
        "directory",
        pytest.param("full_disk", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")),
    ],
)
def test_a_failed_artifact_write_names_out(tmp_path, capsys, blocker):
    # each used to end in a traceback (exit 1): IsADirectoryError, and an OSError
    # "No space left on device" that names no file, once the table is flushed
    table = tmp_path / "table.csv"
    if blocker == "directory":
        table.mkdir()
        where, reason = table, "Is a directory"
    else:
        table.symlink_to("/dev/full")
        where, reason = tmp_path, "No space left on device"
    assert run(["analyze", "--plant", "third_order", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: out: cannot write {shown(str(where))}: {reason}\n"


def test_finite_map_with_overflowing_norm_is_analyzed(tmp_path, capsys, third):
    # the entries are finite, only the Frobenius norm overflows: not a degeneracy
    assert run(["analyze", "--law", "contraction_mapping", "--law-gain", 1e308,
                "--out", tmp_path]) == 0
    # the last digits are the BLAS kernel's, so the oracle is a dense SVD of the same map
    P = third.deleted(0).toeplitz
    E = error_propagation(P, contraction_mapping_law(P, 1e308))
    with np.errstate(over="ignore"):
        assert np.isfinite(E).all() and np.linalg.norm(E) == np.inf
    sigma_max = np.linalg.svd(E, compute_uv=False)[0]
    assert capsys.readouterr().out.startswith(f"sigma_max = {fmt(sigma_max)}  ")


@pytest.mark.parametrize(
    "flag",
    [_flag(f) for f in ExperimentConfig.__dataclass_fields__.values() if f.type in (int, int | None)],
)
def test_unparsable_integer_flag_is_compact(tmp_path, capsys, flag):
    # argparse echoed the whole value: 5,201 bytes of stderr for 4301 digits
    with pytest.raises(SystemExit) as exit_info:
        run(["analyze", flag, "1" + "0" * 4300, "--out", tmp_path])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {flag}: invalid integer '1000" in last and len(last.encode()) < 200, last


# --- the process entry point: `python -m circulant_ilc.cli` and the console script call run


def _child(args, cwd, *options, stdout=subprocess.PIPE, **env):
    """A fresh interpreter running `python *options *args` on this session's circulant_ilc,
    with `env` added to its environment."""
    path = [str(Path(cli_module.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env}
    return subprocess.run(
        [sys.executable, *options, *map(str, args)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, cwd=cwd, env=env, timeout=120,
    )


NAMES = ["analyze_meta.json", "report.json", "table.csv"]  # analyze's artifacts


def test_module_entry_point_matches_main(tmp_path, capsys, monkeypatch):
    # the same relative --out in two working directories: every artifact byte can match
    args = ["analyze", "--plant", "third_order", "--out", "out"]
    (tmp_path / "child").mkdir()
    proc = _child(["-m", "circulant_ilc.cli", *args], tmp_path / "child")
    monkeypatch.chdir(tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run(args) == 0
    assert proc.stdout == capsys.readouterr().out
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == NAMES
    assert sorted(p.name for p in (tmp_path / "child" / "out").iterdir()) == names
    for name in names:
        assert (tmp_path / "child" / "out" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize(
    "args, code, line",
    [
        (["--n", 0], 2, "configuration error: n: must be at least 1"),
        (["--law", "nope"], 2, "circulant-ilc analyze: error: argument --law: invalid choice: 'nope'"),
        (["--hz", 1e300], 3, "numerical degeneracy: "),
    ],
)
def test_module_entry_point_exit_codes_match_main(tmp_path, capsys, args, code, line):
    args = ["analyze", *args, "--out", tmp_path / "out"]
    proc = _child(["-m", "circulant_ilc.cli", *args], tmp_path)
    try:
        assert run(args) == code
    except SystemExit as exc:  # argparse's own exit
        assert exc.code == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", capsys.readouterr().err)
    assert proc.stderr.splitlines()[-1].startswith(line)


ENTRY = textwrap.dedent(
    """
    import atexit, gc, sys
    from circulant_ilc.cli import main, run

    out, *args = sys.argv[1:]
    assert main(["analyze", "--out", out]) == 0 and gc.isenabled()
    atexit.register(print, "atexit handler")
    run(args)
    print("after run")
    """
)


@pytest.mark.parametrize("args, code", [([], 0), (["--n", 0], 2), (["--hz", 1e300], 3)])
def test_run_ends_the_process_with_mains_code_and_output(tmp_path, capsys, args, code):
    # main leaves the collector on; after run neither a print nor an atexit handler runs
    args = ["analyze", *args, "--out", tmp_path / "run"]
    proc = _child(["-c", ENTRY, tmp_path / "main", *args], tmp_path)
    assert run(["analyze", "--out", tmp_path / "main"]) == 0
    main_out = capsys.readouterr().out
    assert run(args) == code
    expected = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, main_out + expected.out, expected.err
    )


NO_COLLECTION = textwrap.dedent(
    """
    import gc, importlib.util, os, runpy, sys

    run_name = sys.argv.pop(1)
    cli = importlib.util.find_spec("circulant_ilc.cli").origin

    def record(phase, info):  # a collection that starts while cli's code runs
        frame = sys._getframe()
        while frame is not None and frame.f_code.co_filename != cli:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            os.write(2, b"collection\\n")

    gc.callbacks.append(record)
    runpy.run_module("circulant_ilc.cli", run_name=run_name, alter_sys=True)
    """
)


@pytest.mark.parametrize("run_name, collects", [("__main__", False), ("circulant_ilc.cli", True)])
def test_module_entry_point_runs_no_collection(tmp_path, run_name, collects):
    # as `python -m` runs it, from its first statement on; imported, it collects as numpy loads
    proc = _child(["-c", NO_COLLECTION, run_name, "analyze", "--out", tmp_path], tmp_path)
    assert proc.returncode == 0
    assert ("collection" in proc.stderr) == collects, proc.stderr
    assert (proc.stdout != "") == (run_name == "__main__")


IMPORT_COUNT = textwrap.dedent(
    """
    import gc, importlib, sys

    starts = []
    gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
    importlib.import_module(sys.argv[1])
    print(len(starts), gc.isenabled())
    """
)


@pytest.mark.parametrize(
    "module, collects", [("circulant_ilc._script", False), ("circulant_ilc.cli", True)]
)
def test_console_script_module_imports_with_the_collector_off(tmp_path, module, collects):
    # the console script imports run from _script, which turns the collector off before
    # cli, numpy and scipy load; imported as a library, cli leaves it on (33 collections)
    proc = _child(["-c", IMPORT_COUNT, module], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    count, enabled = proc.stdout.split()
    assert (int(count) > 0, enabled) == (collects, str(collects))


def test_console_script_targets_the_collector_off_module():
    from circulant_ilc import _script

    pyproject = Path(cli_module.__file__).parents[2] / "pyproject.toml"
    assert 'circulant-ilc = "circulant_ilc._script:run"' in pyproject.read_text(encoding="utf-8")
    assert _script.run is cli_module.run


CLOSE_STDOUT = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "stdout, code, err",
    [
        pytest.param("closed", 0, "", id="closed"),
        pytest.param("broken_pipe", 4, "cannot write standard output: Broken pipe\n",
                     id="broken_pipe"),
        pytest.param("full", 4, "cannot write standard output: No space left on device\n",
                     id="full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                         reason="needs /dev/full")),
    ],
)
def test_a_failed_stdout_comes_after_every_artifact(tmp_path, stdout, code, err, unbuffered):
    # a failed stdout used to be an out error (exit 2) that left the meta file unwritten
    args = ["-m", "circulant_ilc.cli", "analyze", "--out", tmp_path / "out"]
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else ""}
    if stdout == "closed":  # the interpreter starts with no fd 1
        args = ["-c", CLOSE_STDOUT, *args]
        proc = _child(args, tmp_path, **env)
    elif stdout == "full":
        with open("/dev/full", "w") as full:
            proc = _child(args, tmp_path, stdout=full, **env)
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _child(args, tmp_path, stdout=write_end, **env)
        finally:
            os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == NAMES


def test_files_are_read_and_written_as_utf8(tmp_path):
    # each default-encoding file call warns under -X warn_default_encoding
    out = str(tmp_path / "résultats")
    (tmp_path / "cfg.json").write_text(json.dumps({"out": out}), encoding="utf-8")
    proc = _child(
        ["-m", "circulant_ilc.cli", "analyze", "--config", "cfg.json"], tmp_path,
        "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "résultats" / "analyze_meta.json").read_text(encoding="utf-8"))
    assert meta["config"]["out"] == out
