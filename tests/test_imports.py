"""Layers and scipy load on first use, not by importing the package, and the
package's public names are its layers' own objects.

The load checks run in a fresh interpreter: the test session itself has every
layer and scipy loaded long before this module runs.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import circulant_ilc

GUARD = textwrap.dedent(
    """
    import sys

    import circulant_ilc
    import circulant_ilc.cli
    from circulant_ilc import PRESETS, ContinuousPlant, OptimizerConfig, discretize_zoh, realize

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = sys.argv[1]
    css = realize(ContinuousPlant(first_order=(8.8,), second_order=((37.0, 0.5),)))
    assert PRESETS["third_order"].q == 1
    OptimizerConfig(iterations=10, region_size=5)
    assert circulant_ilc.cli.main(["analyze", "--n", "0", "--out", out]) == 2
    assert circulant_ilc.cli.main(["analyze", "--plant", out + "/none.json", "--out", out]) == 2
    assert not loaded(), loaded()
    discretize_zoh(css, 0.02)
    assert "scipy.linalg" in loaded(), loaded()
    print("ok")
    """
)


LAZY = textwrap.dedent(
    """
    import sys

    def loaded():
        return sorted(m for m in sys.modules if m.startswith(("circulant_ilc.", "scipy")))

    import circulant_ilc
    assert not loaded(), loaded()
    circulant_ilc.PRESETS
    assert loaded() == ["circulant_ilc.errors", "circulant_ilc.plants"], loaded()
    assert circulant_ilc.lifted is sys.modules["circulant_ilc.lifted"]  # a layer not yet loaded
    print("ok")
    """
)

COMMAND_LAYERS = textwrap.dedent(
    """
    import sys

    def layers():
        return sorted(m.split(".")[1] for m in sys.modules if m.startswith("circulant_ilc."))

    import circulant_ilc.cli
    assert layers() == ["cli", "errors", "exports", "lifted", "plants"], layers()
    assert circulant_ilc.cli.main(sys.argv[1:]) == 0
    print(*layers())
    """
)

# Every public name of the package, under the layer that defines it.
EXPORTS = {
    "errors": [
        "ConfigError", "DegenerateSingularValueError", "DivergedRunError",
        "IllConditionedCirculantError", "NonFiniteGainError", "NonFiniteSamplingError",
        "NumericalDegeneracyError", "RankDeficientPlantError",
    ],
    "plants": [
        "PRESETS", "ContinuousPlant", "ContinuousStateSpace", "DiscretePlant", "Preset",
        "discretize_zoh", "frequency_response", "markov_parameters", "realize",
        "sampling_zeros", "unstable_zero_count",
    ],
    "lifted": [
        "DeletedModel", "DiagonalizationReport", "LiftedModel", "circulant_inverse",
        "circulant_matrix", "delete_initial_steps", "dft_verify", "step_observability",
        "toeplitz_matrix",
    ],
    "laws": [
        "LearningLaw", "accelerated_law", "contraction_mapping_law", "error_propagation",
        "inverse_circulant_law", "partial_isometry_law", "quadratic_cost_law",
        "scaled_inverse_circulant_law", "signed_svd",
    ],
    "convergence": ["ConvergenceReport", "GainSweep", "analyze", "gain_sweep"],
    "optimizer": [
        "OptimizationTrace", "OptimizerConfig", "SensitivityMap", "descent_step", "optimize",
        "sensitivity_map", "sensitivity_matrix",
    ],
    "simulation": ["SimulationResult", "make_trajectory", "run_ilc", "worst_case_experiment"],
}


def _run_fresh(script, *args):
    # the child imports the same circulant_ilc as this session
    path = [str(Path(circulant_ilc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_layer_and_presets_load_only_plants():
    assert _run_fresh(LAZY).stdout == "ok\n"


def test_public_names_are_the_defining_layers_objects():
    every = [name for names in EXPORTS.values() for name in names]
    assert len(every) == len(set(every)) == 52
    assert sorted(circulant_ilc.__all__) == sorted(every)
    for layer, names in EXPORTS.items():
        module = importlib.import_module(f"circulant_ilc.{layer}")
        for name in names:
            assert getattr(circulant_ilc, name) is getattr(module, name), name


def test_star_import_dir_and_layer_access():
    namespace = {}
    exec("from circulant_ilc import *", namespace)
    assert set(circulant_ilc.__all__) <= set(namespace)
    assert set(circulant_ilc.__all__) <= set(dir(circulant_ilc))
    assert circulant_ilc.lifted is importlib.import_module("circulant_ilc.lifted")


def test_package_reads_a_swapped_function_from_its_layer(monkeypatch):
    swapped = object()
    monkeypatch.setattr(circulant_ilc.convergence, "analyze", swapped)
    assert circulant_ilc.analyze is swapped


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'circulant_ilc' has no attribute 'nope'"):
        circulant_ilc.nope


def test_import_and_config_errors_leave_scipy_unloaded(tmp_path):
    proc = _run_fresh(GUARD, str(tmp_path))
    assert proc.stdout == "ok\n"
    assert proc.stderr.count("configuration error") == 2


@pytest.mark.parametrize(
    "command, layers",
    [
        ("analyze", ["convergence", "laws"]),
        ("sweep", ["convergence", "laws"]),
        ("simulate", ["laws", "simulation"]),
        ("sensitivity", ["laws", "optimizer"]),
        ("optimize", ["laws", "optimizer"]),
    ],
)
def test_cli_command_loads_only_its_layers(tmp_path, command, layers):
    args = [command, "--plant", "third_order", "--opt-iterations", "5", "--out", str(tmp_path)]
    loaded = _run_fresh(COMMAND_LAYERS, *args).stdout.splitlines()[-1].split()
    assert loaded == sorted(["cli", "errors", "exports", "lifted", "plants", *layers])
