"""Iterative learning control design from inverse circulant matrices.

The circulant wrap of a sampled plant's Markov parameters carries the
steady-state frequency response at every frequency observable over the
horizon. Its inverse, with the first few ill-posed steps deleted and a
handful of corner gains tuned by sensitivity descent, makes a learning gain
matrix with monotonic error decay and much faster convergence than the
classical time-domain laws it is compared against here.

Each layer loads on first use (PEP 562): `import circulant_ilc` runs none of
them, and `circulant_ilc.PRESETS` loads only `errors` and `plants`.
"""

import importlib

# The public names of each layer, in the order of the design chain.
_EXPORTS = {
    "errors": (
        "ConfigError", "NumericalDegeneracyError", "IllConditionedCirculantError",
        "DegenerateSingularValueError", "NonFiniteSamplingError", "NonFiniteGainError",
        "DivergedRunError", "RankDeficientPlantError",
    ),
    "plants": (
        "ContinuousPlant", "ContinuousStateSpace", "DiscretePlant", "realize",
        "discretize_zoh", "markov_parameters", "frequency_response", "sampling_zeros",
        "unstable_zero_count", "Preset", "PRESETS",
    ),
    "lifted": (
        "LiftedModel", "DeletedModel", "DiagonalizationReport", "toeplitz_matrix",
        "step_observability", "circulant_matrix", "dft_verify", "circulant_inverse",
        "delete_initial_steps",
    ),
    "laws": (
        "LearningLaw", "signed_svd", "inverse_circulant_law", "scaled_inverse_circulant_law",
        "accelerated_law", "partial_isometry_law", "contraction_mapping_law",
        "quadratic_cost_law", "error_propagation",
    ),
    "convergence": ("ConvergenceReport", "GainSweep", "analyze", "gain_sweep"),
    "optimizer": (
        "OptimizerConfig", "OptimizationTrace", "SensitivityMap", "sensitivity_matrix",
        "sensitivity_map", "descent_step", "optimize",
    ),
    "simulation": ("SimulationResult", "make_trajectory", "run_ilc", "worst_case_experiment"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A layer, or a public name read from its layer on every access.

    Nothing is cached here, so a function swapped in its layer (by a tracer or
    a monkeypatch) is what the package returns too.
    """
    layer = _HOME.get(name, name)
    if layer not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if layer == name else getattr(module, name)


def __dir__():
    return __all__
