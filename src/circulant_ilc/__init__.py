"""Iterative learning control design from inverse circulant matrices.

The circulant wrap of a sampled plant's Markov parameters carries the
steady-state frequency response at every frequency observable over the
horizon. Its inverse, with the first few ill-posed steps deleted and a
handful of corner gains tuned by sensitivity descent, makes a learning gain
matrix with monotonic error decay and much faster convergence than the
classical time-domain laws it is compared against here.
"""

from .convergence import ConvergenceReport, GainSweep, analyze, gain_sweep
from .errors import (
    ConfigError,
    DegenerateSingularValueError,
    DivergedRunError,
    IllConditionedCirculantError,
    NonFiniteGainError,
    NonFiniteSamplingError,
    NumericalDegeneracyError,
    RankDeficientPlantError,
)
from .laws import (
    LearningLaw,
    accelerated_law,
    contraction_mapping_law,
    error_propagation,
    inverse_circulant_law,
    partial_isometry_law,
    quadratic_cost_law,
    scaled_inverse_circulant_law,
    signed_svd,
)
from .lifted import (
    DeletedModel,
    DiagonalizationReport,
    LiftedModel,
    circulant_deviation,
    circulant_inverse,
    circulant_matrix,
    delete_initial_steps,
    dft_verify,
    step_observability,
    toeplitz_matrix,
)
from .optimizer import (
    GainRegion,
    OptimizationTrace,
    OptimizerConfig,
    SensitivityMap,
    descent_step,
    optimize,
    sensitivity_map,
    sensitivity_matrix,
)
from .plants import (
    PRESETS,
    ContinuousPlant,
    ContinuousStateSpace,
    DiscretePlant,
    Preset,
    discretize_zoh,
    frequency_response,
    markov_parameters,
    realize,
    sampling_zeros,
    unstable_zero_count,
)
from .simulation import (
    SimulationResult,
    Trajectory,
    make_trajectory,
    run_ilc,
    worst_case_experiment,
)

__version__ = "0.1.0"
