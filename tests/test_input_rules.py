"""The input rules of every API entry point that takes a count or a real number.

A count must be an integer of at least its bound; a real number must be finite
and, where it has a bound, above it. Each entry point raises ValueError with the
parameter's name first, then the rule, in the words the CLI prints after a field.
"""

import numpy as np
import pytest

from circulant_ilc import (
    DiscretePlant,
    LiftedModel,
    OptimizerConfig,
    accelerated_law,
    contraction_mapping_law,
    descent_step,
    discretize_zoh,
    inverse_circulant_law,
    make_trajectory,
    markov_parameters,
    quadratic_cost_law,
    run_ilc,
    scaled_inverse_circulant_law,
)


def _run(bench, iterations):
    trajectory = make_trajectory("yd1", bench.plant, bench.model.horizon)
    return run_ilc(bench.model, inverse_circulant_law(bench.deleted(1)), trajectory, iterations)


# (entry point, parameter, least count, call on the third-order bench and the value)
COUNTS = [
    ("OptimizerConfig", "iterations", 1, lambda b, v: OptimizerConfig(iterations=v)),
    ("OptimizerConfig", "region_size", 1, lambda b, v: OptimizerConfig(3, region_size=v)),
    ("run_ilc", "iterations", 0, _run),
    ("make_trajectory", "horizon", 1, lambda b, v: make_trajectory("yd1", b.plant, v)),
    ("accelerated_law", "power", 1, lambda b, v: accelerated_law(b.deleted(1), v)),
    ("LiftedModel.build", "horizon", 1, lambda b, v: LiftedModel.build(b.plant, v)),
    # 2.5 and True used to end in numpy's TypeError from np.empty(count)
    ("markov_parameters", "count", 1, lambda b, v: markov_parameters(b.plant, v)),
]

# (entry point, parameter, the bound a value must lie above or None, call)
REALS = [
    ("OptimizerConfig", "weight", 0, lambda b, v: OptimizerConfig(3, weight=v)),
    ("descent_step", "weight", 0, lambda b, v: descent_step(1.0, np.ones(3), v)),
    ("quadratic_cost_law", "weight", 0, lambda b, v: quadratic_cost_law(b.deleted(1).toeplitz, v)),
    ("DiscretePlant", "period", 0, lambda b, v: DiscretePlant(b.plant.A, b.plant.B, b.plant.C, v)),
    ("discretize_zoh", "period", 0, lambda b, v: discretize_zoh(b.css, v)),
    # these two used to return a gain of NaN or inf entries and raise nothing (at
    # gain = inf, with a warning "invalid value encountered in multiply")
    ("scaled_inverse_circulant_law", "overall_gain", None,
     lambda b, v: scaled_inverse_circulant_law(b.deleted(1), v)),
    ("contraction_mapping_law", "gain", None,
     lambda b, v: contraction_mapping_law(b.deleted(1).toeplitz, v)),
]


def _cases():
    for entry, name, least, call in COUNTS:
        for value in (2.5, True, np.nan, np.inf):
            yield entry, call, value, f"{name} must be an integer, got {value!r}"
        yield entry, call, least - 1, f"{name} must be at least {least}"
    for entry, name, above, call in REALS:  # 2.5 is a valid real
        for value in (True, np.nan, np.inf, -np.inf):
            yield entry, call, value, f"{name} must be a finite number, got {value!r}"
        if above is not None:  # the bound itself is the largest value outside
            yield entry, call, float(above), f"{name} must be positive"


CASES = list(_cases())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call, value, message",
    [case[1:] for case in CASES],
    ids=[f"{entry}-{message.split()[0]}-{value!r}" for entry, _, value, message in CASES],
)
def test_entry_point_names_the_rule_a_value_breaks(third, call, value, message):
    with pytest.raises(ValueError) as caught:
        call(third, value)
    assert str(caught.value) == message


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=[c[0] for c in COUNTS])
def test_counts_accept_a_numpy_integer_at_the_bound(third, entry, name, least, call):
    call(third, np.int64(least))
