"""The input rules of every API entry point that takes a count, a real number or
an array of them.

A count must be an integer of at least its bound (and, for a deletion count,
below the horizon); a real number must be finite and, where it has a bound, above
it; an array must hold integers or floats, each finite, and an array a record
holds read-only must not be complex. Each entry point raises ValueError with the
parameter's name first, then the rule, in the words the CLI prints after a field,
and shows a rejected number the one way `errors.shown` does: its repr up to 20
characters, else cut. A count it accepts, a numpy integer too, it keeps as given;
a finite real above its bound, a numpy float too, it accepts. Each rule's text is
written only in errors.py, and so is the one way a record holds an array
(errors.readonly, errors.frozen).
"""

import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from circulant_ilc import (
    ContinuousPlant,
    DeletedModel,
    DiscretePlant,
    LearningLaw,
    LiftedModel,
    OptimizerConfig,
    accelerated_law,
    contraction_mapping_law,
    delete_initial_steps,
    descent_step,
    discretize_zoh,
    gain_sweep,
    inverse_circulant_law,
    make_trajectory,
    markov_parameters,
    quadratic_cost_law,
    run_ilc,
    scaled_inverse_circulant_law,
    worst_case_experiment,
)
from circulant_ilc import errors
from circulant_ilc.errors import check_real, shown


def _run(bench, iterations):
    trajectory = make_trajectory("yd1", bench.plant, bench.model.horizon)
    return run_ilc(bench.model, inverse_circulant_law(bench.deleted(1)), trajectory, iterations)


def _worst_case(bench, iterations):
    return worst_case_experiment(bench.model, accelerated_law(bench.deleted(0), 2), iterations)


def _power(bench, law):
    """The power whose accelerated law `law` is, bit for bit: a law keeps only its gain."""
    gains = {p: accelerated_law(bench.deleted(1), p).gain for p in (1, 2)}
    return next(p for p, gain in gains.items() if np.array_equal(law.gain, gain))


# (entry point, parameter, least count, call on the third-order bench and the value,
# the count the call's result holds); a deletion count must also be below the bench's
# horizon, N = 51
COUNTS = [
    ("OptimizerConfig", "iterations", 1, lambda b, v: OptimizerConfig(iterations=v),
     lambda b, r: r.iterations),
    ("OptimizerConfig", "region_size", 1, lambda b, v: OptimizerConfig(3, region_size=v),
     lambda b, r: r.region_size),
    ("run_ilc", "iterations", 0, _run, lambda b, r: r.iterations),
    ("worst_case_experiment", "iterations", 0, _worst_case, lambda b, r: r.iterations),
    # 2.5 used to return 3 samples
    ("make_trajectory", "horizon", 1, lambda b, v: make_trajectory("yd1", b.plant, v),
     lambda b, r: r.shape[0]),
    ("accelerated_law", "power", 1, lambda b, v: accelerated_law(b.deleted(1), v), _power),
    ("LiftedModel.build", "horizon", 1, lambda b, v: LiftedModel.build(b.plant, v),
     lambda b, r: r.horizon),
    # 2.5 and True used to end in numpy's TypeError from np.empty(count)
    ("markov_parameters", "count", 1, lambda b, v: markov_parameters(b.plant, v),
     lambda b, r: r.size),
    # q = 51 used to read "deletion count q = 51 must satisfy 0 <= q < N = 51"
    ("delete_initial_steps", "q", 0, lambda b, v: delete_initial_steps(b.model, b.inverse, v),
     lambda b, r: r.q),
]
BELOW = {"delete_initial_steps": 51}

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
    # '3' and True used to construct, None to end in a TypeError and 10**400 in an
    # OverflowError; inf used to read "realization overflows"
    ("ContinuousPlant.a", "section parameters a, omega and zeta", 0,
     lambda b, v: ContinuousPlant(first_order=(v,))),
    ("ContinuousPlant.omega", "section parameters a, omega and zeta", 0,
     lambda b, v: ContinuousPlant(second_order=((v, 0.5),))),
    ("ContinuousPlant.zeta", "section parameters a, omega and zeta", 0,
     lambda b, v: ContinuousPlant(second_order=((37.0, v),))),
]


def _run_with(name):
    """run_ilc on the third-order bench with an array as argument `name`."""
    def call(b, array):
        given = {"trajectory": np.zeros(51), name: array}
        return run_ilc(b.model, inverse_circulant_law(b.deleted(1)), iterations=1, **given)
    return call


# (entry point, parameter, the array's size, call on the third-order bench and the array);
# in an array that repeats one entry, NaN, inf and None used to end in DivergedRunError at
# iteration 0, True and "3" to run as 1.0 and 3.0 (a "3" state in numpy's UFuncTypeError),
# 1j and 10**400 in a TypeError or OverflowError that named no argument. The gain grid
# swept True and "3" as 1.0 and 3.0, and the string array ["0.5", True] as 0.5 and 1.0.
# One True among floats, [0.5, True] say, each entry point used to take as 1.0
ARRAYS = [
    ("run_ilc", "trajectory", 51, _run_with("trajectory")),
    ("run_ilc", "initial_input", 51, _run_with("initial_input")),
    ("run_ilc", "initial_state", 3, _run_with("initial_state")),
    ("gain_sweep", "gain grid", 2, lambda b, v: gain_sweep(b.deleted(1), v)),
]

# (entry point, parameter, the array's shape, call on the third-order bench and the array)
# of the arrays a record holds read-only; a complex one used to lose its imaginary part
# with only numpy's ComplexWarning: DiscretePlant(1j * np.eye(3), ...) held A = 0
COMPLEX = [
    ("DiscretePlant", "A", (3, 3), lambda b, v: DiscretePlant(v, b.plant.B, b.plant.C, 0.02)),
    ("DiscretePlant", "B", (3, 1), lambda b, v: DiscretePlant(b.plant.A, v, b.plant.C, 0.02)),
    ("DiscretePlant", "C", (1, 3), lambda b, v: DiscretePlant(b.plant.A, b.plant.B, v, 0.02)),
    ("LearningLaw", "gain", (51, 50), lambda b, v: LearningLaw(v)),
    ("LiftedModel", "markov", (51,), lambda b, v: LiftedModel(b.plant, v)),
    ("delete_initial_steps", "inverse", (51, 51), lambda b, v: delete_initial_steps(b.model, v, 1)),
    # these two used to be held complex, and gain_sweep to cast them with a ComplexWarning
    ("DeletedModel", "toeplitz", (50, 51),
     lambda b, v: DeletedModel(v, b.deleted(1).circulant_inverse)),
    ("DeletedModel", "circulant_inverse", (51, 50),
     lambda b, v: DeletedModel(b.deleted(1).toeplitz, v)),
]


def _cases():
    for entry, name, least, call, _ in COUNTS:
        # even a whole float; numpy's bool and a 0-d array are no Integral either
        for value in (2.5, True, np.True_, np.nan, np.inf, float(least), "3", np.array(3)):
            yield entry, call, value, f"{name} must be an integer, got {value!r}"
        yield entry, call, least - 1, f"{name} must be at least {least}"
        if entry in BELOW:
            yield entry, call, BELOW[entry], f"{name} must be below {BELOW[entry]}"
    for entry, name, above, call in REALS:  # 2.5 is a valid real
        # np.float32(np.inf) used to pass, numpy casting the float bound to float32's inf
        for value in (True, np.True_, np.nan, np.inf, -np.inf, np.float32(np.inf), "3", None,
                      10**400, Fraction(10**400)):
            yield entry, call, value, f"{name} must be a finite number, got {shown(value)}"
        if above is not None:  # the bound itself is the largest value outside
            for value in (float(above), -1.0):
                yield entry, call, value, f"{name} must be positive"
    for entry, name, size, call in ARRAYS:  # a bool, a string, a complex number, an object
        repeated = lambda b, v, call=call, size=size: call(b, [v] * size)
        for value in (np.nan, np.inf, -np.inf, True, "3", 1j, None, 10**400):
            yield entry, repeated, value, f"{name} must be an array of finite numbers"
        yield entry, call, [0.5] * (size - 1) + [True], f"{name} must be an array of finite numbers"
        # numpy's own "inhomogeneous shape" ValueError used to escape, naming no argument
        yield entry, call, [[1.0], [1.0, 2.0]], f"{name} must be an array of finite numbers"
    yield ("gain_sweep", lambda b, v: gain_sweep(b.deleted(1), v), ["0.5", True],
           "gain grid must be an array of finite numbers")
    for entry, name, shape, call in COMPLEX:
        yield entry, call, np.full(shape, 1j), f"{name} must be real, got a complex array"


CASES = list(_cases())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "call, value, message",
    [case[1:] for case in CASES],
    ids=[f"{entry}-{message.split()[0]}-{shown(value)}" for entry, _, value, message in CASES],
)
def test_entry_point_names_the_rule_a_value_breaks(third, call, value, message):
    with pytest.raises(ValueError) as caught:
        call(third, value)
    assert str(caught.value) == message


# (record, its N, a call on the third-order bench that gives it q = N); each used to
# build, and then optimize raised ZeroDivisionError, gain_sweep printed LAPACK's DGEEV
# complaint and run_ilc reported a divergence at iteration 0
Q_OF_N = [
    ("DeletedModel", 5, lambda b: DeletedModel(np.zeros((0, 5)), np.zeros((5, 0)))),
    ("DeletedModel", 51, lambda b: DeletedModel(b.model.toeplitz[51:], b.inverse[:, 51:])),
    ("LearningLaw", 5, lambda b: LearningLaw(np.ones((5, 0)))),
    ("LearningLaw", 51, lambda b: LearningLaw(b.inverse[:, 51:])),
]


@pytest.mark.parametrize("n, call", [case[1:] for case in Q_OF_N],
                         ids=[f"{entry}-N{n}" for entry, n, _ in Q_OF_N])
def test_a_record_refuses_a_q_of_n(third, n, call):
    # the rule delete_initial_steps states: 0 <= q < N
    with pytest.raises(ValueError) as caught:
        call(third)
    assert str(caught.value) == f"q must be below {n}"


@pytest.mark.parametrize("entry, name, least, call, kept", COUNTS, ids=[c[0] for c in COUNTS])
def test_counts_accept_a_numpy_integer_at_the_bound(third, entry, name, least, call, kept):
    for value in (np.int64(least), np.int32(least + 1)):  # and one above it
        assert kept(third, call(third, value)) == value


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry, name, above, call", REALS, ids=[r[0] for r in REALS])
def test_reals_accept_a_finite_number_above_the_bound(third, entry, name, above, call):
    for value in (0.01, np.float64(0.02)):  # a period this short does not alias
        call(third, value)


def test_a_real_may_be_the_largest_finite_float():
    for value in (sys.float_info.max, -sys.float_info.max):
        check_real(value, "x")


def test_an_array_holds_no_bool_wherever_it_sits():
    # numpy casts a bool among numbers, even a numpy bool or a 0-d bool array, to 0 or 1
    for value in ([1, True], [[0.5], [np.True_]], [np.zeros(1), np.ones(1, bool)],
                  [np.array(True), 0.5], (0.5, np.False_)):
        with pytest.raises(ValueError, match="^x must be an array of finite numbers$"):
            errors.real_array(value, "x")
    numbers = np.arange(3.0)
    assert errors.real_array(numbers, "x") is numbers  # an array's dtype answers: no copy
    assert errors.real_array([1, np.float64(0.5), np.array(2)], "x").tolist() == [1.0, 0.5, 2.0]


def test_each_rule_is_written_only_in_errors():
    # the API and the CLI both call errors.check_integer and errors.check_real
    rule = re.compile(
        r"must be (at least|below|an integer|a finite number|an array of finite numbers|positive"
        r"|real)"
    )
    home = Path(errors.__file__)
    elsewhere = [
        f"{layer.name}:{number}: {line.strip()}"
        for layer in sorted(home.parent.glob("*.py")) if layer != home
        for number, line in enumerate(layer.read_text(encoding="utf-8").splitlines(), 1)
        if rule.search(line)
    ]
    assert elsewhere == []
    assert rule.search(home.read_text(encoding="utf-8"))


def test_only_errors_marks_an_array_read_only():
    # every other layer holds an array through errors.readonly or errors.frozen
    home = Path(errors.__file__)
    elsewhere = [
        f"{layer.name}:{number}: {line.strip()}"
        for layer in sorted(home.parent.glob("*.py")) if layer != home
        for number, line in enumerate(layer.read_text(encoding="utf-8").splitlines(), 1)
        if ".flags.writeable = False" in line
    ]
    assert elsewhere == []


def test_no_layer_imports_another_layers_private_name():
    # lifted and laws used to import plants._readonly, convergence laws._identity_minus
    private = re.compile(r"^\s*from \.\w+ import .*\b_\w+")
    package = Path(errors.__file__).parent
    found = [
        f"{layer.name}:{number}: {line.strip()}"
        for layer in sorted(package.glob("*.py"))
        for number, line in enumerate(layer.read_text(encoding="utf-8").splitlines(), 1)
        if private.search(line)
    ]
    assert found == []


@pytest.mark.parametrize(
    "value, text",
    [
        ("x" * 20, "'" + "x" * 20 + "'"),
        ("x" * 5000, "'" + "x" * 20 + "'... (5000 characters)"),
        ([0] * 2000, "'[0, 0, 0, 0, 0, 0, 0'... (6000 characters)"),
        (10**3999, "'1" + "0" * 19 + "'... (4000 characters)"),
        (10**5000, "an integer of 16610 bits"),  # its repr is past Python's 4300 digits
    ],
    ids=["string_of_20", "string_of_5000", "list_of_2000", "int_of_4000_digits",
         "int_of_5001_digits"],
)
def test_a_rejected_value_is_shown_in_at_most_20_characters(value, text):
    # a check used to echo the whole repr: 5,000 characters for the string
    assert shown(value) == text
