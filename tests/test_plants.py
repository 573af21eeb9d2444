"""Plant realization, zero-order-hold sampling, and pulse-response tests.

The independent oracle for sampling accuracy is adaptive ODE integration of
the continuous realization under staircase inputs.
"""

import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from circulant_ilc import (
    ContinuousPlant,
    ContinuousStateSpace,
    DiscretePlant,
    NonFiniteSamplingError,
    discretize_zoh,
    frequency_response,
    markov_parameters,
    realize,
    sampling_zeros,
    toeplitz_matrix,
    unstable_zero_count,
)
from oracles import plant_transfer, state_space_transfer

T = 0.02


def integrate_staircase(css, inputs, period, rtol=1e-11, atol=1e-13):
    """Oracle: continuous response at sample instants for a held input sequence."""
    x = np.zeros(css.order)
    outputs = []
    for u in inputs:
        def rhs(t, state):
            return css.A @ state + css.B[:, 0] * u
        sol = solve_ivp(rhs, (0.0, period), x, method="DOP853", rtol=rtol, atol=atol)
        x = sol.y[:, -1]
        outputs.append((css.C @ x)[0])
    return np.array(outputs)


@pytest.mark.parametrize(
    "make",
    [ContinuousStateSpace, lambda A, B, C: DiscretePlant(A, B, C, T)],
    ids=["continuous", "discrete"],
)
def test_state_space_stores_read_only_column_b_and_row_c(make):
    A = np.array([[0.5, 0.1], [0.0, 0.25]])
    sys = make(A, [1.0, 2.0], [3.0, 4.0])
    assert sys.B.shape == (2, 1) and sys.C.shape == (1, 2) and sys.order == 2
    for stored in (sys.A, sys.B, sys.C):
        assert not stored.flags.writeable
    A[0, 0] = 99.0
    assert sys.A[0, 0] == 0.5


def test_plant_validation_rejects_bad_sections():
    with pytest.raises(ValueError):
        ContinuousPlant()


@pytest.mark.parametrize(
    "sections",
    [
        {"second_order": ((1e200, 0.5),)},   # omega**2 overflows
        {"second_order": ((37.0, 1e308),)},  # 2 zeta omega overflows
    ],
    ids=["omega_squared", "two_zeta_omega"],
)
def test_plant_validation_rejects_non_finite_sections(sections):
    # each used to pass and end in a LinAlgError from eigvals in discretize_zoh
    with pytest.raises(ValueError):
        ContinuousPlant(**sections)


def test_plant_validation_admits_sections_at_the_overflow_edge():
    # omega**2 = 1e308 and 2 zeta omega = 1e308 are finite
    ContinuousPlant(second_order=((1e154, 0.5),))
    ContinuousPlant(second_order=((1.0, 5e307),))


def test_first_order_realization_matches_transfer():
    plant = ContinuousPlant(first_order=(1.0,))
    css = realize(plant)
    assert css.order == 1
    for s in (0.0, 1j, 2.0 + 3.0j):
        assert_allclose(state_space_transfer(css, s), 1.0 / (s + 1.0), rtol=1e-13, atol=1e-14)


def test_third_order_realization_frequency_match(third):
    s = 10j
    assert third.css.order == 3
    assert abs(state_space_transfer(third.css, s) - plant_transfer(third.continuous, s)) < 1e-12


def test_fifth_order_realization_dc_gain(fifth):
    assert fifth.css.order == 5
    assert abs(state_space_transfer(fifth.css, 0.0) - 1.0) < 1e-12


def test_fifth_order_is_third_order_times_the_74_rad_s_section(benches):
    # the paper's fifth-order plant adds fourth_order's 74 rad/s pair to the
    # third-order one: its poles are the 8.8 rad/s pole and both pairs
    poles = {
        name: np.sort_complex(np.linalg.eigvals(bench.css.A)) for name, bench in benches.items()
    }
    expected = np.sort_complex(np.r_[poles["third_order"], poles["fourth_order"][[0, 1]]])
    assert_allclose(poles["fourth_order"][[0, 1]].real, -37.0, rtol=1e-12)
    assert_allclose(poles["fifth_order"], expected, rtol=1e-12)


def test_realizations_are_stable(benches):
    for bench in benches.values():
        assert np.max(np.linalg.eigvals(bench.css.A).real) < 0
        assert np.max(np.abs(np.linalg.eigvals(bench.plant.A))) < 1


def test_markov_parameters_are_realization_invariant(third):
    # oracle: a hand-built cascade with the section order reversed
    w, z = 37.0, 0.5
    a = 8.8
    A2 = np.array([[0.0, 1.0], [-w * w, -2.0 * z * w]])
    B2 = np.array([[0.0], [1.0]])
    C2 = np.array([[w * w, 0.0]])
    A1, B1, C1 = np.array([[-a]]), np.array([[1.0]]), np.array([[a]])
    A = np.block([[A2, np.zeros((2, 1))], [B1 @ C2, A1]])
    B = np.vstack([B2, np.zeros((1, 1))])
    C = np.hstack([np.zeros((1, 2)), C1])
    other = discretize_zoh(ContinuousStateSpace(A, B, C), T)
    assert_allclose(
        markov_parameters(other, 51), markov_parameters(third.plant, 51), atol=1e-12
    )


def test_zoh_pure_integrator_closed_form():
    css = ContinuousStateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    plant = discretize_zoh(css, T)
    assert_allclose(plant.A, [[1.0]], atol=1e-15)
    assert_allclose(plant.B, [[T]], atol=1e-15)
    assert_allclose(plant.C, [[1.0]], atol=1e-15)


def test_zoh_scalar_closed_form():
    css = ContinuousStateSpace(-np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    plant = discretize_zoh(css, T)
    assert_allclose(plant.A, [[np.exp(-T)]], rtol=1e-14)
    assert_allclose(plant.B, [[1.0 - np.exp(-T)]], rtol=1e-13)


def test_zoh_warns_when_a_pole_aliases(benches):
    # 1e4 rad/s is far above the 157 rad/s Nyquist frequency at 50 Hz
    with pytest.warns(RuntimeWarning, match="aliases"):
        discretize_zoh(realize(ContinuousPlant(second_order=((1e4, 0.1),))), T)
    # real poles never alias; the presets, and the benchmark's seeded plants
    # (preset frequencies scaled by at most 1.25, so up to 92.5 rad/s), stay silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        discretize_zoh(realize(ContinuousPlant(first_order=(1e4,))), T)
        discretize_zoh(realize(ContinuousPlant(second_order=((92.5, 0.05),))), T)
        for bench in benches.values():
            discretize_zoh(bench.css, T)


@pytest.mark.parametrize(
    "plant, period",
    [(ContinuousPlant(first_order=(8.8,)), 1e300), (ContinuousPlant(first_order=(1e308,)), T)],
    ids=["period_1e300", "pole_1e308"],
)
def test_zoh_rejects_non_finite_exponential(plant, period):
    # the matrix exponential overflows to NaN; it used to be returned as the plant
    css = realize(plant)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteSamplingError, match=re.escape(f"{period:.6g} s")):
            discretize_zoh(css, period)


def test_markov_parameters_match_ode_pulse_response(third):
    # unit pulse: u = 1 on the first interval only; y(k) then equals m[k-1]
    pulse = np.zeros(13)
    pulse[0] = 1.0
    oracle = integrate_staircase(third.css, pulse, T)
    assert_allclose(markov_parameters(third.plant, 13), oracle, atol=1e-9)


def test_markov_parameters_match_ode_step_differences(third):
    step = np.ones(12)
    oracle = integrate_staircase(third.css, step, T)
    diffs = np.diff(np.concatenate([[0.0], oracle]))
    assert_allclose(markov_parameters(third.plant, 12), diffs, atol=1e-9)


@pytest.mark.parametrize("name", ["third_order", "fourth_order", "fifth_order"])
def test_zoh_staircase_exactness(benches, name):
    bench = benches[name]
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal(10)
    oracle = integrate_staircase(bench.css, inputs, T)
    x = np.zeros((bench.plant.order, 1))
    recursion = []
    for u in inputs:
        x = bench.plant.A @ x + bench.plant.B * u
        recursion.append((bench.plant.C @ x)[0, 0])
    assert_allclose(recursion, oracle, atol=1e-8)


def test_markov_integrator():
    plant = DiscretePlant(np.ones((1, 1)), np.full((1, 1), T), np.ones((1, 1)), T)
    assert_allclose(markov_parameters(plant, 3), [T, T, T], atol=1e-15)


def test_markov_single_parameter(third):
    m = markov_parameters(third.plant, 1)
    assert m.shape == (1,)
    assert m[0] == pytest.approx((third.plant.C @ third.plant.B)[0, 0], abs=0)


def test_markov_equals_first_toeplitz_column(benches):
    for bench in benches.values():
        P = toeplitz_matrix(bench.plant, 51)
        assert np.array_equal(P[:, 0], markov_parameters(bench.plant, 51))


def test_frequency_response_scalar():
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    assert frequency_response(plant, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_frequency_response_dc_gain_preserved(benches):
    for bench in benches.values():
        dc = frequency_response(bench.plant, 1.0)
        assert abs(dc - plant_transfer(bench.continuous, 0.0)) < 1e-9


def test_frequency_response_rejects_eigenvalue():
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    with pytest.raises(ValueError, match=r"z = 0\.5 is an eigenvalue"):
        frequency_response(plant, 0.5)
    with pytest.raises(ValueError, match=r"z = \(0\.5\+0j\) is an eigenvalue"):
        frequency_response(plant, np.array([1.0, 0.5, -1.0]))


def test_frequency_response_array_matches_scalar_loop(benches):
    # one stacked solve gives the bits of one solve per point
    zs = np.exp(2j * np.pi / 51) ** np.arange(51)
    for bench in benches.values():
        loop = np.array([frequency_response(bench.plant, z) for z in zs])
        assert np.array_equal(frequency_response(bench.plant, zs), loop)
        grid = zs.reshape(3, 17)
        assert np.array_equal(frequency_response(bench.plant, grid), loop.reshape(3, 17))


def test_sampling_zero_counts(benches):
    # pole excesses 3, 4, 5 leave 1, 1, 2 zeros outside the unit circle at 50 Hz
    expected = {"third_order": 1, "fourth_order": 1, "fifth_order": 2}
    for name, bench in benches.items():
        zeros = sampling_zeros(bench.plant)
        assert zeros.size == bench.plant.order - 1
        assert unstable_zero_count(bench.plant) == expected[name]
