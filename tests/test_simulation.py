"""Iteration-domain simulation tests.

The closed-form oracle is the propagation-matrix power: e_j = (I - P L)^j e_0
for zero initial state.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    DiscretePlant,
    DivergedRunError,
    IllConditionedCirculantError,
    LearningLaw,
    LiftedModel,
    accelerated_law,
    analyze,
    circulant_inverse,
    contraction_mapping_law,
    delete_initial_steps,
    error_propagation,
    inverse_circulant_law,
    make_trajectory,
    partial_isometry_law,
    quadratic_cost_law,
    run_ilc,
    scaled_inverse_circulant_law,
    signed_svd,
    step_observability,
    worst_case_experiment,
)
from strategies import PROPERTY, horizons, sampled_plants

T = 0.02
N = 51


def test_trajectory_values_at_unit_time(third):
    yd1 = make_trajectory("yd1", third.plant, N)
    yd2 = make_trajectory("yd2", third.plant, N)
    k_unit = 49  # t = 50 * 0.02 = 1.0
    assert yd1[k_unit] == pytest.approx(np.pi, rel=1e-12)
    assert yd2[k_unit] == pytest.approx(0.5 * np.pi, rel=1e-12)
    assert len(yd1) == N


def test_trajectory_is_a_read_only_float64_array(third):
    yd1 = make_trajectory("yd1", third.plant, N)
    assert isinstance(yd1, np.ndarray) and yd1.dtype == np.float64 and yd1.shape == (N,)
    assert not yd1.flags.writeable
    with pytest.raises(ValueError):
        yd1.flags.writeable = True
    # benchmarks/workloads.py reads the samples as `.samples`
    assert yd1.samples is yd1


def test_trajectories_start_smoothly(third):
    # value and first two derivatives vanish at t = 0
    for label in ("yd1", "yd2"):
        traj = make_trajectory(label, third.plant, N)
        f = {"yd1": lambda t: np.pi * (1 - np.cos(np.pi * t / 2)) ** 2,
             "yd2": lambda t: np.pi * (5 * t**3 - 7.5 * t**4 + 3 * t**5)}[label]
        h = 1e-5
        assert f(0.0) == 0.0
        assert abs((f(h) - f(-h)) / (2 * h)) < 1e-8
        assert abs((f(h) - 2 * f(0.0) + f(-h)) / h**2) < 1e-4
        assert traj[0] == pytest.approx(f(T), rel=1e-12)


def test_trajectory_unknown_label(third):
    with pytest.raises(ValueError):
        make_trajectory("ramp", third.plant, N)


def test_zero_law_keeps_error_constant(third):
    dm = third.deleted(1)
    law = scaled_inverse_circulant_law(dm, 0.0)
    traj = make_trajectory("yd1", third.plant, N)
    result = run_ilc(third.model, law, traj, 5)
    for j in range(6):
        assert_allclose(result.errors[j], result.errors[0], atol=0)
    assert_allclose(result.rms, np.full(6, result.rms[0]), atol=0)


def test_exact_inverse_converges_in_one_shot():
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    model = LiftedModel.build(plant, 5)
    law = LearningLaw(np.linalg.inv(model.toeplitz))
    result = run_ilc(model, law, [1.0, 2.0, 0.5, -1.0, 0.0], 2)  # any length-N array
    assert np.max(np.abs(result.errors[1])) < 1e-12
    assert np.max(np.abs(result.errors[2])) < 1e-12


@pytest.mark.parametrize("name,q", [("third_order", 1), ("fourth_order", 2), ("fifth_order", 2)])
def test_direct_run_matches_closed_form(benches, name, q):
    bench = benches[name]
    dm = bench.deleted(q)
    traj = make_trajectory("yd1", bench.plant, N)
    laws = [
        inverse_circulant_law(dm),
        partial_isometry_law(dm.toeplitz),
        contraction_mapping_law(dm.toeplitz),
        quadratic_cost_law(dm.toeplitz),
    ]
    for law in laws:
        result = run_ilc(bench.model, law, traj, 10)
        E = error_propagation(dm.toeplitz, law)
        e = result.errors[0].copy()
        for j in range(1, 11):
            e = E @ e
            # normwise bound: the non-monotonic laws grow errors to ~1e8,
            # where absolute 1e-8 sits below double-precision resolution
            gap = np.linalg.norm(result.errors[j] - e)
            assert gap <= 1e-8 * (1.0 + np.linalg.norm(e))


@PROPERTY
@given(sampled_plants(), horizons, st.data())
def test_property_run_matches_closed_form(plant, n, data):
    model = LiftedModel.build(plant, n)
    q = data.draw(st.integers(0, n - 1), label="q")
    P = model.toeplitz[q:]
    kind = data.draw(st.sampled_from(["inverse_circulant", "contraction", "quadratic"]))
    if kind == "inverse_circulant":
        try:
            law = inverse_circulant_law(delete_initial_steps(model, circulant_inverse(model), q))
        except IllConditionedCirculantError:
            return
    elif kind == "contraction":
        law = contraction_mapping_law(P, data.draw(st.floats(0.1, 10.0), label="gain"))
    else:
        law = quadratic_cost_law(P, data.draw(st.floats(1e-3, 1.0), label="weight"))
    iterations = data.draw(st.integers(1, 8), label="iterations")
    traj = make_trajectory("yd1", plant, n)
    try:
        result = run_ilc(model, law, traj, iterations)
    except DivergedRunError:
        return
    E = error_propagation(P, law)
    # first-order round-off of one run step, carried forward through E
    step_error = n * np.finfo(float).eps * (
        np.linalg.norm(traj)
        + np.linalg.norm(model.toeplitz, 2) * np.max(np.linalg.norm(result.inputs, axis=1))
        + np.linalg.norm(P, 2) * np.linalg.norm(law.gain, 2)
        * np.max(np.linalg.norm(result.errors, axis=1))
    )
    growth = np.linalg.norm(E, 2)
    for j in range(iterations + 1):
        exact = np.linalg.matrix_power(E, j) @ traj[q:]  # zero input and state
        bound = step_error * sum(growth**k for k in range(j + 1))
        assert np.linalg.norm(result.errors[j] - exact) <= bound


def test_optimized_law_contracts_every_iteration(third, optimized):
    # per-run decay bounded by the largest singular value, per the monotonic
    # convergence condition
    law = optimized[("third_order", 1)].law
    sigma = optimized[("third_order", 1)].sigma[-1]
    traj = make_trajectory("yd1", third.plant, N)
    rms = run_ilc(third.model, law, traj, 10).rms
    assert np.all(rms[1:] < sigma * rms[:-1])


def test_zero_error_is_a_fixed_point(third):
    dm = third.deleted(1)
    law = inverse_circulant_law(dm)
    u_star = np.linalg.lstsq(third.model.toeplitz, np.ones(N), rcond=None)[0]
    result = run_ilc(third.model, law, third.model.toeplitz @ u_star, 3, initial_input=u_star)
    assert np.max(np.abs(result.errors)) == 0
    for j in range(4):
        assert np.array_equal(result.inputs[j], u_star)


def test_monotonic_verdict_implies_nonincreasing_rms(benches):
    for name, q in [("third_order", 1), ("fourth_order", 2), ("fifth_order", 2)]:
        bench = benches[name]
        dm = bench.deleted(q)
        for law in (partial_isometry_law(dm.toeplitz), quadratic_cost_law(dm.toeplitz)):
            report = analyze(error_propagation(dm.toeplitz, law))
            if not report.monotonic:
                continue
            for label in ("yd1", "yd2"):
                traj = make_trajectory(label, bench.plant, N)
                rms = run_ilc(bench.model, law, traj, 20).rms
                assert np.all(np.diff(rms) <= 1e-12 * rms[0])


def test_deleted_steps_never_enter_the_update(third):
    dm = third.deleted(1)
    law = inverse_circulant_law(dm)
    traj = make_trajectory("yd1", third.plant, N)
    base = run_ilc(third.model, law, traj, 5)
    bumped = np.concatenate([[traj[0] + 123.0], traj[1:]])
    perturbed = run_ilc(third.model, law, bumped, 5)
    assert np.array_equal(base.inputs, perturbed.inputs)
    assert np.array_equal(base.errors, perturbed.errors)
    assert not np.array_equal(base.deleted_errors, perturbed.deleted_errors)


def test_initial_state_enters_through_observability(third):
    dm = third.deleted(0)
    law = scaled_inverse_circulant_law(dm, 0.0)
    rng = np.random.default_rng(17)
    x0 = rng.standard_normal(third.plant.order)
    result = run_ilc(third.model, law, np.zeros(N), 0, initial_state=x0)
    assert_allclose(result.errors[0], -(step_observability(third.plant, N) @ x0), atol=1e-12)


def test_run_rejects_mismatched_shapes(third):
    dm = third.deleted(1)
    law = inverse_circulant_law(dm)
    with pytest.raises(ValueError):
        run_ilc(third.model, law, np.zeros(N - 1), 3)
    with pytest.raises(ValueError):
        run_ilc(third.model, law, np.zeros((N, 1)), 3)
    with pytest.raises(ValueError, match=rf"law shape \({N + 1}, {N}\) incompatible with N={N}"):
        run_ilc(third.model, LearningLaw(np.eye(N + 1, N)), np.zeros(N), 3)


@pytest.mark.parametrize("iterations", [0, 1, 2, 7])
def test_result_iterations_is_the_requested_count(third, iterations):
    law = inverse_circulant_law(third.deleted(1))
    result = run_ilc(third.model, law, make_trajectory("yd1", third.plant, N), iterations)
    assert result.iterations == iterations
    assert result.rms.size == iterations + 1


def test_rms_is_the_error_norm_over_the_root_of_the_kept_steps(third):
    q = 1
    law = inverse_circulant_law(third.deleted(q))
    result = run_ilc(third.model, law, make_trajectory("yd2", third.plant, N), 3)
    expected = np.linalg.norm(result.errors, axis=1) / np.sqrt(N - q)
    assert_allclose(result.rms, expected, rtol=1e-14, atol=0)


def test_run_rejects_mismatched_initial_conditions(third):
    law = inverse_circulant_law(third.deleted(1))
    with pytest.raises(ValueError, match=r"initial_input shape \(50,\)"):
        run_ilc(third.model, law, np.zeros(N), 3, initial_input=np.zeros(N - 1))
    with pytest.raises(ValueError, match=r"initial_input shape \(51, 1\)"):
        run_ilc(third.model, law, np.zeros(N), 3, initial_input=np.zeros((N, 1)))
    order = third.plant.order
    with pytest.raises(ValueError, match=rf"initial_state shape \({order + 1},\)"):
        run_ilc(third.model, law, np.zeros(N), 3, initial_state=np.zeros(order + 1))
    with pytest.raises(ValueError, match=r"initial_state shape \(\)"):
        run_ilc(third.model, law, np.zeros(N), 3, initial_state=0.0)


def test_worst_case_rms_is_flat(third):
    dm = third.deleted(0)
    law = accelerated_law(dm, 6)
    result = worst_case_experiment(third.model, law, 10)
    assert result.rms[0] == pytest.approx(1.0 / np.sqrt(N), rel=1e-12)
    ratios = result.rms[1:] / result.rms[1]
    assert np.all(np.abs(ratios - 1.0) < 0.05)


def test_second_singular_direction_learns_immediately(third):
    dm = third.deleted(0)
    law = accelerated_law(dm, 6)
    E = error_propagation(dm.toeplitz, law)
    _, _, Vt = signed_svd(E)
    result = run_ilc(third.model, law, Vt[1], 3)
    assert result.rms[1] / result.rms[0] < 1e-4


def test_worst_case_requires_undeleted_law(third):
    dm = third.deleted(1)
    with pytest.raises(ValueError):
        worst_case_experiment(third.model, inverse_circulant_law(dm), 5)


def test_diverging_run_stops_at_first_nonfinite_error(third):
    law = contraction_mapping_law(third.model.toeplitz, 1e6)
    traj = make_trajectory("yd1", third.plant, N)
    with pytest.raises(DivergedRunError) as info:
        run_ilc(third.model, law, traj, 200)
    k = info.value.iteration
    finite = run_ilc(third.model, law, traj, k - 1)
    kept = info.value.result
    assert kept.rms.size == k
    for name in ("inputs", "errors", "deleted_errors", "rms"):
        assert np.array_equal(getattr(kept, name), getattr(finite, name))
