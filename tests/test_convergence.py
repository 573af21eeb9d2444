"""Spectral analysis and overall-gain sweep tests.

Table values asserted here come from the benchmark reproduction; the
acceptance suite re-checks them at the contract tolerances.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    ContinuousPlant,
    DeletedModel,
    IllConditionedCirculantError,
    LiftedModel,
    analyze,
    circulant_inverse,
    delete_initial_steps,
    discretize_zoh,
    error_propagation,
    gain_sweep,
    inverse_circulant_law,
    realize,
)
from strategies import PROPERTY, T, horizons, sampled_plants

GRID = np.round(np.arange(-1.0, 2.0 + 1e-9, 0.05), 10)  # criterion 4's grid


def test_analyze_zero_matrix():
    report = analyze(np.zeros((4, 4)))
    assert report.sigma_max == 0.0
    assert report.spectral_radius == 0.0
    assert report.converges and report.monotonic


def test_analyze_rejects_nonsquare():
    with pytest.raises(ValueError):
        analyze(np.zeros((3, 4)))


def test_spectra_sorted_descending():
    rng = np.random.default_rng(9)
    report = analyze(rng.standard_normal((8, 8)))
    assert np.all(np.diff(report.singular_values) <= 0)
    assert np.all(np.diff(report.eigenvalue_magnitudes) <= 0)


def test_spectral_radius_never_exceeds_sigma_max():
    rng = np.random.default_rng(10)
    for _ in range(20):
        report = analyze(rng.standard_normal((7, 7)))
        assert report.spectral_radius <= report.sigma_max + 1e-10


def test_full_map_spectrum_matches_table_one(third):
    dm = third.deleted(0)
    report = analyze(error_propagation(dm.toeplitz, inverse_circulant_law(dm)))
    assert_allclose(
        report.singular_values[:3], [18.2151, 1.3772, 0.2477], rtol=1e-2
    )
    assert abs(report.eigenvalue_magnitudes[0] - 1.0) < 1e-3
    assert not report.monotonic and not report.converges


def test_deleted_map_spectrum_matches_table_four(third):
    dm = third.deleted(1)
    report = analyze(error_propagation(dm.toeplitz, inverse_circulant_law(dm)))
    assert_allclose(
        report.singular_values[:3], [13.8093, 0.5417, 0.1135], rtol=1e-2
    )
    assert abs(report.eigenvalue_magnitudes[0] - 0.9987) < 1e-3


def test_second_singular_value_shrinks_with_powers(third):
    dm = third.deleted(0)
    E = error_propagation(dm.toeplitz, inverse_circulant_law(dm))
    s1 = analyze(E).singular_values[1]
    s3 = analyze(np.linalg.matrix_power(E, 3)).singular_values[1]
    s6 = analyze(np.linalg.matrix_power(E, 6)).singular_values[1]
    assert s6 < s3 < s1


def test_gain_sweep_identity_at_zero(third):
    sweep = gain_sweep(third.deleted(1), [0.0])
    assert sweep.sigma_max[0] == pytest.approx(1.0, abs=0)
    assert sweep.spectral_radius[0] == pytest.approx(1.0, abs=1e-12)


def test_gain_sweep_minimum_at_zero_gain(third):
    grid = np.round(np.arange(-1.0, 2.0 + 1e-9, 0.05), 10)
    sweep = gain_sweep(third.deleted(1), grid)
    assert sweep.best_gain == pytest.approx(0.0, abs=1e-12)
    assert sweep.sigma_max[sweep.best_index] == pytest.approx(1.0, abs=1e-10)
    nonzero = np.abs(sweep.gains) > 1e-12
    assert np.all(sweep.sigma_max[nonzero] > 1.0)


def test_gain_sweep_unit_gain_reproduces_table_four(third):
    sweep = gain_sweep(third.deleted(1), [1.0])
    assert sweep.sigma_max[0] == pytest.approx(13.8093, rel=1e-2)


def test_gain_sweep_rejects_empty_grid(third):
    with pytest.raises(ValueError):
        gain_sweep(third.deleted(1), [])


# --- the factored sweep against dense per-phi svd / eigvals -----------------


def dense_sweep(deleted, gains):
    """Reference: full svd and eigvals of I - phi P_q Pc_inv_q at every phi."""
    base = deleted.toeplitz @ deleted.circulant_inverse
    maps = [np.eye(base.shape[0]) - phi * base for phi in gains]
    sigma = [np.linalg.svd(E, compute_uv=False)[0] for E in maps]
    rho = [np.max(np.abs(np.linalg.eigvals(E))) for E in maps]
    return np.array(sigma), np.array(rho)


def assert_sweep_matches_dense(deleted, gains):
    sweep = gain_sweep(deleted, gains)
    sigma, rho = dense_sweep(deleted, gains)
    assert_allclose(sweep.sigma_max, sigma, rtol=1e-12, atol=0)
    assert_allclose(sweep.spectral_radius, rho, rtol=1e-9, atol=0)


@PROPERTY
@given(sampled_plants(), horizons, st.data())
def test_property_gain_sweep_matches_dense(plant, n, data):
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    q = data.draw(st.integers(0, n - 1), label="q")
    negative = data.draw(st.floats(-1.0, -1e-3), label="negative phi")
    others = data.draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4), label="phi")
    assert_sweep_matches_dense(delete_initial_steps(model, inverse, q), [0.0, negative, *others])


def test_gain_sweep_clustered_singular_values():
    # q = 34 of N = 55 leaves the top singular values of I - phi B clustered
    # at 0.5. LAPACK's subset eigensolvers (scipy.linalg.eigh with
    # subset_by_index and the "evr" or "evx" routine) raise LinAlgError on
    # A^T A at six points of this grid (OpenBLAS 0.3.31).
    plant = discretize_zoh(realize(ContinuousPlant((100.26, 185.65))), T)
    model = LiftedModel.build(plant, 55)
    assert_sweep_matches_dense(delete_initial_steps(model, circulant_inverse(model), 34), GRID)


def test_gain_sweep_dense_eigvals_only_where_bound_demands(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    # Eigenvalues 1 and 1 + 1e-8 with condition number about 1e16: the closed
    # form cannot be certified at any phi.
    defective = DeletedModel(
        q=0, toeplitz=np.array([[1.0, 1e8], [0.0, 1.0 + 1e-8]]), circulant_inverse=np.eye(2)
    )
    sweep = gain_sweep(defective, GRID)
    assert len(calls) == GRID.size
    _, rho = dense_sweep(defective, GRID)
    assert np.array_equal(sweep.spectral_radius, rho)
    # A normal map: every eigenvalue is perfectly conditioned.
    calls.clear()
    normal = DeletedModel(q=0, toeplitz=np.diag([0.5, 2.0]), circulant_inverse=np.eye(2))
    sweep = gain_sweep(normal, GRID)
    assert calls == []
    exact = np.maximum(np.abs(1 - 0.5 * GRID), np.abs(1 - 2 * GRID))
    assert_allclose(sweep.spectral_radius, exact, rtol=1e-15)


def test_gain_sweep_exact_zero_map():
    zero = DeletedModel(q=0, toeplitz=np.array([[1.0]]), circulant_inverse=np.array([[1.0]]))
    sweep = gain_sweep(zero, [1.0])
    assert sweep.sigma_max[0] == 0.0
    assert sweep.spectral_radius[0] == 0.0
