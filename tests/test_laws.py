"""Learning law construction and propagation-matrix algebra tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circulant_ilc import (
    DeletedModel,
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

N = 51


def propagation(dm, law):
    return error_propagation(dm.toeplitz, law)


def test_learning_law_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LearningLaw(np.eye(2), "mystery", 0)


def test_signed_svd_fixes_leading_signs():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((6, 6))
    U, s, Vt = signed_svd(M)
    assert_allclose(U @ np.diag(s) @ Vt, M, atol=1e-12)
    for k in range(6):
        assert U[np.argmax(np.abs(U[:, k])), k] > 0


@pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
def test_signed_svd_matches_column_loop(shape):
    # reference: flip the signs one column at a time
    M = np.random.default_rng(sum(shape)).standard_normal(shape)
    U, s, Vt = np.linalg.svd(M)
    for i in range(min(U.shape[1], Vt.shape[0])):
        if U[np.argmax(np.abs(U[:, i])), i] < 0:
            U[:, i] = -U[:, i]
            Vt[i, :] = -Vt[i, :]
    got = signed_svd(M)
    assert all(np.array_equal(a, b) for a, b in zip(got, (U, s, Vt)))


def test_inverse_circulant_law_is_the_deleted_inverse(third):
    dm = third.deleted(1)
    law = inverse_circulant_law(dm)
    assert law.kind == "inverse_circulant"
    assert law.q == 1
    assert np.array_equal(law.gain, dm.circulant_inverse)


def test_scaled_law_zero_gain_freezes_learning(third):
    dm = third.deleted(1)
    law = scaled_inverse_circulant_law(dm, 0.0)
    E = propagation(dm, law)
    assert_allclose(E, np.eye(50), atol=0)
    assert_allclose(np.linalg.svd(E, compute_uv=False), np.ones(50), atol=0)


def test_scaled_law_unit_gain_matches_inverse_circulant(third):
    dm = third.deleted(1)
    assert np.array_equal(
        scaled_inverse_circulant_law(dm, 1.0).gain, inverse_circulant_law(dm).gain
    )


def test_accelerated_law_power_one_is_inverse_circulant(third):
    dm = third.deleted(0)
    assert_allclose(accelerated_law(dm, 1).gain, dm.circulant_inverse, atol=0)


@pytest.mark.parametrize("power", [3, 6])
def test_accelerated_law_power_identity(third, power):
    dm = third.deleted(0)
    law = accelerated_law(dm, power)
    E = propagation(dm, inverse_circulant_law(dm))
    assert np.max(np.abs(propagation(dm, law) - np.linalg.matrix_power(E, power))) < 1e-8


def test_accelerated_law_rejects_bad_power(third):
    with pytest.raises(ValueError):
        accelerated_law(third.deleted(0), 0)


def test_accelerated_law_reaches_power_table_values(third):
    dm = third.deleted(0)
    s3 = np.linalg.svd(propagation(dm, accelerated_law(dm, 3)), compute_uv=False)
    assert s3[1] == pytest.approx(1.1210e-5, rel=1e-2)
    s6 = np.linalg.svd(propagation(dm, accelerated_law(dm, 6)), compute_uv=False)
    assert s6[0] == pytest.approx(12.7055, rel=1e-2)
    assert 0.1 < s6[1] / 2.6757e-13 < 10.0  # double-precision noise floor


def test_partial_isometry_of_identity():
    law = partial_isometry_law(np.eye(4))
    assert_allclose(law.gain, np.eye(4), atol=1e-14)
    assert law.q == 0


def test_partial_isometry_of_positive_diagonal():
    # descending positive diagonal rows of a wide matrix: V U^T is [I; 0]
    P = np.hstack([np.diag([3.0, 2.0, 1.0]), np.zeros((3, 2))])
    law = partial_isometry_law(P)
    assert law.q == 2
    assert_allclose(law.gain, np.vstack([np.eye(3), np.zeros((2, 3))]), atol=1e-14)


def test_partial_isometry_monotonic_on_deleted_third(third):
    dm = third.deleted(1)
    sp = np.linalg.svd(dm.toeplitz, compute_uv=False)
    assert 0 < sp.min() and sp.max() < 2  # premise behind 1 - sigma_i lying in (0, 1)
    law = partial_isometry_law(dm.toeplitz)
    s = np.linalg.svd(propagation(dm, law), compute_uv=False)
    assert np.all(s > 0) and np.all(s < 1)
    assert_allclose(np.sort(s), np.sort(1.0 - sp), atol=1e-10)


def test_partial_isometry_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        partial_isometry_law(np.zeros((3, 4)))


def test_contraction_mapping_identity():
    law = contraction_mapping_law(np.eye(3))
    assert_allclose(law.gain, np.eye(3), atol=0)
    assert law.params["gain"] == 1.0


def test_contraction_mapping_singular_values(third):
    dm = third.deleted(1)
    law = contraction_mapping_law(dm.toeplitz)
    s = np.linalg.svd(propagation(dm, law), compute_uv=False)
    sp = np.linalg.svd(dm.toeplitz, compute_uv=False)
    assert_allclose(np.sort(np.abs(s)), np.sort(np.abs(1.0 - sp**2)), atol=1e-10)
    # monotone decay exactly when the largest plant gain stays below sqrt(2)
    monotonic = bool(np.max(s) < 1)
    assert monotonic == bool(np.max(sp) ** 2 < 2)


def test_quadratic_cost_identity_half():
    law = quadratic_cost_law(np.eye(3), 1.0)
    assert_allclose(law.gain, 0.5 * np.eye(3), atol=1e-14)


def test_quadratic_cost_spectrum_bookkeeping(third):
    dm = third.deleted(1)
    w = 1.0
    law = quadratic_cost_law(dm.toeplitz, w)
    sp = np.linalg.svd(dm.toeplitz, compute_uv=False)
    s = np.linalg.svd(propagation(dm, law), compute_uv=False)
    assert_allclose(np.sort(s), np.sort(w / (w + sp**2)), atol=1e-10)
    # the input-space propagation picks up one extra unit direction per deleted step
    input_side = np.eye(N) - law.gain @ dm.toeplitz
    su = np.sort(np.linalg.svd(input_side, compute_uv=False))[::-1]
    expected = np.sort(np.concatenate([np.ones(1), w / (w + sp**2)]))[::-1]
    assert_allclose(su, expected, atol=1e-10)


def test_quadratic_cost_large_weight_freezes_learning(third):
    dm = third.deleted(1)
    law = quadratic_cost_law(dm.toeplitz, 1e12)
    assert np.max(np.abs(law.gain)) < 1e-9
    assert np.max(np.abs(propagation(dm, law) - np.eye(50))) < 1e-9


def test_quadratic_cost_rejects_bad_weight(third):
    with pytest.raises(ValueError):
        quadratic_cost_law(third.deleted(1).toeplitz, 0.0)


def test_error_propagation_exact_inverse_is_zero():
    rng = np.random.default_rng(4)
    P = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    assert_allclose(error_propagation(P, np.linalg.inv(P)), np.zeros((5, 5)), atol=1e-12)


def test_error_propagation_shape_mismatch(third):
    dm = third.deleted(1)
    with pytest.raises(ValueError):
        error_propagation(dm.toeplitz, np.eye(50))


def test_near_idempotence_of_base_propagation(third):
    # one application already looks like two, at the scale of the squared map
    dm = third.deleted(0)
    E = propagation(dm, inverse_circulant_law(dm))
    ratio = np.linalg.norm(E @ E - E, 2) / np.linalg.norm(E, 2) ** 2
    assert ratio < 0.05


def test_stalling_fixed_point_condition(third):
    dm = third.deleted(0)
    H = propagation(dm, accelerated_law(dm, 6))
    U, s, Vt = signed_svd(H)
    assert abs(Vt[0] @ (s[0] * U[:, 0]) - 1.0) < 0.05
