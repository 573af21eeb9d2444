"""Learning law construction and propagation-matrix algebra tests."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circulant_ilc import (
    PRESETS,
    DeletedModel,
    LearningLaw,
    LiftedModel,
    accelerated_law,
    circulant_inverse,
    contraction_mapping_law,
    delete_initial_steps,
    discretize_zoh,
    error_propagation,
    inverse_circulant_law,
    partial_isometry_law,
    quadratic_cost_law,
    realize,
    scaled_inverse_circulant_law,
    signed_svd,
)
from oracles import accelerated_gain_by_doubling, accelerated_gain_by_loop

N = 51


def propagation(dm, law):
    return error_propagation(dm.toeplitz, law)


def test_learning_law_is_a_gain_matrix_whose_shape_gives_q():
    # a gain of more columns than rows used to give q < 0
    for gain in (np.ones(3), np.ones((2, 2, 2)), 1.0, np.ones((3, 5))):
        with pytest.raises(ValueError, match="matrix"):
            LearningLaw(gain)
    assert LearningLaw(np.ones((5, 3))).q == 2
    assert LearningLaw([[1.0]]).q == 0


def test_learning_law_shares_a_read_only_gain(third):
    dm = third.deleted(1)
    assert np.shares_memory(inverse_circulant_law(dm).gain, dm.circulant_inverse)
    frozen = np.ones((3, 2))
    frozen.flags.writeable = False
    assert LearningLaw(frozen).gain is frozen


def test_learning_law_copies_what_its_caller_can_write():
    gain = np.ones((3, 2))
    hidden = gain.view()  # read-only itself, but it views a writable array
    hidden.flags.writeable = False
    single = gain.astype(np.float32)
    laws = [LearningLaw(g) for g in (gain, hidden, single)]
    gain[:] = 5.0
    for law in laws:
        assert law.gain.dtype == np.float64
        assert not law.gain.flags.writeable
        assert np.array_equal(law.gain, np.ones((3, 2)))


@pytest.mark.parametrize("build, bound", [
    (lambda P: contraction_mapping_law(P, 0.5), 1.5),  # the gain itself
    (lambda P: quadratic_cost_law(P, 0.1), 2.5),  # the gain and P^T P + w I
], ids=["contraction_mapping", "quadratic_cost"])
def test_law_keeps_the_gain_its_constructor_made(build, bound):
    n = 128
    P = np.tril(np.random.default_rng(3).standard_normal((n, n)))[2:]
    tracemalloc.start()
    try:
        build(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2 float64 matrices"


def zero_laden(rows, cols, seed):
    """A random matrix with whole zero rows and columns, +0.0 and -0.0 alike."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((rows, cols))
    M[::3] = 0.0
    M[1::3, ::2] = -0.0
    M[:, 1::4] = 0.0
    return M


def test_error_propagation_is_eye_minus_product_bit_for_bit():
    P, L = zero_laden(7, 9, 0), zero_laden(9, 7, 1)
    product = P @ L
    # +0.0 entries off the diagonal: np.negative would make them -0.0
    assert np.any((product == 0) & ~np.signbit(product) & ~np.eye(7, dtype=bool))
    expected = np.eye(7) - product
    assert error_propagation(P, L).tobytes() == expected.tobytes()
    law = LearningLaw(L)
    assert error_propagation(P, law).tobytes() == expected.tobytes()
    out = np.full((7, 7), np.nan)
    assert error_propagation(P, L, out=out) is out and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("weight", [1e-3, 0.1, 1.0, 7.5])
def test_quadratic_cost_law_is_the_dense_formula_bit_for_bit(weight):
    P = zero_laden(6, 8, 2)
    expected = np.linalg.solve(P.T @ P + weight * np.eye(8), P.T)
    assert quadratic_cost_law(P, weight).gain.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("name", ["third_order", "fourth_order", "fifth_order"])
def test_accelerated_law_matches_the_term_by_term_sum(benches, name):
    bench = benches[name]
    for q in sorted({0, PRESETS[name].q}):
        dm = bench.deleted(q)
        E = propagation(dm, inverse_circulant_law(dm))
        for power in range(1, 13):
            gain = accelerated_law(dm, power).gain
            oracle = accelerated_gain_by_loop(dm, power)
            if power <= 2:  # doubling adds the same terms in the same order
                assert np.array_equal(gain, oracle), (q, power)
            assert np.max(np.abs(gain - oracle)) <= 1e-12 * np.max(np.abs(oracle)), (q, power)
            # E^p reaches 1e9 on fifth_order at q = 2: the 1e-8 bound is relative beyond 1
            Ep = np.linalg.matrix_power(E, power)
            error = np.max(np.abs(propagation(dm, accelerated_law(dm, power)) - Ep))
            assert error < 1e-8 * max(1.0, np.max(np.abs(Ep))), (q, power)


@pytest.mark.parametrize("name", ["third_order", "fourth_order", "fifth_order"])
@pytest.mark.parametrize("n", [51, 128])
def test_accelerated_law_is_the_doubling_sum_bit_for_bit(name, n):
    preset = PRESETS[name]
    model = LiftedModel.build(discretize_zoh(realize(preset.plant), 1.0 / preset.sample_hz), n)
    inverse = circulant_inverse(model)
    for q in (0, preset.q):
        dm = delete_initial_steps(model, inverse, q)
        with np.errstate(all="ignore"):  # high powers of E overflow on the unstable maps
            for power in (1, 2, 3, 6, 7, 16, 1000, 12345):
                want = accelerated_gain_by_doubling(dm, power)
                assert accelerated_law(dm, power).gain.tobytes() == want.tobytes(), (q, power)


def test_accelerated_law_working_set(third):
    # E, the identity, S_m, E^m and the product being summed: the sums go into
    # the products' buffers (5.9 N^2 float64 matrices when each made a new array)
    n = 128
    model = LiftedModel.build(third.plant, n)
    dm = delete_initial_steps(model, circulant_inverse(model), 1)
    tracemalloc.start()
    try:
        accelerated_law(dm, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2 float64 matrices"


def _plain(arrays):
    return tuple(a.view(np.ndarray) if isinstance(a, _CountedMatrix) else a for a in arrays)


class _CountedMatrix(np.ndarray):
    """An array that counts the matrix products it takes part in. np.matmul is a
    ufunc, so `a @ b` and np.matmul(a, b, out=c) both come through here."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedMatrix.products += ufunc is np.matmul
        if "out" in kwargs:
            kwargs["out"] = _plain(kwargs["out"])
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        return result.view(_CountedMatrix) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("power, products", [(1, 2), (2, 2), (6, 6), (2**20, 2 + 19 + 19)])
def test_accelerated_law_products(third, power, products):
    # P Pc_inv, Pc_inv S_p, and S_p by doubling. The term-by-term sum took p - 1
    # products for S_p: 7 in all at p = 6, the power the worst-case experiment uses.
    dm = third.deleted(0)
    counted = DeletedModel(
        dm.toeplitz.view(_CountedMatrix), dm.circulant_inverse.view(_CountedMatrix)
    )
    _CountedMatrix.products = 0
    accelerated_law(counted, power)
    assert _CountedMatrix.products == products


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


def test_quadratic_cost_weight_defaults_to_one(third):
    P = third.deleted(1).toeplitz
    assert np.array_equal(quadratic_cost_law(P).gain, quadratic_cost_law(P, 1.0).gain)


def test_quadratic_cost_large_weight_freezes_learning(third):
    dm = third.deleted(1)
    law = quadratic_cost_law(dm.toeplitz, 1e12)
    assert np.max(np.abs(law.gain)) < 1e-9
    assert np.max(np.abs(propagation(dm, law) - np.eye(50))) < 1e-9


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
