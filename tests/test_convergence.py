"""Spectral analysis and overall-gain sweep tests.

Table values asserted here come from the benchmark reproduction; the
acceptance suite re-checks them at the contract tolerances.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    PRESETS,
    ContinuousPlant,
    DeletedModel,
    IllConditionedCirculantError,
    LiftedModel,
    NonFiniteGainError,
    NumericalDegeneracyError,
    RankDeficientPlantError,
    accelerated_law,
    analyze,
    circulant_inverse,
    contraction_mapping_law,
    delete_initial_steps,
    discretize_zoh,
    error_propagation,
    gain_sweep,
    inverse_circulant_law,
    partial_isometry_law,
    quadratic_cost_law,
    realize,
    scaled_inverse_circulant_law,
)
from circulant_ilc import convergence
from strategies import PROPERTY, T, horizons, sampled_plants

GRID = np.round(np.arange(-1.0, 2.0 + 1e-9, 0.05), 10)  # criterion 4's grid
EPS = np.finfo(float).eps
# The laws whose I - P L is symmetric in exact arithmetic, as
# (P, gain or weight) -> law; partial isometry takes no parameter.
SYMMETRIC_LAWS = {
    "contraction_mapping": contraction_mapping_law,
    "quadratic_cost": quadratic_cost_law,
    "partial_isometry": lambda P, _: partial_isometry_law(P),
}


def count_calls(monkeypatch, module, names):
    """Wrap each named function of `module` to record its calls in a list per name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(args[0]))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def dense_spectra(E):
    """Reference: dense svd and eigvals, sorted as analyze sorts them."""
    mags = np.abs(np.linalg.eigvals(E))
    return np.linalg.svd(E, compute_uv=False), mags[np.argsort(-mags, kind="stable")]


def test_analyze_zero_matrix():
    report = analyze(np.zeros((4, 4)))
    assert report.sigma_max == 0.0
    assert report.spectral_radius == 0.0
    assert report.converges and report.monotonic


def test_analyze_rejects_nonsquare():
    with pytest.raises(ValueError):
        analyze(np.zeros((3, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_analyze_names_a_non_finite_entry(bad):
    # the dense SVD used to end in a LinAlgError ("SVD did not converge" or
    # "Array must not contain infs or NaNs")
    E = np.eye(4)
    E[1, 2] = bad
    with pytest.raises(NumericalDegeneracyError, match="non-finite entry"):
        analyze(E)


def test_gain_sweep_names_a_dgeev_that_did_not_converge(third, monkeypatch):
    dgeev = scipy.linalg.lapack.dgeev
    monkeypatch.setattr(scipy.linalg.lapack, "dgeev", lambda *a, **k: (*dgeev(*a, **k)[:4], 1))
    with pytest.raises(NumericalDegeneracyError, match="did not converge"):
        gain_sweep(third.deleted(1), [0.5])


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


# --- the symmetric path of analyze against dense svd / eigvals ---------------


def symmetric_law_map(P, kind, parameter=1.0):
    """I - P L for one of SYMMETRIC_LAWS, or None where the law is undefined."""
    try:
        return error_propagation(P, SYMMETRIC_LAWS[kind](P, parameter))
    except RankDeficientPlantError:
        return None


def test_symmetric_laws_report_rho_equal_to_sigma_max(benches):
    # rho <= sigma_max always; at q = 0 the contraction and quadratic laws
    # sit within rounding of 1, where a dense svd and eigvals disagreed on
    # third_order (sigma_max 0.99999999999999967, rho 1.0000000000000036)
    checked = 0
    for bench in benches.values():
        for q in (0, 1, 2):
            for kind in SYMMETRIC_LAWS:
                E = symmetric_law_map(bench.deleted(q).toeplitz, kind)
                if E is None:
                    continue
                report = analyze(E)
                assert report.spectral_radius == report.sigma_max, (bench.name, q, kind)
                assert report.monotonic == report.converges, (bench.name, q, kind)
                checked += 1
    assert checked == 24  # partial isometry is undefined at q = 0 on every preset


@PROPERTY
@given(
    sampled_plants(),
    horizons,
    st.sampled_from(sorted(SYMMETRIC_LAWS)),
    st.floats(0.1, 10.0),
    st.data(),
)
def test_property_symmetric_maps_match_dense(plant, n, kind, parameter, data):
    q = data.draw(st.integers(0, n - 1), label="q")
    E = symmetric_law_map(LiftedModel.build(plant, n).toeplitz[q:], kind, parameter)
    if E is None:
        return
    report = analyze(E)
    singular, eigen = dense_spectra(E)
    atol = 2 * E.shape[0] * EPS * singular[0]
    assert_allclose(report.singular_values, singular, rtol=0, atol=atol)
    assert_allclose(report.eigenvalue_magnitudes, eigen, rtol=0, atol=atol)
    assert report.sigma_max == pytest.approx(singular[0], rel=1e-12, abs=0)
    assert report.spectral_radius == pytest.approx(eigen[0], rel=1e-12, abs=0)


def test_analyze_routes_by_symmetry(monkeypatch, third):
    dm = third.deleted(1)
    rng = np.random.default_rng(12)
    nonsymmetric = [
        error_propagation(dm.toeplitz, inverse_circulant_law(dm)),
        error_propagation(dm.toeplitz, accelerated_law(dm, 3)),
        error_propagation(dm.toeplitz, scaled_inverse_circulant_law(dm, 0.5)),
        rng.standard_normal((9, 9)),
    ]
    symmetric = [symmetric_law_map(dm.toeplitz, kind) for kind in SYMMETRIC_LAWS]
    references = [dense_spectra(E) for E in nonsymmetric]
    calls = count_calls(monkeypatch, np.linalg, ("svd", "eigvals", "eigvalsh"))
    for E, (singular, eigen) in zip(nonsymmetric, references):
        report = analyze(E)
        # the dense path, bit for bit
        assert np.array_equal(report.singular_values, singular)
        assert np.array_equal(report.eigenvalue_magnitudes, eigen)
    assert calls == {"svd": [E.shape for E in nonsymmetric],
                     "eigvals": [E.shape for E in nonsymmetric], "eigvalsh": []}
    calls["svd"].clear()
    calls["eigvals"].clear()
    for E in symmetric:
        analyze(E)
    assert calls == {"svd": [], "eigvals": [], "eigvalsh": [E.shape for E in symmetric]}


def test_gain_sweep_identity_at_zero(third):
    sweep = gain_sweep(third.deleted(1), [0.0])
    assert sweep.sigma_max[0] == pytest.approx(1.0, abs=0)
    assert sweep.spectral_radius[0] == pytest.approx(1.0, abs=1e-12)


def test_gain_sweep_zero_gain_skips_every_solve(monkeypatch, third):
    # ||B||_2 takes one Krylov call and one Cholesky per sweep; phi = 0 adds none
    ritz = count_calls(monkeypatch, convergence, ("_top_rayleigh",))
    dense = count_calls(monkeypatch, np.linalg, ("eigvals", "eigvalsh"))
    chol = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    sweep = gain_sweep(third.deleted(1), [0.0, -0.0, 0.0])
    assert len(ritz["_top_rayleigh"]) == 1 and len(chol["dpotrf"]) == 1
    assert dense == {"eigvals": [], "eigvalsh": []}
    assert np.array_equal(sweep.sigma_max, np.ones(3))
    assert np.array_equal(sweep.spectral_radius, np.ones(3))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gain_sweep_rejects_a_non_finite_grid(third, bad):
    # a bad input, not the numerical breakdown NonFiniteGainError reports
    with pytest.raises(ValueError, match="gain grid must be finite") as caught:
        gain_sweep(third.deleted(1), [0.5, bad])
    assert not isinstance(caught.value, NonFiniteGainError)


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


def clustered():
    # q = 34 of N = 55 leaves B = P_q Pc_inv_q within 5e-16 of I, so every
    # singular value of I - phi B sits at |1 - phi| (at 0.5 for phi = 0.5)
    plant = discretize_zoh(realize(ContinuousPlant((100.26, 185.65))), T)
    model = LiftedModel.build(plant, 55)
    return delete_initial_steps(model, circulant_inverse(model), 34)


def test_gain_sweep_clustered_singular_values():
    # LAPACK's subset eigensolvers (scipy.linalg.eigh with subset_by_index and
    # the "evr" or "evx" routine) raise LinAlgError on A^T A at six points of
    # this grid (OpenBLAS 0.3.31).
    assert_sweep_matches_dense(clustered(), GRID)


def test_gain_sweep_clustered_takes_no_dense_eigvalsh(monkeypatch):
    # The cluster stops no Krylov basis short of a certified theta. Only at
    # phi = 1, where I - B is rounding noise, may that noise leave theta
    # uncertified (Haswell and Prescott, once).
    deleted, tops = clustered(), []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        values = eigvalsh(a)
        tops.append(values[-1])
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    gain_sweep(deleted, GRID)
    assert all(abs(top) < 1e-28 for top in tops), tops


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [0.3025, 0.5, 1.0, 7.0, -2.0])
def test_krylov_invariant_basis_stops(c):
    # On a multiple of I every Krylov space is invariant at once: the basis
    # stops at the start vector, finite and nonzero, whose Rayleigh quotient
    # is c up to its rounding. At c < 0 the residual test, which compares
    # with the top Ritz value, cannot stop it; only the invariant stop does.
    rng = np.random.default_rng(0)
    for n in range(2, 41):
        start, rtol = rng.standard_normal(n), n * np.finfo(float).eps
        theta, x = convergence._top_rayleigh(c * np.eye(n), start)
        assert np.isfinite(x).all() and np.linalg.norm(x) > 0.5, n
        parallel = np.linalg.norm(x) * np.linalg.norm(start)
        assert abs(x @ start) == pytest.approx(parallel, rel=rtol, abs=0), n
        assert theta == pytest.approx(c, rel=rtol, abs=0), n


def test_gain_sweep_dense_eigvals_only_where_bound_demands(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    # Eigenvalues 1 and 1 + 1e-8 with condition number about 1e16: the closed
    # form cannot be certified at any phi but 0, where A = I.
    defective = DeletedModel(
        q=0, toeplitz=np.array([[1.0, 1e8], [0.0, 1.0 + 1e-8]]), circulant_inverse=np.eye(2)
    )
    sweep = gain_sweep(defective, GRID)
    assert len(calls) == np.count_nonzero(GRID) == GRID.size - 1
    _, rho = dense_sweep(defective, GRID)
    assert np.array_equal(sweep.spectral_radius, rho)
    # A normal map: every eigenvalue is perfectly conditioned.
    calls.clear()
    normal = DeletedModel(q=0, toeplitz=np.diag([0.5, 2.0]), circulant_inverse=np.eye(2))
    sweep = gain_sweep(normal, GRID)
    assert calls == []
    exact = np.maximum(np.abs(1 - 0.5 * GRID), np.abs(1 - 2 * GRID))
    assert_allclose(sweep.spectral_radius, exact, rtol=1e-15)


def test_gain_sweep_forms_eye_minus_phi_b_bit_for_bit(monkeypatch):
    # The defective map takes the dense eigenvalues at every nonzero gain. At
    # phi > 0 its exact zeros make phi B hold +0.0, which np.eye - phi B keeps
    # +0.0 and a negation would make -0.0; at phi < 0 they are -0.0.
    formed = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: formed.append(a.copy()) or eigvals(a))
    B = np.array([[1.0, 1e8, 0.0], [0.0, 1.0 + 1e-8, 0.0], [0.0, 0.0, 0.5]])
    gain_sweep(DeletedModel(q=0, toeplitz=B, circulant_inverse=np.eye(3)), GRID)
    gains = GRID[GRID != 0]
    assert len(formed) == gains.size
    for phi, A in zip(gains, formed):
        assert A.tobytes() == (np.eye(3) - phi * B).tobytes(), phi


def test_gain_sweep_working_set():
    # B, its Gram pair H and S, and the buffers G and work are 5 units of
    # N^2 * 8 bytes; an identity and a fresh phi B and I - phi B would make 8
    n = 128
    preset = PRESETS["fourth_order"]
    model = LiftedModel.build(discretize_zoh(realize(preset.plant), 1 / preset.sample_hz), n)
    deleted = delete_initial_steps(model, circulant_inverse(model), preset.q)
    tracemalloc.start()
    try:
        gain_sweep(deleted, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2 float64 matrices"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_sweep_overflow_is_never_certified(third):
    # (I - 1e200 B)^T (I - 1e200 B) overflows, and OpenBLAS factors a matrix
    # of NaNs without complaint: the sweep must name the gain, never return a
    # NaN sigma or warn
    with pytest.raises(NonFiniteGainError, match=r"phi = 1e\+200"):
        gain_sweep(third.deleted(1), [1e200])


def test_gain_sweep_forms_gram_where_the_pair_cancels(fourth):
    # q = 49 of N = 51 leaves B = P_q Pc_inv_q within about 1.2e-7 of the
    # identity: at phi = 1, sigma_max(I - B) is that small against
    # 1 + |phi| ||B||_2 of about 2, so I - (B + B^T) + B^T B cancels far below
    # its own rounding and only a formed A^T A is accurate
    deleted = fourth.deleted(49)
    base = deleted.toeplitz @ deleted.circulant_inverse
    dense = np.linalg.svd(np.eye(base.shape[0]) - base, compute_uv=False)[0]
    assert dense < 1e-6 * (1 + np.linalg.norm(base, 2))
    sweep = gain_sweep(deleted, [1.0])
    assert_allclose(sweep.sigma_max, [dense], rtol=1e-12, atol=0)


def test_gain_sweep_exact_zero_map():
    zero = DeletedModel(q=0, toeplitz=np.array([[1.0]]), circulant_inverse=np.array([[1.0]]))
    sweep = gain_sweep(zero, [1.0])
    assert sweep.sigma_max[0] == 0.0
    assert sweep.spectral_radius[0] == 0.0


def test_gain_sweep_dense_eigvalsh_only_where_certificate_fails(monkeypatch):
    calls = count_calls(monkeypatch, np.linalg, ("eigvalsh", "eigh"))
    # theta = 0 cannot certify: 0 I - A^T A has no Cholesky factor
    zero = DeletedModel(q=0, toeplitz=np.eye(2), circulant_inverse=np.eye(2))
    sweep = gain_sweep(zero, [1.0, 1.0, 1.0])
    assert calls["eigvalsh"] + calls["eigh"] == [(2, 2)] * 3
    assert np.array_equal(sweep.sigma_max, np.zeros(3))
    # A normal map: once its top eigenvector changes, the warm start is an
    # eigenvector of the other eigenvalue, and the certificate falls back.
    normal = DeletedModel(q=0, toeplitz=np.diag([0.5, 2.0]), circulant_inverse=np.eye(2))
    sweep = gain_sweep(normal, GRID)
    exact = np.maximum(np.abs(1 - 0.5 * GRID), np.abs(1 - 2 * GRID))
    assert_allclose(sweep.sigma_max, exact, rtol=1e-15)
