"""Spectral analysis and overall-gain sweep tests.

Table values asserted here come from the benchmark reproduction; the
acceptance suite re-checks them at the contract tolerances.
"""

import math
import sys
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
    # by its own message: numpy's LinAlgError, which eigvals raises on a
    # nonsquare matrix, is a ValueError too
    with pytest.raises(ValueError, match="error propagation matrix must be square"):
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

    def corner(n):
        E = 10 * np.eye(n)
        E[:4, :4] += np.outer(rng.standard_normal(4), rng.standard_normal(4))
        return E

    nonsymmetric = [
        # at N = 51 the transient tail is 3.4e-3 of the map: no low-rank core
        error_propagation(dm.toeplitz, inverse_circulant_law(dm)),
        error_propagation(dm.toeplitz, accelerated_law(dm, 3)),
        error_propagation(dm.toeplitz, scaled_inverse_circulant_law(dm, 0.5)),
        # the closest preset case: its core residual is 1.6-1.8 times the bound
        np.linalg.matrix_power(error_propagation(third.deleted(0).toeplitz,
                                                 inverse_circulant_law(third.deleted(0))), 6),
        rng.standard_normal((9, 9)),
        # 10 I plus rank one in the leading 4 x 4 block, a core's exact case,
        # with no complement at n = 16
        corner(16),
        # and at n = 40 with finite entries whose Frobenius norm overflows
        1e160 * corner(40),
    ]
    symmetric = [symmetric_law_map(dm.toeplitz, kind) for kind in SYMMETRIC_LAWS]
    references = [dense_spectra(E) for E in nonsymmetric]
    calls = count_calls(monkeypatch, np.linalg, ("svd", "eigvals", "eigvalsh"))
    for E, (singular, eigen) in zip(nonsymmetric, references):
        with np.errstate(over="ignore"):
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


# --- the low-rank core of analyze against dense svd / eigvals ----------------

CORE = (2 * convergence._CORE_WIDTH,) * 2  # the shape of c I + M
# The laws whose I - P L is a multiple of I plus the inverse's transient, as
# (deleted model, overall gain or power) -> law
INVERSE_LAWS = {
    "inverse_circulant": lambda dm, _: inverse_circulant_law(dm),
    "scaled_inverse_circulant": scaled_inverse_circulant_law,
    "accelerated": accelerated_law,
}


def assert_spectra_match_dense(E, report):
    """Singular values within 2 n eps sigma_1 of a dense SVD, and rho within the
    first-order bound kappa_i n eps ||E||_F of every eigenvalue that can set it."""
    n = E.shape[0]
    singular, eigen = dense_spectra(E)
    assert_allclose(report.singular_values, singular, rtol=0, atol=2 * n * EPS * singular[0])
    mu, cond = convergence._eigen_condition(E)
    bound = cond * n * EPS * np.linalg.norm(E)
    setting = np.abs(mu) + bound >= eigen[0] - bound.max()
    assert abs(report.spectral_radius - eigen[0]) <= bound[setting].max()


@pytest.mark.parametrize("name", ["third_order", "fifth_order"])
def test_analyze_takes_the_core_at_a_long_horizon(monkeypatch, name):
    # At N = 256 the transient tail is far below rounding: the inverse,
    # accelerated and scaled maps take both spectra from a 16 x 16 core, with
    # no N x N svd or eigvals
    deleted = preset_deleted(name, 256)
    laws = (inverse_circulant_law(deleted), accelerated_law(deleted, 3),
            scaled_inverse_circulant_law(deleted, 0.5))
    maps = [error_propagation(deleted.toeplitz, law) for law in laws]
    calls = count_calls(monkeypatch, np.linalg, ("svd", "eigvals", "eigvalsh"))
    reports = [analyze(E) for E in maps]
    assert calls == {"svd": [CORE] * 3, "eigvals": [CORE] * 3, "eigvalsh": []}
    monkeypatch.undo()
    for E, report in zip(maps, reports):
        assert_spectra_match_dense(E, report)


def test_analyze_core_counts_the_shifted_complement(monkeypatch):
    # E = diag(I_16 / 2, -I_84) at n = 100, made nonsymmetric in the first
    # block: the diagonal's median c = -1 leaves E - c I of rank 16, which Z
    # spans exactly. |c| = 1 is then both spectra's top value, 84 times, and
    # without the shift no core of 16 columns would certify.
    E = np.diag(np.r_[np.full(16, 0.5), np.full(84, -1.0)])
    E[0, 1] = 1e-3
    calls = count_calls(monkeypatch, np.linalg, ("svd", "eigvals"))
    report = analyze(E)
    assert calls == {"svd": [CORE], "eigvals": [CORE]}
    assert np.array_equal(report.singular_values[:84], np.ones(84))
    assert np.array_equal(report.eigenvalue_magnitudes[:84], np.ones(84))
    monkeypatch.undo()
    assert_spectra_match_dense(E, report)


@PROPERTY
@given(
    # poles decaying at 20 rad/s or faster (by a third or more per 0.02 s step)
    # leave a transient below rounding within about 100 steps: the core's case
    st.one_of(sampled_plants(), sampled_plants(decay=20.0)),
    st.integers(17, 200),
    st.sampled_from(sorted(INVERSE_LAWS)),
    st.data(),
)
def test_property_inverse_law_maps_match_dense(plant, n, kind, data):
    # each map has more than 16 rows, so analyze tries the core first
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    deleted = delete_initial_steps(model, inverse, data.draw(st.integers(0, n - 17), label="q"))
    parameter = data.draw(st.floats(0.1, 2.0) if kind == "scaled_inverse_circulant"
                          else st.integers(1, 6), label="gain or power")
    E = error_propagation(deleted.toeplitz, INVERSE_LAWS[kind](deleted, parameter))
    assert_spectra_match_dense(E, analyze(E))


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


def test_gain_sweep_rejects_a_grid_of_more_than_one_dimension(third):
    # [[0.5, 1.0]] passed the finite check and failed in tolist() with a TypeError
    with pytest.raises(ValueError, match="^gain grid must be one-dimensional$"):
        gain_sweep(third.deleted(1), [[0.5, 1.0]])


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


def record_core_split(monkeypatch):
    """The gains whose sigma_max the low-rank core certifies or rejects, and the
    shapes of the Krylov runs (_top_rayleigh calls) of one sweep."""
    split = {"certified": [], "rejected": [], "_top_rayleigh": []}
    core_sigma, top_rayleigh = convergence._core_sigma, convergence._top_rayleigh

    def recorded_core(core, phi):
        top = core_sigma(core, phi)
        split["rejected" if top is None else "certified"].append(phi)
        return top

    def recorded_top(G, start):
        split["_top_rayleigh"].append(G.shape)
        return top_rayleigh(G, start)

    monkeypatch.setattr(convergence, "_core_sigma", recorded_core)
    monkeypatch.setattr(convergence, "_top_rayleigh", recorded_top)
    return split


def test_gain_sweep_clustered_singular_values(monkeypatch):
    # LAPACK's subset eigensolvers (scipy.linalg.eigh with subset_by_index and
    # the "evr" or "evx" routine) raise LinAlgError on A^T A at six points of
    # this grid (OpenBLAS 0.3.31).
    deleted, tops = clustered(), []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a):
        values = eigvalsh(a)
        tops.append(values[-1])
        return values

    split = record_core_split(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    assert_sweep_matches_dense(deleted, GRID)
    # E = I - B is rounding noise, so the core certifies every nonzero gain but
    # phi = 1, where sigma_max is that noise and no relative bound holds. The
    # Krylov basis runs once for ||B||_2 and twice at phi = 1, where the
    # cancellation guard forms A = I - B; its theta may stay uncertified there
    # (Haswell and Prescott, once), and a dense eigvalsh then sees only that noise.
    n = deleted.toeplitz.shape[0]
    assert split["rejected"] == [1.0]
    assert split["certified"] == [phi for phi in GRID.tolist() if phi not in (0.0, 1.0)]
    assert split["_top_rayleigh"] == [(n, n)] * 3
    assert all(abs(top) < 1e-28 for top in tops), tops


def close_pair():
    # E = I - B holds two copies of one non-normal 2 x 2 block, 1e-14 apart,
    # beside 36 distinct smaller values, all turned by a fixed orthogonal Q.
    # The top two singular values of I - phi B then differ by about 1e-14
    # relative at every gain, below the Cholesky margin but not equal, and
    # their singular vectors turn as phi moves: a warm start alone (one
    # Krylov step) leaves theta uncertified at every gain. E has full rank,
    # so the core certifies no gain either.
    n = 40
    block = np.array([[3.0, 5.0], [0.0, 1.0]])
    E = np.diag(np.r_[0.0, 0.0, 0.0, 0.0, np.linspace(0.2, 0.6, n - 4)])
    E[:2, :2], E[2:4, 2:4] = block, block * (1 + 1e-14)
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    return DeletedModel(q=0, toeplitz=np.eye(n) - Q @ E @ Q.T, circulant_inverse=np.eye(n))


def test_gain_sweep_close_top_pair_takes_no_dense_eigvalsh(monkeypatch):
    deleted = close_pair()
    sigma, rho = dense_sweep(deleted, GRID)
    calls = count_calls(monkeypatch, np.linalg, ("eigvalsh",))
    chol = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    sweep = gain_sweep(deleted, GRID)
    assert calls == {"eigvalsh": []}
    assert len(chol["dpotrf"]) == GRID.size  # ||B||_2 and every nonzero gain
    assert_allclose(sweep.sigma_max, sigma, rtol=1e-12, atol=0)
    assert_allclose(sweep.spectral_radius, rho, rtol=1e-9, atol=0)


def test_krylov_stop_is_relative_to_the_top_ritz_value():
    # A top eigenvalue 1 gapped from 39 others in [0.1, 0.5]: at every scale the
    # basis runs until its residual is small next to theta. A stop test against
    # sqrt(eps) / theta instead would end the basis after one step at scale 1e-6.
    n = 40
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))[0]
    G = (Q * np.r_[np.linspace(0.1, 0.5, n - 1), 1.0]) @ Q.T
    start = np.random.default_rng(1).standard_normal(n)
    for scale in (1e-6, 1.0, 1e6):
        theta, _ = convergence._top_rayleigh(scale * G, start)
        assert theta == pytest.approx(scale, rel=1e-8, abs=0), scale


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


def test_gain_sweep_dense_fallback_takes_the_top_eigenvalue(monkeypatch, third):
    # every Cholesky certificate fails, so ||B||_2 and each gain's sigma_max
    # come from the dense eigvalsh
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", lambda a, **_: (a, 1))
    calls = count_calls(monkeypatch, np.linalg, ("eigvalsh",))
    gains = [-0.5, 0.5, 1.0, 2.0]
    assert_sweep_matches_dense(third.deleted(1), gains)
    assert len(calls["eigvalsh"]) == 1 + len(gains)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_sweep_overflow_test_includes_the_norm_margin():
    # B = [[b]]: ||B||_2 is taken as b sqrt(1 + _SIGMA_MARGIN). At this phi,
    # (1 + |phi| b)^2 is finite, and only the margin's share of ||B||_2
    # makes (1 + |phi| ||B||_2)^2 overflow.
    b = 2.0**100
    phi = math.sqrt(sys.float_info.max) / b * (1 - convergence._SIGMA_MARGIN / 4)
    assert math.isfinite((1 + phi * b) ** 2)
    deleted = DeletedModel(q=0, toeplitz=np.array([[b]]), circulant_inverse=np.eye(1))
    with pytest.raises(NonFiniteGainError):
        gain_sweep(deleted, [phi])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_sweep_overflow_test_is_on_the_sum():
    # phi^2 and (1 + |phi| ||B||_2)^2 are each finite at B = I, but their sum
    # overflows: the sweep names the gain
    phi = math.sqrt(0.6 * sys.float_info.max)
    assert math.isfinite(phi * phi) and math.isfinite((1 + phi) ** 2)
    deleted = DeletedModel(q=0, toeplitz=np.eye(1), circulant_inverse=np.eye(1))
    with pytest.raises(NonFiniteGainError):
        gain_sweep(deleted, [phi])


# --- the low-rank core of I - B against the Krylov path ----------------------


def preset_deleted(name, n):
    """The preset's deleted model at horizon n."""
    preset = PRESETS[name]
    model = LiftedModel.build(discretize_zoh(realize(preset.plant), 1 / preset.sample_hz), n)
    return delete_initial_steps(model, circulant_inverse(model), preset.q)


def test_gain_sweep_core_certifies_a_long_horizon(monkeypatch):
    # At N = 256 the transient tail of fourth_order is far below rounding:
    # every nonzero gain takes sigma_max from the core, with no Krylov run or
    # Cholesky factor beyond the one pair that bounds ||B||_2.
    deleted = preset_deleted("fourth_order", 256)
    calls = count_calls(monkeypatch, convergence, ("_top_rayleigh",))
    calls.update(count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",)))
    calls.update(count_calls(monkeypatch, np.linalg, ("eigvalsh",)))
    sweep = gain_sweep(deleted, GRID)
    n = deleted.toeplitz.shape[0]
    assert calls == {"_top_rayleigh": [(n, n)], "dpotrf": [(n, n)], "eigvalsh": []}
    monkeypatch.undo()
    sigma, rho = dense_sweep(deleted, GRID[::5])
    assert_allclose(sweep.sigma_max[::5], sigma, rtol=1e-12, atol=0)
    assert_allclose(sweep.spectral_radius[::5], rho, rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", ["third_order", "fourth_order", "fifth_order"])
def test_gain_sweep_presets_take_the_krylov_path(monkeypatch, benches, name):
    # At N = 51 the tail is 3.4e-3 to 2.3e-2 of the core: every nonzero gain
    # runs the Krylov path, and its Cholesky certificate accepts every theta
    calls = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    calls.update(count_calls(monkeypatch, np.linalg, ("eigvalsh",)))
    gain_sweep(benches[name].deleted(PRESETS[name].q), GRID)
    assert len(calls["dpotrf"]) == GRID.size  # ||B||_2 and 60 nonzero gains
    assert calls["eigvalsh"] == []


def test_gain_sweep_mixes_the_core_and_the_krylov_path(monkeypatch):
    # At N = 88 the fourth-order tail sits just above rounding: delta
    # certifies a few small gains, and the rest take the Krylov path, its
    # warm start carried across the gains the core took
    deleted = preset_deleted("fourth_order", 88)
    base = deleted.toeplitz @ deleted.circulant_inverse
    n = base.shape[0]
    _, _, delta = convergence._low_rank_core(np.eye(n) - base, np.empty((n, n)))
    chol = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    sweep = gain_sweep(deleted, GRID)
    sigma, rho = dense_sweep(deleted, GRID)
    certified = (GRID != 0) & (np.abs(GRID) * delta <= 0.5 * convergence._SIGMA_MARGIN * sigma)
    assert 0 < np.count_nonzero(certified) < np.count_nonzero(GRID)
    assert len(chol["dpotrf"]) == 1 + np.count_nonzero(GRID) - np.count_nonzero(certified)
    assert_allclose(sweep.sigma_max, sigma, rtol=1e-12, atol=0)
    assert_allclose(sweep.spectral_radius, rho, rtol=1e-9, atol=0)


def test_gain_sweep_rank_above_the_core_width_falls_back(monkeypatch):
    # A 12th-order plant leaves I - B of rank 10 above rounding at N = 96,
    # more than a block of _CORE_WIDTH = 8 columns finds: the core certifies
    # no gain, and the sweep still matches dense. A block of 12 finds it.
    plant = ContinuousPlant(second_order=(
        (30.0, 0.7), (37.0, 0.6), (50.0, 0.5), (62.0, 0.5), (74.0, 0.5), (100.0, 0.4)
    ))
    model = LiftedModel.build(discretize_zoh(realize(plant), T), 96)
    deleted = delete_initial_steps(model, circulant_inverse(model))
    gains = GRID[::6]
    chol = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    assert_sweep_matches_dense(deleted, gains)
    assert len(chol["dpotrf"]) == 1 + np.count_nonzero(gains)
    chol["dpotrf"].clear()
    monkeypatch.setattr(convergence, "_CORE_WIDTH", 12)
    assert_sweep_matches_dense(deleted, gains)
    assert len(chol["dpotrf"]) == 1


def test_gain_sweep_core_needs_a_complement():
    # At n = 2 _CORE_WIDTH, Z can span the whole space and leave (1 - phi) I
    # no complement to act on. On E = I / 2 the core would then certify
    # max(|1 - phi|, |1 - phi / 2|), wrong wherever |1 - phi| is the larger.
    n = 2 * convergence._CORE_WIDTH
    deleted = DeletedModel(q=0, toeplitz=np.eye(n) / 2, circulant_inverse=np.eye(n))
    sweep = gain_sweep(deleted, GRID)
    assert_allclose(sweep.sigma_max, np.abs(1 - GRID / 2), rtol=1e-15, atol=0)


def test_gain_sweep_core_counts_the_complement(monkeypatch):
    # E = diag(I_16 / 2, 0) at n = 40: Z spans E's range exactly, and
    # A = (1 - phi) I + phi E is (1 - phi / 2) I on Z and (1 - phi) I on its
    # complement, the larger at every phi < 0, where the core certifies
    n, half = 40, np.r_[np.full(16, 0.5), np.zeros(24)]
    deleted = DeletedModel(q=0, toeplitz=np.eye(n) - np.diag(half), circulant_inverse=np.eye(n))
    gains = GRID[GRID < 0]
    chol = count_calls(monkeypatch, scipy.linalg.lapack, ("dpotrf",))
    sweep = gain_sweep(deleted, gains)
    assert len(chol["dpotrf"]) == 1  # ||B||_2 alone
    assert_allclose(sweep.sigma_max, 1 - gains, rtol=1e-15, atol=0)
