"""Lifted matrix construction, DFT diagonalization, inversion, and deletion tests.

Oracles: direct state recursion for the Toeplitz map, dense LU inversion for
the structured inverse, and explicit complex conjugation for the DFT check.
"""

import ast
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    PRESETS,
    ContinuousPlant,
    DeletedModel,
    DiscretePlant,
    IllConditionedCirculantError,
    LiftedModel,
    NumericalDegeneracyError,
    analyze,
    circulant_inverse,
    circulant_matrix,
    delete_initial_steps,
    dft_verify,
    discretize_zoh,
    error_propagation,
    frequency_response,
    markov_parameters,
    realize,
    step_observability,
    toeplitz_matrix,
    unstable_zero_count,
)
from circulant_ilc import lifted
from oracles import circulant_deviation, dft_matrix
from strategies import PROPERTY, horizons, sampled_plants

T = 0.02
N = 51


def recurse(plant, inputs, x0=None):
    """Oracle: step-by-step state recursion producing y(1..N)."""
    x = np.zeros(plant.order) if x0 is None else np.asarray(x0, dtype=float)
    out = []
    for u in inputs:
        x = plant.A @ x + plant.B[:, 0] * u
        out.append((plant.C @ x)[0])
    return np.array(out)


def fake_model(markov):
    """LiftedModel wrapper around a raw Markov sequence (for inverse tests)."""
    plant = DiscretePlant(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)), T)
    return LiftedModel(plant=plant, toeplitz=toeplitz_matrix(np.asarray(markov, dtype=float)))


def test_toeplitz_integrator():
    plant = DiscretePlant(np.ones((1, 1)), np.full((1, 1), T), np.ones((1, 1)), T)
    assert_allclose(
        toeplitz_matrix(markov_parameters(plant, 3)), T * np.tril(np.ones((3, 3))), atol=1e-15
    )


@pytest.mark.parametrize("name", ["third_order", "fourth_order", "fifth_order"])
def test_toeplitz_matches_recursion(benches, name):
    bench = benches[name]
    P = bench.model.toeplitz
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(N)
        assert_allclose(P @ u, recurse(bench.plant, u), atol=1e-12)


def test_observability_reproduces_free_response(third):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(third.plant.order)
    free = recurse(third.plant, np.zeros(N), x0)
    assert_allclose(step_observability(third.plant, N) @ x0, free, atol=1e-12)


def test_circulant_single_step(third):
    assert_allclose(
        circulant_matrix(markov_parameters(third.plant, 1)),
        [[(third.plant.C @ third.plant.B)[0, 0]]],
        atol=0,
    )


def test_circulant_rotation_pattern():
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    m = markov_parameters(plant, 3)
    expected = np.array(
        [[m[0], m[2], m[1]], [m[1], m[0], m[2]], [m[2], m[1], m[0]]]
    )
    assert np.array_equal(circulant_matrix(m), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 50, 51, 256])
def test_builders_copy_scipys_bits(n, monkeypatch):
    # oracle: the scipy.linalg builders the lifted layer used before; every
    # entry is a copy, so signed zeros, infinities and NaNs keep their bits
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    values = np.random.default_rng(n).standard_normal(n)
    specials = np.array([-0.0, np.inf, -np.inf, np.nan, -np.nan])
    for shift in range(specials.size + 1):  # each special value leads in turn; last: none
        m = values.copy()
        if shift < specials.size:
            m[: specials.size] = np.roll(specials, -shift)[:n]
        monkeypatch.setattr(lifted, "markov_parameters", lambda plant, count, m=m: m.copy())
        circulant = scipy.linalg.circulant(m).tobytes()
        toeplitz = scipy.linalg.toeplitz(m, np.zeros(n)).tobytes()
        model = LiftedModel.build(plant, n)
        assert circulant_matrix(m).tobytes() == model.circulant.tobytes() == circulant
        assert toeplitz_matrix(m).tobytes() == model.toeplitz.tobytes() == toeplitz
        assert circulant_matrix(m.astype(complex).real).tobytes() == circulant  # a strided view
        assert not (circulant_matrix(m).flags.writeable or toeplitz_matrix(m).flags.writeable)
        assert model.circulant.shape == model.toeplitz.shape == (n, n)


def test_circulant_equals_basis_expansion(third):
    # sum of Markov coefficients times the shift-by-r basis circulants
    n = 8
    m = markov_parameters(third.plant, n)
    total = np.zeros((n, n))
    for r in range(n):
        basis = np.zeros((n, n))
        for i in range(n):
            basis[i, (i - r) % n] = 1.0
        total += m[r] * basis
    assert np.array_equal(circulant_matrix(m), total)


def test_first_columns_of_toeplitz_and_circulant_agree(benches):
    for bench in benches.values():
        assert np.array_equal(bench.model.toeplitz[:, 0], bench.model.circulant[:, 0])


def test_dft_diagonalizes_any_circulant():
    rng = np.random.default_rng(5)
    model = fake_model(rng.standard_normal(4))
    report = dft_verify(model)
    assert report.max_offdiag < 1e-10


def test_dft_diagonal_matches_aligned_response(third):
    # one-sample-advanced transfer values agree to within the A^(N-1) tail
    report = dft_verify(third.model)
    assert report.tail_norm < 1e-3
    constant = report.max_aligned_error / report.tail_norm
    assert constant < 5.0
    # spot check frequency index 5 against an explicitly conjugated circulant
    H = dft_matrix(N)
    diag = np.diag(H @ third.model.circulant @ np.linalg.inv(H))
    z = np.exp(2j * np.pi * 5 / N)
    expected = z * frequency_response(third.plant, z)
    assert abs(diag[5] - expected) <= 5.0 * report.tail_norm


def test_dft_tail_norm_is_the_norm_of_a_to_the_n_minus_one(third):
    power = np.eye(third.plant.order)
    for _ in range(N - 1):
        power = power @ third.plant.A
    tail = np.linalg.svd(power, compute_uv=False)[0]
    assert dft_verify(third.model).tail_norm == pytest.approx(tail, rel=1e-9)


def test_dft_diagonal_scalar_closed_form():
    plant = DiscretePlant(np.full((1, 1), 0.5), np.ones((1, 1)), np.ones((1, 1)), T)
    model = LiftedModel.build(plant, 60)
    report = dft_verify(model)
    zs = np.exp(2j * np.pi / 60) ** np.arange(60)
    assert_allclose(report.diagonal, 1.0 / (1.0 - 0.5 / zs), atol=1e-12)


def test_dft_verify_working_set():
    # the complex product and the magnitudes of its off-diagonal part are 2 + 1
    # units of N^2 * 8 bytes, and the FFTs hold one more complex matrix; a copy
    # of the off-diagonal part would take the peak to 6
    n = 128
    preset = PRESETS["fourth_order"]
    model = LiftedModel.build(discretize_zoh(realize(preset.plant), 1 / preset.sample_hz), n)
    tracemalloc.start()
    try:
        dft_verify(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n * 8, f"peak {peak / (n * n * 8):.2f} N^2 float64 matrices"


def test_dft_offdiagonal_energy_small(benches):
    for bench in benches.values():
        H = dft_matrix(N)
        PE = H @ bench.model.circulant @ np.linalg.inv(H)
        off = PE - np.diag(np.diag(PE))
        energy = np.linalg.norm(off, "fro") ** 2 / np.linalg.norm(PE, "fro") ** 2
        assert energy < 1e-9


def test_circulant_inverse_identity():
    model = fake_model([1.0, 0.0, 0.0])
    assert_allclose(circulant_inverse(model), np.eye(3), atol=1e-14)


def test_circulant_inverse_matches_dense_lu():
    model = fake_model([2.0, 1.0, 0.0])
    oracle = np.linalg.inv(model.circulant)
    assert_allclose(circulant_inverse(model), oracle, atol=1e-12)


def test_circulant_inverse_is_read_only(third):
    inverse = circulant_inverse(third.model)
    with pytest.raises(ValueError):
        inverse[0, 0] = 1


def test_circulant_inverse_properties(benches):
    for bench in benches.values():
        inv = bench.inverse
        assert np.max(np.abs(bench.model.circulant @ inv - np.eye(N))) < 1e-10
        assert circulant_deviation(inv) < 1e-10
        eigs = np.fft.fft(markov_parameters(bench.plant, N))
        assert_allclose(np.fft.fft(inv[:, 0]), 1.0 / eigs, atol=1e-10)


def test_circulant_inverse_reports_singular_frequency():
    # fft of (1, 0, 1, 0) vanishes at frequency indices 1 and 3
    model = fake_model([1.0, 0.0, 1.0, 0.0])
    with pytest.raises(IllConditionedCirculantError) as info:
        circulant_inverse(model)
    assert info.value.indices == [1, 3]


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_circulant_inverse_fails_closed_on_degenerate_sequence(value):
    # a relative singularity test is vacuous when the largest magnitude is 0 or NaN
    with pytest.raises(IllConditionedCirculantError) as info:
        circulant_inverse(fake_model([value, 0.0, 0.0, 0.0]))
    assert info.value.indices == [0, 1, 2, 3]


def test_circulant_inverse_names_an_imaginary_residue(monkeypatch):
    # a bare ArithmeticError before, outside the family the CLI reports
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda x: ifft(x) + 1j)
    with pytest.raises(NumericalDegeneracyError, match="imaginary residue"):
        circulant_inverse(fake_model([1.0, 0.5, 0.0, 0.0]))


def test_delete_zero_steps_is_identity(third):
    dm = delete_initial_steps(third.model, third.inverse, 0)
    assert np.array_equal(dm.toeplitz, third.model.toeplitz)
    assert np.array_equal(dm.circulant_inverse, third.inverse)


def test_delete_shapes_and_content(third, fifth):
    d1 = delete_initial_steps(third.model, third.inverse, 1)
    assert d1.toeplitz.shape == (50, 51)
    assert d1.circulant_inverse.shape == (51, 50)
    assert np.array_equal(d1.toeplitz, third.model.toeplitz[1:, :])
    assert np.array_equal(d1.circulant_inverse, third.inverse[:, 1:])
    d2 = delete_initial_steps(fifth.model, fifth.inverse, 2)
    assert d2.toeplitz.shape == (49, 51)
    assert (d2.toeplitz @ d2.circulant_inverse).shape == (49, 49)


def test_deleted_model_views_the_model_and_inverse(benches):
    for bench in benches.values():
        for q in (0, 2):
            dm = bench.deleted(q)
            assert np.shares_memory(dm.toeplitz, bench.model.toeplitz)
            assert np.shares_memory(dm.circulant_inverse, bench.inverse)
            assert not dm.toeplitz.flags.writeable
            assert not dm.circulant_inverse.flags.writeable


def test_delete_copies_what_its_caller_can_write(third):
    inverse = np.array(third.inverse)
    hidden = inverse.view()  # read-only itself, but it views a writable array
    hidden.flags.writeable = False
    toeplitz = np.array(third.model.toeplitz)  # the model holds a copy of it
    model = dataclasses.replace(third.model, toeplitz=toeplitz)
    deleted = [delete_initial_steps(model, inverse, 1), delete_initial_steps(model, hidden, 1)]
    inverse[:] = 0.0
    toeplitz[:] = 0.0
    for dm in deleted:
        assert not dm.toeplitz.flags.writeable and not dm.circulant_inverse.flags.writeable
        assert np.array_equal(dm.toeplitz, third.model.toeplitz[1:])
        assert np.array_equal(dm.circulant_inverse, third.inverse[:, 1:])


def test_delete_default_counts(benches):
    expected = {"third_order": 1, "fourth_order": 1, "fifth_order": 2}
    for name, bench in benches.items():
        assert delete_initial_steps(bench.model, bench.inverse).q == expected[name]


@PROPERTY
@given(sampled_plants(), horizons)
def test_property_default_deletion_is_unstable_zero_count(plant, n):
    model = LiftedModel.build(plant, n)
    inverse = np.arange(n * n, dtype=float).reshape(n, n)  # deletion only slices it
    count = unstable_zero_count(plant)
    if count >= n:
        with pytest.raises(ValueError):
            delete_initial_steps(model, inverse)
        return
    deleted = delete_initial_steps(model, inverse)
    assert deleted.q == count
    assert np.array_equal(deleted.toeplitz, model.toeplitz[count:])
    assert np.array_equal(deleted.circulant_inverse, inverse[:, count:])


def test_records_hold_only_what_their_arrays_cannot_give():
    # the horizon, the Markov sequence, the circulant wrap, the free-response map
    # and q are read from these
    fields = {
        record: [f.name for f in dataclasses.fields(record)] for record in (LiftedModel, DeletedModel)
    }
    assert fields == {
        LiftedModel: ["plant", "toeplitz"],
        DeletedModel: ["toeplitz", "circulant_inverse"],
    }


@pytest.mark.parametrize("n", [1, 51, 256])
def test_a_built_model_holds_one_matrix(third, n):
    # the circulant wrap used to be stored beside the Toeplitz map: 16 N^2 bytes
    model = LiftedModel.build(third.plant, n)
    arrays = [v for v in vars(model).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == 8 * n * n
    circulant = model.circulant
    assert not circulant.flags.writeable and not np.shares_memory(circulant, model.toeplitz)
    assert np.array_equal(np.tril(circulant), model.toeplitz)


def test_a_deleted_model_cannot_state_a_q_its_shapes_contradict(third):
    # DeletedModel(q=2, ...) used to build beside a toeplitz with one deleted row
    dm = third.deleted(1)
    with pytest.raises(TypeError):
        DeletedModel(q=2, toeplitz=dm.toeplitz, circulant_inverse=dm.circulant_inverse)
    assert DeletedModel(dm.toeplitz, dm.circulant_inverse).q == 1
    # a 7 x 6 plant matrix used to read q = -1, and the inverse's shape was not checked
    for toeplitz, inverse in [
        (np.zeros((7, 6)), np.zeros((6, 7))),
        (dm.toeplitz, dm.circulant_inverse.T),
        (dm.toeplitz, third.inverse),
        (np.zeros(3), np.zeros(3)),
    ]:
        with pytest.raises(ValueError, match="^deleted model needs toeplitz"):
            DeletedModel(toeplitz, inverse)


def test_a_lifted_model_holds_the_toeplitz_matrix_of_its_first_column(third):
    # a 3 x 5 map used to build, reading horizon 3 and a 3 x 3 circulant beside it
    good = toeplitz_matrix(np.arange(1.0, 8.0))
    moved, above, signed = np.array(good), np.array(good), np.array(good)
    moved[4, 1] = good[5, 1]  # one entry of the third subdiagonal holds the fourth's value
    above[0, 1] = 1.0
    signed[0, 1] = -0.0  # equal in value, but the map is compared bit for bit
    for toeplitz in [np.tril(np.arange(1.0, 16).reshape(3, 5)), moved, above, signed,
                     good[:, :1], np.arange(3.0), np.zeros(0), np.zeros((0, 0)), np.zeros((3, 0))]:
        with pytest.raises(ValueError) as caught:
            LiftedModel(third.plant, toeplitz)
        assert str(caught.value) == (
            "lifted model needs toeplitz, the N x N lower-triangular Toeplitz matrix of its "
            f"first column, got shape {np.shape(toeplitz)}"
        )


def test_a_lifted_model_shares_a_read_only_map_and_copies_a_writable_one(third):
    assert LiftedModel(third.plant, third.model.toeplitz).toeplitz is third.model.toeplitz
    writable = np.array(third.model.toeplitz)
    hidden = writable.view()  # read-only itself, but it views a writable array
    hidden.flags.writeable = False
    for given in (writable, hidden):
        held = LiftedModel(third.plant, given).toeplitz
        assert not held.flags.writeable and not np.shares_memory(held, writable)
        assert held.tobytes() == writable.tobytes()


def test_each_lifted_matrix_is_formed_only_by_its_builder():
    # _circulant, LiftedModel.build and the two public builders each formed them
    form = re.compile(r"sliding_window_view\(|np\.tril\(")
    home = Path(lifted.__file__)
    builders = {
        number
        for node in ast.parse(home.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("circulant_matrix", "toeplitz_matrix")
        for number in range(node.lineno, node.end_lineno + 1)
    }
    elsewhere = [
        f"{layer.name}:{number}: {line.strip()}"
        for layer in sorted(home.parent.glob("*.py"))
        for number, line in enumerate(layer.read_text(encoding="utf-8").splitlines(), 1)
        if form.search(line) and not (layer == home and number in builders)
    ]
    assert elsewhere == []
    assert len(form.findall(home.read_text(encoding="utf-8"))) == 2


@PROPERTY
@given(sampled_plants(), horizons, st.data())
def test_property_derived_facts_match_the_arrays(plant, n, data):
    model = LiftedModel.build(plant, n)
    assert model.horizon == n
    assert model.circulant[:, 0].tobytes() == markov_parameters(plant, n).tobytes()
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        inverse = model.circulant.T  # deletion only slices it
    q = data.draw(st.integers(0, n - 1), label="q")
    deleted = delete_initial_steps(model, inverse, q)
    assert deleted.q == q
    assert deleted.toeplitz.shape == deleted.circulant_inverse.shape[::-1] == (n - q, n)
    for gain in (deleted.circulant_inverse, deleted.toeplitz.T):
        report = analyze(error_propagation(deleted.toeplitz, gain))
        sigma, mags = report.singular_values, report.eigenvalue_magnitudes
        assert np.all(np.diff(sigma) <= 0) and np.all(np.diff(mags) <= 0)
        assert (report.spectral_radius, report.converges, report.monotonic) == (
            mags[0], mags[0] < 1.0, sigma[0] < 1.0
        )


def test_unstable_zero_leaves_tiny_singular_value(third):
    # the full-horizon map is ill-posed: one singular value falls far below the rest
    s = np.linalg.svd(third.model.toeplitz, compute_uv=False)
    assert s[-1] / s[-2] < 1e-2


# --- properties over random stable plants and horizons ----------------------
# The structured builders, the FFT conjugation and the FFT inverse against the
# dense references they replace.


@PROPERTY
@given(sampled_plants(), horizons)
def test_property_toeplitz_matches_recursion(plant, n):
    model = LiftedModel.build(plant, n)
    u = np.random.default_rng(n).standard_normal(n)
    scale = np.max(np.abs(model.toeplitz) @ np.abs(u))
    assert_allclose(model.toeplitz @ u, recurse(plant, u), rtol=0, atol=1e-12 * scale)
    assert np.array_equal(toeplitz_matrix(markov_parameters(plant, n)), model.toeplitz)


@PROPERTY
@given(sampled_plants(), horizons)
def test_property_circulant_is_wrapped_markov(plant, n):
    model = LiftedModel.build(plant, n)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    assert np.array_equal(model.circulant, markov_parameters(plant, n)[idx])
    assert np.array_equal(circulant_matrix(markov_parameters(plant, n)), model.circulant)
    assert circulant_deviation(model.circulant) == 0.0


@PROPERTY
@given(sampled_plants(), horizons)
def test_property_fft_conjugation_matches_dense_dft(plant, n):
    model = LiftedModel.build(plant, n)
    H = dft_matrix(n)
    dense = H @ model.circulant @ np.linalg.inv(H)
    tol = 1e-12 * np.linalg.norm(model.circulant)
    report = dft_verify(model)
    assert np.max(np.abs(report.diagonal - np.diag(dense))) <= tol
    assert abs(report.max_offdiag - np.max(np.abs(dense - np.diag(np.diag(dense))))) <= tol


@PROPERTY
@given(sampled_plants(), horizons)
def test_property_circulant_eigenvalues_sum_the_markov_series(plant, n):
    # eig_k(Pc) = z_k C (z_k I - A)^-1 (I - A^N) B, z_k = exp(2 pi i k / N): the
    # Markov series C A^r B z_k^-r summed over r < N, closed by z_k^N = 1. Error scale:
    # the FFT's N eps sum|m| plus the solve's n_x eps cond(z_k I - A) |C||(z_k I - A)^-1||tail|;
    # over 300 plants the error reached 9.8 of it.
    model = LiftedModel.build(plant, n)
    markov = markov_parameters(plant, n)
    zs = np.exp(2j * np.pi / n) ** np.arange(n)
    M = zs[:, None, None] * np.eye(plant.order) - plant.A
    tail = plant.B - np.linalg.matrix_power(plant.A, n) @ plant.B  # (I - A^N) B
    closed = zs * (plant.C @ np.linalg.solve(M, tail))[:, 0, 0]
    eps = np.finfo(float).eps
    spread = (np.abs(plant.C) @ np.abs(np.linalg.inv(M)) @ np.abs(tail))[:, 0, 0]
    scale = n * eps * np.sum(np.abs(markov)) + plant.order * eps * np.linalg.cond(M) * spread
    # the DFT of the Markov sequence, and the diagonal of H Pc H^-1 built from the wrap
    for eigenvalues in (np.fft.fft(markov), dft_verify(model).diagonal):
        assert np.all(np.abs(eigenvalues - closed) <= 50.0 * scale)


@PROPERTY
@given(sampled_plants(), horizons, st.data())
def test_property_deleted_error_map_is_the_wrap_times_the_inverse(plant, n, data):
    # Pc Pc^-1 = I, so I - P_q C_q = (Pc - P)_q C_q = W_q C_q with W = Pc - P the
    # wrapped upper triangle; over 300 plants the error reached 0.74 of N eps |P_q| |C_q|
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    q = data.draw(st.integers(0, n - 1), label="q")
    deleted = delete_initial_steps(model, inverse, q)
    E = error_propagation(deleted.toeplitz, deleted.circulant_inverse)
    W = model.circulant - model.toeplitz
    gap = np.linalg.norm(E - W[q:] @ inverse[:, q:], 2)
    scale = n * np.finfo(float).eps * np.linalg.norm(deleted.toeplitz, 2)
    assert gap <= 4.0 * scale * np.linalg.norm(deleted.circulant_inverse, 2)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_circulant_deviation_matches_diagonal_loop(n):
    # reference: one boolean mask per wrapped diagonal
    matrix = np.random.default_rng(n).standard_normal((n, n))
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    spreads = [np.ptp(matrix[idx == d]) for d in range(n)]
    assert circulant_deviation(matrix) == max(spreads)


# Well conditioned (about 1e4), yet an absolute 1e-10 bound on the inverse
# column's imaginary round-off (1.3e-10 here) once rejected it.
ROUND_OFF_PLANT = discretize_zoh(realize(ContinuousPlant((5.6,), ((7.5, 0.25),))), T)


@PROPERTY
@given(sampled_plants(), horizons)
@example(ROUND_OFF_PLANT, 200)
def test_property_circulant_inverse_or_ill_conditioned(plant, n):
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    scale = np.linalg.norm(model.circulant, 1) * np.linalg.norm(inverse, 1)
    assert np.max(np.abs(inverse @ model.circulant - np.eye(n))) <= 1e-12 * scale
