"""Sensitivity derivatives and steepest-descent tests.

The derivative oracle is a central finite difference of sigma_k through a
full SVD; the step oracle is the dense regularized solve; the descent's oracle
is its loop with one eigvals call per iteration.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from circulant_ilc import (
    DegenerateSingularValueError,
    DeletedModel,
    IllConditionedCirculantError,
    LiftedModel,
    OptimizerConfig,
    circulant_inverse,
    delete_initial_steps,
    descent_step,
    optimize,
    sensitivity_map,
    sensitivity_matrix,
)
from circulant_ilc import optimizer
from circulant_ilc.optimizer import _corner_positions
from oracles import serial_descent
from strategies import PROPERTY, horizons, sampled_plants


def fd_sensitivity(P, L, i, j, k=0, step=1e-6):
    """Oracle: central difference of singular value k through the full SVD."""
    def sigma(gain):
        E = np.eye(P.shape[0]) - P @ gain
        return np.linalg.svd(E, compute_uv=False)[k]

    up = L.copy()
    down = L.copy()
    up[i, j] += step
    down[i, j] -= step
    return (sigma(up) - sigma(down)) / (2 * step)


def corner_mask(shape, k):
    """Oracle: the upper-left and upper-right k-square corners, overlap counted once."""
    rows, cols = np.indices(shape)
    return (rows < k) & ((cols < k) | (cols >= shape[1] - k))


def small_model(seed=11):
    """A 6 x 7 gain on a 7 x 6 plant: the two 5-square corners share columns 2-4."""
    rng = np.random.default_rng(seed)
    P = np.eye(7, 6) + 0.3 * rng.standard_normal((7, 6))
    L = np.linalg.pinv(P) + 0.3 * rng.standard_normal((6, 7))
    return DeletedModel(q=0, toeplitz=P, circulant_inverse=L)


# side 5 on the 51 x 50 preset gain is the default, which test_optimize_only_touches_region_gains runs
@pytest.mark.parametrize("k, overlap", [(1, False), (5, True)], ids=["side1", "side5_overlap"])
def test_region_size_sets_the_corner_blocks(third, k, overlap):
    dm = small_model() if overlap else third.deleted(1)
    trace = optimize(dm, OptimizerConfig(iterations=3, region_size=k))
    assert trace.diagnostic is None
    changed = trace.gain != dm.circulant_inverse
    mask = corner_mask(changed.shape, k)
    assert np.array_equal(changed, mask)
    assert mask.sum() == (5 * 7 if overlap else 2 * k * k)
    rows, cols = _corner_positions(changed.shape, k)  # the descent's own order: row-major
    assert np.array_equal(np.ravel_multi_index((rows, cols), mask.shape), np.flatnonzero(mask))


def test_sensitivity_rejects_degenerate_spectrum():
    with pytest.raises(DegenerateSingularValueError):
        sensitivity_matrix(np.eye(4), np.eye(4))  # E = 0, all sigma equal
    with pytest.raises(DegenerateSingularValueError):
        sensitivity_matrix(np.eye(1), np.eye(1))  # sigma_1 = |e| at its kink e = 0


def test_sensitivity_matches_unit_perturbation_definition():
    rng = np.random.default_rng(21)
    P = rng.standard_normal((6, 6))
    L = rng.standard_normal((6, 6))
    S = sensitivity_matrix(P, L)
    E = np.eye(6) - P @ L
    U, s, Vt = np.linalg.svd(E)
    for i, j in [(2, 3), (0, 0), (5, 1)]:
        unit = np.zeros((6, 6))
        unit[i, j] = 1.0
        expected = -U[:, 0] @ P @ unit @ Vt[0, :]
        assert S[i, j] == pytest.approx(expected, abs=1e-12)


def test_sensitivity_matches_finite_differences_random():
    rng = np.random.default_rng(22)
    P = rng.standard_normal((6, 6))
    L = rng.standard_normal((6, 6))
    S = sensitivity_matrix(P, L)
    got = S[2, 3]
    oracle = fd_sensitivity(P, L, 2, 3)
    assert abs(got - oracle) / abs(oracle) < 1e-5


@PROPERTY
@given(sampled_plants(), horizons, st.data())
def test_property_sensitivity_matches_central_difference(plant, n, data):
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    dm = delete_initial_steps(model, inverse, data.draw(st.integers(0, n - 1), label="q"))
    P, L = dm.toeplitz, dm.circulant_inverse
    try:
        S = sensitivity_matrix(P, L)
    except DegenerateSingularValueError:
        return
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, L.shape[1] - 1), label="j")
    col = np.abs(P[:, i]).sum()  # bounds |S[i, j]|; a 2-norm could underflow
    if col == 0:
        assert S[i, j] == 0
        return
    s = np.linalg.svd(np.eye(L.shape[1]) - P @ L, compute_uv=False)
    gap = s[0] - s[1] if s.size > 1 else s[0]
    # A step that moves E by 1e-3 of the gap keeps the third-order truncation
    # near 1e-6 * col; forming I - P L adds round-off of n eps (1 + |P| |L|).
    step = 1e-3 * gap / col
    noise = n * np.finfo(float).eps * (1 + np.linalg.norm(P, 2) * np.linalg.norm(L, 2))
    oracle = fd_sensitivity(P, L, i, j, step=step)
    assert abs(S[i, j] - oracle) <= 1e-5 * col + noise / step


@pytest.mark.parametrize("name,q", [("third_order", 1), ("fourth_order", 2), ("fifth_order", 2)])
def test_sensitivity_matches_finite_differences_benchmarks(benches, name, q):
    dm = benches[name].deleted(q)
    P = dm.toeplitz
    L = dm.circulant_inverse
    S = sensitivity_matrix(P, L)
    rows, cols = _corner_positions(L.shape, 5)
    rng = np.random.default_rng(23)
    picks = rng.choice(rows.size, size=10, replace=False)
    for idx in picks:
        i, j = int(rows[idx]), int(cols[idx])
        oracle = fd_sensitivity(P, L.copy(), i, j)
        denom = max(abs(oracle), 1e-12)
        assert abs(S[i, j] - oracle) / denom < 1e-4


def test_sensitivity_map_is_rank_one(third):
    surface = sensitivity_map(third.deleted(1))
    s = np.linalg.svd(surface.matrix, compute_uv=False)
    assert s[1] < 1e-12 * s[0]


@pytest.mark.parametrize("name,q", [("third_order", 1), ("fourth_order", 2)])
def test_sensitivity_map_flags_edge_columns(benches, name, q):
    surface = sensitivity_map(benches[name].deleted(q))
    ncols = surface.matrix.shape[1]
    middle = set(range(ncols // 3, 2 * ncols // 3))
    assert len(surface.flagged_columns) > 0
    assert not middle & set(surface.flagged_columns.tolist())


def test_descent_step_zero_sensitivity_is_stationary():
    assert_allclose(descent_step(3.0, np.zeros(8), 0.1), np.zeros(8), atol=0)


def test_descent_step_unit_vector_closed_form():
    S = np.zeros(6)
    S[0] = 1.0
    assert_allclose(descent_step(1.0, S, 0.1), -S / 1.1, atol=1e-15)


def test_descent_step_matches_dense_solve():
    rng = np.random.default_rng(31)
    S = rng.standard_normal(50)
    sigma, weight = 2.7, 0.1
    oracle = -np.linalg.solve(np.outer(S, S) + weight * np.eye(50), S * sigma)
    assert_allclose(descent_step(sigma, S, weight), oracle, atol=1e-12)


def test_optimize_trace_shape_and_progress(third):
    dm = third.deleted(1)
    trace = optimize(dm, OptimizerConfig(iterations=100))
    assert trace.sigma.shape == (101,)
    assert trace.rho.shape == (101,)
    assert trace.diagnostic is None
    assert trace.law.q == 1
    # strict descent over the first hundred iterations (plateaus excepted)
    assert np.all(np.diff(trace.sigma) < 1e-12)
    assert np.all(trace.rho <= trace.sigma + 1e-10)


def test_optimize_only_touches_region_gains(third):
    dm = third.deleted(1)
    trace = optimize(dm, OptimizerConfig(iterations=5))
    delta = trace.gain - dm.circulant_inverse
    mask = corner_mask(delta.shape, 5)  # the default region_size
    assert np.all(delta[~mask] == 0)
    assert np.any(delta[mask] != 0)


def test_optimize_reselect_region_runs(third):
    dm = third.deleted(1)
    fixed = optimize(dm, OptimizerConfig(iterations=20))
    floating = optimize(dm, OptimizerConfig(iterations=20, reselect_region=True))
    assert floating.sigma[-1] <= fixed.sigma[0]
    assert floating.diagnostic is None


def test_top_positions_matches_stable_argsort():
    from circulant_ilc.optimizer import _top_positions

    rng = np.random.default_rng(7)
    for trial in range(50):
        a = rng.standard_normal(12)
        b = rng.standard_normal(9)
        a[rng.integers(0, 12, 4)] = a[0]  # exact magnitude ties
        if trial % 5 == 0:
            b[:3] = 0.0
        matrix = -np.outer(a, b)
        for count in (1, 7, 20, matrix.size):
            flat = np.argsort(-np.abs(matrix), axis=None, kind="stable")[:count]
            rows, cols = _top_positions(matrix, count)
            want_rows, want_cols = np.unravel_index(flat, matrix.shape)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


def test_optimize_stops_on_degenerate_spectrum():
    dm = DeletedModel(q=0, toeplitz=np.eye(8), circulant_inverse=np.eye(8))
    trace = optimize(dm, OptimizerConfig(iterations=50))
    assert trace.diagnostic is not None
    assert trace.sigma.shape == (1,)


def test_optimize_benchmark_endpoint_neighborhoods(optimized):
    # the full-length recipes land near the reported endpoints
    t1 = optimized[("third_order", 1)]
    assert t1.sigma[-1] <= 0.3 and t1.rho[-1] < 1.0
    t0 = optimized[("third_order", 0)]
    assert 1.0 <= t0.sigma[-1] <= 1.6
    assert optimized[("fourth_order", 2)].rho[-1] < 0.01
    assert optimized[("fifth_order", 2)].rho[-1] <= 0.5


def block_size(deleted):
    """Maps per eigvals call in optimize's descent of this model."""
    return max(1, optimizer._RHO_BLOCK_ENTRIES // deleted.toeplitz.shape[0] ** 2)


def assert_matches_serial(deleted, config):
    sigma, rho, gain, diagnostic = serial_descent(deleted, config)
    trace = optimize(deleted, config)
    assert trace.sigma.tobytes() == sigma.tobytes()
    assert trace.rho.tobytes() == rho.tobytes()
    assert trace.gain.tobytes() == gain.tobytes()
    assert (trace.diagnostic is None) == (diagnostic is None)
    if diagnostic is not None:
        assert (trace.diagnostic.gap, trace.diagnostic.scale) == (diagnostic.gap, diagnostic.scale)
    return trace


@pytest.mark.parametrize("reselect", [False, True], ids=["fixed", "reselected"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["k-1", "k", "k+1", "2k+3"])
@pytest.mark.parametrize("q", [0, 1])
def test_optimize_matches_the_serial_loop_around_a_block(third, q, blocks, extra, reselect):
    # rho comes from one eigvals call per block of k maps, a last partial block included
    dm = third.deleted(q)
    k = block_size(dm)
    assert k == (12, 13)[q]  # 2**15 entries of 51 x 51 and 50 x 50 maps
    iterations = blocks * k + extra
    trace = assert_matches_serial(dm, OptimizerConfig(iterations=iterations, reselect_region=reselect))
    assert trace.rho.shape == (iterations + 1,) and trace.diagnostic is None


@PROPERTY
@given(sampled_plants(), st.integers(20, 64), st.data())
def test_property_optimize_matches_the_serial_loop(plant, n, data):
    # blocks of 128 down to 8 maps of n - q rows; half a block to three blocks
    model = LiftedModel.build(plant, n)
    try:
        inverse = circulant_inverse(model)
    except IllConditionedCirculantError:
        return
    dm = delete_initial_steps(model, inverse, data.draw(st.integers(0, 4), label="q"))
    k = block_size(dm)
    config = OptimizerConfig(
        iterations=data.draw(st.integers(max(1, k // 2), 3 * k), label="iterations"),
        reselect_region=data.draw(st.booleans(), label="reselect_region"),
    )
    with np.errstate(all="ignore"):  # a drawn plant may overflow; the loops must agree even so
        assert_matches_serial(dm, config)


@pytest.mark.parametrize("stop", [5, 12, 20])
def test_optimize_fills_rho_up_to_a_stop_inside_a_block(third, monkeypatch, stop):
    # a degenerate sigma_1 found at iteration `stop` ends the trace mid-block
    dm = third.deleted(1)
    assert stop % block_size(dm)
    calls = []

    def check_gap(s):
        calls.append(s[0])
        if len(calls) == stop + 1:
            raise DegenerateSingularValueError(0.0, float(s[0]))

    monkeypatch.setattr(optimizer, "_check_gap", check_gap)
    trace = optimize(dm, OptimizerConfig(iterations=40))
    assert trace.sigma.shape == trace.rho.shape == (stop + 1,)
    assert isinstance(trace.diagnostic, DegenerateSingularValueError)
    calls.clear()
    assert trace.rho.tobytes() == serial_descent(dm, OptimizerConfig(iterations=40))[1].tobytes()


def test_optimize_holds_at_most_2_15_entries_of_maps():
    # at n = 256 a block is one map: a longer descent keeps no more maps alive
    n = 256
    dm = DeletedModel(q=0, toeplitz=np.eye(n), circulant_inverse=np.diag(np.linspace(0.1, 0.9, n)))
    optimize(dm, OptimizerConfig(iterations=1))  # first-call allocations stay out of the peaks
    peaks = []
    for iterations in (1, 40):
        tracemalloc.start()
        try:
            assert optimize(dm, OptimizerConfig(iterations=iterations)).diagnostic is None
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < n * n * 8, f"{(peaks[1] - peaks[0]) / (n * n * 8):.2f} maps more"
