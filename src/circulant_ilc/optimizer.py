"""Steepest-descent reduction of the largest singular value of I - P L.

Selected entries of the deleted inverse circulant gain matrix are adjusted
along the analytic sensitivity of sigma_1, regularized by a weight factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSingularValueError, check_integer, check_real, frozen
from .laws import LearningLaw, error_propagation
from .lifted import DeletedModel

_GAP_RTOL = 1e-9          # singular value gap below this (relative to sigma_1) is degenerate
_FLAG_FACTOR = 10.0       # column flagged when its peak sensitivity exceeds median by this


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings: weight factor, iteration count, adjusted region.

    The region is the upper-left and upper-right region_size-square corner
    blocks of the gain matrix. A fixed region bounds how far sigma_1 can fall:
    once the dominant singular vectors of I - P L peak outside it, no choice
    of its gains lowers sigma_1 further (the fifth-order corner blocks bottom
    out at sigma_1 = 6.50). reselect_region keeps the region's size but
    re-picks, every iteration, the positions with the largest |sensitivity|.
    """

    iterations: int
    weight: float = 0.1
    region_size: int = 5
    reselect_region: bool = False

    def __post_init__(self):
        check_real(self.weight, "weight", above=0)
        check_integer(self.iterations, "iterations", least=1)
        check_integer(self.region_size, "region_size", least=1)


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration largest singular value, the final spectral radius, and the result.

    sigma includes the starting point, so a clean run has iterations + 1 entries.
    rho is a read-only float64 array of shape (1,): the spectral radius of the map
    whose sigma_1 is sigma[-1], so rho[-1] pairs with sigma[-1]. diagnostic holds
    the error when the run stopped early on a degenerate sigma_1, and sigma is
    truncated at the stop.
    """

    sigma: np.ndarray
    rho: np.ndarray
    law: LearningLaw
    diagnostic: DegenerateSingularValueError | None = None

    @property
    def gain(self):
        return self.law.gain


@dataclass(frozen=True)
class SensitivityMap:
    """Full sensitivity surface of sigma_1 and the columns whose peak stands out:
    those whose peak absolute sensitivity exceeds the median tenfold."""

    matrix: np.ndarray

    @property
    def flagged_columns(self):
        scores = np.max(np.abs(self.matrix), axis=0)
        return np.where(scores > _FLAG_FACTOR * np.median(scores))[0]


def _check_gap(s: np.ndarray):
    # a square matrix's last singular value mirrors to -s[0]: its kink at zero
    lower = s[1] if s.size > 1 else -s[0]
    gap, scale = float(s[0] - lower), float(s[0])
    if gap <= _GAP_RTOL * scale:
        raise DegenerateSingularValueError(gap, scale)


def _gradient_factors(p_matrix: np.ndarray, U: np.ndarray, s: np.ndarray, Vt: np.ndarray):
    """sigma_1's gradient as its rank-one factors (-P^T u_1, v_1); a degenerate sigma_1 raises."""
    _check_gap(s)
    return -(p_matrix.T @ U[:, 0]), Vt[0]


def sensitivity_matrix(p_matrix: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Derivative of the largest singular value sigma_1 of I - P L with respect
    to every gain entry.

    A unit perturbation at (i, j) changes the propagation matrix by -P e_i e_j^T,
    so the derivative is -u_1^T P e_i e_j^T v_1: the rank-one outer product
    -(P^T u_1) v_1^T, unchanged when u_1 and v_1 flip sign together.
    """
    return np.outer(*_gradient_factors(p_matrix, *np.linalg.svd(error_propagation(p_matrix, gain))))


def sensitivity_map(deleted: DeletedModel) -> SensitivityMap:
    """Full sigma_1 sensitivity surface for the deleted inverse-circulant gain.

    For the benchmark plants the flagged columns concentrate at the matrix edges.
    """
    return SensitivityMap(sensitivity_matrix(deleted.toeplitz, deleted.circulant_inverse))


def descent_step(sigma: float, sensitivities: np.ndarray, weight: float) -> np.ndarray:
    """Regularized steepest-descent update -[S S^T + rI]^-1 S sigma.

    S S^T is rank one, so the inverse acts on S as division by (S^T S + r);
    the dense solve is bypassed but reproduced to machine precision.
    """
    check_real(weight, "weight", above=0)
    S = np.asarray(sensitivities, dtype=float)
    return -(S * sigma) / (S @ S + weight)


def _top_positions(matrix: np.ndarray, count: int):
    """(rows, cols) of the count largest |entries|, ties broken by flat index.

    Same result as a full stable argsort of -|matrix|; a partition finds the
    cutoff first, so only the entries at or above it are sorted.
    """
    mag = np.abs(matrix).ravel()
    cutoff = np.partition(mag, mag.size - count)[mag.size - count]
    candidates = np.flatnonzero(mag >= cutoff)
    flat = candidates[np.argsort(-mag[candidates], kind="stable")[:count]]
    return np.unravel_index(flat, matrix.shape)


def _corner_positions(shape, size: int):
    """Row-major (rows, cols) of the union of the upper-left and upper-right
    size-square corners; the order sets the rounding of S @ S in descent_step."""
    size = min(size, *shape)
    cols = np.union1d(np.arange(size), np.arange(shape[1] - size, shape[1]))
    return np.repeat(np.arange(size), cols.size), np.tile(cols, size)


def optimize(deleted: DeletedModel, config: OptimizerConfig) -> OptimizationTrace:
    """Iteratively adjust region gains of the deleted inverse circulant.

    Starts from the inverse circulant, re-evaluates the sensitivity direction
    from fresh singular vectors every iteration, and keeps the adjusted region
    fixed unless reselect_region asks for a per-iteration re-pick of the same
    number of positions with the largest |sensitivity|. A fixed region sets a
    floor on sigma_1: when the dominant singular vectors peak outside it the
    descent stalls above one, and it can settle into a period-two zigzag
    (the fifth-order corner blocks alternate near sigma_1 = 6.92).

    rho never feeds back into the descent: one eigvals call takes it from the
    map whose sigma_1 ends the trace, the final iterate's or the one that stopped it.
    """
    P = deleted.toeplitz
    L = deleted.circulant_inverse.copy()
    rows, cols = _corner_positions(L.shape, config.region_size)

    E = np.empty((P.shape[0], P.shape[0]))
    sigma = np.empty(config.iterations + 1)
    diagnostic = None
    for it in range(config.iterations + 1):
        U, s, Vt = np.linalg.svd(error_propagation(P, L, out=E))
        sigma[it] = s[0]
        if it == config.iterations:
            break
        try:
            left, right = _gradient_factors(P, U, s, Vt)
        except DegenerateSingularValueError as exc:
            diagnostic = exc
            break
        if config.reselect_region:
            rows, cols = _top_positions(np.outer(left, right), rows.size)
        L[rows, cols] += descent_step(s[0], left[rows] * right[cols], config.weight)

    rho = frozen(np.max(np.abs(np.linalg.eigvals(E)), keepdims=True))
    return OptimizationTrace(sigma=sigma[: it + 1], rho=rho, law=LearningLaw(L), diagnostic=diagnostic)
