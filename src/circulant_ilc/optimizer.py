"""Steepest-descent reduction of the largest singular value of I - P L.

Selected entries of the deleted inverse circulant gain matrix are adjusted
along the analytic sensitivity of sigma_1, regularized by a weight factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSingularValueError, check_integer, check_real
from .laws import LearningLaw, error_propagation
from .lifted import DeletedModel

_GAP_RTOL = 1e-9          # singular value gap below this (relative to sigma_1) is degenerate
_FLAG_FACTOR = 10.0       # column flagged when its peak sensitivity exceeds median by this
_RHO_BLOCK_ENTRIES = 2**15  # entries of the maps whose rho one eigvals call takes: 13 at n = 50


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
    """Per-iteration largest singular value and spectral radius, plus the result.

    sigma/rho include the starting point, so a clean run has iterations + 1
    entries. diagnostic holds the error when the run stopped early on a
    degenerate sigma_1, and the traces are truncated at the stop.
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
    """Full sensitivity surface of sigma_1 and the columns whose peak stands out."""

    matrix: np.ndarray
    flagged_columns: np.ndarray


def _check_gap(s: np.ndarray):
    # a square matrix's last singular value mirrors to -s[0]: its kink at zero
    lower = s[1] if s.size > 1 else -s[0]
    gap, scale = float(s[0] - lower), float(s[0])
    if gap <= _GAP_RTOL * scale:
        raise DegenerateSingularValueError(gap, scale)


def _spectral_radii(maps: np.ndarray) -> np.ndarray:
    """max |eigenvalue| of each map in a (k, n, n) stack from one eigvals call.

    The stacked call runs the same LAPACK dgeev on each map as a call on that
    map alone, paying numpy's per-call setup once, so every bit is the same:
    a map with real eigenvalues gets them as x + 0j when another map's are
    complex, and |x + 0j| is |x|.
    """
    return np.max(np.abs(np.linalg.eigvals(maps)), axis=-1)


def sensitivity_matrix(p_matrix: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Derivative of the largest singular value sigma_1 of I - P L with respect
    to every gain entry.

    A unit perturbation at (i, j) changes the propagation matrix by -P e_i e_j^T,
    so the derivative is -u_1^T P e_i e_j^T v_1: the rank-one outer product
    -(P^T u_1) v_1^T, unchanged when u_1 and v_1 flip sign together.
    """
    U, s, Vt = np.linalg.svd(error_propagation(p_matrix, gain))
    _check_gap(s)
    return -np.outer(p_matrix.T @ U[:, 0], Vt[0, :])


def sensitivity_map(deleted: DeletedModel) -> SensitivityMap:
    """Full sigma_1 sensitivity surface for the deleted inverse-circulant gain.

    Columns whose peak absolute sensitivity exceeds the median tenfold are
    flagged; for the benchmark plants these concentrate at the matrix edges.
    """
    matrix = sensitivity_matrix(deleted.toeplitz, deleted.circulant_inverse)
    scores = np.max(np.abs(matrix), axis=0)
    flagged = np.where(scores > _FLAG_FACTOR * np.median(scores))[0]
    return SensitivityMap(matrix=matrix, flagged_columns=flagged)


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

    rho never feeds back into the descent: each map I - P L is written into the
    next slot of a block of at most 2**15 entries (of one map if a map is
    larger), and one eigvals call takes the rho of every map in it once the
    block is full or the descent ends.
    """
    P = deleted.toeplitz
    L = deleted.circulant_inverse.copy()
    rows, cols = _corner_positions(L.shape, config.region_size)

    n = P.shape[0]
    block = np.empty((max(1, min(_RHO_BLOCK_ENTRIES // n**2, config.iterations + 1)), n, n))
    sigma = np.empty(config.iterations + 1)
    rho = np.empty(config.iterations + 1)
    diagnostic = None
    for it in range(config.iterations + 1):
        slot = it % len(block)
        E = error_propagation(P, L, out=block[slot])
        U, s, Vt = np.linalg.svd(E)
        sigma[it] = s[0]
        if slot == len(block) - 1:
            rho[it - slot : it + 1] = _spectral_radii(block)
        if it == config.iterations:
            break
        try:
            _check_gap(s)
        except DegenerateSingularValueError as exc:
            diagnostic = exc
            break
        grad = -np.outer(P.T @ U[:, 0], Vt[0])
        if config.reselect_region:
            rows, cols = _top_positions(grad, rows.size)
        L[rows, cols] += descent_step(s[0], grad[rows, cols], config.weight)

    done = it + 1
    if pending := done % len(block):  # the maps since the last full block
        rho[done - pending : done] = _spectral_radii(block[:pending])
    law = LearningLaw(L)
    return OptimizationTrace(sigma=sigma[:done], rho=rho[:done], law=law, diagnostic=diagnostic)
