"""Steepest-descent reduction of the largest singular value of I - P L.

Selected entries of the deleted inverse circulant gain matrix are adjusted
along the analytic sensitivity of sigma_1, regularized by a weight factor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSingularValueError
from .laws import LearningLaw, error_propagation
from .lifted import DeletedModel

__all__ = [
    "GainRegion",
    "OptimizerConfig",
    "OptimizationTrace",
    "SensitivityMap",
    "sensitivity_matrix",
    "sensitivity_map",
    "descent_step",
    "optimize",
]

_GAP_RTOL = 1e-9          # singular value gap below this (relative to sigma_1) is degenerate
_FLAG_FACTOR = 10.0       # column flagged when its peak sensitivity exceeds median by this


@dataclass(frozen=True)
class GainRegion:
    """Set of (row, column) gain positions eligible for adjustment."""

    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=int)
        cols = np.asarray(self.cols, dtype=int)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be parallel 1-D index arrays")
        if rows.size == 0:
            raise ValueError("region must contain at least one position")
        if np.min(rows) < 0 or np.min(cols) < 0:
            raise ValueError("region indices must be nonnegative")
        if len({(int(i), int(j)) for i, j in zip(rows, cols)}) != rows.size:
            raise ValueError("region contains duplicate positions")
        rows.flags.writeable = False
        cols.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def from_pairs(cls, pairs) -> "GainRegion":
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        return cls(np.array(rows, dtype=int), np.array(cols, dtype=int))

    @classmethod
    def corner_blocks(cls, shape, size: int = 5) -> "GainRegion":
        """Union of the upper-left and upper-right size-by-size corners."""
        nrows, ncols = shape
        size = min(size, nrows, ncols)
        col_set = sorted(set(range(size)) | set(range(ncols - size, ncols)))
        pairs = [(i, j) for i in range(size) for j in col_set]
        return cls.from_pairs(pairs)

    def validate_shape(self, shape):
        nrows, ncols = shape
        if np.max(self.rows) >= nrows or np.max(self.cols) >= ncols:
            raise ValueError(f"region exceeds gain matrix shape {shape}")

    def __len__(self):
        return self.rows.size


@dataclass(frozen=True)
class OptimizerConfig:
    """Descent settings: weight factor, iteration count, adjusted region.

    region defaults to the 5x5 corner blocks of the gain matrix. A fixed
    region bounds how far sigma_1 can fall: once the dominant singular
    vectors of I - P L peak outside it, no choice of its gains lowers sigma_1
    further (the fifth-order benchmark's corner blocks bottom out at
    sigma_1 = 6.50). reselect_region keeps the region's size but re-picks,
    every iteration, the positions with the largest |sensitivity|.
    """

    iterations: int
    weight: float = 0.1
    region: GainRegion | None = None  # None: corner blocks of the gain matrix
    reselect_region: bool = False

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight factor must be positive")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class OptimizationTrace:
    """Per-iteration largest singular value and spectral radius, plus the result.

    sigma/rho include the starting point, so a clean run has iterations + 1
    entries. diagnostic holds the error when the run stopped early on a
    degenerate sigma_1, and the traces are truncated at the stop.
    """

    sigma: np.ndarray
    rho: np.ndarray
    gain: np.ndarray
    law: LearningLaw
    diagnostic: DegenerateSingularValueError | None = None


@dataclass(frozen=True)
class SensitivityMap:
    """Full sensitivity surface of sigma_1 with per-column peak scores."""

    matrix: np.ndarray
    column_scores: np.ndarray
    flagged_columns: np.ndarray


def _check_gap(s: np.ndarray):
    # a square matrix's last singular value mirrors to -s[0]: its kink at zero
    lower = s[1] if s.size > 1 else -s[0]
    gap, scale = float(s[0] - lower), float(s[0])
    if gap <= _GAP_RTOL * scale:
        raise DegenerateSingularValueError(0, gap, scale)


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


def sensitivity_map(deleted: DeletedModel, gain: np.ndarray | None = None) -> SensitivityMap:
    """Full sigma_1 sensitivity surface for the (default inverse-circulant) gain.

    Columns whose peak absolute sensitivity exceeds the median tenfold are
    flagged; for the benchmark plants these concentrate at the matrix edges.
    """
    if gain is None:
        gain = deleted.circulant_inverse
    matrix = sensitivity_matrix(deleted.toeplitz, gain)
    scores = np.max(np.abs(matrix), axis=0)
    flagged = np.where(scores > _FLAG_FACTOR * np.median(scores))[0]
    return SensitivityMap(matrix=matrix, column_scores=scores, flagged_columns=flagged)


def descent_step(sigma: float, sensitivities: np.ndarray, weight: float) -> np.ndarray:
    """Regularized steepest-descent update -[S S^T + rI]^-1 S sigma.

    S S^T is rank one, so the inverse acts on S as division by (S^T S + r);
    the dense solve is bypassed but reproduced to machine precision.
    """
    if weight <= 0:
        raise ValueError("weight factor must be positive")
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


def optimize(deleted: DeletedModel, config: OptimizerConfig) -> OptimizationTrace:
    """Iteratively adjust region gains of the deleted inverse circulant.

    Starts from the inverse circulant, re-evaluates the sensitivity direction
    from fresh singular vectors every iteration, and keeps the adjusted region
    fixed unless reselect_region asks for a per-iteration re-pick of the same
    number of positions with the largest |sensitivity|. A fixed region sets a
    floor on sigma_1: when the dominant singular vectors peak outside it the
    descent stalls above one, and it can settle into a period-two zigzag
    (the fifth-order corner blocks alternate near sigma_1 = 6.92).
    """
    P = deleted.toeplitz
    L = deleted.circulant_inverse.copy()
    region = config.region or GainRegion.corner_blocks(L.shape)
    region.validate_shape(L.shape)
    rows, cols = region.rows, region.cols

    sigma = np.empty(config.iterations + 1)
    rho = np.empty(config.iterations + 1)
    diagnostic = None
    done = 0
    for it in range(config.iterations + 1):
        E = error_propagation(P, L)
        U, s, Vt = np.linalg.svd(E)
        sigma[it] = s[0]
        rho[it] = np.max(np.abs(np.linalg.eigvals(E)))
        done = it + 1
        if it == config.iterations:
            break
        try:
            _check_gap(s)
        except DegenerateSingularValueError as exc:
            diagnostic = exc
            break
        grad = -np.outer(P.T @ U[:, 0], Vt[0])
        if config.reselect_region:
            rows, cols = _top_positions(grad, len(region))
        L[rows, cols] += descent_step(s[0], grad[rows, cols], config.weight)

    law = LearningLaw(
        L,
        "optimized_inverse_circulant",
        deleted.q,
        params={"weight": config.weight, "iterations": config.iterations},
    )
    return OptimizationTrace(
        sigma=sigma[:done], rho=rho[:done], gain=law.gain, law=law, diagnostic=diagnostic
    )
