"""Learning gain matrix constructions and the error propagation map I - P L."""

from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficientPlantError
from .lifted import DeletedModel

__all__ = [
    "LearningLaw",
    "signed_svd",
    "inverse_circulant_law",
    "scaled_inverse_circulant_law",
    "accelerated_law",
    "partial_isometry_law",
    "contraction_mapping_law",
    "quadratic_cost_law",
    "error_propagation",
]

KINDS = (
    "inverse_circulant",
    "optimized_inverse_circulant",
    "accelerated",
    "scaled_inverse_circulant",
    "partial_isometry",
    "contraction_mapping",
    "quadratic_cost",
)


@dataclass(frozen=True)
class LearningLaw:
    """A gain matrix mapping an error history to an input-history update.

    For deletion count q the gain is N x (N-q): it consumes the error at the
    surviving steps and updates the full input history.
    """

    gain: np.ndarray
    kind: str
    q: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown law kind {self.kind!r}")
        g = np.array(self.gain, dtype=float)
        g.flags.writeable = False
        object.__setattr__(self, "gain", g)

    @property
    def shape(self):
        return self.gain.shape


def signed_svd(matrix: np.ndarray):
    """SVD with a fixed sign convention.

    The largest-magnitude entry of each left singular vector is made positive
    and the flip is propagated to the matching right vector, so downstream
    vector-based constructions are deterministic across platforms.
    """
    U, s, Vt = np.linalg.svd(matrix)
    k = min(U.shape[1], Vt.shape[0])
    lead = np.argmax(np.abs(U[:, :k]), axis=0)
    sign = np.where(U[lead, np.arange(k)] < 0, -1.0, 1.0)
    U[:, :k] *= sign
    Vt[:k] *= sign[:, None]
    return U, s, Vt


def inverse_circulant_law(deleted: DeletedModel) -> LearningLaw:
    """The deleted inverse circulant itself as the learning gain."""
    return LearningLaw(deleted.circulant_inverse, "inverse_circulant", deleted.q)


def scaled_inverse_circulant_law(deleted: DeletedModel, overall_gain: float) -> LearningLaw:
    """Deleted inverse circulant scaled by a single overall gain."""
    return LearningLaw(
        overall_gain * deleted.circulant_inverse,
        "scaled_inverse_circulant",
        deleted.q,
        params={"phi": float(overall_gain)},
    )


def accelerated_law(deleted: DeletedModel, power: int) -> LearningLaw:
    """Gain whose propagation matrix is the `power`-th power of the base one.

    Built from the geometric sum L = Pc_inv S_p, S_p = sum_{k<p} E^k with
    E = I - P Pc_inv, which equals P^-1 [I - E^p] without forming the
    catastrophically ill-conditioned P^-1. S_p is summed by binary doubling,
    S_2m = S_m + E^m S_m and S_2m+1 = I + E S_2m, in O(log p) products; the
    last power of E, which no step reads, is not formed.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    C = deleted.circulant_inverse
    E = error_propagation(deleted.toeplitz, C)
    eye = np.eye(E.shape[0])
    total, E_m = eye, E  # S_m and E^m for m = 1
    bits = bin(power)[3:]  # the bits after the leading one
    for i, bit in enumerate(bits):
        total = total + E_m @ total if i else eye + E  # S_2 = I + E takes no product
        if bit == "1":
            total = eye + E @ total
        if i + 1 < len(bits):
            E_m = E_m @ E_m if bit == "0" else E @ (E_m @ E_m)
    return LearningLaw(C @ total, "accelerated", deleted.q, params={"power": int(power)})


def partial_isometry_law(p_matrix: np.ndarray) -> LearningLaw:
    """V U^T from the thin SVD of the (possibly row-deleted) plant matrix."""
    rows, cols = p_matrix.shape
    U, s, Vt = np.linalg.svd(p_matrix, full_matrices=False)
    if s[-1] <= rows * np.finfo(float).eps * s[0]:
        raise RankDeficientPlantError("plant matrix is rank deficient; partial isometry undefined")
    return LearningLaw(Vt.T @ U.T, "partial_isometry", cols - rows)


def contraction_mapping_law(p_matrix: np.ndarray, gain: float = 1.0) -> LearningLaw:
    """Scaled transpose of the plant matrix."""
    rows, cols = p_matrix.shape
    return LearningLaw(
        gain * p_matrix.T, "contraction_mapping", cols - rows, params={"gain": float(gain)}
    )


def quadratic_cost_law(p_matrix: np.ndarray, weight: float = 1.0) -> LearningLaw:
    """(P^T P + w I)^-1 P^T, the minimizer of ||e||^2 + w ||du||^2 per step."""
    if weight <= 0:
        raise ValueError("weight must be positive")
    rows, cols = p_matrix.shape
    gain = np.linalg.solve(p_matrix.T @ p_matrix + weight * np.eye(cols), p_matrix.T)
    return LearningLaw(gain, "quadratic_cost", cols - rows, params={"weight": float(weight)})


def error_propagation(p_matrix: np.ndarray, law) -> np.ndarray:
    """I - P L, the map from one run's error history to the next."""
    gain = law.gain if isinstance(law, LearningLaw) else np.asarray(law)
    rows, cols = p_matrix.shape
    if gain.shape != (cols, rows):
        raise ValueError(
            f"gain shape {gain.shape} incompatible with plant matrix {p_matrix.shape}"
        )
    return np.eye(rows) - p_matrix @ gain
