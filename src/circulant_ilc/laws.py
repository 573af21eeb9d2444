"""Learning gain matrix constructions and the error propagation map I - P L."""

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientPlantError, check_integer, check_real, frozen, readonly
from .lifted import DeletedModel


@dataclass(frozen=True)
class LearningLaw:
    """A gain matrix mapping an error history to an input-history update.

    For deletion count q the gain is N x (N-q): it consumes the error at the
    surviving steps and updates the full input history, so q is read from its
    shape. The gain is held as an errors.readonly array: a DeletedModel's is shared.
    """

    gain: np.ndarray

    def __post_init__(self):
        gain = readonly(self.gain, "gain")
        if gain.ndim != 2 or gain.shape[0] < gain.shape[1]:
            raise ValueError(f"gain must be an N x (N-q) matrix with q >= 0, got shape {gain.shape}")
        object.__setattr__(self, "gain", gain)

    @property
    def q(self):
        return self.gain.shape[0] - self.gain.shape[1]


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
    return LearningLaw(deleted.circulant_inverse)


def scaled_inverse_circulant_law(deleted: DeletedModel, overall_gain: float) -> LearningLaw:
    """Deleted inverse circulant scaled by a single overall gain."""
    check_real(overall_gain, "overall_gain")
    return LearningLaw(frozen(overall_gain * deleted.circulant_inverse))


def accelerated_law(deleted: DeletedModel, power: int) -> LearningLaw:
    """Gain whose propagation matrix is the `power`-th power of the base one.

    Built from the geometric sum L = Pc_inv S_p, S_p = sum_{k<p} E^k with
    E = I - P Pc_inv, which equals P^-1 [I - E^p] without forming the
    catastrophically ill-conditioned P^-1. S_p is summed by binary doubling,
    S_2m = S_m + E^m S_m and S_2m+1 = I + E S_2m, in O(log p) products; the
    last power of E, which no step reads, is not formed. Each sum is written
    into its product's buffer: elementwise addition commutes, so every bit stays.
    """
    check_integer(power, "power", least=1)
    C = deleted.circulant_inverse
    E = error_propagation(deleted.toeplitz, C)
    eye = np.eye(E.shape[0])
    total, E_m = eye, E  # S_m and E^m for m = 1
    bits = bin(power)[3:]  # the bits after the leading one
    for i, bit in enumerate(bits):
        total = np.add(prod := E_m @ total, total, out=prod) if i else eye + E  # S_2 takes no product
        if bit == "1":
            total = np.add(prod := E @ total, eye, out=prod)
        if i + 1 < len(bits):
            E_m = E_m @ E_m if bit == "0" else E @ (E_m @ E_m)
    return LearningLaw(frozen(C @ total))


def partial_isometry_law(p_matrix: np.ndarray) -> LearningLaw:
    """V U^T from the thin SVD of the (possibly row-deleted) plant matrix."""
    U, s, Vt = np.linalg.svd(p_matrix, full_matrices=False)
    if s[-1] <= p_matrix.shape[0] * np.finfo(float).eps * s[0]:
        raise RankDeficientPlantError("plant matrix is rank deficient; partial isometry undefined")
    return LearningLaw(frozen(Vt.T @ U.T))


def contraction_mapping_law(p_matrix: np.ndarray, gain: float = 1.0) -> LearningLaw:
    """Scaled transpose of the plant matrix."""
    check_real(gain, "gain")
    return LearningLaw(frozen(gain * p_matrix.T))


def quadratic_cost_law(p_matrix: np.ndarray, weight: float = 1.0) -> LearningLaw:
    """(P^T P + w I)^-1 P^T, the minimizer of ||e||^2 + w ||du||^2 per step."""
    check_real(weight, "weight", above=0)
    cols = p_matrix.shape[1]
    # P^T P + w I in place: x + 0.0 is what adding w * 0.0 does off the diagonal
    # (-0.0 becomes +0.0), and (x + 0.0) + w equals x + w on it
    system = p_matrix.T @ p_matrix
    system += 0.0
    system.flat[:: cols + 1] += weight
    return LearningLaw(frozen(np.linalg.solve(system, p_matrix.T)))


def error_propagation(p_matrix: np.ndarray, law, out=None) -> np.ndarray:
    """I - P L, the map from one run's error history to the next; written into
    `out`, a square float64 array, where one is given."""
    gain = law.gain if isinstance(law, LearningLaw) else np.asarray(law)
    rows, cols = p_matrix.shape
    if gain.shape != (cols, rows):
        raise ValueError(
            f"gain shape {gain.shape} incompatible with plant matrix {p_matrix.shape}"
        )
    return identity_minus(np.matmul(p_matrix, gain, out=out))


def identity_minus(x: np.ndarray) -> np.ndarray:
    """I - x for a square x, written over x: 0.0 - x everywhere, then + 1.0 on
    the diagonal. That is np.eye(n) - x bit for bit: 0.0 - 0.0 is +0.0 where
    np.negative gives -0.0, and (0.0 - x) + 1.0 rounds as 1.0 - x does."""
    np.subtract(0.0, x, out=x)
    x.flat[:: x.shape[0] + 1] += 1.0
    return x
