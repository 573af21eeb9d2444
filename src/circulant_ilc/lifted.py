"""Lifted finite-horizon matrices: Toeplitz input-output map, circulant wrap,
DFT diagonalization, structured inversion, and initial-step deletion."""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IllConditionedCirculantError, NumericalDegeneracyError, check_integer
from .plants import DiscretePlant, frequency_response, markov_parameters, unstable_zero_count
from .plants import _readonly

# Tolerances fixed by the module contract.
_SINGULAR_RTOL = 1e-12     # circulant eigenvalue magnitude, relative to the largest
_IMAG_RESIDUE_TOL = 1e-10  # allowed imaginary part of the inverse, per unit of its round-off scale


def circulant_matrix(col: np.ndarray) -> np.ndarray:
    """Read-only circulant matrix with first column `col`, entry (i, j) a bitwise copy of
    col[(i - j) mod n]: row i is the window of reversed `col`, wrapped once, from n - 1 - i."""
    r = col[::-1]
    circulant = sliding_window_view(np.concatenate((r, r[:-1])), col.size)[::-1].copy()
    circulant.flags.writeable = False
    return circulant


def toeplitz_matrix(col: np.ndarray) -> np.ndarray:
    """Read-only np.tril of circulant_matrix(col). Of the Markov sequence it is the map
    from input history to output history: row k of its product with u is y(k+1) of the
    state recursion for x(0) = 0, which honors the sampled plant's one-step delay."""
    toeplitz = np.tril(circulant_matrix(col))
    toeplitz.flags.writeable = False
    return toeplitz


def step_observability(plant: DiscretePlant, horizon: int) -> np.ndarray:
    """Stack of C A^k for k = 1 .. horizon, mapping x(0) to the output history."""
    O = np.empty((horizon, plant.order))
    row = plant.C.copy()
    for k in range(horizon):
        row = row @ plant.A
        O[k] = row[0]
    return O


@dataclass(frozen=True)
class LiftedModel:
    """Finite-horizon matrices of a sampled plant: the Toeplitz map, whose first column is the
    Markov sequence, and that column's circulant wrap, rebuilt where it is read. The map must be
    toeplitz_matrix of that column bit for bit (a NaN matches itself, and circulant_inverse
    rejects it); one read-only all the way down (build's) is shared, any other is copied."""

    plant: DiscretePlant
    toeplitz: np.ndarray

    def __post_init__(self):
        toeplitz = _readonly(self.toeplitz)
        # compared bit for bit: numpy's equal_nan would copy both arrays
        if toeplitz.ndim != 2 or not toeplitz.size or not np.array_equal(
            toeplitz.view(np.uint64), toeplitz_matrix(toeplitz[:, 0]).view(np.uint64)
        ):
            raise ValueError("lifted model needs toeplitz, the N x N lower-triangular "
                             f"Toeplitz matrix of its first column, got shape {toeplitz.shape}")
        object.__setattr__(self, "toeplitz", toeplitz)

    @property
    def horizon(self):
        return self.toeplitz.shape[0]

    @property
    def circulant(self):
        """The circulant wrap, entry (i, j) = C A^((i-j) mod N) B, rebuilt read-only."""
        return circulant_matrix(self.toeplitz[:, 0])

    @classmethod
    def build(cls, plant: DiscretePlant, horizon: int) -> "LiftedModel":
        check_integer(horizon, "horizon", least=1)
        return cls(plant=plant, toeplitz=toeplitz_matrix(markov_parameters(plant, horizon)))


@dataclass(frozen=True)
class DeletedModel:
    """Lifted model with the first q time steps removed from the learning objective.

    toeplitz: rows q+1..N of the full Toeplitz map; its shape (N-q, N) gives q.
    circulant_inverse: columns q+1..N of the inverse circulant, shape (N, N-q).

    Both are read-only: toeplitz a view of the model's map, circulant_inverse a view
    of an inverse read-only all the way down (circulant_inverse's), else a copy.
    """

    toeplitz: np.ndarray
    circulant_inverse: np.ndarray

    def __post_init__(self):
        shape, other = np.shape(self.toeplitz), np.shape(self.circulant_inverse)
        if len(shape) != 2 or other != shape[::-1] or shape[0] > shape[1]:
            raise ValueError(
                "deleted model needs toeplitz (N-q, N) and circulant_inverse (N, N-q) "
                f"with q >= 0, got {shape} and {other}"
            )

    @property
    def q(self):
        return self.toeplitz.shape[1] - self.toeplitz.shape[0]


@dataclass(frozen=True)
class DiagonalizationReport:
    """Result of conjugating the circulant by the DFT matrix.

    diagonal: the N complex diagonal entries of H Pc H^-1.
    aligned_error: |diagonal - z * transfer| per frequency z = z0^j, where
        transfer is C (zI - A)^-1 B, the frequency response. The circulant's
        eigenvalues carry the raw Markov sequence, one sample ahead of the
        delayed input-to-output response, hence the z factor.
    tail_norm: spectral norm of A^(N-1), the truncation scale of the match.
    """

    max_offdiag: float
    diagonal: np.ndarray
    aligned_error: np.ndarray
    tail_norm: float

    @property
    def max_aligned_error(self):
        return float(np.max(self.aligned_error))


def dft_verify(model: LiftedModel) -> DiagonalizationReport:
    """Diagonalize the circulant by the DFT and compare with the frequency response."""
    n = model.horizon
    # H Pc H^-1 with H^-1 = H^H / N: a forward DFT down the columns, an inverse one along the rows.
    # Pc is built complex: the FFT would take a complex copy of a real one on top of it.
    PE = np.fft.fft(circulant_matrix(model.toeplitz[:, 0].astype(complex)), axis=0)
    PE = np.fft.ifft(PE, axis=1)
    diagonal = PE.diagonal().copy()
    PE.flat[:: n + 1] -= diagonal  # zeroes the diagonal in place: PE is now the off-diagonal part
    zs = np.exp(2j * np.pi / n) ** np.arange(n)
    transfer = frequency_response(model.plant, zs)
    aligned = np.abs(diagonal - zs * transfer)
    tail = np.linalg.norm(np.linalg.matrix_power(model.plant.A, n - 1), 2)
    return DiagonalizationReport(
        max_offdiag=float(np.max(np.abs(PE))),
        diagonal=diagonal,
        aligned_error=aligned,
        tail_norm=float(tail),
    )


def circulant_inverse(model: LiftedModel) -> np.ndarray:
    """Invert the circulant through its DFT eigenvalues.

    The eigenvalues are the DFT of the first column, the Markov sequence; the inverse
    is circulant_matrix of the inverse DFT of their reciprocals, so it is circulant by
    construction, and read-only, so deleted models and laws can share it.
    """
    eigs = np.fft.fft(model.toeplitz[:, 0])
    mags = np.abs(eigs)
    # fails closed: an all-zero or non-finite sequence marks every frequency bad
    bad = np.where(~(mags > _SINGULAR_RTOL * mags.max()))[0]
    if bad.size:
        raise IllConditionedCirculantError(bad.tolist(), mags[bad].tolist())
    col = np.fft.ifft(1.0 / eigs)
    # round-off leaves an imaginary part that grows with the entries and the condition number
    residue = np.max(np.abs(col.imag))
    if residue > _IMAG_RESIDUE_TOL * np.max(np.abs(col)) * mags.max() / mags.min():
        raise NumericalDegeneracyError(f"imaginary residue {residue:.3e} in circulant inverse")
    return circulant_matrix(col.real)


def delete_initial_steps(
    model: LiftedModel, inverse: np.ndarray, q: int | None = None
) -> DeletedModel:
    """Drop the first q rows of the Toeplitz map and columns of the inverse circulant.

    q defaults to the plant's count of sampling zeros outside the unit circle,
    the directions that make exact inversion of the full map ill-posed.
    """
    if q is None:
        q = unstable_zero_count(model.plant)
    check_integer(q, "q", least=0, below=model.horizon)
    return DeletedModel(toeplitz=model.toeplitz[q:], circulant_inverse=_readonly(inverse[:, q:]))
