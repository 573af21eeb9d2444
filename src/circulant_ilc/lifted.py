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


def _circulant(col: np.ndarray) -> np.ndarray:
    """Circulant matrix with first column `col`, entry (i, j) = col[(i - j) mod n],
    each a bitwise copy; np.tril of it is the lower-triangular Toeplitz matrix.
    Row i is the window of reversed `col`, wrapped once, that starts at n - 1 - i."""
    r = col[::-1]
    return sliding_window_view(np.concatenate((r, r[:-1])), col.size)[::-1].copy()


def toeplitz_matrix(plant: DiscretePlant, horizon: int) -> np.ndarray:
    """Lower-triangular Toeplitz map from input history to output history.

    Row k of the product with u reproduces y(k+1) of the state recursion for
    x(0) = 0, honoring the one-step input-to-output delay of the sampled plant.
    """
    return np.tril(circulant_matrix(plant, horizon))


def step_observability(plant: DiscretePlant, horizon: int) -> np.ndarray:
    """Stack of C A^k for k = 1 .. horizon, mapping x(0) to the output history."""
    O = np.empty((horizon, plant.order))
    row = plant.C.copy()
    for k in range(horizon):
        row = row @ plant.A
        O[k] = row[0]
    return O


def circulant_matrix(plant: DiscretePlant, horizon: int) -> np.ndarray:
    """Circulant wrap of the Markov parameters: entry (i, j) = C A^((i-j) mod N) B."""
    return _circulant(markov_parameters(plant, horizon))


@dataclass(frozen=True)
class LiftedModel:
    """Finite-horizon matrices of a sampled plant over `horizon` steps."""

    plant: DiscretePlant
    horizon: int
    markov: np.ndarray
    toeplitz: np.ndarray
    observability: np.ndarray
    circulant: np.ndarray

    @classmethod
    def build(cls, plant: DiscretePlant, horizon: int) -> "LiftedModel":
        check_integer(horizon, "horizon")
        if horizon < 1:
            raise ValueError("horizon must be at least one step")
        m = markov_parameters(plant, horizon)
        circulant = _circulant(m)
        fields = {
            "markov": m,
            "toeplitz": np.tril(circulant),
            "observability": step_observability(plant, horizon),
            "circulant": circulant,
        }
        for a in fields.values():
            a.flags.writeable = False
        return cls(plant=plant, horizon=horizon, **fields)


@dataclass(frozen=True)
class DeletedModel:
    """Lifted model with the first q time steps removed from the learning objective.

    toeplitz: rows q+1..N of the full Toeplitz map, shape (N-q, N).
    circulant_inverse: columns q+1..N of the inverse circulant, shape (N, N-q).

    Both are read-only: views of the arrays they are cut from where those are
    read-only all the way down, as LiftedModel.build's and circulant_inverse's
    are, and copies otherwise.
    """

    q: int
    toeplitz: np.ndarray
    circulant_inverse: np.ndarray


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
    # H Pc H^-1 with H^-1 = H^H / N: a forward DFT down the columns, an inverse one along the rows
    PE = np.fft.ifft(np.fft.fft(model.circulant, axis=0), axis=1)
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

    The eigenvalues are the DFT of the first column; the inverse is the
    circulant built from the inverse DFT of their reciprocals, so the result
    is circulant by construction. The result is read-only, so deleted models
    and laws can share it.
    """
    eigs = np.fft.fft(model.markov)
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
    inverse = _circulant(col.real)
    inverse.flags.writeable = False
    return inverse


def delete_initial_steps(
    model: LiftedModel, inverse: np.ndarray, q: int | None = None
) -> DeletedModel:
    """Drop the first q rows of the Toeplitz map and columns of the inverse circulant.

    q defaults to the plant's count of sampling zeros outside the unit circle,
    the directions that make exact inversion of the full map ill-posed.
    """
    if q is None:
        q = unstable_zero_count(model.plant)
    check_integer(q, "q")
    n = model.horizon
    if not 0 <= q < n:
        raise ValueError(f"deletion count q = {q} must satisfy 0 <= q < N = {n}")
    return DeletedModel(
        q=q, toeplitz=_readonly(model.toeplitz[q:]), circulant_inverse=_readonly(inverse[:, q:])
    )
