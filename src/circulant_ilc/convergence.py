"""Spectral analysis of error propagation matrices and overall-gain sweeps."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lifted import DeletedModel

__all__ = ["ConvergenceReport", "GainSweep", "analyze", "gain_sweep"]


@dataclass(frozen=True)
class ConvergenceReport:
    """Spectrum of an error propagation matrix.

    converges: spectral radius below one (errors vanish asymptotically).
    monotonic: largest singular value below one (Euclidean error norm shrinks
    every run, for every initial error).
    """

    singular_values: np.ndarray
    eigenvalue_magnitudes: np.ndarray
    spectral_radius: float
    converges: bool
    monotonic: bool

    @property
    def sigma_max(self):
        return float(self.singular_values[0])


def _sorted_magnitudes(values):
    mags = np.abs(values)
    order = np.argsort(-mags, kind="stable")  # ties keep original index order
    return mags[order]


def analyze(matrix: np.ndarray) -> ConvergenceReport:
    """Full singular and eigenvalue spectra, sorted by descending magnitude."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("error propagation matrix must be square")
    singular = np.linalg.svd(matrix, compute_uv=False)
    eigen = _sorted_magnitudes(np.linalg.eigvals(matrix))
    rho = float(eigen[0]) if eigen.size else 0.0
    return ConvergenceReport(
        singular_values=singular,
        eigenvalue_magnitudes=eigen,
        spectral_radius=rho,
        converges=bool(rho < 1.0),
        monotonic=bool(singular[0] < 1.0) if singular.size else True,
    )


@dataclass(frozen=True)
class GainSweep:
    """Per-gain largest singular value and spectral radius of I - phi P Pc_inv."""

    gains: np.ndarray
    sigma_max: np.ndarray
    spectral_radius: np.ndarray

    @property
    def best_index(self):
        return int(np.argmin(self.sigma_max))

    @property
    def best_gain(self):
        return float(self.gains[self.best_index])


# A closed-form spectral radius is accepted when the first-order error bound
# of every eigenvalue that can set it is below this fraction of the radius.
_RHO_BOUND_RTOL = 1e-12


def _eigen_condition(base):
    """Eigenvalues of `base` and their condition numbers ||x|| ||y|| / |y^H x|
    (inf where that is not a finite number)."""
    mu, left, right = scipy.linalg.eig(base, left=True, right=True)
    # Column by column, so no temporary as large as the eigenvector arrays.
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.array([
            np.linalg.norm(y) * np.linalg.norm(x) / abs(np.vdot(y, x))
            for y, x in zip(left.T, right.T)
        ])
    return mu, np.where(np.isnan(cond), np.inf, cond)


def _spectral_radius(A, lam_abs, bound):
    """max(lam_abs) when every eigenvalue that can set it has an error bound
    within _RHO_BOUND_RTOL of it; else the dense spectral radius of A."""
    rho = lam_abs.max()
    candidates = lam_abs + bound >= rho - bound.max()
    if rho > 0 and bound[candidates].max() <= _RHO_BOUND_RTOL * rho:
        return rho
    return np.max(np.abs(np.linalg.eigvals(A)))


def gain_sweep(deleted: DeletedModel, gains) -> GainSweep:
    """Largest singular value and spectral radius of A = I - phi B, with
    B = P_q Pc_inv_q, over a grid of overall gains phi.

    B is factored once: eig(A) = 1 - phi eig(B). The closed form gives the
    spectral radius wherever the first-order eigenvalue bound
    kappa_i eps (1 + |phi| ||B||_2) (Golub & Van Loan, Matrix Computations,
    7.2.2) certifies it; elsewhere the dense eigenvalues of A are computed.
    sigma_max is the square root of the top eigenvalue of A^T A.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("gain grid must be nonempty")
    base = deleted.toeplitz @ deleted.circulant_inverse
    eye = np.eye(base.shape[0])
    mu, cond = _eigen_condition(base)
    scale = np.finfo(float).eps * cond
    norm = np.linalg.norm(base, 2)
    sigma = np.empty(gains.size)
    rho = np.empty(gains.size)
    for i, phi in enumerate(gains):
        A = eye - phi * base
        sigma[i] = np.sqrt(max(np.linalg.eigvalsh(A.T @ A)[-1], 0.0))
        rho[i] = _spectral_radius(A, np.abs(1.0 - phi * mu), scale * (1.0 + abs(phi) * norm))
    return GainSweep(gains=gains, sigma_max=sigma, spectral_radius=rho)
