"""Spectral analysis of error propagation matrices and overall-gain sweeps."""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonFiniteGainError, NumericalDegeneracyError
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
    """Full singular and eigenvalue spectra, sorted by descending magnitude.

    A map E that is symmetric up to rounding, as I - P L is for the
    contraction-mapping, quadratic-cost and partial-isometry laws, takes one
    symmetric eigensolve instead of a dense SVD and a nonsymmetric one. E
    differs from its symmetric part S = (E + E^T) / 2 by the skew part K. By
    Weyl's inequality every singular value of E is within ||K||_2 of the
    matching one of S, and by Bauer-Fike (S is normal) every eigenvalue is
    too; for a symmetric S the singular values are the |eigenvalues|. So
    where ||K||_F <= n eps ||E||_F, no larger than the normwise backward
    error the nonsymmetric QR algorithm already commits (Golub & Van Loan,
    Matrix Computations, 7.5.6 and 8.1), the sorted |eigvalsh(S)| is
    returned as both spectra, and the spectral radius equals sigma_max.
    Other maps, and any whose Frobenius norm overflows, take the dense SVD
    and eigenvalues. A map with a NaN or infinite entry has no spectrum:
    NumericalDegeneracyError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("error propagation matrix must be square")
    if not np.isfinite(matrix).all():
        raise NumericalDegeneracyError("error propagation matrix has a non-finite entry")
    skew = 0.5 * (matrix - matrix.T)
    # chained: also False for a norm that overflows
    if np.linalg.norm(skew) <= matrix.shape[0] * _EPS * np.linalg.norm(matrix) < np.inf:
        eigen = _sorted_magnitudes(np.linalg.eigvalsh(0.5 * (matrix + matrix.T)))
        singular = eigen.copy()
    else:
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
# sigma_max^2 is certified when theta (1 + _SIGMA_MARGIN) I - A^T A has a
# Cholesky factor, theta being a Rayleigh quotient from a Krylov space of at
# most _KRYLOV_STEPS steps.
_SIGMA_MARGIN = 1e-13
_KRYLOV_STEPS = 8
# A^T A is taken from the Gram pair where (1 + |phi| ||B||_2)^2 is at most
# this multiple of theta (see gain_sweep).
_PAIR_GROWTH = 4.0
_EPS = np.finfo(float).eps
_nrm2 = scipy.linalg.blas.dnrm2  # scaled: no overflow where w @ w would
_dstev = scipy.linalg.lapack.dstev


def _eigen_condition(base):
    """Eigenvalues of `base` and their condition numbers ||x|| ||y|| / |y^H x|
    (inf where that is not a finite number).

    LAPACK's dgeev returns the eigenvectors real: a conjugate pair j, j + 1
    stores x = vr[:, j] + i vr[:, j + 1] and its conjugate, which share one
    condition number, so no complex copy of either eigenvector array is made.
    """
    lapack = scipy.linalg.lapack
    work, _ = lapack.dgeev_lwork(base.shape[0], compute_vl=1, compute_vr=1)
    wr, wi, left, right, info = lapack.dgeev(np.asarray_chkfinite(base), lwork=int(work))
    if info != 0:
        raise NumericalDegeneracyError("eig algorithm (geev) did not converge in the gain sweep")
    cond = np.empty(wr.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in np.flatnonzero(wi >= 0):  # a real eigenvalue or the first of a pair
            pair = int(wi[j] > 0)
            y, x = left[:, j], right[:, j]
            if pair:
                y, x = y + 1j * left[:, j + 1], x + 1j * right[:, j + 1]
            cond[j : j + 1 + pair] = np.linalg.norm(y) * np.linalg.norm(x) / abs(np.vdot(y, x))
    return wr + 1j * wi, np.where(np.isnan(cond), np.inf, cond)


def _orthogonalize(w, Q):
    """Remove from w, in place, its part in the span of the orthonormal rows
    of Q, twice ("twice is enough": Parlett, The Symmetric Eigenvalue
    Problem, on Gram-Schmidt); return the norm of what is left."""
    for _ in range(2):
        w -= Q.T @ (Q @ w)
    return _nrm2(w)


def _top_ritz_vector(G, start):
    """Top Ritz vector of the symmetric G from a Lanczos basis of at most
    min(_KRYLOV_STEPS, n) vectors grown from `start`.

    The basis stops at the first step k whose Ritz residual estimate
    beta_k |y_k| (y the top eigenvector of the tridiagonal) is at most
    sqrt(eps) times the top Ritz value: the Ritz value then errs by about the
    residual squared over the gap to the next eigenvalue (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13), about eps times the top
    eigenvalue wherever that gap is of its order. (At sqrt(_SIGMA_MARGIN)
    that error would be the size of the Cholesky margin itself, and the
    certificate would fail at gains with a narrower gap.)

    A Krylov space that becomes invariant to round-off, as the span of an
    exact eigenvector does, goes on from a fixed pseudo-random vector with
    zero coupling, so it can still reach the top eigenvector. That vector can
    itself lie in the span (it may be the warm start), so further seeds are
    tried until one keeps more than n eps of its norm outside it: for a
    finite G and start every basis vector, and so the Ritz vector, is finite
    and nonzero, and it can be the next gain's warm start. The zero
    residual says nothing of the rest of the spectrum, so from then on only
    the step limit ends the basis.
    """
    n = G.shape[0]
    steps = min(_KRYLOV_STEPS, n)
    tol = np.sqrt(_EPS)
    Q = np.empty((steps, n))  # basis vectors as rows
    alpha, beta = np.empty(steps), np.zeros(steps)
    Q[0] = start / _nrm2(start)
    invariant = False
    for k in range(steps):
        w = G @ Q[k]
        alpha[k] = Q[k] @ w
        if k + 1 < steps:
            scale = _nrm2(w)
            norm = _orthogonalize(w, Q[: k + 1])
            if norm > n * _EPS * scale:
                beta[k] = norm
            else:
                invariant = True
                seed = k
                while not norm > n * _EPS * scale:
                    w = np.random.default_rng(seed).standard_normal(n)
                    scale, seed = _nrm2(w), seed + steps
                    norm = _orthogonalize(w, Q[: k + 1])
        ritz, y, _ = _dstev(alpha[: k + 1], beta[: max(k, 1)])  # dstev takes len(e) >= 1
        if k + 1 == steps or not invariant and beta[k] * abs(y[k, -1]) <= tol * ritz[-1]:
            return y[:, -1] @ Q[: k + 1]
        Q[k + 1] = w / norm


def _top_rayleigh(G, x):
    """Rayleigh quotient of the symmetric G at its top Ritz vector grown from
    x, and that vector."""
    x = _top_ritz_vector(G, x)
    return (x @ (G @ x)) / (x @ x), x


def _certified(G, theta, work):
    """Whether theta (1 + _SIGMA_MARGIN) I - G has a Cholesky factor, which
    bounds the top eigenvalue of the symmetric G by theta (1 + _SIGMA_MARGIN)
    up to a backward error of order n eps theta. `work` is overwritten.

    OpenBLAS factors a matrix of NaNs without complaint: a non-finite theta
    is never certified.
    """
    np.negative(G, out=work)
    work.reshape(-1)[:: work.shape[0] + 1] += theta * (1.0 + _SIGMA_MARGIN)
    # work is symmetric, so its transpose is the same matrix in Fortran order
    _, info = scipy.linalg.lapack.dpotrf(work.T, overwrite_a=True, clean=False)
    return info == 0 and np.isfinite(theta)


def _closed_form_radius(lam_abs, bound):
    """max(lam_abs) when every eigenvalue that can set it has an error bound
    within _RHO_BOUND_RTOL of it; else None."""
    rho = lam_abs.max()
    candidates = lam_abs + bound >= rho - bound.max()
    if rho > 0 and bound[candidates].max() <= _RHO_BOUND_RTOL * rho:
        return rho
    return None


def gain_sweep(deleted: DeletedModel, gains) -> GainSweep:
    """Largest singular value and spectral radius of A = I - phi B, with
    B = P_q Pc_inv_q, over a grid of overall gains phi. At phi = 0, A = I
    and both are 1 exactly.

    B is factored once: eig(A) = 1 - phi eig(B). The closed form gives the
    spectral radius wherever the first-order eigenvalue bound
    kappa_i eps (1 + |phi| ||B||_2) (Golub & Van Loan, Matrix Computations,
    7.2.2) certifies it; elsewhere the dense eigenvalues of A are computed.

    sigma_max is the square root of the top eigenvalue lambda of G = A^T A.
    G = I - phi S + phi^2 H is built in O(n^2) from the Gram pair H = B^T B,
    S = B + B^T, formed once per sweep. Its rounding error is of order
    n eps (1 + |phi| ||B||_2)^2 rather than the n eps ||A||_2^2 = n eps lambda
    of a formed A^T A (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). So the pair is used only where
    (1 + |phi| ||B||_2)^2 <= 4 theta (_PAIR_GROWTH): as theta <= lambda, its
    error is then at most four times the one a formed A^T A carries anyway.
    Where cancellation in A makes lambda smaller, A and A^T A are formed.
    ||B||_2 is sqrt(theta_H (1 + m)), an upper bound certified on H as below.
    A gain whose phi^2 or (1 + |phi| ||B||_2)^2 overflows raises
    NonFiniteGainError.

    A Krylov space of G grown from the previous nonzero gain's top vector
    (ones at the first), stopped once its Ritz residual is small, gives a Ritz
    vector x, and its Rayleigh quotient theta = x^T G x / x^T x is at most
    lambda (a raw Ritz value need not be once the basis loses
    orthogonality). If theta (1 + m) I - G, m = _SIGMA_MARGIN, has a Cholesky
    factor, it is positive definite up to a backward error of order n eps
    times its norm, which is at most theta (1 + m) (Higham, ch. 10): so
    lambda < theta (1 + m + c n eps), and sqrt(theta) has a relative error of
    about m / 2. Where the factorization fails, the dense eigenvalues of G
    are computed.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size == 0:
        raise ValueError("gain grid must be nonempty")
    base = deleted.toeplitz @ deleted.circulant_inverse
    n = base.shape[0]
    eye = np.eye(n)
    mu, cond = _eigen_condition(base)
    scale = _EPS * cond
    H, S = base.T @ base, base + base.T
    G, work = np.empty((n, n)), np.empty((n, n))
    theta, _ = _top_rayleigh(H, np.ones(n))
    if not _certified(H, theta, work):
        theta = np.linalg.eigvalsh(H)[-1]
    norm = float(np.sqrt(theta * (1.0 + _SIGMA_MARGIN)))
    sigma = np.empty(gains.size)
    rho = np.empty(gains.size)
    x = np.ones(n)
    for i, phi in enumerate(gains.tolist()):
        if phi == 0.0:  # A = I exactly; x stays the warm start for the next gain
            sigma[i] = rho[i] = 1.0
            continue
        reach = 1.0 + abs(phi) * norm  # Python floats overflow to inf silently
        if not math.isfinite(phi * phi + reach * reach):
            raise NonFiniteGainError(phi)
        np.multiply(H, phi * phi, out=G)
        np.multiply(S, phi, out=work)
        G -= work
        G.reshape(-1)[:: n + 1] += 1.0
        theta, x = _top_rayleigh(G, x)
        if reach * reach > _PAIR_GROWTH * theta:
            A = eye - phi * base
            np.matmul(A.T, A, out=G)
            theta, x = _top_rayleigh(G, x)
        if not _certified(G, theta, work):
            theta = np.linalg.eigvalsh(G)[-1]
        sigma[i] = np.sqrt(max(theta, 0.0))
        radius = _closed_form_radius(np.abs(1.0 - phi * mu), scale * reach)
        if radius is None:
            radius = np.max(np.abs(np.linalg.eigvals(eye - phi * base)))
        rho[i] = radius
    return GainSweep(gains=gains, sigma_max=sigma, spectral_radius=rho)
