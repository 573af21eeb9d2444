"""Spectral analysis of error propagation matrices and overall-gain sweeps."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteGainError, NumericalDegeneracyError, real_array
from .laws import identity_minus
from .lifted import DeletedModel


@dataclass(frozen=True)
class ConvergenceReport:
    """Spectra of an error propagation matrix, each by descending magnitude.

    converges: spectral radius below one (errors vanish asymptotically).
    monotonic: largest singular value below one (Euclidean error norm shrinks
    every run, for every initial error).
    """

    singular_values: np.ndarray
    eigenvalue_magnitudes: np.ndarray

    @property
    def sigma_max(self):
        return float(self.singular_values[0])

    @property
    def spectral_radius(self):
        return float(self.eigenvalue_magnitudes[0])

    @property
    def converges(self):
        return self.spectral_radius < 1.0

    @property
    def monotonic(self):
        return self.sigma_max < 1.0


def _sorted_magnitudes(values):
    return -np.sort(-np.abs(values))


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
    A nonsymmetric map of n > 16 rows that is a multiple of I plus low rank
    up to rounding, as I - P L is for the inverse-circulant laws at long
    horizons (the inverse leaves only a transient: see gain_sweep), takes a
    16 x 16 SVD and eigensolve instead. With c the median of E's diagonal,
    _low_rank_core gives E - c I = Z M Z^T + R, Z of 2 _CORE_WIDTH = 16
    orthonormal columns, and a bound delta >= ||R||_2 that includes the
    rounding of forming E - c I and R. F = c I + Z M Z^T is c I + M on Z and
    c I on Z's complement, so both spectra of F are those of c I + M with |c|
    repeated n - 16 times. Where delta <= n eps ||E||_F, the backward error
    above, they are returned: exact for a matrix within delta of E. (The
    shift brings in the scaled law, whose E is (1 - gain) I plus low rank.)
    Other maps, and any whose Frobenius norm overflows, take the dense SVD
    and eigenvalues. A map with a NaN or infinite entry has no spectrum:
    NumericalDegeneracyError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise ValueError("error propagation matrix must be square and nonempty")
    if not np.isfinite(matrix).all():
        raise NumericalDegeneracyError("error propagation matrix has a non-finite entry")
    n = matrix.shape[0]
    bound = n * _EPS * np.linalg.norm(matrix)  # the backward error of the dense solvers
    half = np.subtract(matrix, matrix.T)
    half *= 0.5  # the skew part K
    # chained: also False for a norm that overflows
    if np.linalg.norm(half) <= bound < np.inf:
        np.add(matrix, matrix.T, out=half)
        half *= 0.5  # the symmetric part S, in K's buffer
        eigen = _sorted_magnitudes(np.linalg.eigvalsh(half))
        singular = eigen.copy()
    elif (low := _shifted_core_spectra(matrix, half, bound)) is not None:
        singular, eigen = low
    else:
        singular = np.linalg.svd(matrix, compute_uv=False)
        eigen = _sorted_magnitudes(np.linalg.eigvals(matrix))
    return ConvergenceReport(singular_values=singular, eigenvalue_magnitudes=eigen)


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
# The low-rank core of I - B, or of E - c I in analyze (_low_rank_core):
# _CORE_STEPS passes of block subspace iteration from a fixed block of
# _CORE_WIDTH columns.
_CORE_WIDTH = 8
_CORE_STEPS = 2
_EPS = np.finfo(float).eps


def _eigen_condition(base):
    """Eigenvalues of `base` and their condition numbers ||x|| ||y|| / |y^H x|
    (inf where that is not a finite number).

    LAPACK's dgeev returns the eigenvectors real: a conjugate pair j, j + 1
    stores x = vr[:, j] + i vr[:, j + 1] and its conjugate, which share one
    condition number, so no complex copy of either eigenvector array is made.
    """
    import scipy.linalg  # loaded on first use: importing the package does not load scipy
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


def _top_rayleigh(G, start):
    """Rayleigh quotient theta = x^T G x / x^T x of the symmetric G at its top
    Ritz vector x from a Lanczos basis of at most min(_KRYLOV_STEPS, n)
    vectors grown from `start`; return (theta, x).

    Each new vector is orthogonalized against the basis twice ("twice is
    enough": Parlett, The Symmetric Eigenvalue Problem, on Gram-Schmidt). The
    basis stops at the first step k whose Ritz residual estimate
    beta_k |y_k| (y the top eigenvector of the tridiagonal) is at most
    sqrt(eps) times the top Ritz value: the Ritz value then errs by about the
    residual squared over the gap to the next eigenvalue (Parlett, ch. 13),
    about eps times the top eigenvalue wherever that gap is of its order. (At
    sqrt(_SIGMA_MARGIN) that error would be the size of the Cholesky margin
    itself, and the certificate would fail at gains with a narrower gap.)

    It also stops once it turns invariant, the next vector keeping at most
    n eps of its norm: it then holds an exact eigenvector, not always the top
    one. So a warm start that stays an eigenvector as phi moves (a normal B)
    gives a low theta once the top eigenvector changes, and the certificate's
    dense fallback decides that gain. x is finite and nonzero for a finite G
    and start, and can be the next gain's warm start.
    """
    import scipy.linalg
    nrm2 = scipy.linalg.blas.dnrm2  # scaled: no overflow where w @ w would
    dstev = scipy.linalg.lapack.dstev
    n = G.shape[0]
    steps = min(_KRYLOV_STEPS, n)
    Q = np.empty((steps, n))  # basis vectors as rows
    alpha, beta = np.empty(steps), np.zeros(steps)
    Q[0] = start / nrm2(start)
    for k in range(steps):
        w = G @ Q[k]
        alpha[k] = Q[k] @ w
        last = k + 1 == steps
        if not last:
            scale = nrm2(w)
            for _ in range(2):
                w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
            beta[k] = nrm2(w)
            last = not beta[k] > n * _EPS * scale  # invariant
        ritz, y, _ = dstev(alpha[: k + 1], beta[: max(k, 1)])  # dstev takes len(e) >= 1
        if last or beta[k] * abs(y[k, -1]) <= np.sqrt(_EPS) * ritz[-1]:
            break
        Q[k + 1] = w / beta[k]
    x = y[:, -1] @ Q[: k + 1]
    return (x @ (G @ x)) / (x @ x), x


def _certified(G, theta, work):
    """theta where theta (1 + _SIGMA_MARGIN) I - G has a Cholesky factor,
    which bounds the top eigenvalue of the symmetric G by theta
    (1 + _SIGMA_MARGIN) up to a backward error of order n eps theta; else the
    top eigenvalue from the dense eigvalsh(G). `work` is overwritten.

    OpenBLAS factors a matrix of NaNs without complaint: a non-finite theta
    is never certified.
    """
    import scipy.linalg
    np.negative(G, out=work)
    work.reshape(-1)[:: work.shape[0] + 1] += theta * (1.0 + _SIGMA_MARGIN)
    # work is symmetric, so its transpose is the same matrix in Fortran order
    _, info = scipy.linalg.lapack.dpotrf(work.T, overwrite_a=True, clean=False)
    if info == 0 and np.isfinite(theta):
        return theta
    return np.linalg.eigvalsh(G)[-1]


def _start_block(n, width):
    """A fixed n x width block with entries in [-1/2, 1/2), rows of a lattice
    rule: integer arithmetic and one division, so every run, platform and
    numpy version forms the same bits."""
    i, j = np.arange(n)[:, None], np.arange(width)[None, :]
    return (i * (2 * j + 3) * 7919 + j * 104729) % 65521 / 65521 - 0.5


def _low_rank_core(E, work):
    """(M, ||M||_F, delta) with M = Z^T E Z and delta >= ||E - Z M Z^T||_2,
    where Z has 2 _CORE_WIDTH orthonormal columns spanning the approximate
    column and row spaces of E (Halko, Martinsson & Tropp, SIAM Rev. 2011: a
    range finder, then _CORE_STEPS passes of block subspace iteration).
    `work` is overwritten with the residual R = E - Z M Z^T.

    delta is ||R||_F, computed, plus what that computation leaves out:
    - the rounding of forming R. Each of the two products with inner length
      k = 2 _CORE_WIDTH errs by at most gamma_k ||Z||_F ||M||_F (1 + eta) in
      Frobenius norm, gamma_k = k u / (1 - k u), u = eps / 2 (Higham, ch. 3),
      and the subtraction by u ||R||_F;
    - Z's departure from orthonormality, eta = ||Z^T Z - I||_F: Z is within
      eta of an orthonormal Q (its polar factor), and
      ||Z M Z^T - Q M Q^T||_2 <= eta (2 + eta) ||M||_F;
    - the rounding of the diagonal of E = I - B (or of E = A - c I in
      analyze) where it was formed, at most u max |E_ii|.
    eta is itself computed, so these terms hold to first order in eps, as
    the Cholesky certificate's do (_certified).
    """
    P = _start_block(E.shape[0], _CORE_WIDTH)
    for _ in range(_CORE_STEPS):
        Q = np.linalg.qr(E @ P)[0]  # column space
        P = np.linalg.qr(E.T @ Q)[0]  # row space
    Z = np.linalg.qr(np.hstack((Q, P)))[0]
    M = Z.T @ (E @ Z)
    np.matmul(Z @ M, Z.T, out=work)
    np.subtract(E, work, out=work)
    k, u = Z.shape[1], _EPS / 2
    eta = np.linalg.norm(Z.T @ Z - np.eye(k))
    gamma = k * u / (1 - k * u)
    rounding = eta * (2 + eta) + 2 * gamma * np.linalg.norm(Z) * (1 + eta)
    size = float(np.linalg.norm(M))
    delta = (1 + _EPS) * (np.linalg.norm(work) + u * np.abs(E.diagonal()).max())
    return M, size, float(delta + rounding * size)


def _shifted_core_spectra(matrix, work, bound):
    """Both spectra of c I + Z M Z^T, sorted as analyze returns them, with c
    the median of the diagonal and Z M Z^T the low-rank core of `matrix` - c I;
    None unless n > 2 _CORE_WIDTH and the core's residual bound is at most
    `bound` < inf (see analyze). `work` is overwritten with `matrix` - c I."""
    n = matrix.shape[0]
    if not (2 * _CORE_WIDTH < n and bound < np.inf):
        return None
    shift = float(np.median(matrix.diagonal()))
    np.copyto(work, matrix)
    np.fill_diagonal(work, matrix.diagonal() - shift)
    M, _, delta = _low_rank_core(work, np.empty_like(work))
    if not delta <= bound:
        return None
    M[np.diag_indices(M.shape[0])] += shift  # c I + M
    rest = np.full(n - M.shape[0], abs(shift))  # c on Z's complement
    spectra = (np.linalg.svd(M, compute_uv=False), np.linalg.eigvals(M))
    return tuple(_sorted_magnitudes(np.concatenate((values, rest))) for values in spectra)


def _core_sigma(core, phi):
    """sigma_max(I - phi B) from the core (M, ||M||_F, delta) of E = I - B,
    or None where delta does not certify it (see gain_sweep)."""
    M, size, delta = core
    if abs(phi) * delta > 0.5 * _SIGMA_MARGIN * (abs(1.0 - phi) + abs(phi) * size):
        return None  # not even the bound |1 - phi| + |phi| ||M||_F on sigma certifies
    small = phi * M
    small.reshape(-1)[:: small.shape[0] + 1] += 1.0 - phi
    top = max(abs(1.0 - phi), float(np.linalg.svd(small, compute_uv=False)[0]))
    if abs(phi) * delta <= 0.5 * _SIGMA_MARGIN * top:
        return top
    return None


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

    sigma_max is first taken from a low-rank core of E = I - B, formed once
    per sweep. The inverse circulant leaves only a transient: E is a map of
    rank n_x (the plant order) plus a tail that falls as A^N, so at long
    horizons E = Z M Z^T + R, with Z of 2 _CORE_WIDTH orthonormal columns,
    M = Z^T E Z and ||R||_2 <= delta at rounding level (_low_rank_core).
    A = (1 - phi) I + phi E acts as (1 - phi) I on Z's complement and as
    (1 - phi) I + phi M on Z, so with
    sigma_core = max(|1 - phi|, sigma_max((1 - phi) I + phi M)), Weyl's
    inequality gives |sigma_max - sigma_core| <= |phi| delta. sigma_core is
    taken where |phi| delta <= (m / 2) sigma_core, m = _SIGMA_MARGIN: the
    relative error the Cholesky certificate below states. (The small SVD's
    own backward error, of order 2 _CORE_WIDTH eps, is below a tenth of
    that.) delta alone decides, gain by gain; where 2 _CORE_WIDTH >= n Z
    would leave no complement, and there is no core.

    At every other gain, sigma_max is the square root of the top eigenvalue
    lambda of G = A^T A. G = I - phi S + phi^2 H is built in O(n^2) from the
    Gram pair H = B^T B, S = B + B^T; H is formed once per sweep, S at the
    first gain the core does not certify. Its rounding error is of order
    n eps (1 + |phi| ||B||_2)^2 rather than the n eps ||A||_2^2 = n eps lambda
    of a formed A^T A (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3). So the pair is used only where
    (1 + |phi| ||B||_2)^2 <= 4 theta (_PAIR_GROWTH): as theta <= lambda, its
    error is then at most four times the one a formed A^T A carries anyway.
    Where cancellation in A makes lambda smaller, A and A^T A are formed.
    ||B||_2 is sqrt(theta_H (1 + m)), an upper bound certified on H as below.
    A gain whose phi^2 + (1 + |phi| ||B||_2)^2 overflows raises
    NonFiniteGainError.

    A Krylov space of G grown from the top vector of the previous gain on
    this path (ones at the first), stopped once its Ritz residual is small
    or it turns invariant (_top_rayleigh), gives a Ritz vector x, and its
    Rayleigh quotient theta = x^T G x / x^T x is at most lambda (a raw Ritz
    value need not be once the basis loses orthogonality). If
    theta (1 + m) I - G, m = _SIGMA_MARGIN, has a Cholesky factor, it is
    positive definite up to a backward error of order n eps times its norm,
    which is at most theta (1 + m) (Higham, ch. 10): so
    lambda < theta (1 + m + c n eps), and sqrt(theta) has a relative error
    of about m / 2. Where the factorization fails, the dense eigenvalues of
    G are computed (_certified).
    """
    gains = real_array(gains, "gain grid")
    if gains.ndim != 1:
        raise ValueError("gain grid must be one-dimensional")
    if gains.size == 0:
        raise ValueError("gain grid must be nonempty")
    base = deleted.toeplitz @ deleted.circulant_inverse
    n = base.shape[0]
    mu, cond = _eigen_condition(base)
    scale = _EPS * cond
    H, S = base.T @ base, None
    G, work = np.empty((n, n)), np.empty((n, n))
    theta, _ = _top_rayleigh(H, np.ones(n))
    theta = _certified(H, theta, work)
    norm = float(np.sqrt(theta * (1.0 + _SIGMA_MARGIN)))
    core = None
    if 2 * _CORE_WIDTH < n:  # else Z would leave no complement
        np.copyto(G, base)
        core = _low_rank_core(identity_minus(G), work)  # E = I - B, in G
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
        top = _core_sigma(core, phi) if core is not None else None
        if top is None:
            if S is None:  # S = B + B^T; base + base.T would buffer the transpose
                S = base.T.copy()
                S += base
            np.multiply(H, phi * phi, out=G)
            np.multiply(S, phi, out=work)
            G -= work
            G.reshape(-1)[:: n + 1] += 1.0
            theta, x = _top_rayleigh(G, x)
            if reach * reach > _PAIR_GROWTH * theta:
                A = identity_minus(np.multiply(base, phi, out=work))
                np.matmul(A.T, A, out=G)
                theta, x = _top_rayleigh(G, x)
            top = np.sqrt(max(_certified(G, theta, work), 0.0))
        sigma[i] = top
        radius = _closed_form_radius(np.abs(1.0 - phi * mu), scale * reach)
        if radius is None:
            A = identity_minus(np.multiply(base, phi, out=work))  # _certified overwrote work
            radius = np.max(np.abs(np.linalg.eigvals(A)))
        rho[i] = radius
    return GainSweep(gains=gains, sigma_max=sigma, spectral_radius=rho)
