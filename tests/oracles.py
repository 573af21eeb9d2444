"""Dense reference constructions that only the tests use."""

import numpy as np

from circulant_ilc import optimizer
from circulant_ilc.errors import DegenerateSingularValueError
from circulant_ilc.laws import error_propagation


def dft_matrix(n: int) -> np.ndarray:
    """Forward DFT matrix with entries z0^(-j*k) for z0 = exp(2 pi i / n)."""
    j = np.arange(n)
    z0 = np.exp(2j * np.pi / n)
    return z0 ** (-np.outer(j, j))


def circulant_deviation(matrix: np.ndarray) -> float:
    """Largest spread of any wrapped diagonal; zero for an exact circulant."""
    cols = np.arange(matrix.shape[0])
    diagonals = matrix[(cols[:, None] + cols) % cols.size, cols]  # row d: entries (j + d, j)
    return float(np.max(diagonals.max(axis=1) - diagonals.min(axis=1)))


def plant_transfer(plant, s):
    """The factored transfer function of a ContinuousPlant at complex frequency s."""
    g = 1.0 + 0.0j
    for a in plant.first_order:
        g *= a / (s + a)
    for w, z in plant.second_order:
        g *= w * w / (s * s + 2.0 * z * w * s + w * w)
    return g


def state_space_transfer(css, s):
    """C (sI - A)^-1 B of a ContinuousStateSpace at complex frequency s."""
    n = css.order
    return complex((css.C @ np.linalg.solve(s * np.eye(n) - css.A, css.B))[0, 0])


def accelerated_gain_by_loop(deleted, power):
    """Pc_inv sum_{k<p} E^k, E = I - P Pc_inv, summed term by term: p - 1 products."""
    P, C = deleted.toeplitz, deleted.circulant_inverse
    n = P.shape[0]
    E = np.eye(n) - P @ C
    total = np.eye(n)
    term = np.eye(n)
    for _ in range(power - 1):
        term = term @ E
        total = total + term
    return C @ total


def accelerated_gain_by_doubling(deleted, power):
    """The doubling sum as the accelerated law first wrote it, each sum into a new array."""
    C = deleted.circulant_inverse
    E = np.eye(C.shape[1]) - deleted.toeplitz @ C
    eye = np.eye(E.shape[0])
    total, E_m = eye, E
    bits = bin(power)[3:]
    for i, bit in enumerate(bits):
        total = total + E_m @ total if i else eye + E
        if bit == "1":
            total = eye + E @ total
        if i + 1 < len(bits):
            E_m = E_m @ E_m if bit == "0" else E @ (E_m @ E_m)
    return C @ total


def serial_descent(deleted, config):
    """optimize's loop with one error_propagation, svd and eigvals per iteration:
    (sigma, rho, gain, diagnostic). It looks _check_gap up on the optimizer module
    at each call, so a test's patch of it acts here too."""
    P = deleted.toeplitz
    L = deleted.circulant_inverse.copy()
    rows, cols = optimizer._corner_positions(L.shape, config.region_size)
    sigma, rho, diagnostic = [], [], None
    for it in range(config.iterations + 1):
        E = error_propagation(P, L)
        U, s, Vt = np.linalg.svd(E)
        sigma.append(s[0])
        rho.append(np.max(np.abs(np.linalg.eigvals(E))))
        if it == config.iterations:
            break
        try:
            optimizer._check_gap(s)
        except DegenerateSingularValueError as exc:
            diagnostic = exc
            break
        grad = -np.outer(P.T @ U[:, 0], Vt[0])
        if config.reselect_region:
            rows, cols = optimizer._top_positions(grad, rows.size)
        L[rows, cols] += optimizer.descent_step(s[0], grad[rows, cols], config.weight)
    return np.array(sigma), np.array(rho), L, diagnostic
