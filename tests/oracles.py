"""Dense reference constructions that only the tests use."""

import numpy as np


def dft_matrix(n: int) -> np.ndarray:
    """Forward DFT matrix with entries z0^(-j*k) for z0 = exp(2 pi i / n)."""
    j = np.arange(n)
    z0 = np.exp(2j * np.pi / n)
    return z0 ** (-np.outer(j, j))


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
