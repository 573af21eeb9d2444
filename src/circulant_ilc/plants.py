"""Factored continuous-time plants, zero-order-hold sampling, and pulse-response data.

Plants are products of unity-DC-gain sections: first-order a/(s+a) and
second-order w^2/(s^2 + 2*zeta*w*s + w^2). Everything downstream depends only
on the Markov parameters of the sampled system, which are invariant to the
realization chosen here.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSamplingError, check_integer, check_real


@dataclass(frozen=True)
class ContinuousPlant:
    """Strictly proper plant given as a product of unity-DC-gain sections.

    first_order: pole magnitudes a (rad/s), one section a/(s+a) each.
    second_order: (natural frequency, damping ratio) pairs.
    """

    first_order: tuple = ()
    second_order: tuple = ()

    def __post_init__(self):
        for x in (*self.first_order, *(x for section in self.second_order for x in section)):
            check_real(x, "section parameters a, omega and zeta", above=0)
        fo = tuple(float(a) for a in self.first_order)
        so = tuple((float(w), float(z)) for w, z in self.second_order)
        object.__setattr__(self, "first_order", fo)
        object.__setattr__(self, "second_order", so)
        if not fo and not so:
            raise ValueError("plant needs at least one section")
        if not np.isfinite([x for w, z in so for x in (w * w, 2.0 * z * w)]).all():
            raise ValueError("realization overflows: omega**2 or 2*zeta*omega is not finite")


def _readonly(a):
    """`a` as a float64 array marked read-only: `a` itself where neither
    it nor any array it views is writable, else a read-only copy."""
    view = np.asarray(a, dtype=float)
    owner = view
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None:
        view = np.array(view)  # order K: a Fortran-ordered input stays so
        view.flags.writeable = False
    return view


@dataclass(frozen=True)
class _StateSpace:
    """A state-space triple held as read-only arrays: B a column, C a row."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _readonly(self.A))
        object.__setattr__(self, "B", _readonly(np.reshape(self.B, (-1, 1))))
        object.__setattr__(self, "C", _readonly(np.reshape(self.C, (1, -1))))

    @property
    def order(self):
        return self.A.shape[0]


@dataclass(frozen=True)
class ContinuousStateSpace(_StateSpace):
    """Strictly proper continuous-time realization dx/dt = A x + B u, y = C x.

    Realizations of a ContinuousPlant are always strictly stable; marginal
    systems (an integrator, say) are still representable for direct use.
    """


@dataclass(frozen=True)
class DiscretePlant(_StateSpace):
    """Sampled system x(k+1) = A x(k) + B u(k), y(k) = C x(k), sample period T."""

    period: float

    def __post_init__(self):
        super().__post_init__()
        check_real(self.period, "period", above=0)


def _series(first, second):
    """Cascade two (A, B, C) triples: output of the first drives the second."""
    A1, B1, C1 = first
    A2, B2, C2 = second
    n1, n2 = A1.shape[0], A2.shape[0]
    A = np.block([[A1, np.zeros((n1, n2))], [B2 @ C1, A2]])
    B = np.vstack([B1, np.zeros((n2, 1))])
    C = np.hstack([np.zeros((1, n1)), C2])
    return A, B, C


def realize(plant: ContinuousPlant) -> ContinuousStateSpace:
    """Series cascade of controllable-canonical sections for the factored plant."""
    sections = []
    for a in plant.first_order:
        sections.append((np.array([[-a]]), np.array([[1.0]]), np.array([[a]])))
    for w, z in plant.second_order:
        A = np.array([[0.0, 1.0], [-w * w, -2.0 * z * w]])
        sections.append((A, np.array([[0.0], [1.0]]), np.array([[w * w, 0.0]])))
    sys = sections[0]
    for sec in sections[1:]:
        sys = _series(sys, sec)
    return ContinuousStateSpace(*sys)


def discretize_zoh(css: ContinuousStateSpace, period: float) -> DiscretePlant:
    """Exact zero-order-hold sampling of a continuous realization.

    A = exp(Ac T) and B = (integral of exp(Ac t) dt) Bc come out of one
    exponential of the augmented matrix [[Ac, Bc], [0, 0]]. A pole whose
    imaginary part reaches pi/T aliases onto a slower one: a RuntimeWarning.
    An exponential that overflows raises NonFiniteSamplingError.
    """
    check_real(period, "period", above=0)
    import scipy.linalg  # loaded on first use: importing the package does not load scipy
    n = css.order
    nyquist = np.pi / period
    omega = np.max(np.abs(np.linalg.eigvals(css.A).imag), initial=0.0)
    if omega >= nyquist:
        msg = f"pole at {omega:.6g} rad/s aliases: at or above Nyquist {nyquist:.6g} rad/s"
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = css.A
    M[:n, n:] = css.B
    E = scipy.linalg.expm(M * period)
    if not np.all(np.isfinite(E)):
        raise NonFiniteSamplingError(period)
    return DiscretePlant(E[:n, :n], E[:n, n:], css.C, period)


def markov_parameters(plant: DiscretePlant, count: int) -> np.ndarray:
    """First `count` unit-pulse response samples C A^r B, r = 0 .. count-1."""
    check_integer(count, "count", least=1)
    out = np.empty(count)
    v = plant.B.copy()
    for r in range(count):
        out[r] = (plant.C @ v)[0, 0]
        v = plant.A @ v
    return out


def frequency_response(plant: DiscretePlant, z):
    """Discrete transfer function C (zI - A)^-1 B at the point z, or at every
    point of an array z (one stacked solve; an array of the same shape)."""
    n = plant.order
    points = np.asarray(z, dtype=complex)
    M = points[..., None, None] * np.eye(n) - plant.A
    B = plant.B.astype(complex)
    try:
        w = np.linalg.solve(M, B)
    except np.linalg.LinAlgError:
        for point, Mk in zip(points.flat if points.ndim else [z], M.reshape(-1, n, n)):
            try:
                np.linalg.solve(Mk, B)
            except np.linalg.LinAlgError:
                raise ValueError(f"z = {point} is an eigenvalue of A; response undefined") from None
        raise
    response = (plant.C @ w)[..., 0, 0]
    return complex(response) if points.ndim == 0 else response


def sampling_zeros(plant: DiscretePlant) -> np.ndarray:
    """Transmission zeros of the sampled system.

    Solved as the finite generalized eigenvalues of the system-matrix pencil
    [[A - zI, B], [C, 0]]; avoids the ill-conditioned numerator polynomial.
    """
    import scipy.linalg
    n = plant.order
    M = np.block([[plant.A, plant.B], [plant.C, np.zeros((1, 1))]])
    W = np.zeros((n + 1, n + 1))
    W[:n, :n] = np.eye(n)
    vals = scipy.linalg.eigvals(M, W)
    return vals[np.isfinite(vals)]


def unstable_zero_count(plant: DiscretePlant) -> int:
    """Number of sampling zeros strictly outside the unit circle."""
    return int(np.sum(np.abs(sampling_zeros(plant)) > 1.0))


@dataclass(frozen=True)
class Preset:
    """A plant plus its experiment defaults: a PRESETS entry, or a plant spec file's.

    q None deletes the plant's unstable zero count. reselect_region is the
    descent's region policy: False adjusts the fixed corner blocks, True
    re-picks the most sensitive positions every iteration (see OptimizerConfig).
    """

    plant: ContinuousPlant
    sample_hz: float = 50.0
    horizon: int = 51
    q: int | None = None
    optimizer_iterations: int = 1000
    reselect_region: bool = False


PRESETS = {
    "third_order": Preset(
        ContinuousPlant(first_order=(8.8,), second_order=((37.0, 0.5),)),
        q=1,
    ),
    "fourth_order": Preset(
        ContinuousPlant(second_order=((37.0, 0.5), (74.0, 0.5))),
        q=2,
        optimizer_iterations=10000,
    ),
    "fifth_order": Preset(
        ContinuousPlant(first_order=(8.8,), second_order=((37.0, 0.5), (74.0, 0.5))),
        q=2,
        optimizer_iterations=10000,
        reselect_region=True,  # its corner blocks cannot bring sigma_1 below 6.50
    ),
}
