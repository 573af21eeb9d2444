"""Iteration-domain execution of learning laws on the lifted plant."""

from dataclasses import dataclass

import numpy as np

from .errors import DivergedRunError, check_integer, real_array
from .laws import LearningLaw, error_propagation, signed_svd
from .lifted import LiftedModel, step_observability
from .plants import DiscretePlant


def _yd1(t):
    return np.pi * (1.0 - np.cos(np.pi * t / 2.0)) ** 2


def _yd2(t):
    return np.pi * (5.0 * t**3 - 7.5 * t**4 + 3.0 * t**5)


_BENCHMARKS = {"yd1": _yd1, "yd2": _yd2}


class _Samples(np.ndarray):
    """A float64 array that also answers to `.samples`, the name the benchmark's
    reference check (benchmarks/workloads.py) reads; the alias goes with that read."""

    @property
    def samples(self):
        return self


def make_trajectory(label: str, plant: DiscretePlant, horizon: int) -> np.ndarray:
    """One of the benchmark smooth-start trajectories, sampled read-only at
    t = T, 2T, ..., NT on the plant's grid.

    Both start with value and first two derivatives at zero, so the continuous
    inverse needs no impulsive control at t = 0.
    """
    if label not in _BENCHMARKS:
        raise ValueError(f"unknown trajectory {label!r}; pick one of {sorted(_BENCHMARKS)}")
    check_integer(horizon, "horizon", least=1)
    samples = _BENCHMARKS[label](np.arange(1, horizon + 1) * plant.period)
    samples.flags.writeable = False  # and so is every view of it
    return samples.view(_Samples)


@dataclass(frozen=True)
class SimulationResult:
    """Input and error histories across learning iterations.

    inputs[j] is the input history applied at iteration j; errors[j] the error
    at the surviving steps q+1..N; deleted_errors[j] the (diagnostic only)
    error at the deleted steps. rms[j] = ||errors[j]|| / sqrt(N - q).
    """

    inputs: np.ndarray
    errors: np.ndarray
    deleted_errors: np.ndarray
    rms: np.ndarray

    @property
    def iterations(self):
        return self.rms.size - 1


def run_ilc(
    model: LiftedModel,
    law: LearningLaw,
    trajectory: np.ndarray,
    iterations: int,
    initial_input: np.ndarray | None = None,
    initial_state: np.ndarray | None = None,
) -> SimulationResult:
    """Run u <- u + L e for the given number of iterations, tracking the
    length-N desired output `trajectory`.

    The output is always produced over the full horizon; the learning update
    and the RMS record see only the error at steps q+1..N, with q taken from
    the law. Each array given must hold finite numbers only (a ValueError
    names it). A run whose error or RMS stops being finite raises
    DivergedRunError, which carries the record of the iterations before it.
    """
    n = model.horizon
    q = law.q
    desired = real_array(trajectory, "trajectory")
    if desired.shape != (n,):
        raise ValueError(f"trajectory shape {desired.shape} != horizon ({n},)")
    if law.gain.shape[0] != n:
        raise ValueError(f"law shape {law.gain.shape} incompatible with N={n}")
    check_integer(iterations, "iterations", least=0)
    u = np.zeros(n) if initial_input is None else real_array(initial_input, "initial_input")
    if u.shape != (n,):
        raise ValueError(f"initial_input shape {u.shape} != horizon ({n},)")
    bias = 0.0  # the free response of x(0) = 0; adding it rounds as adding zeros does
    if initial_state is not None:
        x0 = real_array(initial_state, "initial_state")
        O = step_observability(model.plant, n)
        if x0.shape != O.shape[1:]:
            raise ValueError(f"initial_state shape {x0.shape} != plant order {O.shape[1:]}")
        bias = O @ x0

    inputs = np.empty((iterations + 1, n))
    errors = np.empty((iterations + 1, n - q))
    deleted_errors = np.empty((iterations + 1, q))
    rms = np.empty(iterations + 1)

    def record(count):
        return SimulationResult(
            inputs=inputs[:count],
            errors=errors[:count],
            deleted_errors=deleted_errors[:count],
            rms=rms[:count],
        )

    # Overflow is detected below as a non-finite error, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(iterations + 1):
            y = model.toeplitz @ u + bias
            full_error = desired - y
            inputs[j] = u
            errors[j] = full_error[q:]
            deleted_errors[j] = full_error[:q]
            rms[j] = np.linalg.norm(errors[j]) / np.sqrt(n - q)
            if not (np.isfinite(rms[j]) and np.isfinite(full_error).all()):
                raise DivergedRunError(j, record(j))
            if j < iterations:
                u = u + law.gain @ errors[j]
    return record(iterations + 1)


def worst_case_experiment(
    model: LiftedModel, law: LearningLaw, iterations: int
) -> SimulationResult:
    """Track the top right-singular vector of I - P L as the desired output.

    With zero initial input the first-run error is exactly that vector, the
    one direction the accelerated non-deleted law cannot learn: the RMS stays
    essentially constant from the first iteration on.
    """
    if law.q != 0:
        raise ValueError("worst-case experiment needs a law on the non-deleted model")
    _, _, Vt = signed_svd(error_propagation(model.toeplitz, law))
    return run_ilc(model, law, Vt[0], iterations)
