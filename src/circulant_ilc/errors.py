"""Exception types shared across the package, and its one check of a count."""

from numbers import Integral


def check_integer(value, name):
    """Raise ValueError naming `name` unless `value` is a Python or numpy
    integer; a bool or a float, even a whole one, is not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericalDegeneracyError(Exception):
    """The design chain broke down numerically; the CLI exits 3 on any of these.

    Each subclass keeps a builtin second parent (RuntimeError, ArithmeticError
    or ValueError), so an except clause written for that builtin still matches.
    result: the record a learning run made before it broke down, else None.
    """

    result = None


class IllConditionedCirculantError(NumericalDegeneracyError, RuntimeError):
    """Circulant matrix is numerically singular at one or more frequencies.

    indices and magnitudes hold every bad frequency; the message names the
    count and the first few.
    """

    SHOWN = 5

    def __init__(self, indices, magnitudes):
        self.indices = list(indices)
        self.magnitudes = list(magnitudes)
        more = ", ..." if len(self.indices) > self.SHOWN else ""
        shown = ", ".join(str(i) for i in self.indices[: self.SHOWN])
        mags = ", ".join(f"{m:.3e}" for m in self.magnitudes[: self.SHOWN])
        super().__init__(
            f"circulant inverse is ill-conditioned at {len(self.indices)} frequency "
            f"indices [{shown}{more}] (eigenvalue magnitudes [{mags}{more}])"
        )


class NonFiniteSamplingError(NumericalDegeneracyError, ArithmeticError):
    """Zero-order-hold sampling overflowed: the sampled plant is not finite."""

    def __init__(self, period):
        self.period = period
        super().__init__(f"zero-order-hold sampling at period {period:.6g} s is not finite")


class NonFiniteGainError(NumericalDegeneracyError, ArithmeticError):
    """A gain sweep overflowed: (I - phi B)^T (I - phi B) is not finite at this gain."""

    def __init__(self, gain):
        self.gain = gain
        super().__init__(f"gain sweep overflows at phi = {gain:.6g}: sigma_max^2 is not finite")


class DegenerateSingularValueError(NumericalDegeneracyError, RuntimeError):
    """sigma_1 is (numerically) repeated; its derivative is undefined."""

    def __init__(self, gap, scale):
        self.gap, self.scale = gap, scale
        super().__init__(f"sigma_1 is degenerate: gap {gap:.3e} below tolerance "
                         f"relative to sigma_1 = {scale:.3e}")


class RankDeficientPlantError(NumericalDegeneracyError, ValueError):
    """Plant matrix is numerically rank deficient; a law that inverts it is undefined."""


class DivergedRunError(NumericalDegeneracyError, ArithmeticError):
    """A learning run's error stopped being finite.

    iteration: the first iteration whose error is not finite.
    result: the run's record of the iterations before it, all finite.
    """

    def __init__(self, iteration, result):
        self.iteration = iteration
        self.result = result
        super().__init__(f"learning run diverged: error is not finite at iteration {iteration}")
