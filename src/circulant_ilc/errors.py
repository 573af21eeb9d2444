"""Exception types shared across the package, its checks of a count, of a real number
and of an array of them, and the one way a record holds an array (`readonly`): each
check raises ValueError "<name> <rule>", which the CLI prints as "<name>: <rule>", and
shows a rejected number through `shown`."""

import sys
from numbers import Integral, Real

import numpy as np


def shown(value):
    """repr(value) when its text (a string itself, anything else its repr) has at most
    20 characters, else the first 20 characters of that text and their count."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # an int past Python's 4300-digit limit for int-to-str conversion
        return f"an integer of {value.bit_length()} bits"
    return repr(value) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def check_integer(value, name, least=None, below=None):
    """Raise ValueError naming `name` unless `value` is a Python or numpy integer
    (a bool or a float, even a whole one, is not) of at least `least` and below
    `below`, each if given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")
    if below is not None and value >= below:
        raise ValueError(f"{name} must be below {below}")


def check_real(value, name, above=None):
    """Raise ValueError naming `name` unless `value` is a finite real number (not
    a bool; an int of any size compares exactly, a numpy float of any width as a
    float) above `above`, if given."""
    if isinstance(value, bool) or not (isinstance(value, Real) and _in_float_range(value)):
        raise ValueError(f"{name} must be a finite number, got {shown(value)}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must be positive" if above == 0 else f"{name} must be above {above}")


def real_array(value, name):
    """`value` as a float64 array; raise ValueError naming `name` unless it is an array
    of integers or floats, each finite as a float (bools, even one among numbers in a
    list, strings, complex numbers, Python objects and ragged sequences are not)."""
    rule = f"{name} must be an array of finite numbers"
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's "inhomogeneous shape": a ragged sequence has no array form
        raise ValueError(rule) from None
    # numpy reads a bool among numbers as 0 or 1: search a non-array, whose dtype cannot tell
    if array.dtype.kind in "iuf" and (isinstance(value, np.ndarray) or not any(
            isinstance(x, bool) or getattr(x, "dtype", None) == bool
            for x in np.asarray(value, dtype=object).flat)):
        array = array.astype(float, copy=False)
        if np.isfinite(array).all():
            return array
    raise ValueError(rule)


def readonly(a, name):
    """`a` as a float64 array marked read-only, as every record holds an array: `a` itself
    where neither it nor any array it views is writable, else a read-only copy (order K:
    a Fortran-ordered input stays so). A complex `a` raises ValueError naming `name`: the
    cast would drop its imaginary part with only a warning."""
    if np.iscomplexobj(a):
        raise ValueError(f"{name} must be real, got a complex array")
    view = owner = np.asarray(a, dtype=float)
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    return view if owner is None else frozen(np.array(view))


def frozen(a):
    """Mark `a`, an array that no caller holds, read-only and return it: `readonly`
    then shares it, and so does every view of it."""
    a.flags.writeable = False
    return a


def _in_float_range(value):
    """|value| <= the largest float, an int compared exactly and any other real as a
    Python float: numpy would cast the bound down to a float32's own type, where it is inf."""
    try:
        return abs(value if isinstance(value, Integral) else float(value)) <= sys.float_info.max
    except OverflowError:  # a Fraction too large for a float
        return False


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericalDegeneracyError(Exception):
    """The design chain broke down numerically; the CLI exits 3 on any of these.

    Each subclass keeps a builtin second parent (RuntimeError, ArithmeticError
    or ValueError), so an except clause written for that builtin still matches.
    """


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
