"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class IllConditionedCirculantError(RuntimeError):
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


class NonFiniteSamplingError(ArithmeticError):
    """Zero-order-hold sampling overflowed: the sampled plant is not finite."""

    def __init__(self, period):
        self.period = period
        super().__init__(f"zero-order-hold sampling at period {period:.6g} s is not finite")


class NonFiniteGainError(ArithmeticError):
    """A gain sweep overflowed: (I - phi B)^T (I - phi B) is not finite at this gain."""

    def __init__(self, gain):
        self.gain = gain
        super().__init__(f"gain sweep overflows at phi = {gain:.6g}: sigma_max^2 is not finite")


class DegenerateSingularValueError(RuntimeError):
    """Requested singular value is (numerically) repeated; its derivative is undefined."""

    def __init__(self, index, gap, scale):
        self.index = index
        self.gap = gap
        self.scale = scale
        super().__init__(
            f"singular value {index} is degenerate: gap {gap:.3e} "
            f"below tolerance relative to sigma_1 = {scale:.3e}"
        )


class RankDeficientPlantError(ValueError):
    """Plant matrix is numerically rank deficient; a law that inverts it is undefined."""


class DivergedRunError(ArithmeticError):
    """A learning run's error stopped being finite.

    iteration: the first iteration whose error is not finite.
    result: the run's record of the iterations before it, all finite.
    """

    def __init__(self, iteration, result):
        self.iteration = iteration
        self.result = result
        super().__init__(f"learning run diverged: error is not finite at iteration {iteration}")
