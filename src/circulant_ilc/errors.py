"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries the offending field name."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class IllConditionedCirculantError(RuntimeError):
    """Circulant matrix is numerically singular at one or more frequencies."""

    def __init__(self, indices, magnitudes):
        self.indices = list(indices)
        self.magnitudes = list(magnitudes)
        super().__init__(
            "circulant inverse is ill-conditioned at frequency indices "
            f"{self.indices} (eigenvalue magnitudes {self.magnitudes})"
        )


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
