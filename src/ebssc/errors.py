"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Two arrays whose shapes must agree (or chain) do not.

    Carries both shapes so callers and logs can show exactly what clashed.
    """

    def __init__(self, message, shape_a=None, shape_b=None):
        if shape_a is not None or shape_b is not None:
            message = f"{message}: {shape_a} vs {shape_b}"
        super().__init__(message)
        self.shape_a = shape_a
        self.shape_b = shape_b


class ImproperThresholdError(ValueError):
    """An asymmetric threshold pair holds NaN or violates -beta_minus <=
    beta_plus; ``ThresholdPair`` raises it at construction."""


class OracleDivergenceError(RuntimeError):
    """An iterative oracle's objective moved the wrong way beyond tolerance."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed (bad magic, CRC, or truncation)."""


class ConfigError(ValueError):
    """A config file has an unknown key, a bad value, or a syntax error."""


class DataError(ValueError):
    """A dataset file is malformed or inconsistent with its header, or an
    input array holds non-finite values."""
