"""Exception types shared across the library."""


class DivergenceError(RuntimeError):
    """An iteration or series produced a non-finite value."""


class NonPositiveCurvatureError(RuntimeError):
    """CG met a direction of non-positive curvature: the operator is not PD."""


class SingularHessianError(NonPositiveCurvatureError):
    """An implicit method tried to invert a singular lower-level Hessian."""


class CapabilityError(ValueError):
    """A problem lacks the optional oracle surface an operation requires."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class FieldError(ValueError):
    """A config dataclass rejected the value of one field, named ``field``."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
