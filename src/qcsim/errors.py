"""Exception types shared across the toolkit."""


class QcsimError(Exception):
    """Base class for all toolkit errors."""


class GateParameterError(QcsimError):
    """A gate was given the wrong number of parameters (angle)."""


class NoMatrixError(QcsimError):
    """Requested the unitary of an operation that has none (measurement)."""


class QasmParseError(QcsimError):
    """QASM source could not be parsed.

    Carries the 1-based source line number of the offending statement.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGateError(QasmParseError):
    """QASM statement uses a gate outside the supported subset."""


class CapacityError(QcsimError):
    """A requested simulation exceeds the configured resource budget.

    ``required_bytes`` names the memory the request would need.
    """

    def __init__(self, message: str, required_bytes: int | None = None):
        self.required_bytes = required_bytes
        super().__init__(message)


class UnsupportedOpError(QcsimError):
    """Operation not handled by this backend (e.g. mid-circuit measurement)."""


class MetricUndefinedError(QcsimError):
    """A topology metric is undefined for this circuit (e.g. no 2q gates)."""


class StructuralError(QcsimError):
    """Tensor network or contraction plan is internally inconsistent."""


class ConfigError(QcsimError, ValueError):
    """Invalid input or run configuration (qubit indices, bitstrings,
    precisions, worker and slice counts, ...).  It is also a ``ValueError``,
    so callers that catch that keep working."""
