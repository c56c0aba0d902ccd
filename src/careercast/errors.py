"""Exception types shared across the pipeline."""


class CareerCastError(Exception):
    """Base class for every error this package raises on purpose."""


class SchemaError(CareerCastError):
    """Feature schema is malformed, or a CSV header does not match it."""


class EmptyInputError(CareerCastError):
    """An input file contains no data at all."""


class IngestError(CareerCastError):
    """Season data could not be turned into career sequences."""


class ImputationError(IngestError):
    """A gap could not be filled from the player's career or the peer pool."""


class SplitError(IngestError):
    """Train/test split is impossible for the given inputs."""


class ShapeError(CareerCastError):
    """Array dimensions do not match what an operation requires."""


class ParameterError(CareerCastError):
    """An argument is outside its legal range."""


class ConfigError(CareerCastError):
    """A configuration value is missing, unknown, or inconsistent."""


class NumericError(CareerCastError):
    """A computation produced non-finite values or has no defined result."""


class UndefinedMetricError(NumericError):
    """A metric has no defined value for this input (e.g. zero variance)."""


class ArtifactError(CareerCastError):
    """A persisted artifact is missing, malformed, or from a different run."""
