"""Semantic exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A parameter is outside its admissible range."""


class DegenerateSampleError(ValueError):
    """An all-zero sample reached an operation that needs V > 0."""


class NonFiniteSampleError(ValueError):
    """A replication drew, or computed from its draws, a value that is not finite."""


class InternalConsistencyError(RuntimeError):
    """A deterministic identity failed beyond numerical tolerance."""


class OracleMissingError(RuntimeError):
    """A required oracle table has not been built yet."""


class MissingStatisticsError(RuntimeError):
    """Aggregates lack every statistic a decision rule depends on."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""
