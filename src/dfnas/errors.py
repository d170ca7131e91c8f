"""Exception taxonomy shared across the package."""


class DfnasError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(DfnasError):
    """Tensor operand shapes do not line up."""


class ConfigurationError(DfnasError):
    """A configuration value or combination of values is invalid."""


class DataError(DfnasError):
    """Dataset contents violate a precondition (bad label, empty shard, ...)."""


class NumericalError(DfnasError):
    """A computation produced NaN or Inf."""


class UsageError(DfnasError):
    """An API was called in an unsupported way."""


class SerializationError(DfnasError):
    """A parameter blob does not match the expected layout or version."""


class FormatError(DfnasError):
    """An on-disk file is malformed."""


class InvariantError(DfnasError):
    """An internal invariant was violated (e.g. an edge with no candidates left)."""


def raise_problems(found: list[tuple[str, str]]) -> None:
    """Raise one ConfigurationError naming every (field, complaint) pair, if any."""
    if found:
        raise ConfigurationError("; ".join(f"{name} {why}" for name, why in found))
