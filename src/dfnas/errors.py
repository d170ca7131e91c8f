"""Exception taxonomy shared across the package."""

from contextlib import contextmanager
from pathlib import Path


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


def raise_problems(found: list[tuple[str, str]]) -> None:
    """Raise one ConfigurationError naming every (field, complaint) pair, if any."""
    if found:
        raise ConfigurationError("; ".join(f"{name} {why}" for name, why in found))


def read_input_text(path, error: type[DfnasError]) -> str:
    """The UTF-8 text of a file the user named; raises `error` naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise error(f"{path}: cannot read: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text (byte {err.start})") from err


@contextmanager
def writing(path):
    """Turn an OSError while writing a path the user named into a ConfigurationError."""
    try:
        yield
    except OSError as err:
        raise ConfigurationError(f"{path}: cannot write: {err.strerror or err}") from err
