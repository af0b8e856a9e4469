"""Exception hierarchy shared across the package.

Each class states the process exit code the CLI returns for it, as
exit_code: usage/configuration problems exit 2, data problems exit 3,
numerical failures exit 4, a worker process that died exits 5, and
running out of memory exits 6.
"""


class RflocError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConfigError(RflocError):
    """Invalid configuration value or incompatible array shapes."""


class UsageError(RflocError):
    """An operation was invoked in an unsupported way."""


class DataError(RflocError):
    """Problem with a dataset or a data file."""

    exit_code = 3


class SchemaError(DataError):
    """A required CSV column is missing."""


class CsvParseError(DataError):
    """A CSV cell could not be parsed as a number."""


class ArtifactError(DataError):
    """Model artifact is missing, truncated, corrupted or has a wrong version."""


class NumericalError(RflocError):
    """A computation produced non-finite values."""

    exit_code = 4


class WorkerError(RflocError):
    """A worker process died before returning its result (for example,
    killed by the operating system)."""

    exit_code = 5


class ResourceError(RflocError):
    """The machine could not meet a request for memory (a MemoryError,
    raised in this process or in a worker process)."""

    exit_code = 6
