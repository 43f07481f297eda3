"""Exception types shared across the package.

Every package error derives from ``MemdaError`` and carries the exit code
the command line returns for it (see ``memda.cli.main``):

    2  ConfigurationError, DataFormatError   bad settings or input files
    3  NumericalError                        non-finite value while training
    4  DegenerateInputError                  e.g. a zero-norm cosine feature
    5  GatingError                           an operation ran before its gate
"""


class MemdaError(Exception):
    """Base class of every error the package raises on purpose."""

    exit_code = 1
    label = "error"  # prefix of the command line's one-line message


class ConfigurationError(MemdaError, ValueError):
    """Bad configuration: invalid hyperparameter, shape mismatch, unknown key."""

    exit_code = 2


class DataFormatError(MemdaError, ValueError):
    """A data file failed to parse; message carries the line number."""

    exit_code = 2


class NumericalError(MemdaError, RuntimeError):
    """Non-finite value encountered where a finite one is required."""

    exit_code = 3
    label = "numerical failure"


class DegenerateInputError(MemdaError, ValueError):
    """An input is degenerate for the requested operation (e.g. zero-norm
    feature handed to cosine similarity)."""

    exit_code = 4
    label = "degenerate input"


class GatingError(MemdaError, RuntimeError):
    """An operation ran before its gate opened (e.g. consistency loss on a
    bank with fewer entries than k)."""

    exit_code = 5
    label = "gating violation"
