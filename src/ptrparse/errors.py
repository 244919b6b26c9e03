"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, NumericError -> 3.
"""


class PtrParseError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PtrParseError, ValueError):
    """Invalid configuration value or flag combination."""


class DataError(PtrParseError, ValueError):
    """Malformed input data."""


class ParseError(DataError):
    """Malformed treebank or embedding file.

    Carries the offending line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TreeError(DataError):
    """Structurally invalid dependency or discourse tree."""


class SegmentationError(DataError):
    """EDU boundaries that do not tile the token sequence."""


class LoadError(DataError):
    """Checkpoint or resource that cannot be loaded."""


class EncodingError(DataError):
    """Text file that is not valid UTF-8; names the file and the byte offset."""

    def __init__(self, path, offset):
        super().__init__(f"{path}: byte {offset} is not valid UTF-8")
        self.path = path
        self.offset = offset


class NumericError(PtrParseError, RuntimeError):
    """Non-finite values where finite numbers are required."""


class TrainingError(NumericError):
    """Training diverged; carries the step at which it happened."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class ShapeError(PtrParseError, ValueError):
    """Tensor operands with incompatible shapes."""


class MaskError(PtrParseError, ValueError):
    """Attention mask that excludes every candidate."""
