"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Operands have incompatible shapes or a required input is empty."""


class ParameterError(ValueError):
    """A scalar argument lies outside its allowed range."""


class LabelError(ValueError):
    """A class label is out of range or malformed."""


class DegenerateNormError(ValueError):
    """A vector that must have nonzero length is numerically zero."""


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration."""


class CsvFormatError(ValueError):
    """A dataset file cannot be parsed.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrainingDivergenceError(RuntimeError):
    """Training produced a non-finite or exploding loss.

    ``epoch`` is the 0-based epoch index at which divergence was detected.
    """

    def __init__(self, message: str, epoch: int):
        super().__init__(f"epoch {epoch}: {message}")
        self.epoch = epoch

    def __reduce__(self):
        # pickle the constructor's arguments, not the formatted text in args:
        # a sweep worker sends its failure to the parent by pickle
        return type(self), (str(self).removeprefix(f"epoch {self.epoch}: "), self.epoch)
