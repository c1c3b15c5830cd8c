"""Exception types shared across the package."""


class MelformerError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MelformerError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(MelformerError):
    """Non-finite values appeared where finite ones are required."""


class ContractError(MelformerError):
    """An API precondition was violated by the caller."""


class FormatError(MelformerError):
    """A file does not conform to its declared format."""


class ValidationError(MelformerError):
    """Input data failed semantic validation."""


class TrainingDiverged(MelformerError):
    """Training hit a non-finite loss, gradient norm or value; the model
    holds its best state again, saved to the checkpoint the message names."""
