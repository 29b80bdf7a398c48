"""Exception hierarchy shared across the package."""


class ImputeQError(Exception):
    """Base class for all errors raised by this package."""


class DataIoError(ImputeQError):
    """A data file could not be read or written."""


class ParseError(ImputeQError):
    """A non-empty CSV cell could not be parsed as the column's type."""

    def __init__(self, row: int, col: str, cell: str):
        self.row = row
        self.col = col
        self.cell = cell
        super().__init__(f"cannot parse cell {cell!r} at row {row}, column {col!r}")


class RaggedRows(ImputeQError):
    """A CSV row has a different number of fields than the header."""


class DegenerateInput(ImputeQError):
    """An operation received input it is mathematically undefined for."""


class InvalidFoldCount(ImputeQError):
    """Requested k is outside [2, n_rows]."""


class InvalidArgument(ImputeQError):
    """An argument is outside its documented domain."""


class UntrainableImputer(ImputeQError):
    """The imputer cannot be fitted (e.g. no observed target values)."""


class ImputerTrainingError(ImputeQError):
    """An estimator failed while fitting a multivariate imputer."""


class SchemaError(InvalidArgument):
    """A config value is malformed: `path` names its field, or its key in
    the config file ("imputers[2].params")."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _require(cond, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


class SchemaMismatch(ImputeQError):
    """A table is incompatible with the pipeline it is applied to."""


class VersionMismatch(ImputeQError):
    """A serialized artifact has an unsupported schema version."""


class CorruptModel(ImputeQError):
    """A serialized pipeline is missing fields or malformed."""


class ImputeQWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class ConstantTargetWarning(ImputeQWarning):
    """A scorer received a constant ground-truth vector."""


class SmallSampleWarning(ImputeQWarning):
    """A statistical test ran on fewer samples than its approximation likes."""
