"""Exception types shared across the pipeline."""


def _rebuild(cls, args, state):
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(state)
    return exc


class EdysecError(Exception):
    def __reduce__(self):  # a subclass's own __init__ need not accept its message back
        return _rebuild, (type(self), self.args, self.__dict__)


class BadOption(EdysecError):
    """A setting outside its valid range."""


# dataset
class MissingColumn(EdysecError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"missing column: {column}")


class BadNumeric(EdysecError):
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"bad numeric value {value!r} in column {column} at row {row}")


class BadText(EdysecError):
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"text cell in column {column} at row {row} must be a string, got {value!r}")


class ShortRow(EdysecError):
    def __init__(self, row, cells, expected):
        self.row = row
        super().__init__(f"row {row} has {cells} cells, the header has {expected}")


class BadLabel(EdysecError):
    def __init__(self, row, value):
        self.row = row
        self.value = value
        super().__init__(f"label must be 0 or 1, got {value!r} at row {row}")


class DuplicateId(EdysecError):
    def __init__(self, package_id):
        self.package_id = package_id
        super().__init__(f"duplicate package id: {package_id}")


class BadRatios(EdysecError):
    pass


class UnreadableInput(EdysecError):
    """A manifest or dataset file that cannot be read, or is not a valid one."""


class UnwritableOutput(EdysecError):
    """An output file or directory that cannot be written."""


# preprocess
class WrongKind(EdysecError):
    pass


class UnknownColumn(EdysecError):
    pass


class RowMismatch(EdysecError):
    pass


class NoFeatureColumn(EdysecError):
    """Training rows whose features give the processed matrix no column."""


# feature selection
class BadK(EdysecError):
    pass


class EmptyResult(EdysecError):
    pass


class LayoutMismatch(EdysecError):
    pass


class UnknownFeature(EdysecError):
    pass


class BadFeatureList(EdysecError):
    pass


# neural net
class WidthMismatch(EdysecError):
    pass


class ShapeMismatch(EdysecError):
    pass


class StateMissing(EdysecError):
    pass


# metrics
class LengthMismatch(EdysecError):
    pass


class SingleClass(EdysecError):
    pass


# stability
class TooFewScores(EdysecError):
    pass


# explain
class TooManyFeatures(EdysecError):
    pass


class TooFewFeatures(EdysecError):
    pass


class SingularSystem(EdysecError):
    pass


class FeatureMismatch(EdysecError):
    pass


# artifact / service
class VersionMismatch(EdysecError):
    pass


class CorruptArtifact(EdysecError):
    pass


class UnreadableArtifact(EdysecError):
    pass


class MissingFeature(EdysecError):
    def __init__(self, column):
        self.column = column
        super().__init__(f"record is missing feature: {column}")


class BadRecord(EdysecError):
    pass


class NoBackground(EdysecError):
    pass


class NonFiniteInput(EdysecError):
    pass


class NonFiniteScore(EdysecError):
    pass


# workers
class WorkerDied(EdysecError):
    pass
