"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphConsumedError(RuntimeError):
    """backward() was called on a graph that has already been consumed."""


class DegenerateBatchError(ValueError):
    """Batch statistics requested on a batch too small to provide them."""


class NormalizationError(ValueError):
    """A probability-vector argument does not sum to one."""


class ModeError(ValueError):
    """Invalid combination of selection mode and arguments."""


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending field."""


class DataFormatError(ValueError):
    """A dataset file does not match its declared binary format."""


class MagicNumberError(DataFormatError):
    """File magic number does not identify the expected format."""


class TruncatedFileError(DataFormatError):
    """File ended before the declared payload was complete."""


class CountMismatchError(DataFormatError):
    """Image and label files disagree on the number of records."""


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointMagicError(CheckpointError):
    """Checkpoint file does not start with the expected magic string."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ended mid-record."""


class CheckpointChecksumError(CheckpointError):
    """Checkpoint payload does not match its checksum."""


class CheckpointContentError(CheckpointError):
    """Checksum-valid checkpoint whose metadata or record names are invalid."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or natural accuracy and was aborted."""

    def __init__(self, epoch: int, batch: int, value: float, what: str = "loss"):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        super().__init__(
            f"non-finite {what} {value!r} at epoch {epoch}, batch {batch}; aborting"
        )


class NonFiniteError(RuntimeError):
    """A non-finite logit, adversarial input or attack objective aborted the run."""

    def __init__(self, attack: str, batch: int):
        self.attack = attack
        self.batch = batch
        super().__init__(f"non-finite value under attack {attack!r}, batch {batch}; aborting")
