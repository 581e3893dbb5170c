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


class CountMismatchError(DataFormatError):
    """Images and labels disagree on the number of samples."""


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


class NonFiniteError(RuntimeError):
    """A pass produced a non-finite value, and the run was aborted unscored.

    ``what`` names the pass: ``"'natural' logits"``, ``"'pgd2' attack"``
    (its adversarial input or final objective), ``"loss"`` or an exported
    activation. ``epoch`` is ``None`` outside training.
    """

    def __init__(self, what: str, batch: int, epoch: int | None = None):
        self.what = what
        self.batch = batch
        self.epoch = epoch
        where = f"batch {batch}" if epoch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"non-finite {what} at {where}; aborting")
