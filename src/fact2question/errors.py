"""Exception types shared across the toolkit."""


class Fact2QuestionError(Exception):
    """Base class for all toolkit errors."""


class ContractError(Fact2QuestionError):
    """A caller violated an operation's contract."""


class DimensionError(Fact2QuestionError):
    """Operand shapes are incompatible."""


class NumericError(Fact2QuestionError):
    """A computation produced non-finite values."""


class ParseError(Fact2QuestionError):
    """An input file could not be parsed."""


class UnknownIdError(Fact2QuestionError):
    """An entity, relationship, or token id is not known to the model."""


class NoSubjectSpanError(Fact2QuestionError):
    """No span of the question matched the subject string above threshold."""


class UnseenRelationshipError(Fact2QuestionError):
    """The template index has no questions for this relationship."""


class TrainingDivergedError(Fact2QuestionError):
    """Loss or gradients became non-finite during training."""

    def __init__(self, message, checkpoint=None, log_lines=None, best_score=-float("inf")):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.log_lines = log_lines or []
        self.best_score = best_score  # the kept checkpoint's; -inf if unscored
