"""Exception hierarchy shared by every module in the package."""


class GarlandError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GarlandError, ValueError):
    """An input violates a documented precondition."""


class DimensionMismatchError(ValidationError):
    """Two operands live in incompatible dimensions."""


class InputFormatError(ValidationError):
    """A data file or dict is malformed; the message names the offending field."""


class GroupEnumerationError(GarlandError, RuntimeError):
    """Group closure did not stabilize within the element cap."""


class CriterionInapplicableError(GarlandError):
    """The vanishing criterion's hypotheses cannot hold for this input."""


class FeitHigmanExcludedError(CriterionInapplicableError):
    """A generalized polygon of the requested gonality and thickness cannot exist."""
