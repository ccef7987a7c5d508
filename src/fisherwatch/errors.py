"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` used by the CLI to
emit one-line reason codes on stderr. Every error survives ``pickle``
with its type, message and attributes, so a scan worker process can hand
it back to the process that started it.
"""


class FisherwatchError(Exception):
    code = "error"


class ShapeError(FisherwatchError):
    """Input arrays have incompatible or unusable dimensions."""

    code = "shape-error"


class DataError(FisherwatchError):
    """Input contains non-finite or otherwise unusable values."""

    code = "data-error"


class ConfigError(FisherwatchError):
    """Detection parameters violate their constraints."""

    code = "config-error"


class DegenerateChannelError(DataError):
    """A channel has zero sample variance inside a segment."""

    code = "degenerate-channel"

    def __init__(self, row: int, context: str = ""):
        # args holds what __init__ takes, so pickle rebuilds the error
        super().__init__(row, context)
        self.row, self.context = row, context

    def __str__(self):
        where = f" ({self.context})" if self.context else ""
        return f"channel {self.row} has zero sample variance{where}"


class SingularCovarianceError(FisherwatchError):
    """The second (denominator) sample covariance is not positive definite.

    Usually means its block is too small. The message names the setting
    to increase: d2 for a scan window, D for a screen boundary, or the
    denominator sample size of a ``validate-null`` draw.
    """

    code = "singular-covariance"


class RecordTooShortError(ShapeError):
    """The record cannot accommodate the requested segmentation."""

    code = "record-too-short"


class ScenarioError(ConfigError):
    """A simulation scenario is internally inconsistent."""

    code = "scenario-error"
