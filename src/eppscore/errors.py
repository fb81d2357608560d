"""Exception and warning types shared across the package."""


def first_ids(ids, limit: int = 10) -> str:
    """`ids` for a one-line message: the first `limit`, then ``, ...`` if more."""
    ids = list(ids)
    return ", ".join(ids[:limit]) + (", ..." if len(ids) > limit else "")


class EppError(Exception):
    """Base class for all errors raised by this package."""


class TableParseError(EppError, ValueError):
    """Malformed input table; `line` is the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class PairedSplitsMismatchError(EppError, ValueError):
    """Paired mode requires identical split sets; `models` lists every offender."""

    def __init__(self, dataset_id: str, models: list[str]):
        super().__init__(
            f"dataset {dataset_id!r}: paired mode needs identical split ids "
            f"across models; mismatched models: {first_ids(models)}"
        )
        self.dataset_id = dataset_id
        self.models = list(models)


class UndefinedWinRateError(EppError, ValueError):
    """Win rate requested for a pair with zero recorded matches."""


class UnknownModelError(EppError, ValueError):
    """An input names models that the fitted scores do not hold."""


class SeparationError(EppError, ValueError):
    """Closed-form estimate requested for a pair with 0% or 100% wins."""


class DegenerateVarianceError(EppError, ValueError):
    """Test statistic undefined: zero variance with a nonzero difference."""


class ConstantInputError(EppError, ValueError):
    """Correlation undefined for a constant input vector."""


class ConfigError(EppError, ValueError):
    """Invalid run configuration value or config-file line."""


class FileFormatError(EppError, ValueError):
    """Malformed fit or counts JSON file; the message names the problem."""


class AnalysisWarning(UserWarning):
    """Non-fatal analysis issue (degenerate group, skipped parameter, ...)."""


class FitWarning(UserWarning):
    """Non-fatal fitting issue (disconnected comparison graph, ...)."""
