"""Exception hierarchy shared by all engine modules.

Every engine-raised failure derives from :class:`EngineError` so callers
(and the CLI) can separate validation failures from genuine I/O trouble,
which surfaces as the usual :class:`OSError` family.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all validation errors raised by the engine."""


class DomainError(EngineError, ValueError):
    """A scalar argument (threshold, score, or sweep range) is out of domain.

    Also a :class:`ValueError`, the usual type for a bad argument value, so
    library callers may catch either.
    """


class EmptyInputError(EngineError):
    """An operation received an empty sample set."""


class MalformedSampleError(EngineError):
    """A sample violates its domain (score, label, or subgroup)."""

    def __init__(self, sample_id: str, message: str):
        self.sample_id = sample_id
        super().__init__(f"sample {sample_id!r}: {message}")


class InsufficientSubgroupsError(EngineError):
    """Fewer than two eligible subgroups were available for a gap."""

    def __init__(self, gap: str, message: str):
        self.gap = gap
        super().__init__(f"{gap}: {message}")


class InsufficientPanelError(EngineError):
    """A disparity panel has fewer than two entries."""


class MissingToleranceError(EngineError):
    """Verdict-mode disagreement requires a tolerance for every metric."""

    def __init__(self, metric: str):
        self.metric = metric
        super().__init__(f"no tolerance configured for metric {metric!r}")


class SweepDegenerateError(EngineError):
    """Every point of the sweep grid lacks two eligible subgroups for a gap."""


class NegativeWeightError(EngineError):
    """A weight coefficient is negative."""


class WeightSumError(EngineError):
    """Weight coefficients do not sum to one."""

    def __init__(self, actual_sum: float):
        self.actual_sum = actual_sum
        super().__init__(
            f"alpha+beta+gamma+delta must equal 1, got {actual_sum:.6g}"
        )


class ConfigInvalidError(EngineError, ValueError):
    """A configuration value violates its constraints.

    Raised by the config type that owns the value, so it is also a
    :class:`ValueError`, like any other bad constructor argument.
    """


class EmptySequenceError(EngineError):
    """A lifecycle replay received no assessments."""


class MissingColumnError(EngineError):
    """An input file lacks one or more required columns."""

    def __init__(self, path: str, columns: list[str]):
        self.path = path
        self.columns = columns
        super().__init__(f"{path}: missing required column(s): {', '.join(columns)}")


class MalformedRowError(EngineError):
    """A row in an input file failed validation."""

    def __init__(self, path: str, row: int, message: str):
        self.path = path
        self.row = row
        super().__init__(f"{path}: row {row}: {message}")


class EmptyFileError(EngineError):
    """An input file contains no data rows."""

    def __init__(self, path: str):
        self.path = path
        super().__init__(f"{path}: no data rows")
