"""Numerical tolerances and error types shared across the package."""

from dataclasses import dataclass, fields


class BellSimError(Exception):
    """Base class for errors raised by this package."""


class DimensionLimitError(BellSimError):
    """A command would allocate more entries than the policy's max_dimension."""


class TruncationTailError(BellSimError):
    """A state cannot be represented at the requested cutoff.

    Carries the smallest total-photon cutoff that would satisfy the tail
    bound, when one is known.
    """

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class ConfigError(BellSimError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class NumericalPolicy:
    """The tolerances and limits a run can override from its config file.

    The fixed tolerances of the structural checks (hermiticity, trace,
    unitarity, the squeezing margin) are module constants beside those checks.
    """

    coherent_tail_tol: float = 1e-8
    verdict_tol: float = 1e-9
    squeeze_limit: float = 5.0
    max_dimension: int = 2_000_000

    def __post_init__(self):
        # a negative tolerance turns a saturated bound into a violation
        for field in fields(self):
            value = getattr(self, field.name)
            if not value >= 0:
                raise ValueError(
                    f"policy {field.name} must be a number >= 0, got {value!r}"
                )

    def check_size(self, entries, what):
        """Refuse ``what``, before it is allocated, if it needs more than max_dimension entries."""
        if entries > self.max_dimension:
            raise DimensionLimitError(
                f"{what} needs {entries} entries, past the configured maximum of "
                f"{self.max_dimension} (policy max_dimension)"
            )


DEFAULT_POLICY = NumericalPolicy()
