"""Numerical tolerances and error types shared across the package."""

from dataclasses import dataclass, fields


class BellSimError(Exception):
    """Base class for errors raised by this package."""


class DimensionLimitError(BellSimError):
    """The requested Fock space exceeds the configured dimension budget."""


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
    """Tolerances applied by validation checks.

    One instance is threaded through every operation that enforces a
    numerical contract, so a single override changes the whole stack.
    """

    hermiticity_tol: float = 1e-10
    trace_tol: float = 1e-10
    unitarity_tol: float = 1e-10
    coherent_tail_tol: float = 1e-8
    verdict_tol: float = 1e-9
    squeeze_limit: float = 5.0
    squeezed_eig_margin: float = 1e-12
    max_dimension: int = 2_000_000

    def __post_init__(self):
        # a negative tolerance turns a saturated bound into a violation
        for field in fields(self):
            value = getattr(self, field.name)
            if not value >= 0:
                raise ValueError(
                    f"policy {field.name} must be a number >= 0, got {value!r}"
                )


DEFAULT_POLICY = NumericalPolicy()
