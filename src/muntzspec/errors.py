"""Exception taxonomy shared across the package."""

__all__ = [
    "ParameterDomainError",
    "StructuralError",
    "NumericalFailure",
    "TrainingFailure",
]


class ParameterDomainError(ValueError):
    """An input parameter lies outside its documented domain."""


class StructuralError(ValueError):
    """Inputs are structurally inconsistent (shapes, formats, missing fields)."""


class NumericalFailure(RuntimeError):
    """A numerical routine produced an unusable result."""


class TrainingFailure(NumericalFailure):
    """Every training restart diverged."""
