"""Exception hierarchy shared across the package.

CLI exit-code mapping: ValidationError -> 2, OSError -> 4.
"""


class ValidationError(ValueError):
    """Invalid data, taxonomy, profile, model file or configuration."""


class UnknownLabelError(ValidationError):
    """A label is absent from the taxonomy or model it was looked up in."""
