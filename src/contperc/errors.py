"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """Raised when a requested computation exceeds a documented size limit."""
