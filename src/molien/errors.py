"""Exception types shared across the package.

The CLI maps these onto exit codes; see molien.cli.
"""


class MolienError(Exception):
    """Base class for all errors raised by this package."""


class ScalarParseError(MolienError):
    """Malformed scalar literal or spec file; carries the offset of the failure, if known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class ShapeError(MolienError):
    """Dimension mismatch between matrices, bases or polynomials."""


class BackendError(MolienError):
    """Scalar backends were mixed, or an operation does not support a backend."""


class ValidationError(MolienError):
    """Invalid input data: non-unitary generator, bad permutation, bad spec file."""


class ClosureOverflowError(MolienError):
    """Group closure exceeded the configured maximum order."""

    def __init__(self, max_order: int):
        super().__init__(f"group closure exceeded max_order={max_order}")
        self.max_order = max_order


class ConsistencyError(MolienError):
    """A quantity that must be a (nonnegative) integer was not one."""
