"""Exception types shared across the package."""


class MatGreedyError(Exception):
    """Base class for all library errors."""


class InputError(MatGreedyError):
    """Malformed user input (matrices, descriptors, chains, code files)."""


class CapExceeded(MatGreedyError):
    """An enumeration exceeded its configured resource cap.

    Raised instead of returning a possibly-partial answer.
    """


class InvariantError(MatGreedyError):
    """A result broke an invariant of every matroid (kept under python -O)."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise InvariantError(message)
