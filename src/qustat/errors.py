"""Exception types shared across the package.

Each class carries the process exit code used by the command line front
end: 1 for input validation failures, 2 for resource budget violations,
3 for numerical tolerance violations.
"""


class QuStatError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(QuStatError, ValueError):
    """Invalid input: malformed operator, state, kernel or configuration."""

    exit_code = 1


class BudgetError(QuStatError, RuntimeError):
    """A computation would exceed a configured resource budget."""

    exit_code = 2

    def __init__(self, message, required_bytes=None):
        super().__init__(message)
        self.required_bytes = required_bytes


class ExpansionBudgetError(BudgetError):
    """A limit-moment pass grew past `ccr.MAX_POLY_TERMS` live states."""


class ToleranceError(QuStatError, RuntimeError):
    """A numerical cross-check failed its tolerance."""

    exit_code = 3
