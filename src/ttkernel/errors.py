"""Error types with stable machine-readable codes."""

from __future__ import annotations


class KernelError(Exception):
    """Base of all user-facing errors. ``code`` is stable; ``line``/``col``
    are attached by the frontend when a source span is known. ``status``
    and ``exit_code`` are what the CLI reports for the error's class."""

    code = "error"
    status = "error"
    exit_code = 1

    def __init__(self, message: str = "", line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.line = line
        self.col = col


class ParseError(KernelError):
    code = "parse_error"
    status = "parse-error"
    exit_code = 2


class UsageError(ParseError):
    """A command line ``tt`` cannot parse: an option missing, unknown or malformed."""

    code = "usage_error"


class CheckError(KernelError):
    """Base of type-checking errors."""

    code = "type_error"
    status = "type-error"


class UnboundVariable(CheckError):
    code = "unbound_variable"


class UnknownConstant(CheckError):
    code = "unknown_constant"


class ArityMismatch(CheckError):
    code = "arity_mismatch"


class NotAFunction(CheckError):
    code = "not_a_function"


class CannotInfer(CheckError):
    code = "cannot_infer"


class Mismatch(CheckError):
    """Conversion failure in ``ctx``: ``actual`` is not ``expected``, or,
    when ``actual`` is None, a lambda met the non-function ``expected``.
    The normal forms and the message are computed only when asked for,
    so a rejected candidate costs no normalization or printing."""

    code = "mismatch"

    def __init__(self, sig, ctx, expected, actual=None):
        super().__init__()
        self.sig, self.ctx = sig, ctx
        self.expected, self.actual = expected, actual

    @property
    def expected_nf(self):
        return _normalize(self.sig, self.ctx, self.expected)

    @property
    def actual_nf(self):
        return None if self.actual is None else _normalize(self.sig, self.ctx, self.actual)

    def __str__(self) -> str:
        from .surface import context_names, print_nf  # late: surface imports this module

        expected, actual = self.expected_nf, self.actual_nf
        names = context_names(len(self.ctx), expected, actual)  # actual may be None
        if actual is None:
            return f"function literal checked against {print_nf(expected, names)}"
        return f"expected {print_nf(expected, names)}, got {print_nf(actual, names)}"


class MotiveMismatch(CheckError):
    """An eliminator case (``"zero"`` or ``"successor"``) fails its motive."""

    code = "motive_mismatch"

    def __init__(self, case: str, cause: Mismatch):
        super().__init__()
        self.case = case
        self.cause = cause

    def __str__(self) -> str:
        return f"{self.case} case does not match the motive: {self.cause}"


class DuplicateName(CheckError):
    code = "duplicate_name"


class UnknownName(KernelError):
    code = "unknown_name"
    status = "type-error"


class FuelExhausted(KernelError):
    """The rewriting oracle used up its budget of beta/iota steps (100,000
    unless ``TT_FUEL`` raises it), as large arithmetic can on well-typed input."""

    code = "fuel_exhausted"


class BadFuel(KernelError):
    """``TT_FUEL`` is not a non-negative integer of at most 4,300 digits."""

    code = "bad_fuel"


class ResourceExhausted(KernelError):
    """The input is too deep or too large: recursion or memory ran out."""

    code = "resource_exhausted"
    exit_code = 4


def _normalize(sig, ctx, ty):
    from .nbe import normalize_ty  # late: nbe imports this module through rewrite

    return normalize_ty(sig, ctx, ty)
