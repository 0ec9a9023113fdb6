"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured error JSON on stderr.
"""


def brief(x) -> str:
    """An int, or a tuple of ints, for an error message: as printed, or by
    bit length when too long to print (``str`` of an int past 4,300 digits
    raises ``ValueError``)."""
    xs = x if isinstance(x, tuple) else (x,)
    if max(abs(v) for v in xs).bit_length() <= 3000:
        return str(x)
    if isinstance(x, tuple):
        sizes = "/".join(str(v.bit_length()) for v in xs)
        return f"a tuple of {sizes}-bit integers"
    return f"a {x.bit_length()}-bit integer"


class TopographError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class TagMismatchError(TopographError):
    code = "tag-mismatch"


class UnsupportedRingError(TopographError):
    code = "unsupported-ring"


class NotASuperbaseError(TopographError):
    code = "not-a-superbase"


class InconsistentInputError(TopographError):
    code = "inconsistent-input"


class NotUnimodularError(TopographError):
    code = "not-unimodular"


class ClassificationError(TopographError):
    code = "classification"


class SquareDiscriminantError(TopographError):
    code = "square-or-invalid-discriminant"


class InvalidDiscriminantError(TopographError):
    code = "invalid-discriminant"


class DivisibilityError(TopographError):
    code = "divisibility"


class NotPrimitiveError(TopographError):
    code = "not-primitive"


class DibasisError(TopographError):
    code = "dibasis"


class SearchExhaustedError(TopographError):
    code = "search-exhausted"


class DegenerateFormError(TopographError):
    code = "degenerate"


class IntegralityError(TopographError):
    code = "invariant-violation"


class PreconditionError(TopographError):
    code = "precondition"


class BudgetError(TopographError):
    code = "budget"


class OutputError(TopographError):
    code = "output"
