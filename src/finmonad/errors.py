"""Exception types shared across the package."""

from __future__ import annotations


class FinMonadError(Exception):
    """Base class for every error raised by this package."""


class CategoryValidationError(FinMonadError):
    """A raw category description violates the category axioms.

    Carries the complete list of violations (``.violations``) so callers
    can render a full report instead of fixing one axiom at a time.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        shown = "; ".join(v.describe() for v in self.violations[:4])
        extra = len(self.violations) - 4
        if extra > 0:
            shown += f" (+{extra} more)"
        super().__init__(f"invalid category: {shown}")


class FileFormatError(FinMonadError):
    """A monad, comonad or law file does not have the shape of its kind,
    or a file is nested too deeply to parse.

    Carries every shape error (``.violations``): a top level that is not
    an object, a missing or unknown field, or a field of the wrong type.
    """

    def __init__(self, violations, what):
        self.violations = tuple(violations)
        shown = "; ".join(v.describe() for v in self.violations)
        super().__init__(f"invalid {what} file: {shown}")


class TypeMismatch(FinMonadError):
    """Two values with different declared sources/targets were compared or combined."""


class CompositionTypeMismatch(FinMonadError):
    """A composite was requested for a non-composable pair."""


class ComponentMistyped(FinMonadError):
    """A functor or transformation component is missing or lands in the wrong hom-set."""


class UnTypableComponent(FinMonadError):
    """No candidate component exists at some object (the required hom-set is empty)."""

    def __init__(self, obj, detail=""):
        self.obj = obj
        msg = f"no well-typed component exists at object {obj!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class LawViolation(FinMonadError):
    """A structure whose laws are required at this point fails its checks."""

    def __init__(self, violations, context=""):
        self.violations = tuple(violations)
        shown = "; ".join(v.describe() for v in self.violations[:4])
        head = f"{context}: " if context else ""
        super().__init__(head + shown)


class SquareConstraintViolation(FinMonadError):
    """The strict equality required of a commuting square fails."""


class TwoCellLawViolation(FinMonadError):
    """A candidate 2-cell fails its defining equations."""


class BaseMismatch(FinMonadError):
    """Structures expected to live over the same base do not."""


class EnumerationCapExceeded(FinMonadError):
    """An enumeration passed its candidate budget.

    Every enumerator counts the candidate values it tries, that is the
    nodes its search visits, and raises as soon as the count passes the
    cap. ``estimate`` is the count that passed the cap.
    """

    def __init__(self, estimate, cap):
        self.estimate = estimate
        self.cap = cap
        super().__init__(
            f"enumeration counted {estimate} candidates, cap is {cap}"
        )
