"""Bounded box searches over forms, the oracles for the class-group tests.

They search |x|, |y| (or the diform coefficients) in a fixed box, so a miss
says nothing beyond the box; the tests use them only where that box is the
recorded fixture.
"""

import math

from topograph.classgroup import ClassGroupTable
from topograph.classical import Form, content, red_blue_forms
from topograph.errors import (
    ClassificationError,
    InvalidDiscriminantError,
    NotPrimitiveError,
)


def represents(form: Form, n: int, bound: int | None = None) -> bool:
    """Bounded search: does the form represent n?  The default search box
    |x|, |y| <= 2*(1 + sqrt(|disc|)) is a recorded fixture."""
    a, b, c = form
    if bound is None:
        d = abs(b * b - 4 * a * c)
        bound = 2 * (1 + math.isqrt(d))
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if a * x * x + b * x * y + c * y * y == n:
                return True
    return False


def class_represents(table: ClassGroupTable, index: int, n: int) -> bool:
    """Bounded representation search over every form in the class label (the
    whole reduced cycle for indefinite discriminants)."""
    label = table.classes[index]
    forms = label if table.disc > 0 else (label,)
    return any(represents(f, n) for f in forms)


def find_diform_for_classes(sigma: int, d: int, i1: int, i2: int,
                            table: ClassGroupTable, bound: int = 10):
    """Converse search: a diform whose red/blue classes are (i1, i2)."""
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if sigma * (b * b * sigma - 4 * a * c) != d:
                    continue
                q_red, q_blue = red_blue_forms(sigma, a, b, c)
                if content(q_red) != 1 or content(q_blue) != 1:
                    continue
                if d < 0 and a < 0:
                    continue
                try:
                    if (table.class_index(q_red) == i1
                            and table.class_index(q_blue) == i2):
                        return (a, b, c)
                except (ClassificationError, InvalidDiscriminantError,
                        NotPrimitiveError):
                    continue
    return None
