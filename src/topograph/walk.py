"""The budgets of a river period, shared by the BQF and the diform river walks.

A period has no cheap advance estimate: it takes one run per partial
quotient of its continued fraction, up to O(sqrt(disc) log disc) runs.  A
count of runs alone therefore bounds neither time nor memory when the
discriminant is huge.  The walks count instead, every ``CHUNK`` runs, the
bits of the integers they keep, and refuse the period with a
``BudgetError`` during the walk.

The BQF walk keeps one cell (u, b, v) per run, each below the discriminant,
and holds its answer as a product stack whose bits grow with the runs, not
with their square.  It is counted against ``WALK_BUDGET``, and its answer
alone against ``ANSWER_BUDGET``.  The diform walk keeps its steps, whose
vectors grow with every run, so their bits grow with the square of the runs,
and they are counted against ``RIVER_BUDGET``.
"""

from .errors import BudgetError, brief

# bits of the steps a diform river period may keep; the period of
# sigma = 2, (1, 0, -(10**10 + 19)) is refused after 12,480 runs
RIVER_BUDGET = 1 << 29
# bits of the cells and the answer the BQF walk may keep; the Pell walk of
# D = 10**12 + 39 (532,573 runs) keeps about 3.7e7, and that of a 55-digit D
# reaches the budget after 242,496 runs
WALK_BUDGET = 1 << 26
# bits of the answer the BQF walk may hold, its product stack and faces of
# least |Q|: about four times the bits of the Pell x, 3.6e6 for 10**12 + 39
ANSWER_BUDGET = 1 << 23
# runs between two counts of the bits kept, so a short period is not counted
CHUNK = 64


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return sum(map(_bits, x)) if isinstance(x, (tuple, list)) else 0


def charge(kept: int, runs: int, what: str, disc: int, chunk: list, held=None) -> int:
    """``kept`` plus the bits of the integers in ``chunk``, the list of
    records (tuples, nested to any depth) a walk kept since its last count,
    or a BudgetError naming the runs, the bits and the discriminant once the
    sum passes ``RIVER_BUDGET``.

    ``held`` is what the BQF walk holds of its answer now.  With it, the sum
    plus held's bits is counted against ``WALK_BUDGET`` instead, and held's
    bits alone against ``ANSWER_BUDGET``; they are not added to the sum
    returned.

    The vectors along a river grow, or first shrink and then grow, with the
    distance from the walk's start, so the larger end of a chunk bounds each
    record in it, and reading the two ends is enough.
    """
    kept += len(chunk) * max(_bits(chunk[0]), _bits(chunk[-1]))
    head = (f"river period of {what}, discriminant {brief(disc)}, "
            f"not closed after {runs} runs")
    total, budget = kept, RIVER_BUDGET
    if held is not None:
        answer, budget = _bits(held), WALK_BUDGET
        if answer > ANSWER_BUDGET:
            raise BudgetError(f"{head}: its answer already holds {answer} bits,"
                              f" past the answer budget of {ANSWER_BUDGET}")
        total += answer
    if total > budget:
        raise BudgetError(f"{head} keeping {total} bits, past the budget of {budget}")
    return kept
