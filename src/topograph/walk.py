"""The budget of a river period, shared by the BQF and the diform river walks.

A period has no cheap advance estimate: it takes one run per partial
quotient of its continued fraction, up to O(sqrt(disc) log disc) runs, and
the edges a run records grow with every run, so their bits grow with the
square of the runs.  A count of runs alone therefore bounds neither time
nor memory when the discriminant is huge.  The walks count instead, every
``CHUNK`` runs, the bits of the integers they keep, and refuse the period
past ``RIVER_BUDGET`` with a ``BudgetError`` during the walk.
"""

from .errors import BudgetError, brief

# bits of the integers a river period may keep; the Pell period of
# D = 9,999,991 (8,098 runs) keeps about 2.2e8, and a 55-digit D reaches it
# after 11,776 runs
RIVER_BUDGET = 1 << 29
# runs between two counts of the bits kept, so a short period is not counted
CHUNK = 64


def _bits(x) -> int:
    if isinstance(x, tuple):
        return sum(map(_bits, x))
    return x.bit_length() if isinstance(x, int) else 0


def charge(kept: int, runs: int, what: str, disc: int, *chunks) -> int:
    """``kept`` plus the bits of the integers in ``chunks``, lists of the
    records (tuples, nested to any depth) a walk kept since its last count,
    or a BudgetError naming the runs, the bits and the discriminant once the
    sum passes ``RIVER_BUDGET``.

    The vectors along a river grow, or first shrink and then grow, with the
    distance from the walk's start, so the larger end of a chunk bounds each
    record in it, and reading the two ends is enough.
    """
    for chunk in chunks:
        if chunk:
            kept += len(chunk) * max(_bits(chunk[0]), _bits(chunk[-1]))
    if kept > RIVER_BUDGET:
        raise BudgetError(
            f"river period of {what}, discriminant {brief(disc)}, not closed after"
            f" {runs} runs keeping {kept} bits, past the budget of {RIVER_BUDGET}")
    return kept
