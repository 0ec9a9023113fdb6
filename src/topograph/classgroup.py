"""Class groups Cl(D) of primitive binary quadratic forms under Dirichlet
composition, the ambiguous class representing sigma, and the red/blue diform
class relation."""

from __future__ import annotations

import math

from .classical import (
    Form,
    _cycle,
    _reduce,
    content,
    is_square,
    red_blue_forms,
    reduce_definite,
)
from .errors import (
    BudgetError,
    ClassificationError,
    DivisibilityError,
    IntegralityError,
    InvalidDiscriminantError,
    NotPrimitiveError,
    PreconditionError,
    brief,
)


def _validate_disc(d: int) -> None:
    if d == 0 or d % 4 not in (0, 1):
        raise InvalidDiscriminantError(f"{brief(d)} is not a discriminant")
    if d > 0 and is_square(d):
        raise InvalidDiscriminantError("positive square discriminants unsupported")


def principal_form(d: int) -> Form:
    k = d % 2
    return (1, k, (k * k - d) // 4)


def _enumerate_definite(d: int) -> list[Form]:
    """Every primitive reduced positive form (a, b, c) of discriminant d < 0,
    sorted: |b| <= a <= c, and b >= 0 when |b| = a or a = c.

    For each b >= 0 with b = d (mod 2), m = (b^2 - d)/4 = ac, and the window
    max(b, 1) <= a <= isqrt(m) holds exactly the a with b <= a <= c; the
    mirror (a, -b, c) is reduced too when 0 < b < a < c.  As 4a^2 <= 4m <=
    a^2 - d, every a tested is at most amax = isqrt(-d // 3)."""
    out = []
    for b in range(d & 1, math.isqrt(-d // 3) + 1, 2):
        m = (b * b - d) // 4
        for a in range(b or 1, math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(a, b, c) != 1:
                continue
            out.append((a, b, c))
            if 0 < b < a < c:
                out.append((a, -b, c))
    return sorted(out)


def _enumerate_indefinite(d: int) -> list[tuple[Form, ...]]:
    """The fingerprint of every cycle of primitive reduced indefinite forms,
    ordered by least form.

    A reduced form has 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b;
    as 4|ac| = d - b^2, |c| then lies in the same window.  So for each
    b <= s = isqrt(d) with b = d (mod 2) and m = (d - b^2)/4, the reduced
    forms with a > 0 are (a, b, -m/a) and (m/a, b, -a) for the divisors a of
    m with (s - b)/2 < a <= isqrt(m): d is not a square, so sqrt(d) - b < 2a
    iff s - b < 2a, and 2a <= 2 sqrt(m) < sqrt(d) + b.  In a reduced form a
    and c have opposite signs and rho sends (a, b, c) to (c, ., .), so every
    rho-cycle alternates the sign of a and holds a reduced form with a > 0:
    the windows meet every cycle, and rho steps it from a window form."""
    s = math.isqrt(d)
    seen = set()
    cycles = []
    for b in range(2 - (d & 1), s + 1, 2):
        m = (d - b * b) // 4  # -ac > 0; parity makes this exact
        for a in range((s - b) // 2 + 1, math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(a, b, c) != 1:
                continue
            for f in ((a, b, -c), (c, b, -a)):
                if f not in seen:
                    fp = tuple(sorted(_cycle(f, d, s)))
                    seen.update(fp)
                    cycles.append(fp)
    # a fingerprint is sorted, so it starts with the cycle's least form
    return sorted(cycles)


def _enumeration_size(d: int) -> int:
    """An upper bound on the candidates (a, b) the enumerators test.

    d < 0: each tested (a, b) has 0 <= b <= a <= amax = isqrt(-d // 3) and
    b = d (mod 2), at most a // 2 + 1 values of b for each a, and
    sum(a // 2 + 1 for a = 1..amax) = amax^2 // 4 + amax.
    d > 0: each tested (a, b) has 2a <= 2 sqrt(m) < sqrt(d), so a <= s // 2
    with s = isqrt(d), and s + 1 - 2a <= b <= s, at most a values of b of
    the parity of d; sum(a for a = 1..s // 2) <= s^2 // 4."""
    if d < 0:
        amax = math.isqrt(-d // 3)
        return amax * amax // 4 + amax
    s = math.isqrt(d)
    return s * s // 4


# most candidate forms enumerate_classes tests
ENUM_BUDGET = 50_000_000
# most cells build_table fills
TABLE_BUDGET = 1_000_000


class ClassGroupTable:
    def __init__(self, disc: int, classes: list, reps: list):
        self.disc = disc
        # canonical labels: reduced form (d<0) or cycle fingerprint
        self.classes = classes
        self.reps = reps  # one concrete form per class
        self._root = math.isqrt(max(disc, 0))  # reduces forms when disc > 0
        self.table = []  # composition, index pairs; filled by build_table
        # reduced form -> class index; for d > 0 every form of each cycle
        if self.disc < 0:
            self._index = {label: i for i, label in enumerate(self.classes)}
        else:
            self._index = {
                f: i for i, label in enumerate(self.classes) for f in label
            }

    @property
    def h(self) -> int:
        return len(self.classes)

    def class_index(self, form: Form) -> int:
        if content(form) != 1:
            raise NotPrimitiveError(f"{brief(form)} is imprimitive")
        return self._lookup(form)

    def _lookup(self, form: Form) -> int:
        """``class_index`` of a form known to be primitive."""
        a, b, c = form
        if (d := b * b - 4 * a * c) != self.disc:
            raise InvalidDiscriminantError(f"wrong discriminant {brief(d)} of {brief(form)}, "
                                           f"not the table's {brief(self.disc)}")
        reduced = (reduce_definite(form) if self.disc < 0
                   else _reduce(form, self.disc, self._root))
        try:
            return self._index[reduced]
        except KeyError:
            raise ClassificationError(
                f"{brief(form)} has no class among the {self.h} of discriminant "
                f"{brief(self.disc)}"
            ) from None

    def identity_index(self) -> int:
        return self.class_index(principal_form(self.disc))

    def compose_indices(self, i: int, j: int) -> int:
        if self.table:
            return self.table[i][j]
        return self._lookup(_compose(self.reps[i], self.reps[j]))

    def build_table(self) -> None:
        """Fill the h x h composition table; past TABLE_BUDGET cells raise
        BudgetError before any composition.

        Rows are filled by subgroup: starting from the identity row, the
        least class u with no row is composed with every class whose row is
        not known yet (Cl(D) is abelian, so the rest of u's row is a column
        of known rows).  The rows of the cosets u^k H of the group H reached
        so far follow by row[u x][y] = row[u][row[x][y]], until u^k lands
        in H.  Each generator u at least doubles H, so there are at most
        (h - 1).bit_length() generators, with at most h compositions each."""
        h = self.h
        if h * h > TABLE_BUDGET:
            raise BudgetError(
                f"a class group of order {brief(h)} needs {brief(h * h)} table "
                f"cells, over the budget of {TABLE_BUDGET}")
        # the reps are primitive of discriminant disc, as enumerated
        rows = [None] * h
        e = self._lookup(principal_form(self.disc))
        rows[e] = list(range(h))
        group = [e]
        for u, f in enumerate(self.reps):
            if rows[u] is not None:
                continue
            row = [self._lookup(_compose(f, g)) if rows[y] is None
                   else rows[y][u] for y, g in enumerate(self.reps)]
            cosets = [group]
            while rows[row[cosets[-1][0]]] is None:
                coset = [row[x] for x in cosets[-1]]
                for x, y in zip(cosets[-1], coset):
                    rows[y] = [row[z] for z in rows[x]]
                cosets.append(coset)
            group = [x for coset in cosets for x in coset]
        self.table = rows

    def to_json(self) -> dict:
        a_index = {}
        for sigma in (2, 3):
            a_index[str(sigma)] = None
            if is_diform_discriminant(sigma, self.disc):
                form = ambiguous_form_A(sigma, self.disc)
                if content(form) == 1:
                    a_index[str(sigma)] = self.class_index(form)
        return {
            "delta": self.disc,
            "h": self.h,
            "classes": [list(f) for f in self.reps],
            "table": self.table,
            "A_class_index": a_index,
        }


def enumerate_classes(d: int) -> ClassGroupTable:
    """The classes of primitive forms of discriminant d, with one
    representative each; past ENUM_BUDGET candidate forms raise BudgetError
    before any is tested."""
    _validate_disc(d)
    size = _enumeration_size(d)
    if size > ENUM_BUDGET:
        raise BudgetError(
            f"enumerating the classes of discriminant {brief(d)} tests up to "
            f"{brief(size)} candidate forms, over the budget of {ENUM_BUDGET}")
    if d < 0:
        classes = _enumerate_definite(d)
        return ClassGroupTable(d, classes, list(classes))
    cycles = _enumerate_indefinite(d)
    return ClassGroupTable(d, cycles, [fp[0] for fp in cycles])


def _xgcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, u, v) with u*x + v*y = g = gcd(x, y) >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if x < 0:
        return -x, -u0, -v0
    return x, u0, v0


def _leading_nonzero(form: Form) -> Form:
    """An SL2-equivalent form with a != 0 (only square d allows a = 0)."""
    a, b, c = form
    if a:
        return form
    if c:
        return (c, -b, 0)  # (x, y) -> (-y, x)
    return (b, -b, 0)  # (0, b, 0) moved by (x, y) -> (x + y, y), then as above


def compose(f1: Form, f2: Form) -> Form:
    """Dirichlet composition of primitive forms of one discriminant, by
    Cohen's Algorithm 5.4.7 (GTM 138); the composite is not reduced."""
    if content(f1) != 1 or content(f2) != 1:
        raise NotPrimitiveError("composition needs primitive forms")
    d1, d2 = (b * b - 4 * a * c for a, b, c in (f1, f2))
    if d1 != d2:
        raise InvalidDiscriminantError(f"mismatched discriminants {brief((d1, d2))}")
    return _compose(f1, f2)


def _compose(f1: Form, f2: Form) -> Form:
    """``compose`` of forms known to be primitive of one discriminant."""
    f1, f2 = _leading_nonzero(f1), _leading_nonzero(f2)
    if abs(f1[0]) > abs(f2[0]):
        f1, f2 = f2, f1
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2  # b1 = b2 = d mod 2
    n = b2 - s
    # d0 = gcd(a1, a2) = u*a2 + v*a1, then d1 = gcd(s, d0) = x2*s - y2*d0;
    # the signs of a1, a2 only enter through the quotients v1, v2 below
    if a2 % a1 == 0:
        y1, d0 = 0, abs(a1)
    else:
        d0, y1, _ = _xgcd(a2, a1)
    if s % d0 == 0:
        x2, y2, d1 = 0, -1, d0
    else:
        d1, x2, y2 = _xgcd(s, d0)
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3, rest = divmod(c2 * d1 + r * (b2 + v2 * r), v1)
    if rest:
        raise IntegralityError(
            f"composite of {brief(f1)} and {brief(f2)} with a = {brief(a3)}, "
            f"b = {brief(b3)} misses their discriminant"
        )
    return (a3, b3, c3)


def ambiguous_form_A(sigma: int, d: int) -> Form:
    """The form A_D of discriminant D representing sigma; its class is
    2-torsion in Cl(D)."""
    if sigma not in (2, 3):
        raise DivisibilityError("sigma must be 2 or 3")
    if d % sigma:
        raise DivisibilityError("sigma must divide the discriminant")
    q = d // sigma
    if q % 4 == 0:
        return (sigma, 0, -d // (4 * sigma))
    if (q - sigma) % 4 == 0:
        return (sigma, sigma, -(d - sigma * sigma) // (4 * sigma))
    raise InvalidDiscriminantError(
        f"{brief(d)} is not a sigma={sigma} diform discriminant")


def is_diform_discriminant(sigma: int, d: int) -> bool:
    if d == 0 or d % sigma:
        return False
    q = d // sigma
    return q % 4 == 0 or (q - sigma) % 4 == 0


def verify_red_blue(sigma: int, a: int, b: int, c: int) -> dict:
    """Check [Q_red] = [A_D] * [Q_blue] in Cl(D) for the diform (a, b, c)."""
    bs = abs(b) * sigma
    pairwise = math.gcd(abs(a), abs(c)) == 1 and (
        b == 0 or (math.gcd(a, bs) == 1 and math.gcd(bs, c) == 1)
    )
    if not pairwise:
        raise PreconditionError("a, b*sigma, c must be pairwise coprime")
    q_red, q_blue = red_blue_forms(sigma, a, b, c)
    # with b = 0 this asks that sigma divide neither a nor c
    if content(q_red) != 1 or content(q_blue) != 1:
        raise PreconditionError(
            f"red {brief(q_red)} and blue {brief(q_blue)} must be primitive")
    d = sigma * (b * b * sigma - 4 * a * c)
    table = enumerate_classes(d)
    i_red = table.class_index(q_red)
    i_blue = table.class_index(q_blue)
    i_a = table.class_index(ambiguous_form_A(sigma, d))
    holds = table.compose_indices(i_a, i_blue) == i_red
    return {
        "sigma": sigma,
        "delta": d,
        "red": list(q_red),
        "blue": list(q_blue),
        "red_class": i_red,
        "blue_class": i_blue,
        "A_class": i_a,
        "relation_holds": holds,
    }
