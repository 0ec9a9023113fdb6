"""Classical (non-topograph) reduction machinery for binary quadratic forms.

This is the textbook route: definite forms are reduced by translation/swap,
indefinite forms by the rho operator, giving cycles of reduced forms.  It is
used by the class-group module and serves as the independent cross-check for
the well/river route.
"""

from __future__ import annotations

import math

from .errors import ClassificationError, SquareDiscriminantError, brief

Form = tuple[int, int, int]


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def reduce_definite(form: Form) -> Form:
    """Unique reduced representative of a positive-definite form's SL2 class."""
    a, b, c = form
    if b * b - 4 * a * c >= 0 or a <= 0:
        raise ClassificationError("expected a positive-definite form")
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            b2 = b + 2 * k * a
            c = c + k * b + k * k * a
            b = b2
            continue
        break
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def rho(form: Form, d: int) -> Form:
    """Reduction/cycle step for indefinite forms (Cohen's rho)."""
    return _rho(form, d, math.isqrt(d))


def _rho(form: Form, d: int, s: int) -> Form:
    """``rho`` with s = isqrt(d) given, for loops that step one d."""
    a, b, c = form
    t = 2 * abs(c)
    if abs(c) > s:
        # choose b' = -b mod t with |b'| minimal
        b2 = (-b) % t
        if b2 > t // 2:
            b2 -= t
    else:
        # choose b' = -b mod t with s - t < b' <= s
        b2 = (-b) % t
        b2 += ((s - b2) // t) * t
    # b' = -b + 2ck, so c' = (b'^2 - d) / 4c = a - bk + ck^2: no division
    # by c of a number twice its size
    k = (b2 + b) // (2 * c)
    return (c, b2, a + k * (c * k - b))


def reduce_indefinite(form: Form) -> Form:
    """The first reduced form that rho reaches from an indefinite form."""
    a, b, c = form
    d = b * b - 4 * a * c
    s = math.isqrt(max(d, 0))
    if d <= 0 or s * s == d:
        raise SquareDiscriminantError("rho needs a positive nonsquare discriminant")
    return _reduce(form, d, s)


def _reduce(form: Form, d: int, s: int) -> Form:
    """``reduce_indefinite`` given s = isqrt(d): reduced means 0 < b <= s and
    s - b < 2|a| <= s + b, as d is not a square."""
    # While |c| > sqrt(d), rho picks |b'| <= |c|, so |c'| = |b'^2 - d| / 4|c|
    # <= |c| / 4.  A j-th such step needs 4^j sqrt(d) < |c| of the input, so
    # there are at most excess // 2 + 1 of them.  Once |c| < sqrt(d), rho
    # gives (c, b1, c1) with sqrt(d) - 2|c| < b1 < sqrt(d), which is reduced
    # or has 2|c1| < sqrt(d), and the form after that is reduced: two more
    # steps.  a plays no part, as the first step drops it.
    excess = form[2].bit_length() - (d.bit_length() - 1) // 2
    limit = max(excess, 0) // 2 + 3
    f, steps = tuple(form), 0
    while not (0 < f[1] <= s and s - f[1] < 2 * abs(f[0]) <= s + f[1]):
        if steps == limit:
            raise ClassificationError(
                f"rho reduction of {brief(form)} did not terminate in {steps} steps"
            )
        f = _rho(f, d, s)
        steps += 1
    return f


def indefinite_cycle(form: Form) -> tuple[Form, ...]:
    """The cycle of reduced forms SL2-equivalent to an indefinite form."""
    start = reduce_indefinite(form)
    d = start[1] ** 2 - 4 * start[0] * start[2]
    return _cycle(start, d, math.isqrt(d))


def _cycle(start: Form, d: int, s: int) -> tuple[Form, ...]:
    """``indefinite_cycle`` of a reduced form, given s = isqrt(d)."""
    # rho permutes the finitely many reduced forms of discriminant d
    cycle = [start]
    while (f := _rho(cycle[-1], d, s)) != start:
        cycle.append(f)
    return tuple(cycle)


def transform(form: Form, m) -> Form:
    """Coefficients of Q((x,y) -> M.(x,y)); columns of m are the new basis."""
    a, b, c = form
    (p, r), (q, s) = m
    return (a * p * p + b * p * q + c * q * q,
            2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s,
            a * r * r + b * r * s + c * s * s)


def red_blue_forms(sigma: int, a: int, b: int, c: int) -> tuple[Form, Form]:
    """The restrictions of the diform a x^2 + b sqrt(sigma) x y + c y^2 to red
    and blue divectors."""
    return (a, b * sigma, c * sigma), (a * sigma, b * sigma, c)


def content(form: Form) -> int:
    a, b, c = form
    return math.gcd(a, b, c)
