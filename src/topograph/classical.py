"""Classical (non-topograph) reduction of binary quadratic forms, the
textbook route: definite forms by translation and swap, indefinite ones by
Cohen's rho and its cycles of reduced forms.  The class groups use it, and
tests check the well and river walks against it.
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
        raise ClassificationError(f"expected a positive-definite form, not the form "
                                  f"{brief((a, b, c))} of discriminant {brief(b * b - 4 * a * c)}")
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, c + k * (b + k * a)
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
    if t > 2 * s:  # |c| > s
        # choose b' = -b mod t with |b'| minimal
        b2 = (-b) % t
        if b2 > t // 2:
            b2 -= t
    else:
        # choose b' = -b mod t with s - t < b' <= s
        b2 = s - (s + b) % t
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
        raise SquareDiscriminantError(f"rho needs a positive nonsquare discriminant, not the "
                                      f"form {brief((a, b, c))} of discriminant {brief(d)}")
    return _reduce(form, d, s)


def _reduce(form: Form, d: int, s: int) -> Form:
    """``reduce_indefinite`` given s = isqrt(d): reduced means 0 < b <= s and
    s - b < 2|a| <= s + b, as d is not a square."""
    # While |c| > sqrt(d), rho picks |b'| <= |c|, so |c'| = |b'^2 - d| / 4|c|
    # <= |c| / 4: a j-th such step needs 4^j sqrt(d) < |c| of the input, at
    # most excess // 2 + 1 of them.  Then rho gives (c, b1, c1) with
    # sqrt(d) - 2|c| < b1 < sqrt(d), reduced or with 2|c1| < sqrt(d), and the
    # form after that is reduced: two more.  The first step drops a.
    (a, b, c), steps, limit = form, 0, 3  # the limit is read once reached
    while not (0 < b <= s and s - b < 2 * abs(a) <= s + b):
        if steps == limit:
            excess = form[2].bit_length() - (d.bit_length() - 1) // 2
            if steps == (limit := max(excess, 0) // 2 + 3):
                raise ClassificationError(
                    f"rho reduction of {brief(form)} did not terminate in {steps} steps")
        a, b, c = _rho((a, b, c), d, s)
        steps += 1
    return a, b, c


def indefinite_cycle(form: Form) -> tuple[Form, ...]:
    """The cycle of reduced forms SL2-equivalent to an indefinite form."""
    start = reduce_indefinite(form)
    d = start[1] ** 2 - 4 * start[0] * start[2]
    s = math.isqrt(d)
    if start[2] < 0:
        return tuple(_cycle(start, d, s))
    cycle = _cycle(_rho(start, d, s), d, s)  # ends with start
    return tuple(cycle[-1:] + cycle[:-1])


def _cycle(start: Form, d: int, s: int) -> list[Form]:
    """``indefinite_cycle`` of a reduced form with c < 0, given s = isqrt(d)."""
    # rho permutes the finitely many reduced forms of discriminant d.  They
    # have |c| < sqrt(d), so rho takes b' = -b mod 2|c| in (s - 2|c|, s], and
    # a, c of opposite signs, so c alternates: two steps, c < 0 then c > 0
    cycle, (_, b, c) = [start], start
    while True:
        b = s - (s + b) % (-2 * c)
        a = (b * b - d) // (4 * c)
        cycle.append((c, b, a))
        b = s - (s + b) % (2 * a)
        c = (b * b - d) // (4 * a)
        if (f := (a, b, c)) == start:
            return cycle
        cycle.append(f)


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
