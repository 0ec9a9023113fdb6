"""Reference answers computed without the program under test.

Nothing here imports ``topograph``.  Each routine is the textbook route to
the same answer: translate-and-swap reduction, the rho operator and its
cycles, the continued fraction of sqrt(D), direct enumeration of reduced
forms, closed-form patch sizes, and plain-integer box searches over the
Gaussian and Eisenstein integers.
"""

from __future__ import annotations

import math

# --- binary quadratic forms over Z ------------------------------------------


def disc(f) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def content(f) -> int:
    a, b, c = f
    return math.gcd(math.gcd(a, b), c)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def bqf_value(f, v) -> int:
    a, b, c = f
    x, y = v
    return a * x * x + b * x * y + c * y * y


def transform(f, m):
    """The form Q(M (x, y)); the columns of M are the new basis vectors."""
    (p, r), (q, s) = m
    a, b, c = f
    a2 = a * p * p + b * p * q + c * q * q
    c2 = a * r * r + b * r * s + c * s * s
    b2 = 2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s
    return (a2, b2, c2)


def is_reduced_definite(f) -> bool:
    a, b, c = f
    if a <= 0 or disc(f) >= 0:
        return False
    if not (-a < b <= a <= c):
        return False
    return not (a == c and b < 0)


def reduce_definite(f):
    """Translate b into (-a, a], swap while c < a, then fix the sign of b."""
    a, b, c = f
    while True:
        # x -> x + t y with t chosen so that b + 2at lands in (-a, a]
        t = (a - b) // (2 * a)
        b, c = b + 2 * a * t, a * t * t + b * t + c
        if c < a:
            a, b, c = c, -b, a
            continue
        break
    if a == c and b < 0:
        b = -b
    return (a, b, c)


def enumerate_definite(d: int):
    """Every primitive reduced positive-definite form of discriminant d < 0."""
    out = []
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            f = (a, b, c)
            if c >= a and not (a == c and b < 0) and content(f) == 1:
                out.append(f)
        a += 1
    return out


def is_reduced_indefinite(f) -> bool:
    """0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b, decided in integers."""
    a, b, c = f
    d = disc(f)
    s = math.isqrt(d)
    if a == 0 or not 0 < b <= s:
        return False
    t = 2 * abs(a)
    if d >= (t + b) ** 2:
        return False
    return t - b < 0 or (t - b) ** 2 < d


def _rho(f, s: int):
    """(a, b, c) -> (c, b', *) with b' = -b mod 2|c|, in the window below
    sqrt(D) when |c| < sqrt(D) and nearest zero otherwise."""
    a, b, c = f
    d = b * b - 4 * a * c
    m = 2 * abs(c)
    if abs(c) > s:
        b2 = (-b) % m
        if b2 > abs(c):
            b2 -= m
    else:
        b2 = s - (s + b) % m
    return (c, b2, (b2 * b2 - d) // (4 * c))


def rho_cycle(f):
    """The cycle of reduced forms properly equivalent to an indefinite f."""
    d = disc(f)
    if d <= 0 or is_square(d):
        raise ValueError(f"{f} is not indefinite with nonsquare discriminant")
    s = math.isqrt(d)
    g = tuple(f)
    for _ in range(4 * d.bit_length() + 64 + abs(f[0]).bit_length()
                   + abs(f[2]).bit_length()):
        if is_reduced_indefinite(g):
            break
        g = _rho(g, s)
    else:
        raise ValueError(f"rho reduction of {f} did not settle")
    cycle = [g]
    h = _rho(g, s)
    while h != g:
        cycle.append(h)
        h = _rho(h, s)
    return cycle


def enumerate_indefinite_cycles(d: int):
    """The rho-cycles of primitive reduced forms of discriminant d > 0, each
    as a frozenset of forms."""
    s = math.isqrt(d)
    reduced = set()
    for b in range(1, s + 1):
        if (b - d) % 2:
            continue
        m = (d - b * b) // 4
        for a in range(1, math.isqrt(m) + 1):
            if m % a:
                continue
            for aa in (a, -a, m // a, -(m // a)):
                f = (aa, b, -m // aa)
                if is_reduced_indefinite(f) and content(f) == 1:
                    reduced.add(f)
    cycles = []
    while reduced:
        cyc = frozenset(rho_cycle(next(iter(reduced))))
        reduced -= cyc
        cycles.append(cyc)
    return cycles


def class_label(f):
    """Canonical proper-equivalence label: the reduced form when d < 0, the
    set of forms of the rho-cycle when d > 0."""
    if disc(f) < 0:
        return reduce_definite(f)
    return frozenset(rho_cycle(f))


def principal_form(d: int):
    k = d % 2
    return (1, k, (k - d) // 4)


def ambiguous_form(sigma: int, d: int):
    """The form of discriminant d representing sigma at (1, 0), or None."""
    if d % sigma:
        return None
    q = d // sigma
    if q % 4 == 0:
        return (sigma, 0, -d // (4 * sigma))
    if (q - sigma) % 4 == 0:
        return (sigma, sigma, (sigma * sigma - d) // (4 * sigma))
    return None


def is_discriminant(d: int) -> bool:
    return d != 0 and d % 4 in (0, 1) and not (d > 0 and is_square(d))


def pell_fundamental(d: int):
    """Least x, y > 0 with x^2 - d y^2 = 1, from the convergents of sqrt(d)."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, qq = 0, 1
    while p * p - d * qq * qq != 1:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        p_prev, p = p, a * p + p_prev
        q_prev, qq = qq, a * qq + q_prev
    return p, qq


# --- diforms over Z[sqrt(sigma)] --------------------------------------------


def divector_value(form, sigma: int, color: str, u: int, v: int) -> int:
    """Q(x, y) = a x^2 + b sqrt(s) x y + c y^2 at a red (u, v sqrt(s)) or blue
    (u sqrt(s), v) divector."""
    a, b, c = form
    if color == "red":
        return a * u * u + b * sigma * u * v + c * sigma * v * v
    return a * sigma * u * u + b * sigma * u * v + c * v * v


def divector_primitive(sigma: int, color: str, u: int, v: int) -> bool:
    if color == "red":
        return math.gcd(u, sigma * v) == 1
    return math.gcd(sigma * u, v) == 1


def dibasis_det(sigma: int, f1, f2) -> int:
    """Determinant of two opposite-coloured divectors, red first."""
    (c1, u1, v1), (c2, u2, v2) = f1, f2
    if c1 == c2:
        return 0
    if c1 != "red":
        (u1, v1), (u2, v2) = (u2, v2), (u1, v1)
    return u1 * v2 - sigma * v1 * u2


def red_blue(sigma: int, form):
    a, b, c = form
    return (a, b * sigma, c * sigma), (a * sigma, b * sigma, c)


def _zs_mul(x, y, sigma):
    return (x[0] * y[0] + sigma * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _zs_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def dilinear_automorph_ok(t, sigma: int, form) -> bool:
    """T over Z[sqrt(s)] (entries (x, y) = x + y sqrt(s)) is dilinear, has
    determinant 1, and fixes the Gram matrix [[2a, b sqrt(s)], [b sqrt(s), 2c]]."""
    (t11, t12), (t21, t22) = t
    plus = t11[1] == t22[1] == t12[0] == t21[0] == 0
    minus = t11[0] == t22[0] == t12[1] == t21[1] == 0
    if not (plus or minus):
        return False
    det = _zs_add(_zs_mul(t11, t22, sigma),
                  _zs_mul((-t12[0], -t12[1]), t21, sigma))
    if det != (1, 0):
        return False
    a, b, c = form
    g = (((2 * a, 0), (0, b)), ((0, b), (2 * c, 0)))
    cols = ((t11, t21), (t12, t22))
    for i in range(2):
        for j in range(2):
            acc = (0, 0)
            for k in range(2):
                for m in range(2):
                    term = _zs_mul(_zs_mul(cols[i][k], g[k][m], sigma),
                                   cols[j][m], sigma)
                    acc = _zs_add(acc, term)
            if acc != g[i][j]:
                return False
    return True


# --- Gaussian and Eisenstein integers ---------------------------------------
# (x, y) means x + y*i (Gauss) or x + y*w with w^2 = -1 - w (Eisenstein).


def rmul(ring: str, p, q):
    x1, y1 = p
    x2, y2 = q
    if ring == "g":
        return (x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
    cross = y1 * y2
    return (x1 * x2 - cross, x1 * y2 + y1 * x2 - cross)


def rconj(ring: str, p):
    x, y = p
    return (x, -y) if ring == "g" else (x - y, -y)


def rnorm(ring: str, p) -> int:
    x, y = p
    return x * x + y * y if ring == "g" else x * x - x * y + y * y


def runits(ring: str):
    if ring == "g":
        return [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1)]


def hermitian_disc(ring: str, a: int, gamma, c: int) -> int:
    n = rnorm(ring, gamma)
    return 2 * n - 4 * a * c if ring == "g" else n - 3 * a * c


def hermitian_value(ring: str, a: int, gamma, c: int, x, y) -> int:
    """a N(x) + Tr(beta conj(x) y) + c N(y) with beta = gamma / (1+i) or
    gamma / (1-w); the trace is evaluated as Re(gamma (1-i) conj(x) y) or
    Tr(gamma (2+w) conj(x) y) / 3."""
    t = rmul(ring, rmul(ring, gamma, rconj(ring, x)), y)
    if ring == "g":
        tr = t[0] + t[1]
    else:
        s = rmul(ring, t, (2, 1))
        num = 2 * s[0] - s[1]
        if num % 3:
            raise ValueError("trace term is not integral")
        tr = num // 3
    return a * rnorm(ring, x) + tr + c * rnorm(ring, y)


def _rdivmod(ring: str, p, q):
    n = rnorm(ring, q)
    num = rmul(ring, p, rconj(ring, q))
    quo = ((2 * num[0] + n) // (2 * n), (2 * num[1] + n) // (2 * n))
    prod = rmul(ring, quo, q)
    return (p[0] - prod[0], p[1] - prod[1])


def rgcd_norm(ring: str, p, q) -> int:
    """Norm of a gcd of p and q (both rings are norm-Euclidean)."""
    while q != (0, 0):
        p, q = q, _rdivmod(ring, p, q)
    return rnorm(ring, p)


def rvec_primitive(ring: str, x, y) -> bool:
    if x == (0, 0) and y == (0, 0):
        return False
    return rgcd_norm(ring, x, y) == 1


def rdet_is_unit(ring: str, v1, v2) -> bool:
    p = rmul(ring, v1[0], v2[1])
    q = rmul(ring, v1[1], v2[0])
    return rnorm(ring, (p[0] - q[0], p[1] - q[1])) == 1


def is_ring_superbase(ring: str, u, v, w) -> bool:
    """Pairwise unimodular, with u + e1 v + e2 w = 0 for some units e1, e2."""
    if not (rdet_is_unit(ring, u, v) and rdet_is_unit(ring, v, w)
            and rdet_is_unit(ring, u, w)):
        return False
    for e1 in runits(ring):
        for e2 in runits(ring):
            ok = True
            for k in range(2):
                s1 = rmul(ring, e1, v[k])
                s2 = rmul(ring, e2, w[k])
                if (u[k][0] + s1[0] + s2[0], u[k][1] + s1[1] + s2[1]) != (0, 0):
                    ok = False
                    break
            if ok:
                return True
    return False


def box_minimum(ring: str, a: int, gamma, c: int, box: int):
    """(least nonzero |H|, whether H vanishes) over primitive vectors with all
    four coordinates in [-box, box]."""
    rng = range(-box, box + 1)
    best = None
    isotropic = False
    for x0 in rng:
        for x1 in rng:
            x = (x0, x1)
            for y0 in rng:
                for y1 in rng:
                    y = (y0, y1)
                    val = abs(hermitian_value(ring, a, gamma, c, x, y))
                    if val == 0:
                        if not isotropic and rvec_primitive(ring, x, y):
                            isotropic = True
                        continue
                    if best is not None and val >= best:
                        continue
                    if rvec_primitive(ring, x, y):
                        best = val
    return best, isotropic


# --- patch geometry -----------------------------------------------------------


def patch_counts(geometry: str, depth: int) -> dict:
    """Vertices, edges (tree edges plus boundary stubs) and faces of a depth-d
    ball in the tree of degree n = 3, 4 or 6 whose vertices each add n - 2
    new faces."""
    n = {"3inf": 3, "4inf": 4, "6inf": 6}[geometry]
    if depth == 0:
        return {"vertices": 0, "edges": 0, "faces": 0}
    v = 1 + n * ((n - 1) ** (depth - 1) - 1) // (n - 2)
    stubs = n * (n - 1) ** (depth - 1)
    return {"vertices": v, "edges": v - 1 + stubs, "faces": n + (v - 1) * (n - 2)}


def elide(label: str) -> str:
    """Long integer labels are written in scientific style with 4 decimals."""
    digits = label.lstrip("-")
    if digits.isdigit() and len(digits) > 12:
        return f"{float(label):.4e}"
    return label
