"""Checkers: compare one answer of the program with the oracles.

Every checker takes plain integers, tuples and bytes (the workloads convert
the program's objects first) and raises ``CheckFailed`` naming what is
wrong.  ``selftest.py`` feeds each of them deliberately wrong answers.
"""

from __future__ import annotations

import functools
import math
import xml.etree.ElementTree as ET

import oracles as O


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@functools.lru_cache(maxsize=None)
def class_set(d: int) -> frozenset:
    """Every proper class of discriminant d, as oracle labels."""
    if d < 0:
        return frozenset(O.enumerate_definite(d))
    return frozenset(O.enumerate_indefinite_cycles(d))


# --- binary quadratic forms ---------------------------------------------------


def check_reduced(form, out) -> None:
    out = tuple(out)
    expect(O.is_reduced_definite(out), f"{out} is not Gauss-reduced")
    want = O.reduce_definite(tuple(form))
    expect(out == want, f"reduced {form} -> {out}, oracle {want}")


def check_pell(d: int, x: int, y: int) -> None:
    want = O.pell_fundamental(d)
    expect((x, y) == want, f"pell({d}) -> {(x, y)}, oracle {want}")


def check_automorph(form, t) -> None:
    (p, r), (q, s) = t
    expect(p * s - q * r == 1, f"automorph {t} of {form} has det != 1")
    expect(O.transform(tuple(form), t) == tuple(form),
           f"automorph {t} does not fix {form}")


def check_bends(form, bends) -> None:
    want = sorted(O.rho_cycle(tuple(form)))
    got = sorted(tuple(f) for f in bends)
    expect(got == want, f"riverbends {form} -> {got}, rho cycle {want}")


def check_minimum(form, mu: int, witness) -> None:
    form = tuple(form)
    want = min(abs(f[0]) for f in O.rho_cycle(form))
    expect(mu == want, f"minimum {form} -> {mu}, rho cycle gives {want}")
    x, y = witness
    expect(math.gcd(x, y) == 1, f"witness {witness} of {form} is imprimitive")
    val = O.bqf_value(form, witness)
    expect(abs(val) == mu, f"witness {witness} of {form} has |Q| = {abs(val)} != {mu}")


# --- class groups ---------------------------------------------------------------

# seeded (i, j, k) triples on which each table's associativity is checked
ASSOCIATIVITY_TRIPLES = 8


def check_class_number(d: int, h: int) -> None:
    want = len(class_set(d))
    expect(h == want, f"h({d}) = {h}, oracle count {want}")


def check_class_table(d: int, reps, table, rng) -> None:
    """reps are one form per class, table[i][j] the index of the product."""
    check_class_number(d, len(reps))
    labels = [O.class_label(tuple(f)) for f in reps]
    for f in reps:
        expect(O.disc(f) == d and O.content(f) == 1, f"rep {f} invalid for {d}")
    expect(set(labels) == class_set(d), f"class reps of {d} miss a class")
    h = len(reps)
    index = {lab: i for i, lab in enumerate(labels)}
    e = index[O.class_label(O.principal_form(d))]
    full = list(range(h))
    expect(len(table) == h, f"table of {d} has {len(table)} rows, h = {h}")
    for i in range(h):
        expect(sorted(table[i]) == full, f"row {i} of the {d} table is no permutation")
        expect(sorted(table[j][i] for j in range(h)) == full,
               f"column {i} of the {d} table is no permutation")
        expect(table[e][i] == i and table[i][e] == i,
               f"principal class {e} is not the identity of the {d} table")
    for _ in range(ASSOCIATIVITY_TRIPLES):
        i, j, k = rng.randrange(h), rng.randrange(h), rng.randrange(h)
        expect(table[table[i][j]][k] == table[i][table[j][k]],
               f"table of {d} is not associative at {(i, j, k)}")
    for sigma in (2, 3):
        amb = O.ambiguous_form(sigma, d)
        if amb is not None and O.content(amb) == 1:
            ia = index[O.class_label(amb)]
            expect(table[ia][ia] == e, f"A class of {d} (sigma {sigma}) has order > 2")


def check_red_blue(sigma: int, form, out: dict) -> None:
    red, blue = O.red_blue(sigma, form)
    a, b, c = form
    d = sigma * (b * b * sigma - 4 * a * c)
    expect(out["delta"] == d, f"red/blue delta {out['delta']} != {d}")
    expect(tuple(out["red"]) == red and tuple(out["blue"]) == blue,
           f"red/blue forms of {form} wrong: {out['red']}, {out['blue']}")
    expect(out["relation_holds"] is True, f"red/blue relation fails for {sigma}, {form}")


# --- diforms ----------------------------------------------------------------------


def check_diform_well(sigma: int, form, faces, values, red, blue) -> None:
    """faces are (colour, u, v) triples of the source pinwheel."""
    n = len(faces)
    expect(n == 2 * sigma, f"source pinwheel of {form} has {n} faces")
    for i in range(n):
        expect(abs(O.dibasis_det(sigma, faces[i], faces[(i + 1) % n])) == 1,
               f"faces {faces[i]}, {faces[(i + 1) % n]} are no dibasis")
    want_vals = tuple(O.divector_value(form, sigma, *f) for f in faces)
    expect(tuple(values) == want_vals, f"well values {values} != {want_vals}")
    r, b = O.red_blue(sigma, form)
    rr, rb = O.reduce_definite(r), O.reduce_definite(b)
    expect(tuple(red) == rr and tuple(blue) == rb,
           f"reduced red/blue {red}, {blue} != {rr}, {rb}")
    expect(min(values) == min(rr[0], rb[0]),
           f"well minimum {min(values)} != reduced minimum {min(rr[0], rb[0])}")


def check_diform_river(sigma: int, form, automorph, steps: int, exceptional: bool,
                       mu, witness) -> None:
    expect(steps > 0, f"river of {form} has no steps")
    expect(O.dilinear_automorph_ok(automorph, sigma, form),
           f"automorph {automorph} of {sigma}, {form} is not a dilinear "
           "det-1 isometry")
    if exceptional:
        expect(mu is None, "exceptional river reports a minimum")
        return
    color, u, v = witness
    expect(O.divector_primitive(sigma, color, u, v), f"witness {witness} imprimitive")
    val = O.divector_value(form, sigma, color, u, v)
    expect(abs(val) == mu, f"river witness {witness} has |Q| = {abs(val)} != {mu}")


# --- patches and SVG ----------------------------------------------------------------


def check_counts(geometry: str, depth: int, counts: dict) -> None:
    want = O.patch_counts(geometry, depth)
    expect(dict(counts) == want, f"{geometry} depth {depth}: {counts} != {want}")


def parse_face(geometry: str, label: str):
    """The face named by a form-less label: 'x,y' or 'colour:u,v'."""
    if geometry == "3inf":
        x, y = (int(t) for t in label.split(","))
        expect(math.gcd(x, y) == 1 and (x > 0 or (x == 0 and y > 0)),
               f"face {label} is not a primitive lax vector")
        return (x, y)
    color, rest = label.split(":")
    u, v = (int(t) for t in rest.split(","))
    sigma = 2 if geometry == "4inf" else 3
    expect(color in ("red", "blue") and O.divector_primitive(sigma, color, u, v)
           and (u > 0 or (u == 0 and v > 0)),
           f"face {label} is not a primitive lax divector")
    return (color, u, v)


def face_value(geometry: str, form, face) -> int:
    if geometry == "3inf":
        return O.bqf_value(form, face)
    sigma = 2 if geometry == "4inf" else 3
    return O.divector_value(form, sigma, *face)


def expected_labels(geometry: str, form, faces, bare):
    """Labels the patch faces should carry.  faces are (x, y, label) rows;
    bare are the rows of the form-less patch of the same geometry and depth,
    whose labels name the faces in the same order and at the same places."""
    if form is None:
        out = [row[2] for row in faces]
        parsed = [parse_face(geometry, lab) for lab in out]
        expect(len(set(parsed)) == len(parsed), f"{geometry} patch repeats a face")
        return out
    expect(len(faces) == len(bare), f"{len(faces)} faces, form-less patch has {len(bare)}")
    out = []
    for (x, y, _), (bx, by, blabel) in zip(faces, bare):
        expect((x, y) == (bx, by), f"face at {(x, y)} moved to {(bx, by)} without a form")
        out.append(str(face_value(geometry, form, parse_face(geometry, blabel))))
    return out


def check_labels(labels, want) -> None:
    expect(len(labels) == len(want), f"{len(labels)} face labels, expected {len(want)}")
    for i, (got, exp) in enumerate(zip(labels, want)):
        expect(got == exp, f"face {i} labelled {got!r}, Q gives {exp!r}")


def svg_texts(svg: bytes, counts: dict) -> list:
    """The SVG parses and draws one circle, line and text per vertex, edge
    and face; returns the texts in order."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    ns = "{http://www.w3.org/2000/svg}"
    drawn = {"vertices": len(root.findall(f"{ns}circle")),
             "edges": len(root.findall(f"{ns}line"))}
    texts = [t.text for t in root.findall(f"{ns}text")]
    drawn["faces"] = len(texts)
    expect(drawn == {k: counts[k] for k in drawn}, f"SVG draws {drawn}, want {counts}")
    return texts


def check_svg(svg: bytes, counts: dict, labels) -> None:
    """svg_texts holds, and the texts are the (elided) expected labels."""
    check_labels(svg_texts(svg, counts), [O.elide(lab) for lab in labels])


# --- Hermitian forms ------------------------------------------------------------------


def check_superbases(ring: str, triples) -> None:
    for t in triples:
        expect(O.is_ring_superbase(ring, *t), f"{t} is not a {ring} superbase")


def check_cubasis(cubasis) -> None:
    """Three opposite pairs; every transversal triple is a superbase."""
    (s1, p1), (s2, p2), (s3, p3) = cubasis
    check_superbases("g", [(t1, t2, t3) for t1 in (s1, p1) for t2 in (s2, p2)
                           for t3 in (s3, p3)])


def check_tetrabasis(tb) -> None:
    expect(len(tb) == 4, "a tetrabasis has four vectors")
    check_superbases("e", [(tb[i], tb[j], tb[k]) for i in range(4)
                           for j in range(i + 1, 4) for k in range(j + 1, 4)])


def sign_pattern(pairs) -> str:
    """The cube's sign pattern from its three opposite face pairs."""
    if any(x == 0 for p in pairs for x in p):
        return "mixed-zero"
    if any(x > 0 and y > 0 for x, y in pairs) and any(x < 0 and y < 0 for x, y in pairs):
        return "IV"
    split = sum(1 for x, y in pairs if x * y < 0)
    return {3: "III", 2: "II"}.get(split, "I")


def check_cube(form, cubasis, faces, z: int, pattern: str) -> None:
    """faces = (a, b, c, u, v, w); the cube identities are recomputed."""
    a0, gamma, c0 = form
    (s1, p1), (s2, p2), (s3, p3) = cubasis
    want = [O.hermitian_value("g", a0, gamma, c0, *v) for v in (s1, s2, s3, p1, p2, p3)]
    expect(list(faces) == want, f"cube faces {faces} != H values {want}")
    a, b, c, u, v, w = want
    expect(a + u == b + v == c + w == z, f"cube sums of {form} differ from z = {z}")
    expect(O.hermitian_disc("g", a0, gamma, c0) == z * z - 2 * (a * u + b * v + c * w),
           f"cube discriminant identity fails for {form}")
    expect(pattern == sign_pattern(((a, u), (b, v), (c, w))), f"pattern {pattern} wrong")


def check_hermitian_min(ring: str, form, box: int, mu: int, witness,
                        bound_ok=None) -> None:
    a, gamma, c = form
    want, isotropic = O.box_minimum(ring, a, gamma, c, box)
    expect(mu == want, f"box-{box} minimum of {ring} {form} -> {mu}, oracle {want}")
    if witness is not None:
        x, y = witness
        expect(O.rvec_primitive(ring, x, y), f"witness {witness} imprimitive")
        expect(abs(O.hermitian_value(ring, a, gamma, c, x, y)) == mu,
               f"witness {witness} does not attain {mu}")
    if bound_ok is not None:
        d = O.hermitian_disc(ring, a, gamma, c)
        expect(bound_ok == (isotropic or 6 * mu * mu <= d), "bound_ok flag wrong")
