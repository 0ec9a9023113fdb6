"""Acceptance gate: one end-to-end check per release criterion.

Each test prints exactly one `criterion N: pass|fail` line on the real
stdout (bypassing capture) so the gate can be read off a plain pytest run.
Expected values come from independent oracles: classical Gauss reduction,
continued fractions, exhaustive box searches, and word rewriting.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from box_search import class_represents, is_ring_superbase
from reference import (
    is_dibasis,
    superbase_ball,
    unit_invariance_holds,
    verify_simple_transitivity,
)
from topograph.bqf import BQF, cell_values
from topograph.classgroup import (
    ambiguous_form_A,
    enumerate_classes,
    is_diform_discriminant,
    principal_form,
    verify_red_blue,
)
from topograph.classical import content, is_square, red_blue_forms, reduce_definite
from topograph.diform import diform_river
from topograph.dilinear import (
    BQD,
    Divector,
    RED,
    BLUE,
    dicell_values,
)
from topograph.errors import SquareDiscriminantError
from topograph.hermitian import (
    BHF,
    PATTERN_IV,
    STANDARD_EISENSTEIN_SEED,
    STANDARD_GAUSS_SEED,
    bhf_evaluate,
    cube_values,
    empirical_minimum,
    find_cubasis,
    find_tetrabasis,
)
from topograph.reduction import gauss_reduced, minimum_nonzero, pell_solve
from topograph.rings import EISENSTEIN, GAUSS, QRE, zero


@pytest.fixture(name="report")
def _report_fixture(capfd):
    """Print one gate line per criterion on the real stdout."""

    def report(n: int, status: str, note: str = "") -> None:
        line = f"criterion {n}: {status}"
        if note:
            line += f" — {note}"
        with capfd.disabled():
            print(line, flush=True)

    return report


# --- 1: well-based reduction equals classical Gauss reduction ---------------

def test_criterion_01_definite_reduction_equivalence(report):
    mismatches = 0
    total = 0
    for a in range(1, 26):
        for c in range(1, 26):
            for b in range(-25, 26):
                if b * b - 4 * a * c >= 0:
                    continue
                if math.gcd(math.gcd(a, abs(b)), c) != 1:
                    continue
                total += 1
                r = gauss_reduced(BQF(a, b, c))
                if (r.a, r.b, r.c) != reduce_definite((a, b, c)):
                    mismatches += 1
    ok = mismatches == 0 and total > 20000
    report(1, "pass" if ok else "fail",
           f"{total} positive-definite forms vs classical reduction")
    assert ok, f"{mismatches} mismatches on {total} forms"


# --- 2: Pell solutions from the river match continued fractions -------------

def pell_by_continued_fractions(d: int) -> tuple[int, int]:
    """Independent oracle: fundamental solution of x^2 - d y^2 = 1."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - d * q * q != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def test_criterion_02_pell_ladder(report):
    bad = []
    for d in range(2, 100):
        if is_square(d):
            continue
        sol = pell_solve(d)
        if (sol.x, sol.y) != pell_by_continued_fractions(d):
            bad.append(d)
        if sol.x * sol.x - d * sol.y * sol.y != 1:
            bad.append(d)
    fixture = pell_solve(61)
    if (fixture.x, fixture.y) != (1766319049, 226153980):
        bad.append(61)
    ok = not bad
    report(2, "pass" if ok else "fail",
           "all nonsquare D <= 99 vs continued fractions, incl. D=61")
    assert ok, f"failures at D = {sorted(set(bad))}"


# --- 3: indefinite minima: exact witnesses, mu^2 <= delta/5, box cross-check

def test_criterion_03_indefinite_minima(report):
    np = pytest.importorskip("numpy")
    xs = np.arange(-50, 51)
    gx, gy = np.meshgrid(xs, xs)
    primitive = np.gcd(np.abs(gx), np.abs(gy)) == 1

    total = 0
    box_disagreements = []
    for a in range(-12, 13):
        for b in range(-12, 13):
            for c in range(-12, 13):
                d = b * b - 4 * a * c
                if d <= 0 or is_square(d):
                    continue
                if math.gcd(math.gcd(abs(a), abs(b)), abs(c)) != 1:
                    continue
                total += 1
                q = BQF(a, b, c)
                rep = minimum_nonzero(q)
                # the reported minimum is exactly attained ...
                assert abs(q(rep.witness)) == rep.mu
                # ... and satisfies the sharp bound with no tolerance
                assert 5 * rep.mu * rep.mu <= d, (a, b, c, rep.mu, d)
                vals = np.abs(a * gx * gx + b * gx * gy + c * gy * gy)
                box_mu = int(vals[primitive & (vals > 0)].min())
                if box_mu != rep.mu:
                    # a box scan can only overestimate the true minimum
                    assert rep.mu < box_mu, (a, b, c, rep.mu, box_mu)
                    box_disagreements.append((a, b, c))
    if box_disagreements:
        note = (f"river minima exact and within bound on {total} forms, but "
                f"{len(box_disagreements)} smallest witnesses lie outside "
                "the +/-50 box (e.g. (-12,-11,4) attains 1 at (20393, 73139))")
        report(3, "fail (expected)", note)
        pytest.xfail("recorded box size 50 cannot certify equality: minima "
                     "can be first witnessed far outside the box")
    report(3, "pass", f"{total} indefinite forms vs box-50 search")


# --- 4: cell identities at random cells --------------------------------------

def test_criterion_04_cell_identities(report):
    rng = random.Random(101)
    bases = [s for _, s in superbase_ball(8).values()]
    n = 100_000
    for _ in range(n):
        q = BQF(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(-50, 50))
        cv = cell_values(q, rng.choice(bases), rng.randrange(3))
        assert cv.e + cv.f == 2 * (cv.u + cv.v)
        assert (cv.u - cv.v) ** 2 - cv.e * cv.f == q.discriminant()
    report(4, "pass", f"{n} random cells, exact")


# --- 5: dicell identities at random dicells ----------------------------------

def _dibases(sigma):
    """Every dibasis (red, blue) with all coordinates in [-20, 20].

    A uniform draw from this list has the law of drawing both divectors
    uniformly from the box until they form a dibasis.  For a red (ru, rv),
    the blue (bu, bv) solve ru * bv - sigma * rv * bu = +-1, so bv is read
    off each bu.
    """
    box = range(-20, 21)
    out = []
    for ru in box:
        for rv in box:
            if ru == 0:
                continue  # sigma * rv * bu = -+1 has no solution for sigma > 1
            for bu in box:
                for unit in (1, -1):
                    bv, rem = divmod(unit + sigma * rv * bu, ru)
                    if rem == 0 and -20 <= bv <= 20:
                        out.append((Divector(RED, ru, rv), Divector(BLUE, bu, bv)))
    assert all(is_dibasis(r, b, sigma) for r, b in out)
    return out


def test_criterion_05_dicell_identities(report):
    rng = random.Random(103)
    n = 10_000
    for sigma in (2, 3):
        dibases = _dibases(sigma)
        for _ in range(n):
            q = BQD(sigma, rng.randint(-20, 20), rng.randint(-20, 20),
                    rng.randint(-20, 20))
            cv = dicell_values(q, *rng.choice(dibases))
            d = q.discriminant()
            assert cv.e + cv.f == 2 * (sigma * cv.u + cv.v)
            assert cv.e2 + cv.f2 == 2 * (cv.u + sigma * cv.v)
            assert cv.f - cv.e == cv.f2 - cv.e2
            assert (sigma * cv.u - cv.v) ** 2 - cv.e * cv.f == d
            if sigma == 3:
                assert cv.m + cv.n == 2 * (4 * cv.u + 3 * cv.v)
                assert cv.m2 + cv.n2 == 2 * (3 * cv.u + 4 * cv.v)
                assert cv.n - cv.m == 2 * (cv.f - cv.e)
                assert (4 * cv.u - 3 * cv.v) ** 2 - cv.m * cv.n == 4 * d
    report(5, "pass", f"{n} random dicells per sigma, exact; "
                      "step-doubling for sigma=3 exact")


# --- 6: diform minima bounds, exceptional forms, Markoff-gap sampling --------

def _equivalent_to_multiple(form, base):
    c = content(form)
    a, b, cc = form
    g = (a // c, b // c, cc // c)
    if g[1] ** 2 - 4 * g[0] * g[2] != base[1] ** 2 - 4 * base[0] * base[2]:
        return False
    from reference import cycle_fingerprint

    return cycle_fingerprint(g) == cycle_fingerprint(base)


def test_criterion_06_diform_minima(report):
    total = exceptional = 0
    violations = []
    for sigma in (2, 3):
        for a in range(-8, 9):
            for b in range(-8, 9):
                for c in range(-8, 9):
                    if math.gcd(math.gcd(abs(a), abs(b)), abs(c)) != 1:
                        continue
                    d = sigma * (b * b * sigma - 4 * a * c)
                    if d <= 0:
                        continue
                    try:
                        r = diform_river(BQD(sigma, a, b, c))
                    except SquareDiscriminantError:
                        continue
                    total += 1
                    if r.exceptional:
                        exceptional += 1
                        continue
                    lhs = r.mu * r.mu * (10 if sigma == 2 else 25)
                    rhs = d if sigma == 2 else 2 * d
                    if lhs > rhs:
                        violations.append((sigma, a, b, c))
    # the excluded forms really are the straight-period ones
    exceptional_fixtures = (
        diform_river(BQD(2, 1, 0, -1)).exceptional
        and diform_river(BQD(3, 1, 0, -1)).exceptional
        and diform_river(BQD(3, 1, 0, -2)).exceptional
    )

    # gap inequality on sampled red/blue pairs (sigma = 3)
    gap_violations = []
    seen = set()
    for a in range(-8, 9):
        for b in range(-8, 9):
            for c in range(-8, 9):
                d = 3 * (3 * b * b - 4 * a * c)
                if d <= 0 or d > 500 or is_square(d):
                    continue
                bs = 3 * abs(b)
                coprime = math.gcd(abs(a), abs(c)) == 1 and (
                    b == 0 or (math.gcd(a, bs) == 1 and math.gcd(bs, c) == 1))
                if not coprime:
                    continue
                q1, q2 = red_blue_forms(3, a, b, c)
                key = (min(q1, q2), max(q1, q2))
                if key in seen:
                    continue
                seen.add(key)
                if any(_equivalent_to_multiple(q, base)
                       for q in (q1, q2)
                       for base in ((1, 0, -3), (2, 0, -3))):
                    continue
                mu1 = minimum_nonzero(BQF(*q1)).mu
                mu2 = minimum_nonzero(BQF(*q2)).mu
                if 13 * min(mu1, mu2) ** 2 > d:
                    gap_violations.append((a, b, c))
    ok = (not violations and exceptional_fixtures and not gap_violations
          and total > 4000)
    report(6, "pass" if ok else "fail",
           f"{total} diforms ({exceptional} exceptional); "
           f"gap inequality on {len(seen)} red/blue pairs")
    assert ok, (violations, exceptional_fixtures, gap_violations)


# --- 7: class group axioms, the ambiguous class, and the red/blue relation ---

def test_criterion_07_class_group_suite(report):
    failures = []
    discs = relation_checked = relation_skipped = sigma_checks = 0
    for disc in range(-400, 401):
        if disc == 0 or disc % 4 not in (0, 1):
            continue
        if disc > 0 and is_square(disc):
            continue
        discs += 1
        t = enumerate_classes(disc)
        t.build_table()
        e = t.class_index(principal_form(disc))
        h = t.h
        for i in range(h):
            if t.table[e][i] != i or t.table[i][e] != i:
                failures.append((disc, "identity"))
        for a, b, c in t.reps:
            if t.table[t.class_index((a, b, c))][t.class_index((a, -b, c))] != e:
                failures.append((disc, "inverse"))
        for i in range(h):
            for j in range(h):
                if t.table[i][j] != t.table[j][i]:
                    failures.append((disc, "commutativity"))
                for k in range(h):
                    if t.table[t.table[i][j]][k] != t.table[i][t.table[j][k]]:
                        failures.append((disc, "associativity"))
                        break
        for sigma in (2, 3):
            if not is_diform_discriminant(sigma, disc):
                continue
            amb = ambiguous_form_A(sigma, disc)
            if content(amb) != 1:
                # the ambiguous-class statements concern the primitive case
                continue
            sigma_checks += 1
            ia = t.class_index(amb)
            if t.table[ia][ia] != e:
                failures.append((disc, sigma, "ambiguous-square"))
            representing = [i for i in range(h) if class_represents(t, i, sigma)]
            if representing != [ia]:
                failures.append((disc, sigma, "ambiguous-unique"))
            found = False
            for a in range(-10, 11):
                for b in range(-10, 11):
                    for c in range(-10, 11):
                        if sigma * (b * b * sigma - 4 * a * c) != disc:
                            continue
                        bs = sigma * abs(b)
                        coprime = math.gcd(abs(a), abs(c)) == 1 and (
                            b == 0 or (math.gcd(a, bs) == 1
                                       and math.gcd(bs, c) == 1))
                        if not coprime:
                            continue
                        q_red, q_blue = red_blue_forms(sigma, a, b, c)
                        if content(q_red) != 1 or content(q_blue) != 1:
                            continue
                        if disc < 0 and a < 0:
                            continue
                        found = True
                        relation_checked += 1
                        ired = t.class_index(q_red)
                        iblue = t.class_index(q_blue)
                        if t.table[ia][iblue] != ired:
                            failures.append((disc, sigma, (a, b, c), "relation"))
                        break
                    if found:
                        break
                if found:
                    break
            if not found:
                relation_skipped += 1

    fixture = verify_red_blue(2, 1, 1, 3)
    fixture_ok = (fixture["delta"] == -20 and fixture["relation_holds"]
                  and reduce_definite(tuple(fixture["red"])) == (1, 0, 5)
                  and tuple(fixture["blue"]) == ambiguous_form_A(2, -20))

    ok = not failures and fixture_ok
    report(7, "pass" if ok else "fail",
           f"{discs} discriminants; {sigma_checks} ambiguous-class checks; "
           f"red/blue relation on {relation_checked} diforms "
           f"({relation_skipped} with no coprime diform in the search box)")
    assert ok, (failures[:10], fixture)


# --- 8: Hermitian cube identities, pattern exclusion, box minima --------------

def test_criterion_08_hermitian_cubes_and_minima(report):
    rng = random.Random(107)
    cubasis = find_cubasis(STANDARD_GAUSS_SEED)
    tetrabasis = find_tetrabasis(STANDARD_EISENSTEIN_SEED)
    for i in range(4):
        triple = [tetrabasis[j] for j in range(4) if j != i]
        assert is_ring_superbase(*triple)

    minima_checked = 0
    for _ in range(100):
        h = BHF(GAUSS, rng.randint(-6, 6),
                QRE(GAUSS, rng.randint(-6, 6), rng.randint(-6, 6)),
                rng.randint(-6, 6))
        cv = cube_values(h, cubasis)
        assert cv.a + cv.u == cv.b + cv.v == cv.c + cv.w == cv.z
        assert (cv.z ** 2 - 2 * cv.a * cv.u - 2 * cv.b * cv.v
                - 2 * cv.c * cv.w) == h.discriminant()
        if h.discriminant() > 0:
            assert cv.pattern != PATTERN_IV
            if minima_checked < 25:
                rep = empirical_minimum(h, 3)
                if not rep["isotropic_in_box"]:
                    assert 6 * rep["mu"] ** 2 <= rep["delta"]
                minima_checked += 1

    for _ in range(100):
        h = BHF(EISENSTEIN, rng.randint(-6, 6),
                QRE(EISENSTEIN, rng.randint(-6, 6), rng.randint(-6, 6)),
                rng.randint(-6, 6))
        for v in tetrabasis:
            assert isinstance(bhf_evaluate(h, *v), int)
            assert unit_invariance_holds(h, v)
        if h.discriminant() > 0 and minima_checked < 50:
            rep = empirical_minimum(h, 3)
            if not rep["isotropic_in_box"]:
                assert 6 * rep["mu"] ** 2 <= rep["delta"]
            minima_checked += 1

    tight = empirical_minimum(BHF(GAUSS, 2, zero(GAUSS), -3), 4)
    assert tight["delta"] == 24 and tight["bound_ok"]
    if tight["mu"] != 2:
        note = ("identities, pattern exclusion and minima bound hold on 100 "
                "forms per ring, but the recorded tightness value mu=2 for "
                "2xxbar-3yybar disagrees with exhaustive search: H(1+i,1)=1")
        report(8, "fail (expected)", note)
        pytest.xfail("recorded expectation disagrees with exhaustive search: "
                     "H(1+i,1)=1")
    report(8, "pass", "100 random forms per ring, exact")


# --- 9: the reflection-group correspondence at radius 5 ----------------------

def test_criterion_09_coxeter_correspondence(report):
    rep = verify_simple_transitivity(5)
    rel = rep["relations"]
    ok = (all(rel["involutions"]) and rel["braid_cubed"] and rel["commute_02"]
          and rep["injective"] and rep["match"])
    report(9, "pass" if ok else "fail",
           f"flag/matrix/word balls agree: {rep['flag_ball']}")
    assert ok, rep


# --- 10: byte determinism across runs and import orders ----------------------

_GOLDEN_SCRIPT = """\
import sys
{imports}
from topograph.render import emit_svg, layout
from topograph.classgroup import enumerate_classes
import json
sys.stdout.buffer.write(emit_svg(layout("3inf", 5, (1, 0, -3))))
t = enumerate_classes(-20)
t.build_table()
sys.stdout.buffer.write(json.dumps(t.to_json(), sort_keys=True).encode())
"""

_ORDERS = (
    ("topograph.rings", "topograph.diform", "topograph.hermitian",
     "topograph.render"),
    ("topograph.render", "topograph.hermitian", "topograph.diform",
     "topograph.rings"),
    ("topograph.cli",),
)


def _golden_bytes(order):
    script = _GOLDEN_SCRIPT.format(
        imports="\n".join(f"import {m}" for m in order))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_10_byte_determinism(report):
    outputs = [_golden_bytes(order) for order in _ORDERS]
    outputs.append(_golden_bytes(_ORDERS[0]))  # second run, same order
    ok = len(set(outputs)) == 1 and outputs[0].startswith(b"<?xml")

    cli = [subprocess.run(
        [sys.executable, "-m", "topograph.cli", "river", "--form", "1,0,-3"],
        capture_output=True) for _ in range(2)]
    cli_ok = (cli[0].stdout == cli[1].stdout and cli[0].returncode == 0
              and json.loads(cli[0].stdout))
    ok = ok and cli_ok
    report(10, "pass" if ok else "fail",
           "SVG and JSON identical across runs and import orders")
    assert ok
