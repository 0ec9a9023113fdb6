"""The four workloads, as rounds of operations.

A round is a list of ``Op``s built from a seeded ``random.Random``; every
round of a workload has the same operations in the same number, only the
generated inputs differ.  ``Op.call`` is the timed call into the program and
``Op.check`` validates its result against the oracles outside the timed
region.  Library functions are looked up on their modules at call time, so
the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
from dataclasses import dataclass
from typing import Any, Callable

import checks as C
import oracles as O
import topograph.classgroup as CG
import topograph.diform as DF
import topograph.hermitian as HM
import topograph.reduction as RD
import topograph.render as RN
from topograph.bqf import BQF
from topograph.rings import EISENSTEIN, GAUSS, QRE

@dataclass
class Op:
    family: str  # end-to-end family metric: reduce, river, pell, ...
    kind: str  # span name: the library function (or CLI subcommand) called
    label: str  # the input, printed when the operation fails
    call: Callable[[], Any]
    check: Callable[[Any], None]


# --- input helpers ----------------------------------------------------------------


def mat_mul(m, n):
    return ((m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
            (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]))


def long_matrix(rng, size: int):
    """T^t1 S T^t2 with |t1|, |t2| about size: det 1, entries about size^2,
    and a walk of about |t1| + |t2| steps back to a reduced basis."""
    t1 = jitter(rng, size) * rng.choice((1, -1))
    t2 = jitter(rng, size) * rng.choice((1, -1))
    return mat_mul(mat_mul(((1, t1), (0, 1)), ((0, -1), (1, 0))), ((1, t2), (0, 1)))


def small_matrix(rng, moves: int = 3):
    m = ((1, 0), (0, 1))
    for _ in range(moves):
        g = rng.choice((((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 2), (0, 1)),
                        ((0, -1), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (-1, 1))))
        m = mat_mul(m, g)
    return m


def jitter(rng, base: int) -> int:
    """base within +-2%: the seed changes the input, not its size."""
    spread = max(1, base // 50)
    return base + rng.randint(-spread, spread)


def definite_form(rng, bound: int = 9):
    while True:
        a, b, c = rng.randint(1, bound), rng.randint(-bound, bound), rng.randint(1, bound)
        if b * b - 4 * a * c < 0 and O.content((a, b, c)) == 1:
            return (a, b, c)


def indefinite_form(rng, bound: int = 9):
    while True:
        f = tuple(rng.randint(-bound, bound) for _ in range(3))
        d = O.disc(f)
        if d > 0 and not O.is_square(d) and O.content(f) == 1:
            return f


def diform(rng, sigma: int, definite: bool, bound: int = 9):
    while True:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        d = sigma * (sigma * b * b - 4 * a * c)
        if O.content((a, b, c)) != 1:
            continue
        if definite and d < 0 and a > 0:
            return (a, b, c)
        if not definite and d > 0 and not O.is_square(d):
            return (a, b, c)


def pairwise_coprime(sigma: int, form) -> bool:
    """a, b*sigma and c are pairwise coprime."""
    a, b, c = form
    bs = abs(b) * sigma
    return math.gcd(a, c) == math.gcd(a, bs) == math.gcd(bs, c) == 1


def coprime_diform(rng, sigma: int, d: int):
    """A diform of discriminant d with a, b*sigma, c pairwise coprime (and
    a > 0 when d < 0), or None."""
    if d % sigma:
        return None
    n = d // sigma
    bs = list(range(-6, 7))
    rng.shuffle(bs)
    for b in bs:
        p4 = sigma * b * b - n
        if p4 % 4 or p4 == 0:
            continue
        p = p4 // 4
        divs = [a for a in range(1, math.isqrt(abs(p)) + 1) if p % a == 0]
        divs += [abs(p) // a for a in divs]
        rng.shuffle(divs)
        for a in divs:
            for a2 in ((a,) if d < 0 else (a, -a)):
                c = p // a2
                if pairwise_coprime(sigma, (a2, b, c)):
                    return (a2, b, c)
    return None


HERMITIAN_BOUND = 4  # |coefficient| of the generated Hermitian forms


def hermitian_form(rng, ring: str, indefinite: bool):
    while True:
        a, c = (rng.randint(-HERMITIAN_BOUND, HERMITIAN_BOUND) for _ in range(2))
        g = tuple(rng.randint(-HERMITIAN_BOUND, HERMITIAN_BOUND) for _ in range(2))
        if (a, g, c) == (0, (0, 0), 0):
            continue
        if not indefinite or O.hermitian_disc(ring, a, g, c) > 0:
            return (a, g, c)


def face(d) -> tuple:
    return (d.color, d.u, d.v)


def rvec(v) -> tuple:
    return ((v[0].x, v[0].y), (v[1].x, v[1].y))


def bhf(ring: str, form):
    name = GAUSS if ring == "g" else EISENSTEIN
    a, g, c = form
    return HM.BHF(name, a, QRE(name, g[0], g[1]), c)


# --- operations shared by several workloads -----------------------------------------


def gauss_op(f) -> Op:
    return Op("reduce", "gauss_reduced", f"gauss_reduced{f}",
              lambda q=BQF(*f): RD.gauss_reduced(q),
              lambda r: C.check_reduced(f, (r.a, r.b, r.c)))


def pell_op(d: int) -> Op:
    def check(r):
        C.check_pell(d, r.x, r.y)
        C.check_automorph((1, 0, -d), r.automorph)

    return Op("pell", "pell_solve", f"pell_solve({d})", lambda: RD.pell_solve(d), check)


def river_ops(f) -> list[Op]:
    q = BQF(*f)
    return [Op("river", "minimum_nonzero", f"minimum_nonzero{f}",
               lambda: RD.minimum_nonzero(q),
               lambda r: C.check_minimum(f, r.mu, r.witness)),
            Op("river", "riverbends", f"riverbends{f}", lambda: RD.riverbends(q),
               lambda r: C.check_bends(f, [(g.a, g.b, g.c) for g in r]))]


def diform_ops(sigma: int, wf, rf) -> list[Op]:
    """diform_well on the definite wf and diform_river on the indefinite rf."""
    def check_well(w):
        C.check_diform_well(sigma, wf, [face(f) for f in w["source"].faces],
                            w["source_values"], w["reduced_red"], w["reduced_blue"])

    def check_river(r):
        C.check_diform_river(sigma, rf, r.automorph, len(r.steps), r.exceptional, r.mu,
                             None if r.witness is None else face(r.witness))

    return [Op("diform", "diform_well", f"diform_well(sigma={sigma}, {wf})",
               lambda q=DF.BQD(sigma, *wf): DF.diform_well(q), check_well),
            Op("diform", "diform_river", f"diform_river(sigma={sigma}, {rf})",
               lambda q=DF.BQD(sigma, *rf): DF.diform_river(q), check_river)]


# --- walks-long ---------------------------------------------------------------------


def walks_long(rng) -> list[Op]:
    ops = []
    for k in (10000, 20000, 30000, 40000, 50000, 60000):
        k = jitter(rng, k)
        ops.append(gauss_op((1, 2 * k, k * k + 1)))
    for size in (6000, 9000, 12000, 15000, 18000, 21000):
        ops.append(gauss_op(O.transform(definite_form(rng, 6), long_matrix(rng, size))))
    for k in (3000, 6000, 9000):
        k = jitter(rng, k)
        for d in (k * k + 1, k * k + 2, k * k - 1):
            ops.append(pell_op(d))
    for k in (6000, 12000, 18000, 24000):
        m = rng.choice((2, 3, 5, 6, 7, 8, 10, 11))
        k = jitter(rng, k)
        ops += river_ops((1, 2 * k, k * k - m))
    for size in (3000, 6000, 9000, 12000):
        ops += river_ops(O.transform(indefinite_form(rng, 6), long_matrix(rng, size)))
    for sigma, ks in ((2, (60, 120, 180)), (3, (40, 80, 120))):
        for k in ks:
            k = jitter(rng, k)
            ops += diform_ops(sigma, (1, 2 * k, sigma * k * k + 1),
                              (1, 2 * k, sigma * k * k - 1))
    return ops


# --- tables ---------------------------------------------------------------------------

NEGATIVE_RANGE = (-900, -3)
POSITIVE_RANGE = (5, 1200)


def catalogue():
    lo, hi = NEGATIVE_RANGE
    neg = [d for d in range(hi, lo - 1, -1) if O.is_discriminant(d)]
    lo, hi = POSITIVE_RANGE
    pos = [d for d in range(lo, hi + 1) if O.is_discriminant(d)]
    return neg + pos


def class_reps(d: int):
    """One oracle form per class: the reduced form, or a cycle's least form."""
    return sorted(min(c) if d > 0 else c for c in C.class_set(d))


def tables(rng) -> list[Op]:
    ops = []
    made = {}
    for d in catalogue():
        def enum(d=d):
            made[d] = CG.enumerate_classes(d)
            return made[d]

        def build(d=d):
            made[d].build_table()
            return made[d]

        ops.append(Op("classgroup", "enumerate_classes", f"enumerate_classes({d})",
                      enum, lambda t, d=d: C.check_class_number(d, t.h)))
        triples = rng.randrange(1 << 30)
        ops.append(Op("classgroup", "build_table", f"build_table({d})", build,
                      lambda t, d=d, s=triples: C.check_class_table(
                          d, t.reps, t.table, random.Random(s))))
        for sigma in (2, 3):
            f = coprime_diform(rng, sigma, d)
            if f is not None:
                ops.append(Op("classgroup", "verify_red_blue",
                              f"verify_red_blue({sigma}, {f})",
                              lambda s=sigma, f=f: CG.verify_red_blue(s, *f),
                              lambda out, s=sigma, f=f: C.check_red_blue(s, f, out)))
        for rep in class_reps(d):
            f = O.transform(rep, small_matrix(rng))
            if d < 0:
                ops.append(gauss_op(f))
            else:
                ops += river_ops(f)
    return ops


# --- geometry -------------------------------------------------------------------------

PATCHES = (("3inf", 8), ("4inf", 5), ("6inf", 4))
HERMITIAN_BOXES = (2, 3, 4)


def patch_rows(patch):
    return [(f["x"], f["y"], f["label"]) for f in patch.faces]


def geometry(rng) -> list[Op]:
    ops = []
    for geo, depth in PATCHES:
        sigma = {"3inf": None, "4inf": 2, "6inf": 3}[geo]
        if sigma is None:
            forms = (None, definite_form(rng), indefinite_form(rng))
        else:
            forms = (None, diform(rng, sigma, True), diform(rng, sigma, False))
        state = {}
        for form in forms:
            def lay(geo=geo, depth=depth, form=form):
                state[form] = RN.layout(geo, depth, form)
                return state[form]

            def check_layout(p, geo=geo, depth=depth, form=form):
                C.check_counts(geo, depth, p.counts())
                C.check_counts(geo, depth, {"vertices": len(p.vertices),
                                            "edges": len(p.edges),
                                            "faces": len(p.faces)})
                rows = patch_rows(p)
                if form is None:
                    state["bare"] = rows
                want = C.expected_labels(geo, form, rows, state.get("bare", []))
                C.check_labels([r[2] for r in rows], want)
                state["labels", form] = want

            def check_svg(svg, geo=geo, depth=depth, form=form):
                C.check_svg(svg, O.patch_counts(geo, depth), state["labels", form])
                C.expect(RN.emit_svg(state[form]) == svg, "second emit differs")

            ops.append(Op("render", "layout", f"layout({geo!r}, {depth}, {form})",
                          lay, check_layout))
            ops.append(Op("render", "emit_svg", f"emit_svg({geo!r}, {depth}, {form})",
                          lambda form=form: RN.emit_svg(state[form]), check_svg))
    for sigma in (2, 3):
        for _ in range(4):
            ops += diform_ops(sigma, diform(rng, sigma, True, 20),
                              diform(rng, sigma, False, 20))
    found = {}

    def cubasis():
        found["cb"] = HM.find_cubasis(HM.STANDARD_GAUSS_SEED)
        return found["cb"]

    ops.append(Op("hermitian", "find_cubasis", "find_cubasis(standard Gauss seed)",
                  cubasis, lambda cb: C.check_cubasis([rvec_pair(p) for p in cb])))
    for _ in range(8):
        f = hermitian_form(rng, "g", False)
        ops.append(Op("hermitian", "cube_values", f"cube_values(g, {f})",
                      lambda h=bhf("g", f): HM.cube_values(h, found["cb"]),
                      lambda cv, f=f: C.check_cube(
                          f, [rvec_pair(p) for p in found["cb"]],
                          (cv.a, cv.b, cv.c, cv.u, cv.v, cv.w), cv.z, cv.pattern)))
    ops.append(Op("hermitian", "find_tetrabasis", "find_tetrabasis(standard Eisenstein seed)",
                  lambda: HM.find_tetrabasis(HM.STANDARD_EISENSTEIN_SEED),
                  lambda tb: C.check_tetrabasis([rvec(v) for v in tb])))
    for ring in ("g", "e"):
        for box in HERMITIAN_BOXES:
            f = hermitian_form(rng, ring, True)
            ops.append(Op("hermitian", "empirical_minimum",
                          f"empirical_minimum({ring}, {f}, box={box})",
                          lambda h=bhf(ring, f), box=box: HM.empirical_minimum(h, box),
                          lambda r, ring=ring, f=f, box=box: C.check_hermitian_min(
                              ring, f, box, r["mu"], rvec(r["witness"]), r["bound_ok"])))
    return ops


def rvec_pair(pair):
    """A cubasis pair (seed vector, partner) as plain tuples."""
    return tuple(rvec(v) for v in pair)


# --- cli --------------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("reduce", "river", "pell", "classgroup", "diform",
                   "hermitian_g", "hermitian_e", "render", "dump")
CLI_BOX = 2
CLI_PATCH = ("6inf", 3)
# A valid discriminant whose ambiguous form A is imprimitive (3, 3, 15 for
# sigma = 3).  The seeded classgroup discriminant is drawn among those whose
# A forms are primitive; this one is in every cycle, whatever the seed, and
# exits 1 (not-primitive) on commits whose class-group report does not
# handle an imprimitive A.
CLI_IMPRIMITIVE_A_DELTA = -171


def cli_lines(rng, svg_path: str):
    """(subcommand, argv, check of the parsed JSON lines) for one cycle."""
    out = []
    f = O.transform(definite_form(rng), small_matrix(rng, 6))
    out.append(("reduce", ["reduce", "--form=%d,%d,%d" % f],
                lambda j, f=f: check_cli_reduce(f, j)))
    f = indefinite_form(rng, 30)
    out.append(("river", ["river", "--form=%d,%d,%d" % f],
                lambda j, f=f: check_cli_river(f, j)))
    d = rng.randint(100, 2000)
    while O.is_square(d):
        d += 1
    out.append(("pell", ["pell", "--d", str(d)], lambda j, d=d: check_cli_pell(d, j)))
    d = rng.choice([d for d in range(-600, -99) if O.is_discriminant(d)
                    and all(a is None or O.content(a) == 1 for a in
                            (O.ambiguous_form(2, d), O.ambiguous_form(3, d)))])
    out.append(("classgroup", ["classgroup", f"--delta={d}"],
                lambda j, d=d, s=rng.randrange(1 << 30): check_cli_classgroup(d, j, s)))
    out.append(("classgroup", ["classgroup", f"--delta={CLI_IMPRIMITIVE_A_DELTA}"],
                lambda j, s=rng.randrange(1 << 30): check_cli_classgroup(
                    CLI_IMPRIMITIVE_A_DELTA, j, s)))
    sigma = rng.choice((2, 3))
    while True:
        f = diform(rng, sigma, rng.random() < 0.5)
        if pairwise_coprime(sigma, f):
            break
    out.append(("diform", ["diform", "--sigma", str(sigma), "--form=%d,%d,%d" % f],
                lambda j, s=sigma, f=f: check_cli_diform(s, f, j)))
    for ring in ("g", "e"):
        f = hermitian_form(rng, ring, True)
        a, g, c = f
        out.append(("hermitian_" + ring,
                    ["hermitian", "--ring", ring, f"--form={a},{g[0]},{g[1]},{c}",
                     "--min-box", str(CLI_BOX)],
                    lambda j, r=ring, f=f: check_cli_hermitian(r, f, j)))
    geo, depth = CLI_PATCH
    f = diform(rng, 3, False)
    out.append(("render", ["render", "--geometry", geo, "--depth", str(depth),
                           "--form=%d,%d,%d" % f, "--out", svg_path],
                lambda j, g=geo, dd=depth: check_cli_render(g, dd, svg_path, j)))
    out.append(("dump", ["dump", "--json"], check_cli_dump))
    return out


class CliFailed(Exception):
    """A CLI process exited with a code other than 0: a failed operation."""


def cli_ops(rng, run_cli: Callable[[list], tuple], svg_path: str) -> list[Op]:
    """run_cli(argv) -> (exit code, stdout, stderr) runs one CLI invocation."""
    def call(argv):
        code, stdout, stderr = run_cli(argv)
        if code != 0:
            raise CliFailed(f"exit {code}: {(stdout + stderr).strip()[-300:]}")
        return stdout

    ops = []
    for sub, argv, check_json in cli_lines(rng, svg_path):
        def check(stdout, sub=sub, check_json=check_json):
            try:
                lines = [json.loads(t) for t in stdout.splitlines() if t.strip()]
            except ValueError as exc:
                raise C.CheckFailed(f"{sub} printed invalid JSON: {exc}") from exc
            check_json(lines)
        ops.append(Op("cli", "cli." + sub, "topograph " + " ".join(argv),
                      lambda argv=argv: call(argv), check))
    return ops


def _one(lines):
    C.expect(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return lines[0]


def check_cli_reduce(f, lines):
    j = _one(lines)
    C.expect(j["class"] == "positive-definite", f"class {j['class']}")
    C.check_reduced(f, j["reduced"])


def check_cli_river(f, lines):
    j = _one(lines)
    C.expect(j["delta"] == O.disc(f) and j["period_edges"] > 0, "river header wrong")
    C.check_bends(f, j["reduced_cycle"])
    C.check_minimum(f, j["mu"], tuple(j["witness"]))
    C.check_automorph(f, tuple(tuple(r) for r in j["automorph"]))


def check_cli_pell(d, lines):
    j = _one(lines)
    C.check_pell(d, j["x"], j["y"])
    C.check_automorph((1, 0, -d), tuple(tuple(r) for r in j["automorph"]))


def check_cli_classgroup(d, lines, seed):
    j = _one(lines)
    C.expect(j["delta"] == d and j["h"] == len(j["classes"]), "classgroup header wrong")
    C.check_class_table(d, [tuple(f) for f in j["classes"]], j["table"],
                        random.Random(seed))
    labels = [O.class_label(tuple(f)) for f in j["classes"]]
    for sigma in (2, 3):
        amb = O.ambiguous_form(sigma, d)
        # an imprimitive A is in no class of primitive forms
        primitive = amb is not None and O.content(amb) == 1
        want = labels.index(O.class_label(amb)) if primitive else None
        C.expect(j["A_class_index"][str(sigma)] == want, f"A index for sigma {sigma}")


def check_cli_diform(sigma, f, lines):
    j = _one(lines)
    rel = j["class_relation"]
    C.expect(rel is not None, f"no class relation for {sigma}, {f}")
    C.check_red_blue(sigma, f, rel)
    C.expect([j["delta"], j["red"], j["blue"]] == [rel["delta"], rel["red"], rel["blue"]],
             "diform header disagrees with its class relation")


def check_cli_hermitian(ring, f, lines):
    j = _one(lines)
    a, g, c = f
    d = O.hermitian_disc(ring, a, g, c)
    C.expect(j["delta"] == d, f"hermitian delta {j['delta']} != {d}")
    C.check_hermitian_min(ring, f, CLI_BOX, j["mu"], None, j["bound_ok"])
    if ring == "g":
        cube = j["cube"]
        fa, fb, fc, fu, fv, fw = cube["faces"]
        z = cube["z"]
        C.expect(fa + fu == fb + fv == fc + fw == z, "cube sums differ")
        C.expect(d == z * z - 2 * (fa * fu + fb * fv + fc * fw), "cube identity fails")
        C.expect(cube["pattern"] == C.sign_pattern(((fa, fu), (fb, fv), (fc, fw))),
                 "cube pattern wrong")
    else:
        C.expect(j["cube"] is None, "Eisenstein report has a cube")


def check_cli_render(geo, depth, svg_path, lines):
    j = _one(lines)
    C.expect(j["geometry"] == geo and j["depth"] == depth, "render header wrong")
    C.check_counts(geo, depth, j["counts"])
    with open(svg_path, "rb") as fh:
        C.svg_texts(fh.read(), O.patch_counts(geo, depth))


def check_cli_dump(lines):
    cmds = {j["command"] for j in lines}
    want = {"reduce", "river", "pell", "classgroup", "diform", "hermitian", "render"}
    C.expect(cmds == want and len(lines) == len(want), f"dump lists {sorted(cmds)}")
    C.expect(all(isinstance(j["schema"], dict) for j in lines), "dump schema not a dict")


def run_subprocess(argv: list, env: dict, cwd: str, python: str):
    proc = subprocess.run([python, "-m", "topograph.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr
