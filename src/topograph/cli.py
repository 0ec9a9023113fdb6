"""Command-line interface: line-delimited JSON on stdout, SVG files on disk.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  Each handler imports only the modules its run calls (the
diform walks only under --reduce or --river), so a process compiles no more.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, PreconditionError, TopographError

# JSON field layout of every subcommand's stdout, for `dump --json`
SCHEMAS = {
    "reduce": {"form": "[a,b,c]", "class": "str", "reduced": "[a,b,c]",
               "well": "{kind, values} | null"},
    "river": {"form": "[a,b,c]", "delta": "int", "period_edges": "int",
              "mu": "int", "witness": "[x,y]", "automorph": "[[int]*2]*2",
              "reduced_cycle": "[[a,b,c]]"},
    "pell": {"d": "int", "x": "int", "y": "int", "automorph": "[[int]*2]*2"},
    "classgroup": {"delta": "int", "h": "int", "classes": "[[a,b,c]]",
                   "table": "[[int]]",
                   "A_class_index": "{2: int | null, 3: int | null}"},
    "diform": {"sigma": "int", "form": "[a,b,c]", "delta": "int",
               "red": "[a,b,c]", "blue": "[a,b,c]",
               "well": "{source_values, reduced_red, reduced_blue} | null",
               "river": "{exceptional, mu, witness, period_steps, bends} | null",
               "class_relation": "{...} | null"},
    "hermitian": {"ring": "str", "form": "{a, gamma, c}", "delta": "int",
                  "mu": "int | null", "bound_ok": "bool | null",
                  "cube": "{faces, z, pattern} | null"},
    "render": {"geometry": "str", "depth": "int",
               "counts": "{vertices, edges, faces}", "out": "str"},
}


def _any_digits(convert):
    """convert() with Python's int/str digit limit (4,300 digits by default)
    lifted, then restored.  Only the CLI's own text passes through here: an
    argument string is at most 128 KiB on Linux, and the budgets bound the
    results.  The work keeps the limit, so render still writes labels past
    it as d.dddde+N instead of paying a quadratic str() for each."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # Python 3.10.0 to 3.10.6 have no limit
        return convert()
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        return convert()
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(obj) -> None:
    sys.stdout.write(_any_digits(lambda: json.dumps(obj, sort_keys=True)) + "\n")


def _parse_form(text: str, n: int = 3):
    parts = text.split(",")
    if len(parts) != n:
        raise PreconditionError(f"--form expects {n} comma-separated integers")
    try:
        return _any_digits(lambda: tuple(int(p) for p in parts))
    except ValueError as exc:
        raise PreconditionError(f"--form expects integers: {exc}") from exc


def _cmd_reduce(args) -> None:
    from .bqf import BQF, INDEFINITE, POSITIVE_DEFINITE, classify
    from .reduction import _well_form, find_well, riverbends

    a, b, c = _parse_form(args.form)
    q = BQF(a, b, c)
    kind = classify(q)
    if kind == POSITIVE_DEFINITE:
        well = find_well(q)
        red = _well_form(well)
        _emit({
            "form": [a, b, c],
            "class": kind,
            "reduced": list(red),
            "well": {"kind": well.kind, "values": list(well.values)},
        })
    elif kind == INDEFINITE:
        _emit({
            "form": [a, b, c],
            "class": kind,
            "reduced": list(min(riverbends(q))),
            "well": None,
        })
    else:
        raise PreconditionError(f"cannot reduce a {kind} form")


def _cmd_river(args) -> None:
    from .bqf import BQF
    from .reduction import _bends, _minimum, trace_river

    a, b, c = _parse_form(args.form)
    q = BQF(a, b, c)
    period = trace_river(q)
    rep = _minimum(period)
    _emit({
        "form": [a, b, c],
        "delta": q.discriminant(),
        "period_edges": period.steps,
        "mu": rep.mu,
        "witness": list(rep.witness),
        "automorph": [list(r) for r in period.automorph],
        "reduced_cycle": sorted(map(list, _bends(period))),
    })


def _cmd_pell(args) -> None:
    from .reduction import pell_solve

    sol = pell_solve(args.d)
    _emit({
        "d": sol.d,
        "x": sol.x,
        "y": sol.y,
        "automorph": [list(r) for r in sol.automorph],
    })


def _cmd_classgroup(args) -> None:
    from .classgroup import enumerate_classes

    table = enumerate_classes(args.delta)
    table.build_table()
    _emit(table.to_json())


def _cmd_diform(args) -> None:
    from .classical import red_blue_forms

    a, b, c = _parse_form(args.form)
    if args.sigma not in (2, 3):
        raise PreconditionError("--sigma must be 2 or 3")
    red, blue = red_blue_forms(args.sigma, a, b, c)
    # the diform's discriminant is its red form's
    d = red[1] * red[1] - 4 * red[0] * red[2]
    out = {
        "sigma": args.sigma,
        "form": [a, b, c],
        "delta": d,
        "red": list(red),
        "blue": list(blue),
        "well": None,
        "river": None,
        "class_relation": None,
    }
    if not args.reduce and not args.river:
        from .classgroup import is_diform_discriminant, verify_red_blue

        if is_diform_discriminant(args.sigma, d):
            # a relation that does not apply is null; a refused one is an error
            try:
                out["class_relation"] = verify_red_blue(args.sigma, a, b, c)
            except BudgetError:
                raise
            except TopographError:
                out["class_relation"] = None
        _emit(out)
        return
    from .diform import diform_river, diform_well
    from .dilinear import BQD

    q = BQD(args.sigma, a, b, c)
    if args.reduce:
        w = diform_well(q)
        out["well"] = {
            "source_values": list(w["source_values"]),
            "reduced_red": list(w["reduced_red"]),
            "reduced_blue": list(w["reduced_blue"]),
        }
    if args.river:
        r = diform_river(q)
        out["river"] = {
            "exceptional": r.exceptional,
            "mu": r.mu,
            "witness": None if r.witness is None else list(r.witness),
            "period_steps": r.edge_count,
            "bends": r.bend_count,
        }
    _emit(out)


def _cmd_hermitian(args) -> None:
    from .hermitian import BHF, STANDARD_CUBASIS, cube_values, empirical_minimum
    from .rings import EISENSTEIN, GAUSS, QRE

    ring = {"g": GAUSS, "e": EISENSTEIN}[args.ring]
    a, gx, gy, c = _parse_form(args.form, 4)
    h = BHF(ring, a, QRE(ring, gx, gy), c)
    d = h.discriminant()
    out = {
        "ring": ring,
        "form": {"a": a, "gamma": [gx, gy], "c": c},
        "delta": d,
        "mu": None,
        "bound_ok": None,
        "cube": None,
    }
    if ring == GAUSS:
        cv = cube_values(h, STANDARD_CUBASIS)
        out["cube"] = {
            "faces": list(cv[:6]),
            "z": cv.z,
            "pattern": cv.pattern,
        }
    if d > 0:
        rep = empirical_minimum(h, args.min_box)
        out["mu"] = rep["mu"]
        out["bound_ok"] = rep["bound_ok"]
    _emit(out)


def _cmd_render(args) -> None:
    from .render import emit_svg, layout

    form = _parse_form(args.form) if args.form else None
    patch = layout(args.geometry, args.depth, form)
    data = emit_svg(patch)
    with open(args.out, "wb") as fh:
        fh.write(data)
    _emit({
        "geometry": args.geometry,
        "depth": args.depth,
        "counts": patch.counts(),
        "out": args.out,
    })


def _cmd_dump(args) -> None:
    if not args.json:
        raise PreconditionError("dump requires --json")
    for name in sorted(SCHEMAS):
        _emit({"command": name, "schema": SCHEMAS[name]})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topograph",
        description="Arithmetic topographs: reduction, rivers, Pell, "
        "class groups, diforms, Hermitian forms, SVG rendering.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="reserved; all algorithms are deterministic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a binary quadratic form")
    p.add_argument("--form", required=True, help="a,b,c")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("river", help="trace one river period")
    p.add_argument("--form", required=True, help="a,b,c")
    p.set_defaults(func=_cmd_river)

    p = sub.add_parser("pell", help="fundamental solution of x^2 - D y^2 = 1")
    p.add_argument("--d", required=True, type=int)
    p.set_defaults(func=_cmd_pell)

    p = sub.add_parser("classgroup", help="class group of a discriminant")
    p.add_argument("--delta", required=True, type=int)
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("diform", help="binary quadratic diform operations")
    p.add_argument("--sigma", required=True, type=int)
    p.add_argument("--form", required=True, help="a,b,c")
    p.add_argument("--reduce", action="store_true")
    p.add_argument("--river", action="store_true")
    p.set_defaults(func=_cmd_diform)

    p = sub.add_parser("hermitian", help="binary Hermitian form report")
    p.add_argument("--ring", required=True, choices=["g", "e"])
    p.add_argument("--form", required=True, help="a,gamma_x,gamma_y,c")
    p.add_argument("--min-box", type=int, default=4)
    p.set_defaults(func=_cmd_hermitian)

    p = sub.add_parser("render", help="render a topograph patch to SVG")
    p.add_argument("--geometry", required=True, choices=["3inf", "4inf", "6inf"])
    p.add_argument("--depth", required=True, type=int)
    p.add_argument("--form", default=None, help="a,b,c")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("dump", help="emit the JSON schema of every command")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except TopographError as exc:
        sys.stderr.write(
            json.dumps({"error": exc.code, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
