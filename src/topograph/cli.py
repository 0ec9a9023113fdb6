"""Command-line interface: line-delimited JSON on stdout, SVG files on disk.

Exit codes: 0 success, 1 domain error or failed write (machine-readable JSON
on stderr), 2 usage error.  Each handler imports only the modules its run
calls (the diform walks only under --reduce or --river), so a process
compiles no more.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .errors import OutputError, PreconditionError, TopographError

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
        red = _well_form(well.values, well.vectors)
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
    from .reduction import trace_river

    a, b, c = _parse_form(args.form)
    q = BQF(a, b, c)
    river = trace_river(q)
    rep = river.minimum()
    _emit({
        "form": [a, b, c],
        "delta": q.discriminant(),
        "period_edges": river.steps,
        "mu": rep.mu,
        "witness": list(rep.witness),
        "automorph": [list(r) for r in river.automorph],
        "reduced_cycle": sorted(map(list, river.bends())),
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
            # a relation that does not apply is null; any other error is raised
            try:
                out["class_relation"] = verify_red_blue(args.sigma, a, b, c)
            except PreconditionError:
                pass
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
    # --out is checked before the work, and written only once the work is done
    made = not os.path.lexists(args.out)
    try:
        open(args.out, "ab").close()
        if made:
            os.remove(args.out)
    except OSError as exc:
        _usage_error(f"argument --out: can't open {args.out!r}: {exc.strerror}")
    patch = layout(args.geometry, args.depth, form)
    data = emit_svg(patch)
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:  # the path opened, so the run failed: a full disk, say
        if made and os.path.lexists(args.out):
            os.remove(args.out)  # no half-written file is left behind
        raise OutputError(f"can't write {args.out!r}: {exc.strerror}") from None
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

_FLAG = (bool, False, None)
_FORM = (str, ..., "a,b,c")

# each subcommand's handler, help line and options, read by parse_args (the
# stdlib's option parser cost 5-7 ms of start-up a process); an option is
# (int, str or a tuple of choices; default, or ... if required; metavar) or _FLAG
COMMANDS = {
    "reduce": (_cmd_reduce, "reduce a binary quadratic form", {"--form": _FORM}),
    "river": (_cmd_river, "trace one river period", {"--form": _FORM}),
    "pell": (_cmd_pell, "fundamental solution of x^2 - D y^2 = 1",
             {"--d": (int, ..., "D")}),
    "classgroup": (_cmd_classgroup, "class group of a discriminant",
                   {"--delta": (int, ..., "DELTA")}),
    "diform": (_cmd_diform, "binary quadratic diform operations",
               {"--sigma": (int, ..., "SIGMA"), "--form": _FORM,
                "--reduce": _FLAG, "--river": _FLAG}),
    "hermitian": (_cmd_hermitian, "binary Hermitian form report",
                  {"--ring": (("g", "e"), ..., "{g,e}"),
                   "--form": (str, ..., "a,gamma_x,gamma_y,c"),
                   "--min-box": (int, 4, "BOX")}),
    "render": (_cmd_render, "render a topograph patch to SVG",
               {"--geometry": (("3inf", "4inf", "6inf"), ..., "{3inf,4inf,6inf}"),
                "--depth": (int, ..., "DEPTH"), "--form": (str, None, "a,b,c"),
                "--out": (str, ..., "PATH")}),
    "dump": (_cmd_dump, "emit the JSON schema of every command", {"--json": _FLAG}),
}


def _usage_error(message: str):
    sys.stderr.write(f"topograph: error: {message}\n")
    raise SystemExit(2)


def _help(command) -> None:
    """Print the usage of one subcommand, or of every one, and exit 0."""
    lines = [] if command else ["usage: topograph [-h] [--seed N] COMMAND [options]"]
    for name in [command] if command else COMMANDS:
        words = ["[-h]"]
        for option, (_, default, metavar) in COMMANDS[name][2].items():
            word = f"{option} {metavar}" if metavar else option
            words.append(word if default is ... else f"[{word}]")
        lines += [f"topograph {name} " + " ".join(words), "    " + COMMANDS[name][1]]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def parse_args(argv) -> SimpleNamespace:
    """The subcommand and options of argv; of a repeated option the last wins."""
    command, options, values = None, {"--seed": (int, None, "N")}, {"--seed": None}
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            _help(command)
        if command is None and tok in COMMANDS:
            command, options = tok, COMMANDS[tok][2]
            values.update((name, spec[1]) for name, spec in options.items())
            continue
        name, eq, value = tok.partition("=")
        if name not in options:
            _usage_error(f"unrecognized argument: {tok}")
        kind = options[name][0]
        if kind is bool and eq:
            _usage_error(f"argument {name}: ignored explicit argument {value!r}")
        if kind is not bool and not eq:
            value = next(tokens, "--")
            if value.startswith("--") or value == "-h":
                _usage_error(f"argument {name}: expected one argument")
        if kind is int:
            try:
                value = _any_digits(lambda: int(value))
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
        elif kind not in (bool, str) and value not in kind:
            _usage_error(f"argument {name}: invalid choice: {value!r}")
        values[name] = True if kind is bool else value
    missing = [name for name, value in values.items() if value is ...]
    if command is None or missing:
        _usage_error("missing " + (", ".join(missing) or "the subcommand"))
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        COMMANDS[args.command][0](args)
    except TopographError as exc:
        sys.stderr.write(
            json.dumps({"error": exc.code, "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
