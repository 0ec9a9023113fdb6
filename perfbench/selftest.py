"""Self-test of the checkers: each must pass a right answer and reject a
deliberately wrong one.

    PYTHONPATH=src python3 perfbench/selftest.py

``run.py`` runs the same cases before every measurement.
"""

from __future__ import annotations

import sys

import checks as C
import oracles as O


def _svg_case():
    """A real patch and SVG from the program, and the labels Q gives."""
    import topograph.render as RN

    def rows(patch):
        return [(f["x"], f["y"], f["label"]) for f in patch.faces]

    form = (1, 0, -3)
    patch = RN.layout("3inf", 3, form)
    labels = C.expected_labels("3inf", form, rows(patch), rows(RN.layout("3inf", 3)))
    svg = RN.emit_svg(patch)
    first = labels[0]
    bad = svg.replace(f">{first}</text>".encode(), f">{int(first) + 1}</text>".encode(), 1)
    counts = O.patch_counts("3inf", 3)
    return (lambda: C.check_svg(svg, counts, labels),
            lambda: C.check_svg(bad, counts, labels))


def cases():
    """(name, right answer check, wrong answer check) triples."""
    x, y = O.pell_fundamental(61)
    herm = (1, (1, 0), -2)
    mu, _ = O.box_minimum("g", *herm, 2)
    svg_ok, svg_bad = _svg_case()
    return [
        ("pell pair off by one",
         lambda: C.check_pell(61, x, y), lambda: C.check_pell(61, x + 1, y)),
        ("class number h + 1",
         lambda: C.check_class_number(-20, 2), lambda: C.check_class_number(-20, 3)),
        ("reduced form with b outside (-a, a]",
         lambda: C.check_reduced((5, 7, 3), (1, 1, 3)),
         lambda: C.check_reduced((5, 7, 3), (1, 3, 5))),
        ("one SVG label changed", svg_ok, svg_bad),
        ("Hermitian minimum one too high",
         lambda: C.check_hermitian_min("g", herm, 2, mu, None),
         lambda: C.check_hermitian_min("g", herm, 2, mu + 1, None)),
        ("river minimum witness of another value",
         lambda: C.check_minimum((1, 0, -3), 1, (1, 0)),
         lambda: C.check_minimum((1, 0, -3), 1, (1, 1))),
    ]


def run() -> list[str]:
    """Names of the cases a checker got wrong; empty when all hold."""
    bad = []
    for name, right, wrong in cases():
        try:
            right()
        except C.CheckFailed as exc:
            bad.append(f"{name}: right answer rejected ({exc})")
        try:
            wrong()
            bad.append(f"{name}: wrong answer accepted")
        except C.CheckFailed:
            pass
    return bad


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print("FAIL", line)
    print("selftest:", "failed" if failures else "every checker holds")
    sys.exit(1 if failures else 0)
