import argparse
import errno
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_diform import _other_vertex
from topograph import cli, render
from topograph.bqf import BQF
from topograph.cli import (
    COMMANDS, _cmd_classgroup, _cmd_diform, _cmd_dump, _cmd_hermitian, _cmd_pell,
    _cmd_reduce, _cmd_render, _cmd_river, main, parse_args,
)
from topograph.dilinear import BQD, Divector, Pinwheel
from topograph.errors import BudgetError, OutputError, PreconditionError
from topograph.lax import neighbors, normalize_superbase
from topograph.render import LayoutPatch, emit_svg, layout


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "topograph.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_depth_one_counts():
    assert layout("3inf", 1).counts() == {"vertices": 1, "edges": 3, "faces": 3}
    assert layout("4inf", 1).counts()["faces"] == 4
    assert layout("6inf", 1).counts()["faces"] == 6


def test_depth_budget():
    # the budget counts vertices: 3inf depth 10 has only 1,534
    assert len(layout("3inf", 10).vertices) == 1534
    with pytest.raises(BudgetError, match="49150 vertices.* 25000"):
        layout("3inf", 15)
    with pytest.raises(BudgetError, match="117187 vertices"):
        layout("6inf", 8)
    # refused before any work, however deep
    with pytest.raises(BudgetError, match="more than"):
        layout("4inf", 10 ** 9)
    with pytest.raises(PreconditionError):
        layout("5inf", 2)


@pytest.mark.parametrize("geometry, depths", [
    ("3inf", range(9)), ("4inf", range(7)), ("6inf", range(6)),
])
def test_patch_vertices_closed_form(geometry, depths):
    for depth in depths:
        want = len(layout(geometry, depth).vertices)
        assert render.patch_vertices(geometry, depth) == want


def test_vertices_do_not_coincide():
    p = layout("3inf", 5)
    pts = {(round(x, 8), round(y, 8)) for x, y, _ in p.vertices}
    assert len(pts) == len(p.vertices)


def test_empty_patch_svg():
    svg = emit_svg(LayoutPatch("3inf", 0, None))
    assert svg.startswith(b"<?xml")
    assert b"<svg" in svg and svg.rstrip().endswith(b"</svg>")
    assert b"<line" not in svg


def test_face_labels_fixture():
    p = layout("3inf", 4, (1, 0, 2))
    labels = sorted(f["label"] for f in p.faces)
    for expected in ("1", "2", "6", "9", "11"):
        assert expected in labels
    assert labels.count("3") == 2


def test_river_edges_flagged():
    p = layout("3inf", 4, (1, 0, -3))
    rivers = [faces for _, _, _, faces, river in p.edges if river]
    assert rivers
    for f1, f2 in rivers:
        q = lambda v: v[0] * v[0] - 3 * v[1] * v[1]
        assert q(f1) * q(f2) < 0


def test_svg_byte_determinism():
    a = emit_svg(layout("3inf", 5, (1, 0, -3)))
    b = emit_svg(layout("3inf", 5, (1, 0, -3)))
    assert a == b
    c = emit_svg(layout("6inf", 3, (1, 1, -1)))
    d = emit_svg(layout("6inf", 3, (1, 1, -1)))
    assert c == d


# SHA-256 of emit_svg(layout(...)), recorded before _tree_layout expanded
# each vertex once
SVG_SHA256 = [
    ('3inf', 5, None, '5229827e1c2da4ea3b2242b306881e97c488b80a6993128ea193afcc23fe87e2'),
    ('3inf', 5, (3, 1, 5), '0a806ff5264aa1c20fdaca869a61c84200a6ecc74bfbae5bb95691f6d7716191'),
    ('3inf', 5, (2, 3, -7), '33b51814ca2d021c4754b41352f45c65e2ca3f63fb5b893daa40c015ab9b5306'),
    ('4inf', 4, (1, 1, 3), '44b21d8b891d8811e1531c004401fc18de52310d7f983c64159bdd7e15220916'),
    ('4inf', 4, (3, 5, -7), '549de8d5e7cab074e47329d79257ac1e108ea790ff015bc7200e03368d505542'),
    ('6inf', 3, (5, 3, 7), '6f0cedebd0aa09e7a4f1c4df802bc59e0d78b3d382f7471a1364d05e04a16f63'),
    ('6inf', 3, (1, 1, -1), '2f8c95982a838c14e47182a3351bfb56819f41d5bd79a0c54b6628d0358c8426'),
    # the benchmark's patch sizes, recorded before layout ran on integer
    # vertex ids
    ('3inf', 8, (3, 1, 5), '2e0d92b921eac1d64acaaacc20ad3292a3c36ae14cb94560c6161e9c24856648'),
    ('3inf', 8, (2, 3, -7), 'b4fee08018314b8797b36473f977ea8b22dfe359d9c0c17922321004b7d4c38c'),
    ('4inf', 5, (1, 1, 3), '218207fec4adeda768e11aebc71c9fb779eefdb7990ac19ba4f3edf96297c320'),
    ('4inf', 5, (3, 5, -7), '08eb6871ea3d63f33c178be7d97333814bb4c43377a70e4c98506212ac894da4'),
    ('6inf', 4, (5, 3, 7), '0ea91a656c4410cc3d9a84b15aae02ed99147ecd4bf36199f167310223b727bc'),
    ('6inf', 4, (1, 1, -1), '44cfe6e22862bf04d8529e8ceb421558946bda4eb9c4db184d5a12c02544d9ba'),
    # the form-less benchmark patches and two deep patches with many stubs,
    # recorded before faces were summed as they are placed
    ('3inf', 8, None, '0b1f8aadc9bd8d14593485a608a7df65e935fba6ad32f84a9bd648a6eda6c3d7'),
    ('4inf', 5, None, '0a8be785a50054b40e15f3d8994acac6338225bc3b87a4d66023ec77dc2509f1'),
    ('6inf', 4, None, 'aa6c3c360c60c9c1c7a28511537f6fff286d28307c1c0d9728a7dddde0973c29'),
    ('6inf', 6, (1, 1, -2), 'b8ba80bc16f2d28c37446ffadaa99b73942157fbadba247c18a2d81c78c328a6'),
    ('3inf', 12, (1, 0, -7), '49aff4134f6c88ee91753d4ab034bef39b771c5ae0e8cde21e0576148cb58749'),
]


@pytest.mark.parametrize("geometry, depth, form, digest", SVG_SHA256)
def test_svg_bytes_pinned(geometry, depth, form, digest):
    svg = emit_svg(layout(geometry, depth, form))
    assert hashlib.sha256(svg).hexdigest() == digest


# the river edges of each indefinite form's patch below; a definite form's
# patch has none
RIVER_EDGES = {(2, 3, -7): 16, (3, 5, -7): 10, (1, 1, -1): 8}


@pytest.mark.parametrize("geometry, depth, form", [
    ("3inf", 8, (3, 1, 5)), ("3inf", 8, (2, 3, -7)), ("4inf", 5, (1, 1, 3)),
    ("4inf", 5, (3, 5, -7)), ("6inf", 4, (5, 3, 7)), ("6inf", 4, (1, 1, -1)),
])
def test_layout_values_each_face_once(geometry, depth, form, monkeypatch):
    # the face values label the faces and mark the rivers; each edge looks
    # its two faces up instead of evaluating them again.  A superbase face
    # is valued by the BQF, a pinwheel face by the diform.
    calls = []
    for cls in (BQF, BQD):
        def counted(self, v, real=cls.__call__):
            calls.append(v)
            return real(self, v)

        monkeypatch.setattr(cls, "__call__", counted)
    patch = layout(geometry, depth, form)
    assert len(calls) == len(patch.faces)
    # a definite form marks its one well and no river, an indefinite form
    # its river edges and no well
    rivers = RIVER_EDGES.get(form, 0)
    wells = sum(well for _, _, well in patch.vertices)
    assert wells == (rivers == 0)
    assert sum(river for *_, river in patch.edges) == rivers
    svg = emit_svg(patch)
    assert svg.count(b'class="vertex well"') == wells
    assert svg.count(b'class="edge river"') == rivers


@pytest.mark.parametrize("geometry, depth, form", [
    ("3inf", 6, (1, 0, -3)), ("4inf", 4, (1, 1, 3)), ("6inf", 4, (1, 1, -1)),
])
def test_patch_records_are_not_left_to_the_collector(geometry, depth, form):
    # records of atomic values are untracked by the collector, so a large
    # patch adds no containers for it to traverse.  A collection untracks a
    # tuple only once what it holds is untracked, and an edge nests tuples
    # three deep (edge, faces, lax face), so three collections are needed
    # when the collector visits the outer tuples first
    patch = layout(geometry, depth, form)
    for _ in range(3):
        gc.collect()
    records = patch.vertices + patch.edges + patch.faces
    assert not any(map(gc.is_tracked, records))


def test_layout_keeps_no_list_per_vertex_or_face():
    # the build keeps flat lists, so the lists the collector traverses do
    # not grow with the patch.  Frozen objects are invisible to
    # gc.get_objects, so each count walks only what the call made
    lists = []

    def count(phase, info):
        if phase == "start":
            lists.append(list(map(type, gc.get_objects())).count(list))

    thresholds = gc.get_threshold()
    gc.collect()
    gc.freeze()
    before = list(map(type, gc.get_objects())).count(list)
    gc.set_threshold(500, 5, 5)
    gc.callbacks.append(count)
    try:
        layout("6inf", 6, (1, 1, -2))
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*thresholds)
        gc.unfreeze()
    assert lists and max(lists) <= before + 100


@pytest.mark.parametrize("geometry, adapter", [
    ("3inf", render._Superbases), ("4inf", render._Pinwheels),
    ("6inf", render._Pinwheels),
])
def test_layout_builds_each_vertex_once(geometry, adapter, monkeypatch):
    built = []
    roots = set()
    real = adapter.step

    def counted(self, vertex, i):
        out = real(self, vertex, i)
        built.append(self.key(out[0]))
        roots.add(self.key(self.root))
        return out

    monkeypatch.setattr(adapter, "step", counted)
    patch = layout(geometry, 4)
    # one build per real vertex but the root, and none for the shell: the
    # parent is never built again from its child
    assert len(built) == len(patch.vertices) - 1
    assert len(set(built)) == len(built)
    assert not roots & set(built)


@pytest.mark.parametrize("geometry, depth, form", [
    ("4inf", 6, None), ("4inf", 5, (1, 1, 3)), ("6inf", 5, None), ("6inf", 4, (1, 1, -1)),
])
def test_layout_reads_each_pinwheel_once(geometry, depth, form, monkeypatch):
    # one canonical reading per real vertex gives its key and where each
    # slot's faces sit in it; no face is made lax again to find them
    laxed, readings = [], []
    real_lax = render.lax
    monkeypatch.setattr(render, "lax", lambda v: laxed.append(v) or real_lax(v))
    for name in ("key", "read"):
        real = getattr(render._Pinwheels, name)
        monkeypatch.setattr(render._Pinwheels, name, staticmethod(
            lambda faces, real=real: readings.append(faces) or real(faces)))
    patch = layout(geometry, depth, form)
    assert laxed == []
    assert len(readings) == len(patch.vertices)


@pytest.mark.parametrize("geometry", render.GEOMETRIES)
def test_stubs_sort_by_shared_faces_as_by_key(geometry):
    # layout sorts a parent's stubs by the lax faces they share with it,
    # since their far ends are never built.  Every parent of the deepest
    # patch the budget admits orders its children the same by either
    depth = max(d for d in range(1, 64)
                if render.patch_vertices(geometry, d) <= render.VERTEX_BUDGET)
    geo = (render._Superbases(None) if geometry == "3inf"
           else render._Pinwheels(geometry, None))
    frontier = [(geo.root, None)]
    parents = 0
    for _ in range(depth):
        nxt = []
        for vertex, back in frontier:
            parents += 1
            key = set(geo.key(vertex))
            children = [geo.step(vertex, i) for i in range(geo.degree) if i != back]
            shared = {}
            for t, _ in children:
                pair = sorted(key & set(geo.key(t)))
                assert len(pair) == 2
                shared[geo.key(t)] = tuple(pair)
            assert len(set(shared.values())) == len(shared)
            assert sorted(shared) == sorted(shared, key=shared.__getitem__)
            nxt += children
        frontier = nxt
    assert parents == render.patch_vertices(geometry, depth)


@pytest.mark.parametrize("geometry, sigma", [("4inf", 2), ("6inf", 3)])
def test_pinwheel_step_matches_other_vertex(geometry, sigma):
    geo = render._Pinwheels(geometry, None)
    frontier = [geo.root]
    seen = {geo.key(geo.root)}
    for _ in range(4):
        nxt = []
        for faces in frontier:
            pw = Pinwheel(sigma, tuple(Divector(*f) for f in faces))
            for i, (p, s) in enumerate(pw.edges()):
                t, back = geo.step(faces, i)
                want = _other_vertex(p, s, pw, sigma)
                assert t == tuple((f.color, f.u, f.v) for f in want.faces)
                assert back == 0
                assert geo.key(geo.step(t, back)[0]) == geo.key(faces)
                if geo.key(t) not in seen:
                    seen.add(geo.key(t))
                    nxt.append(t)
        frontier = nxt
    assert len(seen) == render.patch_vertices(geometry, 5)


def test_superbase_step_matches_neighbors():
    geo = render._Superbases(None)
    frontier = [geo.root]
    seen = {geo.key(geo.root)}
    for _ in range(4):
        nxt = []
        for vs in frontier:
            for i, want in enumerate(neighbors(normalize_superbase(vs))):
                t, back = geo.step(vs, i)
                assert t == want
                assert geo.step(t, back)[0] == vs
                if geo.key(t) not in seen:
                    seen.add(geo.key(t))
                    nxt.append(t)
        frontier = nxt
    assert len(seen) == render.patch_vertices("3inf", 5)


def test_label_eliding():
    from topograph.render import _elide

    assert _elide("123") == "123"
    assert _elide(str(1766319049 ** 2)) == f"{float(1766319049 ** 2):.4e}"
    # past the largest float the text is built from the exact integer
    assert _elide(str(2 ** 1024)) == "1.7977e+308"
    assert _elide(str(-10 ** 400)) == "-1.0000e+400"
    # rounded once, from the exact integer: through a float, 1.2346e+19
    assert _elide("12345499999999999999") == "1.2345e+19"


def test_face_values_past_the_str_digit_limit():
    # str() refuses an int of more than 4,300 digits, so such a face is
    # labelled with its elided text
    patch = layout("3inf", 2, (10 ** 5000, 1, 1))
    labels = [f["label"] for f in patch.faces]
    assert "1.0000e+5000" in labels
    assert b">1.0000e+5000</text>" in emit_svg(patch)


def test_cli_pell():
    proc = run_cli("pell", "--d", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert (data["x"], data["y"]) == (2, 1)


def test_cli_pell_domain_error():
    proc = run_cli("pell", "--d", "-4")
    assert proc.returncode == 1
    err = json.loads(proc.stderr)
    assert err["error"] == "square-or-invalid-discriminant"


def test_cli_reduce_fixture():
    proc = run_cli("reduce", "--form", "5,7,3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["reduced"] == [1, 1, 3]


def test_cli_usage_error():
    proc = run_cli("pell", "--bogus", "1")
    assert proc.returncode == 2


def test_cli_classgroup_roundtrip():
    proc = run_cli("classgroup", "--delta", "-20")
    data = json.loads(proc.stdout)
    assert data["h"] == 2
    assert data["classes"] == [[1, 0, 5], [2, 2, 3]]
    assert data["table"] == [[0, 1], [1, 0]]


def test_cli_classgroup_refuses_past_the_table_budget(monkeypatch, capsys):
    from topograph import classgroup

    monkeypatch.setattr(classgroup, "TABLE_BUDGET", 3)
    assert main(["classgroup", "--delta=-20"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "budget"
    assert "order 2 needs 4 table cells" in error["message"]


@pytest.mark.parametrize("argv", [
    ["classgroup", "--delta=-400000000004"],
    # the class relation of this diform needs Cl(D) for D about 8 * 10^20
    ["diform", "--sigma", "2", "--form", "1,1,-100000000000000000001"],
])
def test_cli_refuses_class_groups_past_the_enumeration_budget(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "budget"
    assert "candidate forms, over the budget of" in error["message"]


def test_cli_refuses_river_periods_past_the_bit_budget(capsys):
    # the period of sqrt(D) for this 55-digit D has far more partial
    # quotients than its cells can keep within the walk's budget, which it
    # reaches after 242,496 runs; without the budget the walk runs for hours
    d = "1000000000000000000000000000000000000000000000000000007"
    start = time.perf_counter()
    assert main(["pell", "--d", d]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "budget"
    assert f"discriminant {4 * int(d)}, not closed after " in error["message"]
    assert "bits, past the budget of 67108864" in error["message"]


def _digit_limit():
    # Python 3.10.0 to 3.10.6 have no int/str digit limit
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _loads_any_digits(text):
    """json.loads of output whose integers may pass the digit limit."""
    limit = _digit_limit()
    if limit is None:
        return json.loads(text)
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_cli_pell_prints_results_past_the_str_digit_limit(capsys):
    # x has 4,910 digits: json.dumps refused it under the 4,300-digit limit
    limit = _digit_limit()
    assert main(["pell", "--d", "10000141"]) == 0
    assert _digit_limit() == limit
    data = _loads_any_digits(capsys.readouterr().out)
    x, y = data["x"], data["y"]
    assert x.bit_length() > 16_000
    assert x * x - 10000141 * y * y == 1


def test_cli_river_prints_results_past_the_str_digit_limit(capsys):
    limit = _digit_limit()
    assert main(["river", "--form=1,0,-10000141"]) == 0
    assert _digit_limit() == limit
    data = _loads_any_digits(capsys.readouterr().out)
    assert data["delta"] == 4 * 10000141


def test_cli_render_parses_forms_past_the_str_digit_limit(tmp_path, capsys):
    # the form is read whole, while the labels keep their elided text
    limit = _digit_limit()
    out = tmp_path / "big.svg"
    form = "1" + "0" * 5000 + ",1,1"
    argv = ["render", "--geometry", "3inf", "--depth", "2", "--form", form,
            "--out", str(out)]
    assert main(argv) == 0
    assert _digit_limit() == limit
    assert "1.0000e+5000" in out.read_text()
    assert json.loads(capsys.readouterr().out)["counts"]["faces"] == 6


def test_cli_diform_class_relation_is_null_when_it_does_not_apply(capsys):
    # sigma | a: the red form (30, 0, 2) is imprimitive; (-1, 0, -1) is
    # negative-definite
    for form in ("30,0,1", "-1,0,-1"):
        assert main(["diform", "--sigma", "2", f"--form={form}"]) == 0
        assert json.loads(capsys.readouterr().out)["class_relation"] is None


def test_cli_diform_reports_an_internal_error_in_the_class_relation(capsys, monkeypatch):
    # only a relation that does not apply prints null; a fault inside the
    # class lookup is an error exit with its code
    from topograph.classgroup import ClassGroupTable
    from topograph.errors import ClassificationError

    def broken(self, form):
        raise ClassificationError("injected")

    monkeypatch.setattr(ClassGroupTable, "class_index", broken)
    assert main(["diform", "--sigma", "2", "--form", "1,1,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "classification"


def test_cli_river_revalidates():
    proc = run_cli("river", "--form", "1,0,-3")
    data = json.loads(proc.stdout)
    from topograph.bqf import BQF
    from topograph.reduction import minimum_nonzero

    assert data["delta"] == 12
    assert data["mu"] == minimum_nonzero(BQF(1, 0, -3)).mu
    x, y = data["witness"]
    assert abs(x * x - 3 * y * y) == data["mu"]


def test_cli_river_traces_its_period_once(capsys, monkeypatch):
    # river, pell and reduce of an indefinite form each walk the river once
    from topograph import reduction

    calls = []
    real = reduction.trace_river

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(reduction, "trace_river", counted)
    assert main(["river", "--form=-22,6,24"]) == 0
    assert json.loads(capsys.readouterr().out)["delta"] == 2148
    assert calls == [(-22, 6, 24)]
    for argv, form in ((["pell", "--d", "61"], (1, 0, -61)),
                       (["reduce", "--form=-22,6,24"], (-22, 6, 24))):
        calls.clear()
        assert main(argv) == 0
        assert calls == [form]
    capsys.readouterr()


def test_cli_diform_and_hermitian():
    proc = run_cli("diform", "--sigma", "3", "--form", "1,1,-1", "--river")
    data = json.loads(proc.stdout)
    assert data["river"]["exceptional"] is False
    assert data["river"]["mu"] == 1

    proc2 = run_cli("hermitian", "--ring", "g", "--form", "1,0,0,-2",
                    "--min-box", "3")
    data2 = json.loads(proc2.stdout)
    assert data2["delta"] == 8
    assert data2["mu"] == 1
    assert data2["cube"]["z"] is not None


def test_cli_render(tmp_path):
    out = tmp_path / "patch.svg"
    proc = run_cli("render", "--geometry", "4inf", "--depth", "2",
                   "--form", "1,0,-1", "--out", str(out))
    data = json.loads(proc.stdout)
    assert out.exists()
    assert data["counts"]["vertices"] >= 1
    content = out.read_bytes()
    proc2 = run_cli("render", "--geometry", "4inf", "--depth", "2",
                    "--form", "1,0,-1", "--out", str(out))
    assert proc2.returncode == 0
    assert out.read_bytes() == content


def test_cli_dump_schema():
    proc = run_cli("dump", "--json")
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert {entry["command"] for entry in lines} >= {
        "reduce", "river", "pell", "classgroup", "diform", "hermitian", "render",
    }


# one real invocation of each subcommand that prints a JSON line
_ONE_RUN = {
    "reduce": ["--form=5,7,3"],
    "river": ["--form=1,0,-3"],
    "pell": ["--d=61"],
    "classgroup": ["--delta=-20"],
    "diform": ["--sigma=2", "--form=1,1,3"],
    "hermitian": ["--ring=g", "--form=1,0,0,-2", "--min-box=2"],
    "render": ["--geometry=3inf", "--depth=2", "--out={out}"],
}


@pytest.mark.parametrize("command", sorted(_ONE_RUN))
def test_cli_dump_schema_keys_match_stdout(command, tmp_path, capsys):
    argv = [a.format(out=tmp_path / "patch.svg") for a in _ONE_RUN[command]]
    assert main([command, *argv]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main(["dump", "--json"]) == 0
    schemas = {entry["command"]: entry["schema"]
               for entry in map(json.loads, capsys.readouterr().out.splitlines())}
    assert sorted(schemas) == sorted(_ONE_RUN)
    assert sorted(schemas[command]) == sorted(printed)


def test_cli_seed_flag_is_noop():
    a = run_cli("--seed", "1", "pell", "--d", "7")
    b = run_cli("--seed", "2", "pell", "--d", "7")
    assert a.stdout == b.stdout


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


# build_parser above is the CLI's former argparse parser, kept as the oracle
# of parse_args: on every argv below the two agree on the exit code and, for
# a valid argv, on the subcommand and every option value
def _subparsers():
    """{subcommand: its options' argparse actions} of the oracle."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


_SAMPLE = {"--form": "5,7,3", "--d": "61", "--delta": "-20", "--sigma": "2",
           "--ring": "g", "--min-box": "3", "--geometry": "4inf", "--depth": "2",
           "--out": "x.svg"}


def _option_spellings():
    """Each option of each subcommand, as `--opt v` and as `--opt=v`, after
    the subcommand's required options."""
    for command, actions in _subparsers().items():
        required = [w for a in actions if a.required
                    for w in (a.option_strings[0], _SAMPLE[a.option_strings[0]])]
        for a in actions:
            opt = a.option_strings[0]
            if a.nargs == 0:
                yield [command, *required, opt]
            else:
                yield [command, *required, opt, _SAMPLE[opt]]
                yield [command, *required, f"{opt}={_SAMPLE[opt]}"]


def _readme_examples():
    """The argv of every `topograph ...` line of README's code blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return [line.split() for line in re.findall(r"^topograph ([^#\n]+)", text, re.M)]


VALID_ARGV = _readme_examples() + list(_option_spellings()) + [
    ["pell", "--d", "10000141"],
    ["classgroup", "--delta", "-20"],
    ["pell", "--d", "-4"],
    ["pell", "--d", "2", "--d=3"],
    ["hermitian", "--ring", "g", "--ring=e", "--form", "1,0,0,1", "--form=1,0,0,-2"],
    ["--seed", "3", "pell", "--d", "2"],
    ["--seed=-3", "pell", "--d", "2"],
    ["diform", "--sigma", "2", "--form", "1,1,3", "--reduce", "--river"],
    ["dump"],
    ["render", "--geometry", "3inf", "--depth", "2", "--out", "x.svg", "--form="],
]

INVALID_ARGV = [
    [],
    ["--seed", "3"],
    ["bogus"],
    ["pell", "--bogus", "1"],
    ["pell"],
    ["render", "--geometry", "3inf", "--depth", "2"],
    ["pell", "--d"],
    ["pell", "--d", "--d", "2"],
    ["diform", "--sigma", "2", "--form", "--river"],
    ["pell", "--d=0x10"],
    ["pell", "--d="],
    ["--seed", "x", "pell", "--d", "2"],
    ["hermitian", "--ring", "z", "--form", "1,0,0,1"],
    ["render", "--geometry", "5inf", "--depth", "2", "--out", "x.svg"],
    ["dump", "--json=1"],
    ["pell", "--d", "2", "--seed", "3"],
    ["pell", "--d", "2", "extra"],
    ["extra", "pell", "--d", "2"],
    ["reduce", "--form", "5,7,3", "dump"],
    ["pell", "--d", "2", "-x"],
]

HELP_ARGV = [["-h"], ["--help"], ["--seed", "1", "-h"], ["pell", "--d=0", "--help"]] + [
    [command, flag] for command in COMMANDS for flag in ("-h", "--help")]

# the only argv on which the parsers differ: (argv, exit code of the
# argparse oracle, exit code of parse_args), 0 when it parses
DIFFERENCES = [
    # prefix abbreviations are no longer accepted
    (["diform", "--sig", "2", "--form", "1,1,3"], 0, 2),
    # a value that begins with a single "-" may follow its option after a space
    (["reduce", "--form", "-3,1,2"], 2, 0),
    # integers of more than 4,300 digits are accepted
    (["pell", "--d", "1" + "0" * 4400 + "1"], 2, 0),
]


def _outcome(parse, argv, capsys):
    """(exit code, stdout) if parse exits, else (None, the parsed options)."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out
    options = dict(vars(args))
    # the oracle names the handler; parse_args leaves it to COMMANDS
    if "func" in options:
        assert options.pop("func") is COMMANDS[options["command"]][0]
    return None, options


def _both(argv, capsys):
    old = _outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    new = _outcome(parse_args, argv, capsys)
    assert old[0] == new[0]
    return old, new


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_parse_args_matches_argparse_on_valid_argv(argv, capsys):
    old, new = _both(argv, capsys)
    assert new[0] is None
    assert new[1] == old[1]


@pytest.mark.parametrize("argv", INVALID_ARGV, ids=" ".join)
def test_parse_args_matches_argparse_on_usage_errors(argv, capsys):
    old, new = _both(argv, capsys)
    assert new[0] == 2
    assert new[1] == ""


@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_parse_args_help_names_every_option(argv, capsys):
    old, new = _both(argv, capsys)
    assert new[0] == 0
    command = next((a for a in argv if a in COMMANDS), None)
    subparsers = _subparsers()
    names = (["--seed", *COMMANDS] if command is None else []) + [
        opt for name in ([command] if command else subparsers)
        for a in subparsers[name] for opt in a.option_strings]
    assert all(name in new[1] for name in names)


@pytest.mark.parametrize("argv, old_code, new_code", DIFFERENCES)
def test_parse_args_differs_from_argparse_only_as_listed(argv, old_code, new_code,
                                                        capsys):
    old = _outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    new = _outcome(parse_args, argv, capsys)
    assert (old[0] or 0, new[0] or 0) == (old_code, new_code)


@pytest.mark.parametrize("where, code", [("missing/x.svg", errno.ENOENT),
                                         (".", errno.EISDIR)])
def test_cli_render_out_that_cannot_be_opened_is_a_usage_error(where, code,
                                                              tmp_path, capsys,
                                                              monkeypatch):
    # the path is checked before the work: layout never runs
    def unreached(*args):
        pytest.fail("layout ran before --out was checked")

    monkeypatch.setattr(render, "layout", unreached)
    out = str(tmp_path / where)
    with pytest.raises(SystemExit) as exc:
        main(["render", "--geometry", "3inf", "--depth", "2", "--out", out])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"topograph: error: argument --out: can't open {out!r}: "
                            f"{os.strerror(code)}\n")


@pytest.mark.parametrize("existing", [None, b"<svg/>\n"])
def test_cli_render_refused_leaves_out_as_it_was(existing, tmp_path, capsys):
    # a refused render creates no file, and leaves an existing one unchanged
    out = tmp_path / "x.svg"
    if existing is not None:
        out.write_bytes(existing)
    assert main(["render", "--geometry", "6inf", "--depth", "8", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == BudgetError.code
    assert (out.read_bytes() if out.exists() else None) == existing


def test_cli_render_writes_to_a_device(capsys):
    # the check before the work neither truncates nor needs a regular file
    assert main(["render", "--geometry", "3inf", "--depth", "2", "--out", os.devnull]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == os.devnull


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_render_write_to_a_full_device_fails_the_run(capsys):
    # the path opens, so a full disk is no usage error: the run fails, exit 1
    assert main(["render", "--geometry", "3inf", "--depth", "3", "--out", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": OutputError.code,
        "message": f"can't write '/dev/full': {os.strerror(errno.ENOSPC)}"}


def test_cli_render_failed_write_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    # a new file whose write runs out of space halfway is removed
    out = tmp_path / "x.svg"
    written = []

    class Full(io.FileIO):
        def write(self, data):
            written.append(super().write(bytes(data[:100])))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_open(path, mode="r", *args, **kwargs):
        return Full(path, "w") if mode == "wb" else open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    assert main(["render", "--geometry", "3inf", "--depth", "3", "--out", str(out)]) == 1
    assert written == [100]
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": OutputError.code,
        "message": f"can't write {str(out)!r}: {os.strerror(errno.ENOSPC)}"}


def test_cli_pell_reads_d_past_the_str_digit_limit(capsys):
    # D = (10^2200)^2 + 1 has 4,401 digits and period 1
    limit = _digit_limit()
    assert main(["pell", "--d", "1" + "0" * 4399 + "1"]) == 0
    assert _digit_limit() == limit
    data = _loads_any_digits(capsys.readouterr().out)
    d, x, y = data["d"], data["x"], data["y"]
    assert d == 10 ** 4400 + 1
    assert x * x - d * y * y == 1


def test_cli_classgroup_reads_delta_past_the_str_digit_limit(capsys):
    limit = _digit_limit()
    assert main(["classgroup", "--delta=-1" + "0" * 4399 + "3"]) == 1
    assert _digit_limit() == limit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "budget"


# the topograph modules a process loads for each subcommand: the CLI imports
# a handler's modules only when that handler runs, and only the walks its
# run takes
_WALK_MODULES = {"cli", "errors", "bqf", "classical", "lax", "reduction", "walk"}
_DIFORM_WALK_MODULES = {"cli", "errors", "classical", "dilinear", "diform", "walk"}
_RENDER_MODULES = {"cli", "errors", "bqf", "classical", "lax", "dilinear", "render"}
SUBCOMMAND_MODULES = [
    (("dump", "--json"), {"cli", "errors"}),
    (("reduce", "--form=5,7,3"), _WALK_MODULES),
    (("river", "--form=1,0,-3"), _WALK_MODULES),
    (("pell", "--d=61"), _WALK_MODULES),
    (("hermitian", "--ring=e", "--form=1,0,0,-2", "--min-box=2"),
     {"cli", "errors", "hermitian", "rings"}),
    (("classgroup", "--delta=-20"), {"cli", "errors", "classgroup", "classical"}),
    (("diform", "--sigma=2", "--form=1,0,-1"),
     {"cli", "errors", "classgroup", "classical"}),
    (("diform", "--sigma=2", "--form=1,1,3", "--reduce"), _DIFORM_WALK_MODULES),
    (("diform", "--sigma=3", "--form=1,0,-2", "--river"), _DIFORM_WALK_MODULES),
    (("render", "--geometry=4inf", "--depth=2", "--out={out}"), _RENDER_MODULES),
    # a definite form has a well to mark, found by its walk
    (("render", "--geometry=3inf", "--depth=2", "--form=5,7,3", "--out={out}"),
     _RENDER_MODULES | {"reduction", "walk"}),
    (("render", "--geometry=4inf", "--depth=2", "--form=1,1,3", "--out={out}"),
     _RENDER_MODULES | {"diform", "walk"}),
    (("render", "--geometry=6inf", "--depth=2", "--form=1,0,-2", "--out={out}"),
     _RENDER_MODULES),
]

# stdlib modules costly to import that no subcommand needs: dataclasses loads
# inspect, about 9 ms per process; argparse loads gettext, and building its
# parsers looked up message catalogues through locale, about 5 ms together
_COSTLY = ("dataclasses", "inspect", "argparse", "gettext", "locale")

_LOADED_SCRIPT = """\
import json, sys, topograph.cli
code = topograph.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("topograph.")),
                  sorted(m for m in %r if m in sys.modules)]))
""" % (_COSTLY,)


@pytest.fixture(scope="module")
def costly_at_startup():
    """The costly modules a bare interpreter in this environment loads."""
    script = "import json, sys; print(json.dumps([m for m in %r if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", script % (_COSTLY,)],
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, modules", SUBCOMMAND_MODULES)
def test_cli_subcommand_imports_only_its_modules(argv, modules, tmp_path,
                                                 costly_at_startup):
    argv = [a.format(out=tmp_path / "patch.svg") for a in argv]
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv],
                          capture_output=True, text=True)
    code, loaded, costly = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted(f"topograph.{m}" for m in modules)
    assert set(costly) <= costly_at_startup


def test_cli_classgroup_imprimitive_ambiguous_form():
    # A_D = (3, 3, 15) is imprimitive for D = -171
    proc = run_cli("classgroup", "--delta=-171")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["A_class_index"] == {"2": None, "3": None}
    # A_D = (2, 0, 48) is imprimitive for D = -384, (3, 0, 32) is not
    proc = run_cli("classgroup", "--delta=-384")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["A_class_index"]["2"] is None
    assert data["classes"][data["A_class_index"]["3"]] == [3, 0, 32]


# stdout of the walk commands, recorded from the single-step walkers
WALK_STDOUT = [
    (('reduce', '--form=5,7,3'),
     '{"class": "positive-definite", "form": [5, 7, 3], "reduced": [1, 1, 3], "well": {"kind": "triad-well", "values": [1, 3, 3]}}\n'),
    (('reduce', '--form=12,11,3'),
     '{"class": "positive-definite", "form": [12, 11, 3], "reduced": [2, -1, 3], "well": {"kind": "triad-well", "values": [2, 3, 4]}}\n'),
    (('reduce', '--form=1,20000,100000001'),
     '{"class": "positive-definite", "form": [1, 20000, 100000001], "reduced": [1, 0, 1], "well": {"kind": "cell-well", "values": [1, 1, 2]}}\n'),
    (('reduce', '--form=1,0,-3'),
     '{"class": "indefinite-nondegenerate", "form": [1, 0, -3], "reduced": [-2, 2, 1], "well": null}\n'),
    (('reduce', '--form=-22,6,24'),
     '{"class": "indefinite-nondegenerate", "form": [-22, 6, 24], "reduced": [-22, 6, 24], "well": null}\n'),
    (('reduce', '--form=1,2000,999995'),
     '{"class": "indefinite-nondegenerate", "form": [1, 2000, 999995], "reduced": [-1, 4, 1], "well": null}\n'),
    (('river', '--form=1,0,-3'),
     '{"automorph": [[2, 3], [1, 2]], "delta": 12, "form": [1, 0, -3], "mu": 1, "period_edges": 3, "reduced_cycle": [[-2, 2, 1], [1, 2, -2]], "witness": [1, 0]}\n'),
    (('river', '--form=3,0,-5'),
     '{"automorph": [[4, 5], [3, 4]], "delta": 60, "form": [3, 0, -5], "mu": 2, "period_edges": 5, "reduced_cycle": [[-2, 6, 3], [3, 6, -2]], "witness": [1, 1]}\n'),
    (('river', '--form=-22,6,24'),
     '{"automorph": [[217250939, 199211808], [182610824, 167447987]], "delta": 2148, "form": [-22, 6, 24], "mu": 2, "period_edges": 78, "reduced_cycle": [[-22, 6, 24], [-22, 38, 8], [-16, 22, 26], [-16, 42, 6], [-12, 30, 26], [-12, 42, 8], [-4, 42, 24], [-4, 46, 2], [2, 46, -4], [6, 42, -16], [8, 38, -22], [8, 42, -12], [24, 6, -22], [24, 42, -4], [26, 22, -16], [26, 30, -12]], "witness": [781367, 656780]}\n'),
    (('river', '--form=1,5,-5'),
     '{"automorph": [[1, 5], [1, 6]], "delta": 45, "form": [1, 5, -5], "mu": 1, "period_edges": 6, "reduced_cycle": [[-5, 5, 1], [1, 5, -5]], "witness": [1, 0]}\n'),
    (('river', '--form=1,2000,999995'),
     '{"automorph": [[-3991, -3999980], [4, 4009]], "delta": 20, "form": [1, 2000, 999995], "mu": 1, "period_edges": 8, "reduced_cycle": [[-1, 4, 1], [1, 4, -1]], "witness": [1, 0]}\n'),
    (('river', '--form=-7,3,11'),
     '{"automorph": [[4629, 4895], [3115, 3294]], "delta": 317, "form": [-7, 3, 11], "mu": 1, "period_edges": 42, "reduced_cycle": [[-7, 11, 7], [-7, 17, 1], [-1, 17, 7], [1, 17, -7], [7, 11, -7], [7, 17, -1]], "witness": [3, 2]}\n'),
    (('pell', '--d=2'),
     '{"automorph": [[3, 4], [2, 3]], "d": 2, "x": 3, "y": 2}\n'),
    (('pell', '--d=61'),
     '{"automorph": [[1766319049, 13795392780], [226153980, 1766319049]], "d": 61, "x": 1766319049, "y": 226153980}\n'),
    (('pell', '--d=1000001'),
     '{"automorph": [[2000001, 2000002000], [2000, 2000001]], "d": 1000001, "x": 2000001, "y": 2000}\n'),
    (('pell', '--d=999999'),
     '{"automorph": [[1000, 999999], [1, 1000]], "d": 999999, "x": 1000, "y": 1}\n'),
    (('pell', '--d=991'),
     '{"automorph": [[379516400906811930638014896080, 11947234168218377212415555918097], [12055735790331359447442538767, 379516400906811930638014896080]], "d": 991, "x": 379516400906811930638014896080, "y": 12055735790331359447442538767}\n'),
    (('diform', '--sigma=2', '--form=1,1,3', '--reduce'),
     '{"blue": [2, 2, 3], "class_relation": null, "delta": -20, "form": [1, 1, 3], "red": [1, 2, 6], "river": null, "sigma": 2, "well": {"reduced_blue": [2, 2, 3], "reduced_red": [1, 0, 5], "source_values": [1, 3, 5, 3]}}\n'),
    (('diform', '--sigma=3', '--form=5,3,7', '--reduce'),
     '{"blue": [15, 9, 7], "class_relation": null, "delta": -339, "form": [5, 3, 7], "red": [5, 9, 21], "river": null, "sigma": 3, "well": {"reduced_blue": [7, 5, 13], "reduced_red": [5, -1, 17], "source_values": [5, 7, 17, 25, 23, 13]}}\n'),
    (('diform', '--sigma=2', '--form=1,240,28801', '--reduce'),
     '{"blue": [2, 480, 28801], "class_relation": null, "delta": -8, "form": [1, 240, 28801], "red": [1, 480, 57602], "river": null, "sigma": 2, "well": {"reduced_blue": [1, 0, 2], "reduced_red": [1, 0, 2], "source_values": [3, 1, 1, 3]}}\n'),
    (('diform', '--sigma=3', '--form=1,160,19201', '--reduce'),
     '{"blue": [3, 480, 19201], "class_relation": null, "delta": -12, "form": [1, 160, 19201], "red": [1, 480, 57603], "river": null, "sigma": 3, "well": {"reduced_blue": [1, 0, 3], "reduced_red": [1, 0, 3], "source_values": [4, 1, 1, 4, 7, 7]}}\n'),
    (('diform', '--sigma=3', '--form=5,603,54547', '--reduce'),
     '{"blue": [15, 1809, 54547], "class_relation": null, "delta": -339, "form": [5, 603, 54547], "red": [5, 1809, 163641], "river": null, "sigma": 3, "well": {"reduced_blue": [7, 5, 13], "reduced_red": [5, -1, 17], "source_values": [5, 7, 17, 25, 23, 13]}}\n'),
    (('diform', '--sigma=2', '--form=1,0,-1', '--river'),
     '{"blue": [2, 0, -1], "class_relation": null, "delta": 8, "form": [1, 0, -1], "red": [1, 0, -2], "river": {"bends": 0, "exceptional": true, "mu": null, "period_steps": 1, "witness": null}, "sigma": 2, "well": null}\n'),
    (('diform', '--sigma=3', '--form=1,0,-2', '--river'),
     '{"blue": [3, 0, -2], "class_relation": null, "delta": 24, "form": [1, 0, -2], "red": [1, 0, -6], "river": {"bends": 0, "exceptional": true, "mu": null, "period_steps": 1, "witness": null}, "sigma": 3, "well": null}\n'),
    (('diform', '--sigma=3', '--form=1,160,19199', '--river'),
     '{"blue": [3, 480, 19199], "class_relation": null, "delta": 12, "form": [1, 160, 19199], "red": [1, 480, 57597], "river": {"bends": 0, "exceptional": true, "mu": null, "period_steps": 1, "witness": null}, "sigma": 3, "well": null}\n'),
    (('diform', '--sigma=3', '--form=1,1,-1', '--river'),
     '{"blue": [3, 3, -1], "class_relation": null, "delta": 21, "form": [1, 1, -1], "red": [1, 3, -3], "river": {"bends": 2, "exceptional": false, "mu": 1, "period_steps": 2, "witness": ["blue", 0, 1]}, "sigma": 3, "well": null}\n'),
    (('diform', '--sigma=3', '--form=1,101,7649', '--river'),
     '{"blue": [3, 303, 7649], "class_relation": null, "delta": 21, "form": [1, 101, 7649], "red": [1, 303, 22947], "river": {"bends": 2, "exceptional": false, "mu": 1, "period_steps": 2, "witness": ["blue", 50, -1]}, "sigma": 3, "well": null}\n'),
    (('diform', '--sigma=2', '--form=3,5,-7', '--river'),
     '{"blue": [6, 10, -7], "class_relation": null, "delta": 268, "form": [3, 5, -7], "red": [3, 10, -14], "river": {"bends": 10, "exceptional": false, "mu": 1, "period_steps": 26, "witness": ["blue", 11, -5]}, "sigma": 2, "well": null}\n'),
    (('diform', '--sigma=2', '--form=3,245,9993', '--river'),
     '{"blue": [6, 490, 9993], "class_relation": null, "delta": 268, "form": [3, 245, 9993], "red": [3, 490, 19986], "river": {"bends": 10, "exceptional": false, "mu": 1, "period_steps": 26, "witness": ["blue", 17248, -437]}, "sigma": 2, "well": null}\n'),
    (('diform', '--sigma=3', '--form=98,-17,2', '--river'),
     '{"blue": [294, -51, 2], "class_relation": null, "delta": 249, "form": [98, -17, 2], "red": [98, -51, 6], "river": {"bends": 6, "exceptional": false, "mu": 1, "period_steps": 12, "witness": ["blue", 2329, 20507]}, "sigma": 3, "well": null}\n'),
]


@pytest.mark.parametrize("argv, expected", WALK_STDOUT)
def test_cli_walk_stdout_pinned(argv, expected, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected


# stdout of `hermitian`, recorded while it searched the cubasis on every call
HERMITIAN_STDOUT = [
    (('hermitian', '--ring=g', '--form=1,0,0,-2'),
     '{"bound_ok": true, "cube": {"faces": [1, -2, -1, -3, 0, -1], "pattern": "mixed-zero", "z": -2}, "delta": 8, "form": {"a": 1, "c": -2, "gamma": [0, 0]}, "mu": 1, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=g', '--form=2,0,0,-3'),
     '{"bound_ok": true, "cube": {"faces": [2, -3, -1, -4, 1, -1], "pattern": "II", "z": -2}, "delta": 24, "form": {"a": 2, "c": -3, "gamma": [0, 0]}, "mu": 1, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=g', '--form=1,0,0,1'),
     '{"bound_ok": null, "cube": {"faces": [1, 1, 2, 3, 3, 2], "pattern": "I", "z": 4}, "delta": -4, "form": {"a": 1, "c": 1, "gamma": [0, 0]}, "mu": null, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=g', '--form=-6,1,1,5', '--min-box=3'),
     '{"bound_ok": true, "cube": {"faces": [-6, 5, 1, 6, -5, -1], "pattern": "III", "z": 0}, "delta": 124, "form": {"a": -6, "c": 5, "gamma": [1, 1]}, "mu": 1, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=g', '--form=0,1,1,0', '--min-box=1'),
     '{"bound_ok": true, "cube": {"faces": [0, 0, 2, 2, 2, 0], "pattern": "mixed-zero", "z": 2}, "delta": 4, "form": {"a": 0, "c": 0, "gamma": [1, 1]}, "mu": 2, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=g', '--form=2,0,0,-2'),
     '{"bound_ok": true, "cube": {"faces": [2, -2, 0, -2, 2, 0], "pattern": "mixed-zero", "z": 0}, "delta": 16, "form": {"a": 2, "c": -2, "gamma": [0, 0]}, "mu": 2, "ring": "Gauss"}\n'),
    (('hermitian', '--ring=e', '--form=1,0,0,-3'),
     '{"bound_ok": true, "cube": null, "delta": 9, "form": {"a": 1, "c": -3, "gamma": [0, 0]}, "mu": 1, "ring": "Eisenstein"}\n'),
    (('hermitian', '--ring=e', '--form=1,0,0,1'),
     '{"bound_ok": null, "cube": null, "delta": -3, "form": {"a": 1, "c": 1, "gamma": [0, 0]}, "mu": null, "ring": "Eisenstein"}\n'),
    (('hermitian', '--ring=e', '--form=-4,2,-5,6', '--min-box=5'),
     '{"bound_ok": true, "cube": null, "delta": 111, "form": {"a": -4, "c": 6, "gamma": [2, -5]}, "mu": 1, "ring": "Eisenstein"}\n'),
    (('hermitian', '--ring=e', '--form=3,3,3,-3', '--min-box=2'),
     '{"bound_ok": true, "cube": null, "delta": 36, "form": {"a": 3, "c": -3, "gamma": [3, 3]}, "mu": 3, "ring": "Eisenstein"}\n'),
]


@pytest.mark.parametrize("argv, expected", HERMITIAN_STDOUT)
def test_cli_hermitian_stdout_pinned(argv, expected, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected


def test_cli_hermitian_rejects_empty_box(capsys):
    assert main(["hermitian", "--ring=g", "--form=1,0,0,-2", "--min-box=0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "precondition"


def test_cli_hermitian_box_budget(capsys):
    herm = ["hermitian", "--ring=g", "--form=1,0,0,-2"]
    assert main(herm + ["--min-box=10"]) == 0
    assert json.loads(capsys.readouterr().out)["mu"] == 1
    # box 33 first: without the budget it returns in seconds, box 10^6 never
    for box in (33, 10 ** 6, 10 ** 100):
        assert main(herm + [f"--min-box={box}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "budget"


# stdout of `classgroup`, recorded while compose searched a box for
# representatives coprime to 2d and class_index scanned the label list
CLASSGROUP_STDOUT = [
    (('classgroup', '--delta=-20'),
     '{"A_class_index": {"2": 1, "3": null}, "classes": [[1, 0, 5], [2, 2, 3]], "delta": -20, "h": 2, "table": [[0, 1], [1, 0]]}\n'),
    (('classgroup', '--delta=-171'),
     '{"A_class_index": {"2": null, "3": null}, "classes": [[1, 1, 43], [5, -3, 9], [5, 3, 9], [7, 5, 7]], "delta": -171, "h": 4, "table": [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]]}\n'),
    (('classgroup', '--delta=-384'),
     '{"A_class_index": {"2": null, "3": 1}, "classes": [[1, 0, 96], [3, 0, 32], [4, 4, 25], [5, -4, 20], [5, 4, 20], [7, -6, 15], [7, 6, 15], [11, 10, 11]], "delta": -384, "h": 8, "table": [[0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 7, 5, 6, 3, 4, 2], [2, 7, 0, 4, 3, 6, 5, 1], [3, 5, 4, 2, 0, 7, 1, 6], [4, 6, 3, 0, 2, 1, 7, 5], [5, 3, 6, 7, 1, 2, 0, 4], [6, 4, 5, 1, 7, 0, 2, 3], [7, 2, 1, 6, 5, 4, 3, 0]]}\n'),
    (('classgroup', '--delta=-4004'),
     '{"A_class_index": {"2": 1, "3": null}, "classes": [[1, 0, 1001], [2, 2, 501], [3, -2, 334], [3, 2, 334], [5, -4, 201], [5, 4, 201], [6, -2, 167], [6, 2, 167], [7, 0, 143], [9, -8, 113], [9, 8, 113], [10, -6, 101], [10, 6, 101], [11, 0, 91], [13, 0, 77], [14, 14, 75], [15, -14, 70], [15, -4, 67], [15, 4, 67], [15, 14, 70], [17, -12, 61], [17, 12, 61], [18, -10, 57], [18, 10, 57], [19, -10, 54], [19, 10, 54], [21, -14, 50], [21, 14, 50], [22, 22, 51], [25, -14, 42], [25, 14, 42], [26, 26, 45], [27, -10, 38], [27, 10, 38], [30, -26, 39], [30, -14, 35], [30, 14, 35], [30, 26, 39], [33, -22, 34], [33, 22, 34]], "delta": -4004, "h": 40, "table": [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39], [1, 0, 6, 7, 12, 11, 2, 3, 15, 23, 22, 5, 4, 28, 31, 8, 35, 37, 34, 36, 38, 39, 10, 9, 33, 32, 30, 29, 13, 27, 26, 14, 25, 24, 18, 16, 19, 17, 20, 21], [2, 6, 9, 0, 16, 18, 23, 1, 26, 33, 3, 34, 35, 39, 37, 30, 38, 4, 31, 5, 28, 36, 7, 24, 27, 22, 25, 8, 21, 15, 32, 17, 10, 29, 14, 20, 11, 12, 13, 19], [3, 7, 0, 10, 17, 19, 1, 22, 27, 2, 32, 36, 37, 38, 34, 29, 4, 31, 5, 39, 35, 28, 25, 6, 23, 26, 8, 24, 20, 33, 15, 18, 30, 9, 11, 12, 21, 14, 16, 13], [4, 12, 16, 17, 29, 0, 35, 37, 36, 38, 31, 1, 27, 32, 23, 19, 15, 33, 2, 3, 26, 22, 14, 20, 28, 34, 11, 21, 25, 39, 5, 9, 18, 13, 6, 8, 7, 24, 30, 10], [5, 11, 18, 19, 0, 30, 34, 36, 35, 31, 39, 26, 1, 33, 22, 16, 2, 3, 32, 15, 23, 27, 21, 14, 37, 28, 20, 12, 24, 4, 38, 10, 13, 17, 25, 6, 8, 7, 9, 29], [6, 2, 23, 1, 35, 34, 9, 0, 30, 24, 7, 18, 16, 21, 17, 26, 20, 12, 14, 11, 13, 19, 3, 33, 29, 10, 32, 15, 39, 8, 25, 37, 22, 27, 31, 38, 5, 4, 28, 36], [7, 3, 1, 22, 37, 36, 0, 10, 29, 6, 25, 19, 17, 20, 18, 27, 12, 14, 11, 21, 16, 13, 32, 2, 9, 30, 15, 33, 38, 24, 8, 34, 26, 23, 5, 4, 39, 31, 35, 28], [8, 15, 26, 27, 36, 35, 30, 29, 0, 25, 24, 16, 19, 14, 13, 1, 11, 21, 20, 12, 18, 17, 33, 32, 10, 9, 2, 3, 31, 7, 6, 28, 23, 22, 38, 5, 4, 39, 34, 37], [9, 23, 33, 2, 38, 31, 24, 6, 25, 29, 0, 14, 20, 19, 12, 32, 13, 16, 17, 18, 21, 11, 1, 27, 8, 7, 22, 26, 36, 30, 10, 4, 3, 15, 37, 28, 34, 35, 39, 5], [10, 22, 3, 32, 31, 39, 7, 25, 24, 0, 30, 21, 14, 16, 11, 33, 17, 18, 19, 13, 12, 20, 26, 1, 6, 8, 27, 23, 35, 9, 29, 5, 15, 2, 36, 37, 28, 34, 4, 38], [11, 5, 34, 36, 1, 26, 18, 19, 16, 14, 21, 30, 0, 24, 10, 35, 6, 7, 25, 8, 9, 29, 39, 31, 17, 13, 38, 4, 33, 12, 20, 22, 28, 37, 32, 2, 15, 3, 23, 27], [12, 4, 35, 37, 27, 1, 16, 17, 19, 20, 14, 0, 29, 25, 9, 36, 8, 24, 6, 7, 30, 10, 31, 38, 13, 18, 5, 39, 32, 21, 11, 23, 34, 28, 2, 15, 3, 33, 26, 22], [13, 28, 39, 38, 32, 33, 21, 20, 14, 19, 16, 24, 25, 0, 8, 31, 10, 30, 29, 9, 7, 6, 35, 36, 11, 12, 37, 34, 1, 18, 17, 15, 4, 5, 27, 22, 23, 26, 3, 2], [14, 31, 37, 34, 23, 22, 17, 18, 13, 12, 11, 10, 9, 8, 0, 28, 24, 6, 7, 25, 29, 30, 5, 4, 16, 19, 39, 38, 15, 20, 21, 1, 36, 35, 3, 33, 32, 2, 27, 26], [15, 8, 30, 29, 19, 16, 26, 27, 1, 32, 33, 35, 36, 31, 28, 0, 5, 39, 38, 4, 34, 37, 24, 25, 22, 23, 6, 7, 14, 3, 2, 13, 9, 10, 20, 11, 12, 21, 18, 17], [16, 35, 38, 4, 15, 2, 20, 12, 11, 13, 17, 6, 8, 10, 24, 5, 30, 29, 9, 0, 25, 7, 37, 28, 21, 14, 34, 36, 22, 19, 18, 33, 31, 39, 23, 26, 1, 27, 32, 3], [17, 37, 4, 31, 33, 3, 12, 14, 21, 16, 18, 7, 24, 30, 6, 39, 29, 9, 0, 10, 8, 25, 34, 35, 20, 11, 36, 28, 26, 13, 19, 2, 5, 38, 1, 27, 22, 23, 15, 32], [18, 34, 31, 5, 2, 32, 14, 11, 20, 17, 19, 25, 6, 29, 7, 38, 9, 0, 10, 30, 24, 8, 36, 37, 12, 21, 28, 35, 27, 16, 13, 3, 39, 4, 22, 23, 26, 1, 33, 15], [19, 36, 5, 39, 3, 15, 11, 21, 12, 18, 13, 8, 7, 9, 25, 4, 0, 10, 30, 29, 6, 24, 28, 34, 14, 20, 35, 37, 23, 17, 16, 32, 38, 31, 26, 1, 27, 22, 2, 33], [20, 38, 28, 35, 26, 23, 13, 16, 18, 21, 12, 9, 30, 7, 29, 34, 25, 8, 24, 6, 10, 0, 4, 39, 19, 17, 31, 5, 3, 11, 14, 27, 37, 36, 33, 32, 2, 15, 22, 1], [21, 39, 36, 28, 22, 27, 19, 13, 17, 11, 20, 29, 10, 6, 30, 37, 7, 25, 8, 24, 0, 9, 38, 5, 18, 16, 4, 31, 2, 14, 12, 26, 35, 34, 15, 3, 33, 32, 1, 23], [22, 10, 7, 25, 14, 21, 3, 32, 33, 1, 26, 39, 31, 35, 5, 24, 37, 34, 36, 28, 4, 38, 30, 0, 2, 15, 29, 9, 16, 23, 27, 11, 8, 6, 19, 17, 13, 18, 12, 20], [23, 9, 24, 6, 20, 14, 33, 2, 32, 27, 1, 31, 38, 36, 4, 25, 28, 35, 37, 34, 39, 5, 0, 29, 15, 3, 10, 30, 19, 26, 22, 12, 7, 8, 17, 13, 18, 16, 21, 11], [24, 33, 27, 23, 28, 37, 29, 9, 10, 8, 6, 17, 13, 11, 16, 22, 21, 20, 12, 14, 19, 18, 2, 15, 30, 0, 3, 32, 5, 25, 7, 35, 1, 26, 4, 39, 31, 38, 36, 34], [25, 32, 22, 26, 34, 28, 10, 30, 9, 7, 8, 13, 18, 12, 19, 23, 14, 11, 21, 20, 17, 16, 15, 3, 0, 29, 33, 2, 4, 6, 24, 36, 27, 1, 39, 31, 38, 5, 37, 35], [26, 30, 25, 8, 11, 20, 32, 15, 2, 22, 27, 38, 5, 37, 39, 6, 34, 36, 28, 35, 31, 4, 29, 10, 3, 33, 9, 0, 17, 1, 23, 21, 24, 7, 13, 18, 16, 19, 14, 12], [27, 29, 8, 24, 21, 12, 15, 33, 3, 26, 23, 4, 39, 34, 38, 7, 36, 28, 35, 37, 5, 31, 9, 30, 32, 2, 0, 10, 18, 22, 1, 20, 6, 25, 16, 19, 17, 13, 11, 14], [28, 13, 21, 20, 25, 24, 39, 38, 31, 36, 35, 33, 32, 1, 15, 14, 22, 26, 27, 23, 3, 2, 16, 19, 5, 4, 17, 18, 0, 34, 37, 8, 12, 11, 29, 10, 9, 30, 7, 6], [29, 27, 15, 33, 39, 4, 8, 24, 7, 30, 9, 12, 21, 18, 20, 3, 19, 13, 16, 17, 11, 14, 23, 26, 25, 6, 1, 22, 34, 10, 0, 38, 2, 32, 35, 36, 37, 28, 5, 31], [30, 26, 32, 15, 5, 38, 25, 8, 6, 10, 29, 20, 11, 17, 21, 2, 18, 19, 13, 16, 14, 12, 27, 22, 7, 24, 23, 1, 37, 0, 9, 39, 33, 3, 28, 34, 35, 36, 31, 4], [31, 14, 17, 18, 9, 10, 37, 34, 28, 4, 5, 22, 23, 15, 1, 13, 33, 2, 3, 32, 27, 26, 11, 12, 35, 36, 21, 20, 8, 38, 39, 0, 19, 16, 7, 24, 25, 6, 29, 30], [32, 25, 10, 30, 18, 13, 22, 26, 23, 3, 15, 28, 34, 4, 36, 9, 31, 5, 39, 38, 37, 35, 8, 7, 1, 27, 24, 6, 12, 2, 33, 19, 29, 0, 21, 14, 20, 11, 17, 16], [33, 24, 29, 9, 13, 17, 27, 23, 22, 15, 2, 37, 28, 5, 35, 10, 39, 38, 4, 31, 36, 34, 6, 8, 26, 1, 7, 25, 11, 32, 3, 16, 0, 30, 12, 21, 14, 20, 19, 18], [34, 18, 14, 11, 6, 25, 31, 5, 38, 37, 36, 32, 2, 27, 3, 20, 23, 1, 22, 26, 33, 15, 19, 17, 4, 39, 13, 16, 29, 35, 28, 7, 21, 12, 10, 9, 30, 0, 24, 8], [35, 16, 20, 12, 8, 6, 38, 4, 5, 28, 37, 2, 15, 22, 33, 11, 26, 27, 23, 1, 32, 3, 17, 13, 39, 31, 18, 19, 10, 36, 34, 24, 14, 21, 9, 30, 0, 29, 25, 7], [36, 19, 11, 21, 7, 8, 5, 39, 4, 34, 28, 15, 3, 23, 32, 12, 1, 22, 26, 27, 2, 33, 13, 18, 31, 38, 16, 17, 9, 37, 35, 25, 20, 14, 30, 0, 29, 10, 6, 24], [37, 17, 12, 14, 24, 7, 4, 31, 39, 35, 34, 3, 33, 26, 2, 21, 27, 23, 1, 22, 15, 32, 18, 16, 38, 5, 19, 13, 30, 28, 36, 6, 11, 20, 0, 29, 10, 9, 8, 25], [38, 20, 13, 16, 30, 9, 28, 35, 34, 39, 4, 23, 26, 3, 27, 18, 32, 15, 33, 2, 22, 1, 12, 21, 36, 37, 14, 11, 7, 5, 31, 29, 17, 19, 24, 25, 6, 8, 10, 0], [39, 21, 19, 13, 10, 29, 36, 28, 37, 5, 38, 27, 22, 2, 26, 17, 3, 32, 15, 33, 1, 23, 20, 11, 34, 35, 12, 14, 6, 31, 4, 30, 16, 18, 8, 7, 24, 25, 0, 9]]}\n'),
    (('classgroup', '--delta=12'),
     '{"A_class_index": {"2": 1, "3": 1}, "classes": [[-2, 2, 1], [-1, 2, 2]], "delta": 12, "h": 2, "table": [[0, 1], [1, 0]]}\n'),
    (('classgroup', '--delta=229'),
     '{"A_class_index": {"2": null, "3": null}, "classes": [[-9, 7, 5], [-9, 11, 3], [-1, 15, 1]], "delta": 229, "h": 3, "table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]}\n'),
    (('classgroup', '--delta=1001'),
     '{"A_class_index": {"2": null, "3": null}, "classes": [[-20, 11, 11], [-17, 7, 14], [-16, 13, 13], [-11, 11, 20]], "delta": 1001, "h": 4, "table": [[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]}\n'),
]


@pytest.mark.parametrize("argv, expected", CLASSGROUP_STDOUT)
def test_cli_classgroup_stdout_pinned(argv, expected, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected
