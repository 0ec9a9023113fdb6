import hashlib
import json
import subprocess
import sys

import pytest

from topograph import render
from topograph.cli import main
from topograph.errors import BudgetError, PreconditionError
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
    with pytest.raises(BudgetError):
        layout("3inf", 10)
    with pytest.raises(PreconditionError):
        layout("5inf", 2)


def test_vertices_do_not_coincide():
    p = layout("3inf", 5)
    pts = {(round(v["x"], 8), round(v["y"], 8)) for v in p.vertices}
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
    rivers = [e for e in p.edges if "river" in e["classes"]]
    assert rivers
    for e in rivers:
        f1, f2 = e["faces"]
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
]


@pytest.mark.parametrize("geometry, depth, form, digest", SVG_SHA256)
def test_svg_bytes_pinned(geometry, depth, form, digest):
    svg = emit_svg(layout(geometry, depth, form))
    assert hashlib.sha256(svg).hexdigest() == digest


@pytest.mark.parametrize("geometry, expand, degree", [
    ("3inf", "neighbors", 3), ("4inf", "_other_vertex", 4),
    ("6inf", "_other_vertex", 6),
])
def test_layout_expands_each_vertex_once(geometry, expand, degree, monkeypatch):
    calls = []
    real = getattr(render, expand)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(render, expand, counted)
    patch = layout(geometry, 4)
    per_vertex = 1 if expand == "neighbors" else degree
    assert len(calls) == per_vertex * len(patch.vertices)


def test_label_eliding():
    from topograph.render import _elide

    assert _elide("123") == "123"
    assert _elide(str(1766319049 ** 2)) == f"{float(1766319049 ** 2):.4e}"


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


def test_cli_river_revalidates():
    proc = run_cli("river", "--form", "1,0,-3")
    data = json.loads(proc.stdout)
    from topograph.bqf import BQF
    from topograph.reduction import minimum_nonzero

    assert data["delta"] == 12
    assert data["mu"] == minimum_nonzero(BQF(1, 0, -3)).mu
    x, y = data["witness"]
    assert abs(x * x - 3 * y * y) == data["mu"]


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


def test_cli_seed_flag_is_noop():
    a = run_cli("--seed", "1", "pell", "--d", "7")
    b = run_cli("--seed", "2", "pell", "--d", "7")
    assert a.stdout == b.stdout


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
