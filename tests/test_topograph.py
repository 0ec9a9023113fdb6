import importlib
import json
import subprocess
import sys

import pytest

import topograph
from reference import superbase_ball, verify_simple_transitivity
from topograph.errors import NotASuperbaseError
from topograph.groups import coxeter_generators, pgl_key
from topograph.lax import STANDARD_SUPERBASE, mat_mul, neighbors, normalize_superbase


def test_standard_superbase_zero_sum():
    u, v, w = STANDARD_SUPERBASE
    assert (u[0] + v[0] + w[0], u[1] + v[1] + w[1]) == (0, 0)


def test_normalize_rejects_non_unimodular():
    with pytest.raises(NotASuperbaseError):
        normalize_superbase([(1, 0), (2, 0), (3, 0)])


def test_neighbors_are_involutive():
    for t in neighbors(STANDARD_SUPERBASE):
        back = [s.key() for s in neighbors(t)]
        assert STANDARD_SUPERBASE.key() in back


def test_ball_sizes_are_tree_counts():
    # the superbase graph is a trivalent tree: 1, 4, 10, 22, ...
    for depth in range(5):
        ball = superbase_ball(depth)
        expected = 1 + 3 * (2 ** depth - 1)
        assert len(ball) == expected


def test_generator_relations():
    gens, report = coxeter_generators()
    assert report["involutions"] == [True, True, True]
    assert report["braid_cubed"] is True
    assert report["commute_02"] is True


def test_generators_are_distinct_in_pgl():
    gens, _ = coxeter_generators()
    keys = {pgl_key(g) for g in gens}
    assert len(keys) == 3


def test_simple_transitivity_radius_5():
    report = verify_simple_transitivity(5)
    assert report["match"] is True
    assert report["injective"] is True
    assert report["flag_ball"][0] == 1
    assert report["flag_ball"] == report["word_ball"]


def test_braid_product_has_order_3():
    gens, _ = coxeter_generators()
    g0, g1, _ = gens
    p = mat_mul(g0, g1)
    p3 = mat_mul(mat_mul(p, p), p)
    assert pgl_key(p3) == pgl_key(((1, 0), (0, 1)))
    assert pgl_key(p) != pgl_key(((1, 0), (0, 1)))


def test_library_has_no_assert_or_blanket_except():
    # asserts vanish under python -O, and a blanket except hides errors
    import ast
    from pathlib import Path

    import topograph

    found = []
    for path in sorted(Path(topograph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.ExceptHandler):
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(t is None or isinstance(t, ast.Name) and t.id in (
                        "Exception", "BaseException") for t in caught):
                    found.append(f"{path.name}:{node.lineno} blanket except")
    assert found == []


def test_library_does_not_import_dataclasses():
    # importing dataclasses loads inspect, and each decorated class execs its
    # methods: milliseconds of start-up in every CLI process
    import ast
    from pathlib import Path

    import topograph

    found = []
    for path in sorted(Path(topograph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_exports_resolve_to_their_home_modules():
    for name in topograph.__all__:
        obj = getattr(topograph, name)
        home = obj.__module__
        assert home == f"topograph.{topograph._HOME[name]}", name
        assert getattr(importlib.import_module(home), name) is obj
    namespace = {}
    exec("from topograph import *", namespace)
    assert {name: namespace[name] for name in topograph.__all__} == {
        name: getattr(topograph, name) for name in topograph.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        topograph.no_such_name


def test_bare_package_import_loads_no_submodule():
    script = ("import json, sys, topograph\n"
              "print(json.dumps([dir(topograph), "
              "[m for m in sys.modules if m.startswith('topograph.')]]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    listed, loaded = json.loads(proc.stdout)
    assert set(topograph.__all__) <= set(listed)
    assert loaded == []


def test_moved_names_resolve_to_their_new_homes():
    homes = {"BQD": "dilinear", "Divector": "dilinear", "Pinwheel": "dilinear"}
    for name, home in homes.items():
        assert topograph._HOME[name] == home
        assert getattr(topograph, name).__module__ == f"topograph.{home}"
    # the simple-transitivity check is test code now
    assert "verify_simple_transitivity" not in topograph._HOME
    assert "verify_simple_transitivity" not in topograph.__all__
    with pytest.raises(AttributeError):
        getattr(topograph, "verify_simple_transitivity")


def test_geometry_modules_do_not_load_the_walks_or_the_group_checks():
    # with no byte-code cache each process compiles every module it imports
    script = ("import json, sys\n"
              "import topograph.lax, topograph.dilinear, topograph.render\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.startswith('topograph.'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "topograph.dilinear" in loaded
    assert not loaded & {"topograph.groups", "topograph.diform", "topograph.reduction"}


def test_groups_loads_only_what_it_uses():
    script = ("import json, sys\n"
              "import topograph.groups\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m.startswith('topograph.'))))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [
        "topograph.errors", "topograph.groups", "topograph.lax"]


# ROADMAP item 10: src/ may not grow past this; code added is paid for by
# code taken out
SRC_LINE_LIMIT = 3054


def test_src_stays_within_its_line_budget():
    from pathlib import Path

    # counted as `wc -l src/topograph/*.py` counts them
    lines = sum(path.read_bytes().count(b"\n")
                for path in Path(topograph.__file__).parent.glob("*.py"))
    assert lines <= SRC_LINE_LIMIT, (
        f"src/topograph/*.py has {lines} lines, past the limit of {SRC_LINE_LIMIT}")


# documented entry points that no code in src/ calls (README, "Tests")
ENTRY_POINTS = {"coxeter_generators", "find_tetrabasis", "STANDARD_EISENSTEIN_SEED",
                "rho", "indefinite_cycle", "dicell_values", "find_cubasis",
                "STANDARD_GAUSS_SEED", "neighbors", "find_river_edge"}


def test_every_top_level_name_in_src_is_used_or_documented():
    # what only the tests run belongs in tests/ (reference.py, box_search.py):
    # each top-level name of a module must be used by code elsewhere in src/
    # (a name, an attribute or an import; docstrings and comments do not
    # count), be a package export or be a pinned entry point
    import ast
    from pathlib import Path

    def used(node) -> set:
        return {n.id if isinstance(n, ast.Name) else
                n.attr if isinstance(n, ast.Attribute) else n.name
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(topograph.__file__).parent.glob("*.py"))}
    # what each top-level statement's code uses
    uses = [(stmt, used(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if (name.startswith("__") and name.endswith("__")
                        or topograph._HOME.get(name) == module
                        or name in ENTRY_POINTS):
                    continue
                # the rest of src/, without this definition itself
                if not any(name in names_used for other, names_used in uses
                           if other is not stmt):
                    unused.append(f"{module}.{name}")
    assert unused == []
