"""The installed package holds the runtime only: the exact references the
tests compare against live in tests/oracle and are never imported by it."""

import ast
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import equidecomp
from equidecomp import integralize

SRC = Path(equidecomp.__file__).resolve().parents[1]


def defined(names):
    """(file, name) of every class or def under src/ named in names."""
    return [(path.name, m.group(1)) for path in sorted(SRC.rglob("*.py"))
            for m in re.finditer(r"^\s*(?:class|def)\s+(\w+)\b",
                                 path.read_text(), re.M)
            if m.group(1) in names]


def callers(name):
    """(file, function) of every call to name under src/."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls += [(path.name, fn.name) for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == name]
    return calls


def test_package_ships_no_oracle():
    names = {m.name for m in pkgutil.iter_modules(equidecomp.__path__)}
    assert not names & {"finiteflow", "dyadic"}, sorted(names)
    hits = defined({"_Dinic", "Dyadic", "level_sum"})
    assert not hits, hits
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, equidecomp.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'oracle'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_one_edge_address():
    """lattice alone converts between coordinates, flat pairs and edge
    slots, and alone moves flat indices between a window and the crop its
    edge fields live on; the coordinate-tuple edge API and the private
    copies are gone."""
    gone = defined({"_slot", "value_num", "add_num", "_dir_index",
                    "_flat_shifts", "_undirected", "_incident_edges",
                    "_flat_of_coords"})
    assert not gone, gone
    owned = ("flat_shifts", "edge_mask", "edge_slots", "Crop", "take",
             "to_full", "from_full", "edge_crop")
    assert defined(set(owned)) == [("lattice.py", n) for n in owned]


def test_one_frontier_router():
    """Repair and rounding share one residual-routing solve, and pipeline
    reaches integralize through public names only.  The router is the
    only caller of the solver's layout and solve steps, and the one-call
    form of the two (tests/oracle/arcs.py) is not in the package."""
    for step in ("supply_graph", "solve_supply_graph"):
        calls = callers(step)
        assert calls == [("integralize.py", "_route_to_frontier")], calls
    assert not defined({"solve_supply_flow"})
    tree = ast.parse((SRC / "equidecomp" / "pipeline.py").read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name.startswith("_")
               or (node.level and (node.module or "").startswith("_"))]
    assert not private, private


def test_csr_without_a_sort():
    """The router reads the solver's CSR off the core box: the arc sort
    (_arc_layout) and the flat core edge lists (_core_edges) stay
    deleted, and neither the solver module nor the router calls a sort."""
    gone = defined({"_arc_layout", "_core_edges"})
    assert not gone, gone
    sorts = re.compile(r"\b(?:argsort|lexsort|sort|sorted)\s*\(")
    solver = (SRC / "equidecomp" / "_maxflow.py").read_text()
    assert not sorts.findall(solver), sorts.findall(solver)
    router = inspect.getsource(integralize._route_to_frontier)
    assert not sorts.findall(router), sorts.findall(router)


def test_frontier_tables_sized_by_the_rim():
    """The rim's frontier slots are kept by face class, with no dense
    slots-by-rim table (oracle.frontier.rim_slot_table), and the router
    takes its heads from the arcs it keeps, with no head table over
    every row and column."""
    from equidecomp.lattice import LatticeWindow
    frontier = integralize._rim_frontier_slots(
        LatticeWindow(d=3, L=8, margin=1))
    assert [a.ndim for a in frontier] == [1] * 5
    router = inspect.getsource(integralize._route_to_frontier)
    assert ".outer(" not in router


def test_nonzero_scans_read_a_mask():
    """np.nonzero and np.flatnonzero cost several times more on an
    integer array than on its != 0 mask, so no call under src/ hands
    them an edge field's .values (or a slice or transpose of it)."""
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None)
                    in ("nonzero", "flatnonzero")):
                continue
            np_call = getattr(node.func.value, "id", None) == "np"
            arg = (node.args[0] if node.args else None) if np_call \
                else node.func.value
            while isinstance(arg, ast.Subscript) or (
                    isinstance(arg, ast.Attribute) and arg.attr == "T"):
                arg = arg.value
            if isinstance(arg, ast.Attribute) and arg.attr == "values":
                hits.append((path.name, node.lineno))
    assert not hits, hits


def test_no_unique_calls():
    """numpy 2.4 hashes integers in np.unique, which costs many times a
    sort: on the demo's 1,694 matched rows (2-vCPU machine),
    np.unique(gamma, axis=0, return_inverse=True) took 3.5 ms against
    0.37 ms for a lexsort grouping, and np.unique on the 1,694 targets
    0.26 ms against 0.011 ms for np.sort.  So no call under src/ is
    np.unique; grouping and duplicate checks sort and compare neighbours."""
    hits = [(path.name, node.lineno)
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "unique"
            and getattr(node.func.value, "id", None) == "np"]
    assert not hits, hits


def test_narrow_fields_are_reviewed():
    """Edge fields are stored narrower than int64 only where a proven
    bound sets the width: narrow_int lives in flowgrid and is called by
    truncated_psi, repair_to_frontier and round_edge_field alone
    (round_edge_field twice: at the truncation's bound, then once the
    rim sums are known)."""
    assert defined({"narrow_int"}) == [("flowgrid.py", "narrow_int")]
    calls = callers("narrow_int")
    assert sorted(calls) == [("flowgrid.py", "truncated_psi"),
                             ("integralize.py", "repair_to_frontier"),
                             ("integralize.py", "round_edge_field"),
                             ("integralize.py", "round_edge_field")], calls


def test_one_line_sum():
    """The truncated flow is one line sum per level: the per-phase tables
    and the phase loop stay deleted, so does the full-window level grid
    (oracle.levelgrid), and the scalar oracle shares no code with the
    kernel it checks."""
    gone = defined({"phase_tables", "phase_sum", "level_edge_grid"})
    assert not gone, gone
    oracle = Path(__file__).resolve().parent / "oracle" / "paperflow.py"
    imported = []
    for node in ast.walk(ast.parse(oracle.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += ["%s.%s" % (node.module, alias.name)
                         for alias in node.names]
    shared = [m for m in imported if m.startswith("equidecomp._kernels")]
    assert not shared, shared


def test_distances_are_ball_tests():
    """Every distance hypothesis of the cover path is a threshold, tested
    with ball_mask: the distance transforms stay deleted."""
    gone = defined({"dist_to", "_pairwise_min_distance"})
    assert not gone, gone


def test_one_tile_flow_builder():
    """The K scan and tile_flow share one tile-flow builder, which lists
    only the pairs that carry flow: the separate scan aggregation, the
    edges= shortcut and the per-direction edge pass over the tile-id grid
    stay deleted (the verifier's locality check is one dilation)."""
    from equidecomp.equidecompose import tile_flow
    gone = defined({"_edge_tile_flow", "_tile_edges"})
    assert not gone, gone
    assert "edges" not in inspect.signature(tile_flow).parameters


def test_one_matching_pass():
    """build_matching serves every transfer and leftover in one pass over
    a per-tile point CSR: the per-tile vertex lists (kept as
    tests/oracle/matching.py), the tile flow's row index and its row
    accessors stay deleted, and build_matching holds no loop and no
    np.unique, which hashes integer arrays far slower than a sort."""
    from equidecomp.equidecompose import TileFlow, build_matching
    gone = defined({"_tile_vertex_lists", "neighbors", "transfers"})
    assert not gone, gone
    assert "row_ptr" not in TileFlow.__dataclass_fields__
    tree = ast.parse(inspect.getsource(build_matching))
    loops = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert not loops, loops
    uniques = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "unique"]
    assert not uniques, uniques


def _scipy_loaded(code):
    """The scipy.ndimage and scipy.special modules loaded by a fresh
    process that runs code, with `main` (the CLI) imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nfrom equidecomp.cli import main\n"
         + code + "\nprint(sorted(m for m in sys.modules if m.startswith("
         "('scipy.ndimage', 'scipy.special'))))"],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_scipy_is_csgraph_at_module_level(tmp_path):
    """scipy serves the flow solves and the cover's connectivity through
    scipy.sparse.csgraph, imported at the top of the modules that use it:
    scipy.ndimage, and the scipy.special (25 modules) that it loads,
    are imported nowhere, no function body imports scipy, and neither the
    CLI's import nor a square and its verify loads them."""
    where = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inner = {node for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["%s.%s" % (node.module, alias.name)
                         for alias in node.names]
            else:
                continue
            where += [(path.name, name, node in inner) for name in names
                      if name.split(".")[0] == "scipy"
                      and (node in inner or name.startswith(
                          ("scipy.ndimage", "scipy.special")))]
    assert not where, where
    assert _scipy_loaded("") == "[]"
    out = str(tmp_path / "run")
    toy = ["L=16", "margin=4", "n0=1", "seed=3", "out=" + out]
    square = ["square"] + sum((["--set", kv] for kv in toy), [])
    assert _scipy_loaded("assert main(%r) == 0\nassert main(['verify', "
                         "'--dir', %r]) == 0" % (square, out)) == "[]"


def test_config_loads_no_scipy():
    """The config module validates with arithmetic on the window alone,
    the cover level bound included, and the tiles, the endgame, the
    report and the verifier need only numpy: each of these modules,
    imported alone, loads no scipy module.  PipelineError lives in config
    beside ConfigError, so its importers need no solver module for it."""
    assert defined({"PipelineError"}) == [("config.py", "PipelineError")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for module in ("config", "tiling", "equidecompose", "report", "verify"):
        code = ("import sys, equidecomp.%s; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))" % module)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def test_one_cover_module():
    """cover.py alone holds the regions, the cover and the boundary walks;
    the one-caller ball wrapper and the EulerWalk record stay deleted, and
    neither integralize nor tiling carries a cover name."""
    from equidecomp import tiling
    owned = {"_components", "Region", "boundary", "boundary_n",
             "fill_holes", "enlarge", "Cover", "boundary_disjoint_cover",
             "three_cycles_through", "BoundaryCycleGraph",
             "build_boundary_cycle_graph", "euler_cycle", "adjust_on_region",
             "walk_cover"}
    hits = defined(owned)
    assert {name for _, name in hits} == owned, hits
    assert {path for path, _ in hits} == {"cover.py"}, hits
    assert not defined({"ball", "EulerWalk"})
    carried = [(mod.__name__, name) for mod, names in (
        (integralize, ("max_cover_levels", "COVER_SEPARATION", "Region")),
        (tiling, ("Region", "boundary_n", "fill_holes")))
        for name in names if hasattr(mod, name)]
    assert not carried, carried


def test_each_input_passed_once():
    """The base point lives only in the action, and windows and the piece
    scale are read off the objects that carry them: the arguments and
    fields that repeated them, and cli._x0, stay deleted."""
    from equidecomp import cli, equidecompose, lattice, pipeline, tiling
    gone = {
        pipeline.build_flow: {"x0"},
        pipeline.run_pipeline: {"x0"},
        lattice.sample_field: {"x"},
        integralize.round_edge_field: {"window"},
        integralize.integralize_flow: {"window"},
        integralize.spill_to_frontier: {"rim", "slots"},
        equidecompose.select_K: {"window"},
        equidecompose.select_K_empirical: {"window", "k_min", "k_max"},
        equidecompose.extract_pieces: {"K"},
        tiling.ball_mask: {"window"},
    }
    kept = {fn.__name__: sorted(names & set(inspect.signature(fn).parameters))
            for fn, names in gone.items()}
    assert not any(kept.values()), kept
    fields = set(equidecompose.PieceMap.__dataclass_fields__)
    assert not fields & {"window", "K"}, fields
    assert not hasattr(cli, "_x0")


def test_verify_owns_the_run_contract():
    """verify.py alone writes and reads what `square` leaves for `verify`:
    read_run is the only reader of pieces.csv, cli's schema helpers stay
    deleted and are not copied elsewhere, and the checker imports no flow
    solver."""
    calls = callers("read_pieces_csv")
    assert calls == [("verify.py", "read_run")], calls
    gone = defined({"_config_from_summary", "_is_json_int", "_json_int",
                    "_flats"})
    assert not gone, gone
    tree = ast.parse((SRC / "equidecomp" / "verify.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not imported & {"pipeline", "integralize", "_maxflow"}, imported


def test_each_fact_of_a_run_said_once():
    """PieceMap holds what pieces.csv and verify_inputs hold (targets and
    distinct translations are derived from gamma), verify_inputs takes
    the piece map alone, the Voronoi net is rebuilt and never written,
    and no check compares the targets with a stored copy."""
    from equidecomp import equidecompose, pipeline, verify
    assert list(equidecompose.PieceMap.__dataclass_fields__) == [
        "a_flat", "gamma", "piece_id", "unmatched_a", "unmatched_b",
        "tiling", "used"]
    assert list(inspect.signature(verify.verify_inputs).parameters) \
        == ["pieces"]
    assert "net" not in pipeline.PipelineResult.__dataclass_fields__
    said = [(path.name, word) for path in sorted(SRC.rglob("*.py"))
            for word in ("targets_consistent", "voronoi_seeds")
            if word in path.read_text()]
    assert not said, said


def test_one_automatic_k_rule():
    """The empirical scan is the only automatic K rule: the boundary
    criterion's branch and its error stay deleted, and select_K only
    computes the paper's tile scale from d and c."""
    from equidecomp import equidecompose
    assert not defined({"KSelectionError"})
    said = [(path.name, word) for path in sorted(SRC.rglob("*.py"))
            for word in ("boundary_criterion", "criterion_fail")
            if word in path.read_text()]
    assert not said, said
    assert list(inspect.signature(equidecompose.select_K).parameters) == [
        "d", "c"]


def test_benchmark_stage_names_exist():
    """Every (module, attribute) that perfbench/child.py patches, read
    from its STAGES table without importing it, is still there, and so
    are equidecompose.rect_tiling and EdgeField.valid, which it hooks."""
    import importlib
    child = SRC.parent / "perfbench" / "child.py"
    stages = [ast.literal_eval(node.value)
              for node in ast.parse(child.read_text()).body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]]
    assert len(stages) == 1 and stages[0], stages
    missing = [(mod, attr) for mod, attr, _ in stages[0]
               if not hasattr(importlib.import_module("equidecomp." + mod),
                              attr)]
    assert not missing, missing
    from equidecomp import equidecompose
    from equidecomp.flowgrid import EdgeField
    assert hasattr(equidecompose, "rect_tiling") and hasattr(EdgeField,
                                                            "valid")
