"""Command-line driver: artifacts, exit codes, and the verify loop."""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from equidecomp.cli import (EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_INTERNAL,
                            EXIT_OK, EXIT_VERIFY, main)

# smallest window/seed pair that still matches a handful of points, so the
# tamper and override tests below have real rows to corrupt
TOY = ["L=16", "margin=4", "n0=1", "seed=3"]


def run(cmd, out, extra=()):
    args = [cmd, "--set", "out=%s" % out]
    for kv in TOY + list(extra):
        args += ["--set", kv]
    return main(args)


def test_square_then_verify(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    text = capsys.readouterr().out
    assert "PASS a_partition" in text and "FAIL" not in text
    for name in ("pieces.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    assert main(["verify", "--dir", out]) == EXIT_OK
    text = capsys.readouterr().out
    assert "PASS summary_counts" in text
    assert text.strip().endswith("verify: ok")
    # k=1 runs never emit rasters even when asked
    assert not os.path.exists(os.path.join(out, "pieces_a.ppm"))


def test_square_artifacts_are_reproducible(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("square", out1) == EXIT_OK
    assert run("square", out2) == EXIT_OK
    p1 = (tmp_path / "a" / "pieces.csv").read_bytes()
    p2 = (tmp_path / "b" / "pieces.csv").read_bytes()
    assert p1 == p2
    s1 = json.loads((tmp_path / "a" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert s1["config"].pop("out") != s2["config"].pop("out")
    assert s1 == s2


def test_verify_with_base_point_echo(tmp_path):
    out = str(tmp_path / "run")
    assert run("square", out, extra=["x0=0.3"]) == EXIT_OK
    assert main(["verify", "--dir", out]) == EXIT_OK


def test_verify_catches_tampering(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    csv_path = tmp_path / "run" / "pieces.csv"
    lines = csv_path.read_text().splitlines()
    assert len(lines) > 1
    cols = lines[1].split(",")
    cols[3] = str(int(cols[3]) + 2)            # bend one translation
    lines[1] = ",".join(cols)
    csv_path.write_text("\r\n".join(lines) + "\r\n")
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_verify_missing_and_malformed_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    good = json.loads((tmp_path / "run" / "summary.json").read_text())
    pieces_csv = (tmp_path / "run" / "pieces.csv").read_bytes()
    os.rename(os.path.join(out, "pieces.csv"), os.path.join(out, "x.csv"))
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "missing artifact" in capsys.readouterr().out
    os.rename(os.path.join(out, "x.csv"), os.path.join(out, "pieces.csv"))

    # a directory where an artifact should be is missing too
    for name in ("pieces.csv", "summary.json"):
        path = os.path.join(out, name)
        os.rename(path, path + ".away")
        os.mkdir(path)
        assert main(["verify", "--dir", out]) == EXIT_VERIFY
        assert "missing artifact" in capsys.readouterr().out
        os.rmdir(path)
        os.rename(path + ".away", path)

    # a cell past the csv module's field limit (131,072 characters) and
    # bytes that are not UTF-8 are schema errors, and a malformed row
    # before either is still the one reported
    rows = pieces_csv.split(b"\r\n")
    assert len(rows) > 3
    big = b"7" * 200_000
    for bad, row in ((big + b",0,0,0,0", 2), (b"1,\xff\xfe,0,0,0", 2)):
        for early, want in ((False, row + 1), (True, 2)):
            lines = rows[:1] + ([b"7,7,7"] if early else []) + rows[1:2]
            (tmp_path / "run" / "pieces.csv").write_bytes(
                b"\r\n".join(lines + [bad] + rows[2:]))
            assert main(["verify", "--dir", out]) == EXIT_VERIFY
            msg = capsys.readouterr().out
            assert msg.startswith("schema error: row %d:" % want), msg
    (tmp_path / "run" / "pieces.csv").write_bytes(pieces_csv)

    with open(os.path.join(out, "pieces.csv"), "a", newline="") as fh:
        fh.write("7,7,7\r\n")                  # truncated row
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    msg = capsys.readouterr().out
    assert "schema error" in msg and "row" in msg

    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write("{\"config\": ")                # truncated JSON
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "schema error" in capsys.readouterr().out
    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write("[]")
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "not a JSON object" in capsys.readouterr().out
    # nested past the interpreter's recursion limit
    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write("{\"config\": " + "[" * 2000 + "]" * 2000 + "}")
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert capsys.readouterr().out.startswith("schema error: ")
    # a section of the wrong type, or a malformed value inside one
    (tmp_path / "run" / "pieces.csv").write_bytes(pieces_csv)
    for section, bad in (("config", [["L", 16]]), ("tiles", []),
                         ("verify_inputs", []), ("pieces", []),
                         ("verify_inputs", dict(good["verify_inputs"],
                                                unmatched_a=[["x", 1, 2]])),
                         ("verify_inputs", dict(
                             good["verify_inputs"], used_tiles=["no"] * len(
                                 good["verify_inputs"]["used_tiles"]))),
                         ("tiles", dict(good["tiles"], K="abc")),
                         ("tiles", dict(good["tiles"], K_eff=float("inf"))),
                         ("pieces", dict(good["pieces"], count=[2])),
                         ("config", dict(good["config"], L="zero")),
                         ("config", dict(good["config"], k=3)),
                         ("config", dict(good["config"], wat=1)),
                         ("config", dict(good["config"], margin=0)),
                         ("config", dict(good["config"], x0="abc"))):
        with open(os.path.join(out, "summary.json"), "w") as fh:
            json.dump(dict(good, **{section: bad}), fh)
        assert main(["verify", "--dir", out]) == EXIT_VERIFY
        assert "schema error: %s" % section in capsys.readouterr().out


def test_verify_rebuilds_bounds_and_reads_full_ids(tmp_path, capsys):
    """verify takes K_eff from the tiling it rebuilds, and reads piece ids
    at full width: an inflated K_eff or ids shifted by 2^32 fail."""
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    summary_path = tmp_path / "run" / "summary.json"
    good = json.loads(summary_path.read_text())
    summary_path.write_text(json.dumps(
        dict(good, tiles=dict(good["tiles"], K_eff=10 ** 300))))
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "FAIL summary_counts" in capsys.readouterr().out
    summary_path.write_text(json.dumps(good))

    csv_path = tmp_path / "run" / "pieces.csv"
    lines = csv_path.read_text().splitlines()
    assert len(lines) > 1
    for i in range(1, len(lines)):
        head, pid = lines[i].rsplit(",", 1)
        lines[i] = "%s,%d" % (head, int(pid) + 2 ** 32)
    csv_path.write_text("\r\n".join(lines) + "\r\n")
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "FAIL piece_grouping" in capsys.readouterr().out


def test_verify_takes_tiling_from_config(tmp_path, capsys):
    """The tiling kind and a fixed K come from the config, and an
    automatic K must be one the scans can choose (a proper tiling with
    K <= max(1, core side // 2)).  TOY's core side is 8 and both rect runs use
    K = 3: a summary claiming one tile of side 8 fails whether K was
    automatic or fixed, and a Voronoi run whose summary claims a rect
    tiling fails too."""
    for extra, kind, why in (
            ((), "rect", "FAIL tile_scale"),
            (["K=3"], "rect", "used_tiles is not one boolean per tile"),
            (["tiling=voronoi", "voronoi_r=3"], "voronoi",
             "FAIL tile_scale")):
        out = str(tmp_path / ("run_" + "_".join(extra)))
        assert run("square", out, extra=extra) == EXIT_OK
        summary_path = os.path.join(out, "summary.json")
        with open(summary_path) as fh:
            good = json.load(fh)
        assert good["tiles"]["kind"] == kind and good["tiles"]["K"] == 3
        if kind == "rect":
            bad = dict(good, tiles=dict(good["tiles"], K=8, K_eff=8),
                       verify_inputs=dict(good["verify_inputs"],
                                          used_tiles=[True]))
        else:
            bad = dict(good, tiles=dict(good["tiles"], kind="rect"))
        with open(summary_path, "w") as fh:
            json.dump(bad, fh)
        capsys.readouterr()
        assert main(["verify", "--dir", out]) == EXIT_VERIFY, extra
        assert why in capsys.readouterr().out, extra


def test_automatic_k_on_a_one_vertex_core(tmp_path, capsys):
    """A core of side 1 leaves the K scan just K = 1, which squares and
    verifies."""
    out = str(tmp_path / "run")
    assert main(["square", "--set", "out=%s" % out, "--set", "L=5",
                 "--set", "margin=2", "--set", "n0=1"]) == EXIT_OK
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["tiles"]["K"] == 1
    assert summary["tiles"]["source"] == "empirical"
    assert summary["tiles"]["scan"] == [{"K": 1, "infeasible": 0}]
    # the paper's boundary criterion needs tiles of side 2052 (c_int = 38)
    assert summary["flow_bound"]["c_int"] == 38
    assert summary["tiles"]["criterion_K"] == 2052
    assert main(["verify", "--dir", out]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("verify: ok")


def test_square_serializes_an_empty_piece_map(tmp_path, monkeypatch):
    import dataclasses
    import equidecomp.cli as cli
    real = cli.run_pipeline

    def emptied(**kwargs):
        res = real(**kwargs)
        p = res.pieces
        res.pieces = dataclasses.replace(
            p, a_flat=p.a_flat[:0], gamma=p.gamma[:0],
            piece_id=p.piece_id[:0], unmatched_a=p.unmatched_a[:0])
        return res

    monkeypatch.setattr(cli, "run_pipeline", emptied)
    out = tmp_path / "run"
    assert run("square", str(out)) == EXIT_OK
    assert (out / "pieces.csv").read_bytes().count(b"\r\n") == 1
    vin = json.loads((out / "summary.json").read_text())["verify_inputs"]
    assert vin["unmatched_a"] == []
    assert vin["unmatched_b"] and all(
        isinstance(v, list) and len(v) == 3 for v in vin["unmatched_b"])


def test_voronoi_radius_is_pinned_by_tile_scale(tmp_path, capsys):
    """verify rebuilds the Voronoi net from the config's voronoi_r, so a
    summary whose tiles.K is another radius fails tile_scale, and so does
    a config override of voronoi_r: a radius of 10^6 would switch off
    gamma_bound and the piece bound."""
    out = str(tmp_path / "run")
    assert run("square", out, extra=["tiling=voronoi", "voronoi_r=3"]) \
        == EXIT_OK
    summary_path = tmp_path / "run" / "summary.json"
    good = json.loads(summary_path.read_text())
    assert good["tiles"]["K"] == good["config"]["voronoi_r"] == 3
    assert "voronoi_r" not in good["verify_inputs"]
    for tiles, config in ((dict(good["tiles"], K=10 ** 6), good["config"]),
                          (dict(good["tiles"], K=4), good["config"]),
                          (good["tiles"], dict(good["config"], voronoi_r=4))):
        summary_path.write_text(json.dumps(dict(good, tiles=tiles,
                                                config=config)))
        capsys.readouterr()
        assert main(["verify", "--dir", out]) == EXIT_VERIFY
        text = capsys.readouterr().out
        assert "FAIL tile_scale" in text and "PASS summary_counts" in text


def _coords_as(kind, rows):
    return [[kind(c) for c in v] for v in rows]


def _first_bool(rows):
    """rows with the first coordinate 0 or 1 written as a JSON boolean."""
    rows = [list(v) for v in rows]
    i, j = next((i, j) for i, v in enumerate(rows)
                for j, c in enumerate(v) if c in (0, 1))
    rows[i][j] = bool(rows[i][j])
    return rows


# (extra config, section, key, forged value from the good one): each is a
# number that int() or numpy reads as the right integer, so the parent of
# the JSON-integer check verified every one of them ok
FORGERIES = {
    "float_unmatched_a": ((), "verify_inputs", "unmatched_a",
                          lambda v: _coords_as(float, v)),
    "string_unmatched_b": ((), "verify_inputs", "unmatched_b",
                           lambda v: _coords_as(str, v)),
    "bool_unmatched_b": (("margin=1",), "verify_inputs", "unmatched_b",
                         _first_bool),
    "float_K": ((), "tiles", "K", lambda k: k + 0.9),
    "float_K_eff": ((), "tiles", "K_eff", float),
    "string_matched": ((), "pieces", "matched", str),
    "string_count": ((), "pieces", "count", str),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_verify_requires_json_integers(tmp_path, capsys, name):
    """Counts, tile scales and unmatched coordinates must be JSON
    integers: a float, a numeric string or a boolean that reads
    as the right value is a schema error, not a pass."""
    extra, section, key, forge = FORGERIES[name]
    out = str(tmp_path / "run")
    assert run("square", out, extra=extra) == EXIT_OK
    assert main(["verify", "--dir", out]) == EXIT_OK
    summary_path = tmp_path / "run" / "summary.json"
    good = json.loads(summary_path.read_text())
    assert good[section][key] not in ([], None)
    summary_path.write_text(json.dumps(dict(good, **{section: dict(
        good[section], **{key: forge(good[section][key])})})))
    capsys.readouterr()
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    assert "schema error: %s" % section in capsys.readouterr().out


def test_verify_config_override_changes_field(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    assert main(["verify", "--dir", out, "--set", "out=%s" % out]
                + sum((["--set", kv] for kv in TOY), [])
                + ["--set", "seed=8"]) == EXIT_VERIFY
    # an override whose shapes cannot be sampled fails as square does
    capsys.readouterr()
    assert main(["verify", "--dir", out, "--set", "out=%s" % out]
                + sum((["--set", kv] for kv in TOY), [])
                + ["--set", "shape_b=intervals:0:1/2"]) == EXIT_INFEASIBLE
    assert "infeasible: sample" in capsys.readouterr().err


def test_flow_and_integralize_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("flow", out) == EXIT_OK
    assert os.path.exists(os.path.join(out, "flow.bin"))
    meta = json.loads((tmp_path / "run" / "flow.json").read_text())
    assert meta["repair"]["doublings"] >= 0
    assert meta["repair"]["route"] in ("descent", "dinic")
    assert "route=%s " % meta["repair"]["route"] in capsys.readouterr().out
    sections = {"config", "field", "envelope", "truncation", "repair"}
    assert set(meta) == sections
    assert run("integralize", out) == EXIT_OK
    assert os.path.exists(os.path.join(out, "integral_flow.bin"))
    assert "max_dev_core" in capsys.readouterr().out
    meta_int = json.loads((tmp_path / "run" / "integralize.json").read_text())
    assert set(meta_int) == sections | {"integralize"}
    # both stages share the summary's section names and values
    assert run("square", out) == EXIT_OK
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    for name in sections - {"config"}:
        assert meta[name] == meta_int[name] == summary[name]
    assert meta_int["integralize"] == summary["integralize"]


def test_every_subcommand_uses_the_shared_runner(tmp_path, monkeypatch):
    import equidecomp.pipeline as pipeline
    calls = []
    repair = pipeline.repair_to_frontier

    def counted(*args, **kwargs):
        calls.append(1)
        return repair(*args, **kwargs)

    monkeypatch.setattr(pipeline, "repair_to_frontier", counted)
    for cmd in ("flow", "integralize", "square"):
        calls.clear()
        assert run(cmd, str(tmp_path / cmd)) == EXIT_OK
        assert len(calls) == 1, cmd


def test_discrepancy_table(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run("discrepancy", out, extra=["ns=2,4,8"]) == EXIT_OK
    raw = (tmp_path / "run" / "discrepancy.csv").read_bytes()
    assert raw.startswith(b"n,max_d_a,max_d_b\r\n")
    assert len(raw.decode().strip().splitlines()) == 4
    assert "slope_a=" in capsys.readouterr().out


def test_discrepancy_test_set_past_memory(tmp_path, capsys):
    """A test set numpy cannot allocate is an infeasible discrepancy stage
    naming it, not a traceback or an internal error: F_100000 in d=3 is
    7.1 PiB, refused as a MemoryError, and F_10000000 overflows the
    address space, refused as a ValueError.  Both are refused at once."""
    out = str(tmp_path / "run")
    for n in (100000, 10000000):
        capsys.readouterr()
        assert run("discrepancy", out, extra=["ns=2,4,%d" % n]) \
            == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: discrepancy: test set F_%d of "
                              "%d^3 points too large: " % (n, n)), err


def test_exit_codes(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "run")
    assert main(["square", "--set", "L=zero"]) == EXIT_CONFIG
    assert main(["square", "--set", "wat=1"]) == EXIT_CONFIG
    # the int64 headroom is checked in validate, before any window exists
    capsys.readouterr()
    assert main(["square", "--set", "d=2", "--set", "n0=30"]) == EXIT_CONFIG
    assert "n0 = 30 overflows int64" in capsys.readouterr().err
    # repair needs a frontier ring, so margin=0 fails before any sampling
    import equidecomp.pipeline as pipeline
    sampled = []
    sample = pipeline.sample_field

    def counted(*args, **kwargs):
        sampled.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(pipeline, "sample_field", counted)
    capsys.readouterr()
    assert run("flow", out, extra=["margin=0"]) == EXIT_CONFIG
    assert "margin must be >= 1" in capsys.readouterr().err
    assert not sampled
    # measure mismatch is an infeasibility with a named stage, whichever
    # subcommand meets it
    for cmd in ("flow", "integralize", "square"):
        code = run(cmd, out, extra=["shape_b=intervals:0:1/2"])
        assert code == EXIT_INFEASIBLE, cmd
        err = capsys.readouterr().err
        assert "infeasible: sample" in err, cmd


def test_config_past_int64_and_window_past_memory(tmp_path, capsys):
    """A d or n0 of 2^63 is a config error found without building the
    2^63-bit flow bound, so is a voronoi_r of 2^63, and a window whose
    freeness scan covers more than lattice.SCAN_MAX offsets (2.3e17
    here) is an infeasible sample stage for square.  verify reads the
    whole run before it samples, so with that window it stops at the
    tiling (128 TiB, refused too)."""
    for key, value in (("n0", 2 ** 63), ("d", 2 ** 63)):
        assert main(["square", "--set", "%s=%d" % (key, value)]) \
            == EXIT_CONFIG
        assert "overflows int64" in capsys.readouterr().err
    # a net radius past int64 is bounded by the core side, not a traceback
    assert run("square", str(tmp_path / "r"),
               extra=["tiling=voronoi", "voronoi_r=%d" % 2 ** 63]) \
        == EXIT_CONFIG
    assert "voronoi_r = %d exceeds the core side 8" % 2 ** 63 \
        in capsys.readouterr().err
    out = str(tmp_path / "run")
    big = ["d=15", "L=8", "margin=1", "n0=1"]
    assert run("square", out, extra=big) == EXIT_INFEASIBLE
    assert "infeasible: sample: window too large" in capsys.readouterr().err
    assert run("square", out) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--dir", out] + sum(
        (["--set", kv] for kv in TOY + big), [])) == EXIT_VERIFY
    assert "cannot rebuild tiling" in capsys.readouterr().out


def test_window_just_past_the_scan_bound(tmp_path, capsys, monkeypatch):
    """L=29 is the first side past the bound in d=5: its half box of
    29 * 57^4 = 3.1e8 offsets exceeds lattice.SCAN_MAX (2^28), so square
    exits at once as an infeasible sample stage, with neither the
    freeness scan nor the orbit grid started."""
    import equidecomp.lattice as lattice

    def started(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(lattice, "min_orbit_separation", started)
    monkeypatch.setattr(lattice.ActionSpec, "grid_points", started)
    assert run("square", str(tmp_path / "run"), extra=["d=5", "L=29"]) \
        == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: sample: window too large: the "
                          "freeness scan covers 306124029 offsets"), err


def test_rebuild_failure_names_its_cause(tmp_path, capsys):
    """A window side of 2^63 fails the tiling's per-axis side list with a
    bare MemoryError: the line still names a cause after its colon."""
    out = str(tmp_path / "run")
    assert run("square", out) == EXIT_OK
    path = tmp_path / "run" / "summary.json"
    good = json.loads(path.read_text())
    path.write_text(json.dumps(dict(good, config=dict(good["config"],
                                                      L=2 ** 63))))
    capsys.readouterr()
    assert main(["verify", "--dir", out]) == EXIT_VERIFY
    line = capsys.readouterr().out.strip()
    assert line.startswith("cannot rebuild tiling: ")
    assert line.split(":", 1)[1].strip(), line


def test_out_that_cannot_be_created(tmp_path, capsys, monkeypatch):
    """An out directory under a regular file, or a regular file itself,
    is a config error naming out, met before any stage runs."""
    import equidecomp.cli as cli
    import equidecomp.pipeline as pipeline

    def never(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(pipeline, "sample_field", never)
    monkeypatch.setattr(cli, "fit_discrepancy_envelope", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "x", blocker):
        for cmd in ("discrepancy", "flow", "integralize", "square"):
            capsys.readouterr()
            assert run(cmd, str(out)) == EXIT_CONFIG, (cmd, out)
            err = capsys.readouterr().err
            assert err.startswith("config error: out: "), err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a broken invariant inside a stage is neither a config error nor a
    # traceback: main reports it and returns its own code
    import equidecomp.pipeline as pipeline

    def broken(*args, **kwargs):
        raise AssertionError("balance fails on tile 0")

    monkeypatch.setattr(pipeline, "tile_flow", broken)
    capsys.readouterr()
    # a fixed K: the automatic scan aggregates its tiles itself
    assert run("square", str(tmp_path / "run"), extra=["K=2"]) \
        == EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "internal error: balance fails on tile 0" in err
    assert "Traceback" not in err


def test_stage_value_error_is_internal(tmp_path, capsys, monkeypatch):
    # only a ConfigError means exit 4; any other ValueError escaping a
    # stage is a broken invariant
    import equidecomp.pipeline as pipeline

    def broken(*args, **kwargs):
        raise ValueError("flow is not integral")

    monkeypatch.setattr(pipeline, "tile_flow", broken)
    capsys.readouterr()
    assert run("square", str(tmp_path / "run"), extra=["K=2"]) \
        == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: flow is not integral" in err
    assert "config error" not in err and "Traceback" not in err


def test_square_past_int32_supply(tmp_path):
    # at n0=4 the flagship's repair supply is ~2^34, past the compiled
    # max-flow's int32 range, so the solve takes its coarse phases
    out = str(tmp_path / "run")
    assert main(["square", "--set", "out=%s" % out, "--set", "n0=4"]) == EXIT_OK
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["repair"]["supply_abs_num"] > 1 << 32
    assert main(["verify", "--dir", out]) == EXIT_OK


def test_config_file_plus_overrides(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("\n".join(TOY) + "\n")
    out = str(tmp_path / "run")
    assert main(["square", "--config", str(cfgf),
                 "--set", "out=%s" % out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "summary.json"))


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """The TOY run and its Voronoi variant, squared once for the module."""
    runs = {}
    for kind, extra in (("rect", ()),
                        ("voronoi", ("tiling=voronoi", "voronoi_r=3"))):
        out = tmp_path_factory.mktemp(kind)
        assert run("square", str(out), extra=extra) == EXIT_OK
        runs[kind] = out
    return runs


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text("0123_", max_size=3), kids, max_size=3),
    max_leaves=8)     # the dict keys are never config keys


def bad_config_values(key):
    """Malformed types, negatives, 0 and integers >= 2^63, never a
    mid-sized number (L = 1000 at d = 3 asks the freeness scan for about
    96 GB): strings hold no digit, and a float delta, which is a valid one
    that can raise d, is not drawn."""
    scalars = [st.none(), st.booleans(), st.text("ab ,._-", max_size=4),
               st.integers(max_value=0),
               st.integers(min_value=2 ** 63, max_value=2 ** 70)]
    if key != "delta":
        scalars.append(st.floats())
    bad = st.one_of(scalars)
    return (bad | st.lists(bad, max_size=3)
            | st.dictionaries(st.text("ab", max_size=2), bad, max_size=2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_verify_never_raises_on_a_malformed_summary(
        toy_runs, tmp_path_factory, data):
    """One value of tiles, pieces, verify_inputs or config, or a whole
    section, replaced by a drawn JSON value: verify passes, fails or names
    an infeasible stage, and never raises."""
    kind = data.draw(st.sampled_from(sorted(toy_runs)))
    good = json.loads((toy_runs[kind] / "summary.json").read_text())
    section = data.draw(st.sampled_from(
        ["config", "tiles", "pieces", "verify_inputs"]))
    forged = dict(good)
    if data.draw(st.booleans(), label="whole section"):
        forged[section] = data.draw(JSON)
    else:
        key = data.draw(st.sampled_from(sorted(good[section])))
        forged[section] = dict(good[section], **{key: data.draw(
            bad_config_values(key) if section == "config" else JSON)})
    out = tmp_path_factory.mktemp("forged")
    (out / "pieces.csv").write_bytes(
        (toy_runs[kind] / "pieces.csv").read_bytes())
    (out / "summary.json").write_text(json.dumps(forged))
    assert main(["verify", "--dir", str(out)]) in (
        EXIT_OK, EXIT_VERIFY, EXIT_INFEASIBLE)


K2_RECTS = ["k=2", "shape_a=rect:0:0:1/8:1/2",
            "shape_b=rect:1/4:1/8:1/4:1/4"]


@st.composite
def small_configs(draw):
    """Small square configs: d 2-3, L <= 20, margin 1-4, n0 1-2 in direct
    mode (cover mode at those sizes is a config error), cover mode on the
    smallest 2-torus windows it admits (L 36-40), rect or Voronoi tiles
    with an automatic or fixed K, k = 1 or one k = 2 pair of rects."""
    cover = draw(st.booleans())
    d = 2 if cover else draw(st.integers(2, 3))
    L = draw(st.integers(36, 40) if cover else st.integers(2, 20))
    k = draw(st.sampled_from([1, 2]))
    x0 = draw(st.sampled_from(["0", "0.0013", "0.3"]))
    sets = ["d=%d" % d, "L=%d" % L, "margin=%d" % draw(st.integers(1, 4)),
            "n0=%d" % draw(st.integers(1, 2)),
            "seed=%d" % draw(st.integers(0, 99)),
            "x0=%s" % ",".join([x0] * k),
            "mode=%s" % ("cover" if cover else "direct")]
    if k == 2:
        sets += K2_RECTS
    if draw(st.booleans()):
        sets += ["tiling=voronoi", "voronoi_r=%d" % draw(st.integers(1, 4))]
    else:
        sets += ["K=%d" % draw(st.integers(0, 6))]
    return sets


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sets=small_configs())
def test_cli_never_ends_in_a_traceback(tmp_path_factory, sets):
    """A small config squares and verifies, or fails early as infeasible
    (3) or misconfigured (4); it never raises, fails its own checks or
    breaks an invariant (5)."""
    out = str(tmp_path_factory.mktemp("fuzz"))
    args = ["square", "--set", "out=%s" % out]
    for kv in sets:
        args += ["--set", kv]
    code = main(args)
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG), (code, sets)
    if code == EXIT_OK:
        assert main(["verify", "--dir", out]) == EXIT_OK, sets
