"""Golden artifacts: SHA-256 digests of what six reference configs and
twenty small random ones write.

Each config runs `square` and must pass `verify --dir`; every reference
config but the demo also runs `flow` and `integralize`.  The digests cover
`pieces.csv`, `summary.json` (with `config.out` removed, as the output
directory differs between runs), `flow.bin`, `integral_flow.bin` and the
demo rasters (the random configs: `pieces.csv` and `summary.json` only),
and are stored in tests/golden/digests.json.

The goldens hold both repair routes: the configs in DESCENT (the demo
and flat_cover) route their residual by the descent, every other config
by Dinic, and each test checks its config's route.

A change that alters an artifact on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

which first prints, per config, its repair route, its unmatched fraction
and the artifacts whose digest moved, and says which output changed and
why.  A digest is never rewritten to make a failure go away.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from equidecomp.cli import EXIT_OK, main

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

DEMO = ["k=2", "delta=1", "L=10", "margin=2", "n0=1", "raster=64",
        "shape_a=disk:1/4:1/4:44280/221987",
        "shape_b=rect:1/20:1/20:235416/665857:235416/665857",
        "x0=0.0011,0.0007"]

# name -> config overrides; the flagship is the default config
CONFIGS = {
    "flagship": ["x0=0.0013"],
    "flagship_n0_4": ["x0=0.0013", "n0=4"],
    "demo": DEMO,
    "flat_cover": ["d=2", "L=128", "margin=16", "n0=4", "mode=cover",
                   "tiling=voronoi", "voronoi_r=6", "x0=0.0005"],
    "cover_d2_L72": ["d=2", "L=72", "margin=6", "n0=3", "mode=cover",
                     "x0=0.0007"],
    "cover_d3_L40": ["d=3", "L=40", "margin=2", "n0=2", "mode=cover",
                     "x0=0.0011"],
}

# A fixed draw (numpy default_rng(20261018)) of small configs: 8 with d=3,
# 5 in cover mode, 4 with Voronoi tiles, 13 with automatic K, 4 on the
# 2-torus; L, margin, n0, the action seed and x0 drawn per config.
K2 = ["k=2", "shape_a=rect:0:0:1/8:1/2", "shape_b=rect:1/4:1/8:1/4:1/4"]
RANDOM = {
    "random_00": ["d=2", "L=34", "margin=4", "n0=1", "seed=79",
                  "x0=0.0079"],
    "random_01": ["d=2", "L=40", "margin=3", "n0=3", "seed=60",
                  "x0=0.0013,0.0022", "K=13"] + K2,
    "random_02": ["d=2", "L=17", "margin=2", "n0=2", "seed=37",
                  "x0=0.0009", "tiling=voronoi", "voronoi_r=3"],
    "random_03": ["d=3", "L=36", "margin=1", "n0=2", "seed=84",
                  "x0=0.0048,0.0074", "mode=cover", "K=6"] + K2,
    "random_04": ["d=3", "L=16", "margin=2", "n0=1", "seed=94",
                  "x0=0.0055"],
    "random_05": ["d=3", "L=16", "margin=2", "n0=3", "seed=66",
                  "x0=0.0045"],
    "random_06": ["d=2", "L=19", "margin=3", "n0=3", "seed=74",
                  "x0=0.0080"],
    "random_07": ["d=3", "L=15", "margin=1", "n0=2", "seed=61",
                  "x0=0.0071", "K=3"],
    "random_08": ["d=2", "L=41", "margin=5", "n0=1", "seed=49",
                  "x0=0.0081", "mode=cover", "K=13"],
    "random_09": ["d=2", "L=27", "margin=3", "n0=3", "seed=7",
                  "x0=0.0091,0.0028"] + K2,
    "random_10": ["d=3", "L=36", "margin=2", "n0=3", "seed=73",
                  "x0=0.0023", "mode=cover"],
    "random_11": ["d=2", "L=24", "margin=4", "n0=2", "seed=73",
                  "x0=0.0076", "K=2"],
    "random_12": ["d=3", "L=14", "margin=1", "n0=1", "seed=24",
                  "x0=0.0089"],
    "random_13": ["d=2", "L=17", "margin=2", "n0=3", "seed=32",
                  "x0=0.0006", "tiling=voronoi", "voronoi_r=2"],
    "random_14": ["d=3", "L=16", "margin=1", "n0=1", "seed=54",
                  "x0=0.0100,0.0048", "K=4"] + K2,
    "random_15": ["d=2", "L=36", "margin=1", "n0=4", "seed=86",
                  "x0=0.0043", "K=15"],
    "random_16": ["d=2", "L=16", "margin=1", "n0=3", "seed=97",
                  "x0=0.0038"],
    "random_17": ["d=2", "L=46", "margin=3", "n0=4", "seed=72",
                  "x0=0.0078", "mode=cover", "tiling=voronoi",
                  "voronoi_r=4"],
    "random_18": ["d=3", "L=36", "margin=1", "n0=2", "seed=15",
                  "x0=0.0034", "mode=cover"],
    "random_19": ["d=2", "L=20", "margin=3", "n0=2", "seed=79",
                  "x0=0.0030", "tiling=voronoi", "voronoi_r=2"],
}

DESCENT = {"demo", "flat_cover"}

SQUARE_FILES = ("pieces.csv", "summary.json")
RASTERS = ("pieces_a.ppm", "pieces_b.ppm")
FLOW_FILES = ("flow.bin", "integral_flow.bin")


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        del summary["config"]["out"]
        data = json.dumps(summary, sort_keys=True, indent=2,
                          ensure_ascii=False).encode()
    return hashlib.sha256(data).hexdigest()


def unmatched_frac(summary: dict) -> float:
    """Unmatched points over all points of A and B."""
    pieces = summary["pieces"]
    unmatched = pieces["unmatched_a"] + pieces["unmatched_b"]
    return unmatched / (2 * pieces["matched"] + unmatched)


def artifact_digests(name: str, out: Path) -> dict:
    """Run one reference or random config into `out` and digest what it
    writes; its summary stays in `out`."""
    pairs = RANDOM[name] if name in RANDOM else CONFIGS[name]
    sets = sum((["--set", kv] for kv in pairs + ["out=%s" % out]), [])
    assert main(["square"] + sets) == EXIT_OK, name
    assert main(["verify", "--dir", str(out)]) == EXIT_OK, name
    files = SQUARE_FILES
    if name == "demo":
        files += RASTERS
    elif name not in RANDOM:
        assert main(["flow"] + sets) == EXIT_OK, name
        assert main(["integralize"] + sets) == EXIT_OK, name
        files += FLOW_FILES
    return {f: _digest(out / f) for f in files}


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.demo) if n == "demo" else n
    for n in list(CONFIGS) + list(RANDOM)])
def test_golden_artifacts(name, tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())[name]
    got = artifact_digests(name, tmp_path / name)
    capsys.readouterr()
    summary = json.loads((tmp_path / name / "summary.json").read_text())
    assert summary["repair"]["route"] == (
        "descent" if name in DESCENT else "dinic")
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import contextlib
    import io
    import tempfile
    table, summaries = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in list(CONFIGS) + list(RANDOM):
            with contextlib.redirect_stdout(io.StringIO()):
                table[n] = artifact_digests(n, Path(tmp) / n)
            summaries[n] = json.loads((Path(tmp) / n / "summary.json")
                                      .read_text())
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name, files in table.items():
        old = stored.get(name, {})
        moved = sorted(f for f in set(files) | set(old)
                       if files.get(f) != old.get(f))
        print("%-14s %-7s %.4f  %s" % (
            name, summaries[name]["repair"]["route"],
            unmatched_frac(summaries[name]),
            ", ".join(moved) if moved else "unchanged"))
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print("wrote %s" % os.path.relpath(DIGESTS))
