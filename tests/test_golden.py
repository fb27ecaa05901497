"""Golden artifacts: SHA-256 digests of what six reference configs write.

Each config runs `square` and must pass `verify --dir`; every config but
the demo also runs `flow` and `integralize`.  The digests cover
`pieces.csv`, `summary.json` (with `config.out` removed, as the output
directory differs between runs), `flow.bin`, `integral_flow.bin` and the
demo rasters, and are stored in tests/golden/digests.json.

A change that alters an artifact on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py --write

and says which output changed and why.  A digest is never rewritten to
make a failure go away.
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


def artifact_digests(name: str, out: Path) -> dict:
    """Run one reference config into `out` and digest what it writes."""
    sets = sum((["--set", kv] for kv in CONFIGS[name] + ["out=%s" % out]), [])
    assert main(["square"] + sets) == EXIT_OK, name
    assert main(["verify", "--dir", str(out)]) == EXIT_OK, name
    files = SQUARE_FILES
    if name == "demo":
        files += RASTERS
    else:
        assert main(["flow"] + sets) == EXIT_OK, name
        assert main(["integralize"] + sets) == EXIT_OK, name
        files += FLOW_FILES
    return {f: _digest(out / f) for f in files}


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.demo) if n == "demo" else n
    for n in CONFIGS])
def test_golden_artifacts(name, tmp_path, capsys):
    want = json.loads(DIGESTS.read_text())[name]
    got = artifact_digests(name, tmp_path / name)
    capsys.readouterr()
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        table = {n: artifact_digests(n, Path(tmp) / n) for n in CONFIGS}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    print("wrote %s" % os.path.relpath(DIGESTS))
