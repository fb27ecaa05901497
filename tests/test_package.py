"""The installed package holds the runtime only: the exact references the
tests compare against live in tests/oracle and are never imported by it."""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import equidecomp

SRC = Path(equidecomp.__file__).resolve().parents[1]


def defined(names):
    """(file, name) of every class or def under src/ named in names."""
    return [(path.name, m.group(1)) for path in sorted(SRC.rglob("*.py"))
            for m in re.finditer(r"^\s*(?:class|def)\s+(\w+)\b",
                                 path.read_text(), re.M)
            if m.group(1) in names]


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
    slots; the coordinate-tuple edge API and the private copies are gone."""
    gone = defined({"_slot", "value_num", "add_num", "_dir_index",
                    "_flat_shifts", "_undirected", "_incident_edges",
                    "_flat_of_coords"})
    assert not gone, gone
    owned = ("flat_shifts", "edge_mask", "edge_slots")
    assert defined(set(owned)) == [("lattice.py", n) for n in owned]
