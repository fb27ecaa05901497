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


def test_package_ships_no_oracle():
    names = {m.name for m in pkgutil.iter_modules(equidecomp.__path__)}
    assert not names & {"finiteflow", "dyadic"}, sorted(names)
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        for ln, line in enumerate(path.read_text().splitlines(), start=1):
            if re.match(r"\s*(class|def)\s+(_Dinic|Dyadic|level_sum)\b", line):
                hits.append("%s:%d: %s" % (path.name, ln, line.strip()))
    assert not hits, hits
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, equidecomp.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'oracle'))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
