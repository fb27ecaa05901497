"""Benchmark of the equidecomp pipeline: `square`, then the independent
`verify`, on fixed lattice windows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under `src/`.
NAME is a workload of workloads.py, or `all` for every workload in one
table (metrics then carry the workload as a prefix).

Load is one client in a closed loop: rounds run one after another, and each
round starts fresh child processes (child.py), so set-up is paid every time
and peak RSS belongs to one square run.  The seed draws the base point
`x0` (see base_point); the action seed is ACTION_SEED.  Every round is
checked: `square` exits 0, `verify` exits 0 re-reading only the
artifacts, and pieces.csv and summary.json equal byte for byte those of
the first round.  A round failing any check counts in `failed`; none is
dropped.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 each round also runs a traced square (spans timed
with perf_counter, counts read from its summary.json), and one more process
samples per-stage memory, so that neither pass distorts the other.
A record of every sample, the environment and the workload rationale is
written to .bench_out/.  Exit code 2, with no result, means the checkout
holds no package to measure.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from child import EXIT_NO_PACKAGE, MEMORY_STAGES
from workloads import (ACTION_SEED, BLAS_THREADS, LAYER_MAP, THREAD_VARS,
                       WORKLOADS, config_lines, environment)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

JITTER = 0.002                  # side of the box the base point is drawn in
MIN_ROUNDS = 2                  # so the determinism check always runs
CHILD_TIMEOUT = 150.0
ARTIFACTS = ("pieces.csv", "summary.json")

END_TO_END = {
    "setup_s": "s", "square_s": "s", "verify_s": "s",
    "peak_rss_mb": "MiB", "unmatched_frac": "ratio", "verified_frac": "ratio",
}
SPAN_METRICS = (
    "lattice.sample", "flowgrid.envelope", "flowgrid.truncate",
    "pipeline.repair", "integralize.integralize", "equidecompose.select_K",
    "equidecompose.select_K_empirical", "tiling.tiling",
    "equidecompose.tile_flow", "equidecompose.matching",
    "equidecompose.pieces", "equidecompose.verify", "report.write",
)
COUNT_UNITS = {
    "lattice.vertices": "count", "lattice.points": "count",
    "flowgrid.edge_field_bytes": "bytes", "pipeline.repair_edges": "count",
    "pipeline.repair_doublings": "count", "pipeline.repair_supply": "units",
    "integralize.edges_rounded": "count", "integralize.supply": "units",
    "equidecompose.K": "count", "equidecompose.K_scanned": "count",
    "equidecompose.tiles_built": "count", "equidecompose.tiles": "count",
    "equidecompose.matched": "count", "equidecompose.pieces": "count",
    "report.bytes": "bytes",
}


class NoPackage(Exception):
    """The checkout has no importable equidecomp under src/."""


def peak_metric(stage: str) -> str:
    return stage.rsplit(".", 1)[1] + ".peak_mb"


def child(mode: str, config_path: str, memory: bool = False) -> dict:
    """Run child.py once; its JSON result, or {"rc": reason} on a crash."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    if memory:
        # A fixed threshold keeps large arrays on mmap, so freeing one
        # lowers the resident set the sampler reads.
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    try:
        proc = subprocess.run([sys.executable, CHILD, mode, config_path],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"rc": "timeout after %gs" % CHILD_TIMEOUT}
    if proc.returncode == EXIT_NO_PACKAGE:
        raise NoPackage(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": "child exit %d" % proc.returncode,
                "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    if result.get("rc") != 0:
        result["stderr"] = proc.stderr[-2000:]
    return result


def _read_artifacts(out_dir: str) -> dict:
    found = {}
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                found[name] = fh.read()
    return found


def _median(values):
    return statistics.median(values) if values else None


def base_point(seed: int, k: int) -> tuple:
    """Base point x0 in [0, JITTER)^k, drawn from the benchmark seed.

    Each seed samples another orbit segment of the same action, so the
    field differs in a few hundred points near the shape boundaries
    while the cost and quality of the construction stay those of the
    workload.  Base points spread over the whole torus moved unmatched_frac
    by up to 10% between seeds on flat_cover.
    """
    rng = random.Random(seed)
    return tuple(round(rng.uniform(0.0, JITTER), 9) for _ in range(k))


class Run:
    """One benchmark run of one workload: its rounds, checks and samples."""

    def __init__(self, name: str, seed: int, trace: bool,
                 action_seed: int = ACTION_SEED, spec: dict = None):
        self.name = name
        self.spec = spec if spec is not None else WORKLOADS[name]
        self.trace = trace
        self.x0 = base_point(seed, int(self.spec["config"].get("k", "1")))
        self.dir = os.path.join(OUT_ROOT, "%s-s%d-t%d-p%d"
                                % (name, seed, trace, os.getpid()))
        os.makedirs(self.dir, exist_ok=True)
        self.out = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "run.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(config_lines(self.spec, os.path.relpath(self.out, ROOT),
                                  self.x0, action_seed))
        self.first = None           # artifacts of the first round
        self.first_counts = None    # traced counts of the first round
        self.rounds = []
        self.memory = None

    def _square(self, mode: str, problems: list) -> dict:
        if os.path.isdir(self.out):
            shutil.rmtree(self.out)
        res = child(mode, self.config)
        if res.get("rc") != 0:
            problems.append("%s exited %r" % (mode, res.get("rc")))
            return res
        got = _read_artifacts(self.out)
        if self.first is None:
            self.first = got
        elif got != self.first:
            problems.append("%s artifacts differ from the first round" % mode)
        return res

    def round(self) -> None:
        problems = []
        rec = {"square": self._square("square", problems)}
        if all(os.path.exists(os.path.join(self.out, name))
               for name in ARTIFACTS):
            rec["verify"] = child("verify", self.config)
            if rec["verify"].get("rc") != 0:
                problems.append("verify exited %r" % rec["verify"].get("rc"))
        else:
            problems.append("square left no artifacts to verify")
        if self.trace:
            rec["trace"] = tr = self._square("trace", problems)
            counts = tr.get("counts")
            if self.first_counts is None:
                self.first_counts = counts
            elif counts is not None and counts != self.first_counts:
                problems.append("traced counts differ from the first round")
        rec["problems"] = problems
        self.rounds.append(rec)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        try:
            while (len(self.rounds) < MIN_ROUNDS
                   or time.perf_counter() - start < seconds):
                self.round()
            if self.trace:
                self.memory = child("memory", self.config, memory=True)
        finally:
            shutil.rmtree(self.dir)

    # -- results -----------------------------------------------------------

    def failed(self) -> int:
        return sum(1 for r in self.rounds if r["problems"])

    def correct(self) -> bool:
        return (self.failed() == 0
                and (self.memory is None or self.memory.get("rc") == 0))

    def _samples(self, part: str, key: str) -> list:
        return [r[part][key] for r in self.rounds
                if key in r.get(part, {})]

    def end_to_end(self) -> dict:
        setups = self._samples("square", "setup_s") + self._samples(
            "verify", "setup_s")
        rss = _median(self._samples("square", "maxrss_kib"))
        unmatched_frac = None
        if self.first and "summary.json" in self.first:
            pieces = json.loads(self.first["summary.json"])["pieces"]
            unmatched = pieces["unmatched_a"] + pieces["unmatched_b"]
            unmatched_frac = unmatched / (2 * pieces["matched"] + unmatched)
        values = {
            "setup_s": _median(setups),
            "square_s": _median(self._samples("square", "square_s")),
            "verify_s": _median(self._samples("verify", "verify_s")),
            "peak_rss_mb": None if rss is None else rss / 1024.0,
            "unmatched_frac": unmatched_frac,
            "verified_frac": 1.0 - self.failed() / len(self.rounds),
        }
        return {k: {"value": v, "unit": END_TO_END[k]}
                for k, v in values.items()}

    def per_layer(self) -> dict:
        traced = [r["trace"] for r in self.rounds if "self_s" in r["trace"]]
        out = {}
        for stage in SPAN_METRICS:
            out[stage + "_s"] = {
                "value": _median([t["self_s"].get(stage, 0.0)
                                  for t in traced]),
                "unit": "s"}
        peaks = (self.memory or {}).get("peak_mb", {})
        for stage in MEMORY_STAGES:
            out[peak_metric(stage)] = {"value": peaks.get(stage),
                                       "unit": "MiB"}
        counts = self.first_counts or {}
        for name, unit in COUNT_UNITS.items():
            out[name] = {"value": counts.get(name), "unit": unit}
        traced_total = _median([t["square_s"] for t in traced])
        untraced = _median(self._samples("square", "square_s"))
        out["trace.overhead_s"] = {
            "value": (None if traced_total is None or untraced is None
                      else traced_total - untraced),
            "unit": "s"}
        return out

    def record(self) -> dict:
        versions = next((r["square"]["versions"] for r in self.rounds
                         if "versions" in r["square"]), {})
        tiles = None
        if self.first and "summary.json" in self.first:
            tiles = json.loads(self.first["summary.json"])["tiles"]
        return {"workload": self.name, "why": self.spec.get("why"),
                "config": self.spec["config"], "x0": self.x0, "tiles": tiles,
                "environment": dict(environment(), **versions),
                "layer_map": LAYER_MAP, "rounds": self.rounds,
                "memory": self.memory}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict = None) -> Run:
    run = Run(name, seed, trace, spec=spec)
    run.measure(seconds)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equidecomp", "cli.py")):
        print("no package at %s" % os.path.join(SRC, "equidecomp"),
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds,
                                     bool(args.trace)))
    except NoPackage as exc:
        print("cannot import the package: %s" % exc, file=sys.stderr)
        return 2
    metrics = {}
    for run in runs:
        part = run.per_layer() if args.trace else run.end_to_end()
        prefix = run.name + "." if len(runs) > 1 else ""
        for key, val in part.items():
            metrics[prefix + key] = val
            print("%-12s %-40s %14s %s" % (run.name, key, val["value"],
                                           val["unit"]))
        for r in run.rounds:
            for problem in r["problems"]:
                print("%-12s FAILED round: %s" % (run.name, problem))
        path = os.path.join(OUT_ROOT, "result-%s-s%d-t%d.json"
                            % (run.name, args.seed, args.trace))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(run.record(), metrics=part), fh, indent=1,
                      sort_keys=True)
    correct = all(run.correct() for run in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(len(r.rounds) for r in runs),
                      "failed": sum(r.failed() for r in runs),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
