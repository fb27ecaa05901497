"""One measured process of the benchmark.

    python3 child.py MODE CONFIG

MODE is one of
  square   time set-up (import `equidecomp.cli`, load and validate the
           config) and `cli.cmd_square`; report `ru_maxrss`
  verify   time the same set-up and `cli.cmd_verify` on the config's
           out directory (the config is re-read from the artifacts)
  trace    as square, with a `perf_counter` span around every call into
           a public stage function; reports self times and exact counts
  memory   as square, with a resident-set sampler around the same calls;
           reports each stage's peak above its entry, and no times

The last line of standard output is one JSON object.  The program's own
output goes to standard error.  Exit code 0 means the measurement ran;
the program's exit code is in the "rc" field.  Exit code 3 means the
package could not be imported from the checkout.
"""

import importlib
import json
import os
import resource
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_NO_PACKAGE = 3


class Spans:
    """Closed spans (id, name, parent id, start, end), kept in memory."""

    def __init__(self):
        self.closed = []
        self._stack = []
        self._next = 0

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            ident = self._next
            self._next += 1
            self._stack.append(ident)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.closed.append((ident, name, parent, t0, t1))
        return traced

    def self_times(self) -> dict:
        """Per-name sum of span duration minus its children's durations."""
        child_sum = {}
        for _, _, parent, t0, t1 in self.closed:
            if parent is not None:
                child_sum[parent] = child_sum.get(parent, 0.0) + (t1 - t0)
        out = {}
        for ident, name, _, t0, t1 in self.closed:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child_sum.get(ident,
                                                                      0.0)
        return out


class RssPeaks:
    """Per-stage resident-set peak above the stage's entry, from a thread
    that samples /proc/self/statm.  tracemalloc is not used: it slows the
    max-flow stages about 22x, past the benchmark's time limit.

    Stages do not nest (every wrapped call comes from run_pipeline).  Each
    stage entry and exit starts a new generation; a sample read during an
    earlier generation is thrown away, so no stage inherits another's peak.
    """

    def __init__(self, interval: float = 0.0005):
        self.peaks = {}
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._generation = 0
        self._high = 0
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _sample(self):
        while not self._stop.wait(self._interval):
            generation = self._generation
            value = self.rss()
            with self._lock:
                if generation == self._generation:
                    self._high = max(self._high, value)

    def __enter__(self):
        sys.setswitchinterval(self._interval)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def wrap(self, fn, name):
        def sampled(*args, **kwargs):
            base = self.rss()
            with self._lock:
                self._generation += 1
                self._high = base
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.rss()
                with self._lock:
                    self._generation += 1
                    high = max(self._high, end)
                self.peaks[name] = max(self.peaks.get(name, 0.0),
                                       (high - base) / 2.0 ** 20)
        return sampled


# Public stage functions, patched where run_pipeline and the CLI look them
# up: (module, attribute, layer metric prefix).
STAGES = (
    ("pipeline", "sample_field", "lattice.sample"),
    ("pipeline", "certify_box_envelope", "flowgrid.envelope"),
    ("pipeline", "truncated_psi", "flowgrid.truncate"),
    ("pipeline", "repair_to_frontier", "pipeline.repair"),
    ("pipeline", "integralize_flow", "integralize.integralize"),
    ("pipeline", "select_K", "equidecompose.select_K"),
    ("pipeline", "select_K_empirical", "equidecompose.select_K_empirical"),
    ("pipeline", "greedy_net", "tiling.tiling"),
    ("pipeline", "voronoi_tiling", "tiling.tiling"),
    ("pipeline", "rect_tiling", "tiling.tiling"),
    ("pipeline", "tile_flow", "equidecompose.tile_flow"),
    ("pipeline", "build_matching", "equidecompose.matching"),
    ("pipeline", "extract_pieces", "equidecompose.pieces"),
    ("pipeline", "verify_equidecomposition", "equidecompose.verify"),
    ("cli", "write_pieces_csv", "report.write"),
    ("cli", "write_json", "report.write"),
    ("cli", "piece_raster", "report.write"),
    ("cli", "write_ppm", "report.write"),
)

# Stages whose memory peak is reported.
MEMORY_STAGES = ("lattice.sample", "flowgrid.truncate", "pipeline.repair",
                 "integralize.integralize", "equidecompose.select_K_empirical",
                 "equidecompose.tile_flow")


def _with_hook(fn, hook):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result
    return counted


def instrument(recorder, counts: dict, only=None) -> None:
    """Patch the stages in STAGES (those named in `only`, if given) with
    recorder.wrap, and count what summary.json does not record: the size
    of the truncated edge field, and the rect tilings built inside K
    selection (the name `equidecompose.rect_tiling` is used only by
    select_K*).
    """
    def truncated(psi):
        counts["flowgrid.edge_field_bytes"] = (psi.values.nbytes
                                               + psi.valid.nbytes)

    for modname, attr, name in STAGES:
        if only is not None and name not in only:
            continue
        mod = importlib.import_module("equidecomp." + modname)
        fn = getattr(mod, attr)
        if name == "flowgrid.truncate":
            fn = _with_hook(fn, truncated)
        setattr(mod, attr, recorder.wrap(fn, name))
    counts["equidecompose.K_scanned"] = 0
    counts["equidecompose.tiles_built"] = 0

    def scanned(til):
        counts["equidecompose.K_scanned"] += 1
        counts["equidecompose.tiles_built"] += len(til.tiles)

    eq = importlib.import_module("equidecomp.equidecompose")
    eq.rect_tiling = _with_hook(eq.rect_tiling, scanned)


def summary_counts(directory: str) -> dict:
    """Exact counts that `square` itself records in summary.json."""
    with open(os.path.join(directory, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    field, tiles = summary["field"], summary["tiles"]
    pieces = summary["pieces"]
    return {
        "lattice.vertices": field["L"] ** field["d"],
        "lattice.points": field["count_a"] + field["count_b"],
        "pipeline.repair_edges": summary["repair"]["edges"],
        "pipeline.repair_doublings": summary["repair"]["doublings"],
        "pipeline.repair_supply": summary["repair"]["supply_abs"],
        "integralize.edges_rounded": summary["integralize"]["edges_rounded"],
        "integralize.supply": summary["integralize"]["supply"],
        "equidecompose.K": tiles["K"],
        "equidecompose.tiles": tiles["count"],
        "equidecompose.matched": pieces["matched"],
        "equidecompose.pieces": pieces["count"],
    }


def _call(fn, *args):
    """The program's exit code, or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:    # a failed run is recorded, not fatal here
        traceback.print_exc()
        return type(exc).__name__


def _artifact_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def main(argv) -> int:
    mode, config_path = argv
    t0 = time.perf_counter()
    try:
        from equidecomp import cli
        from equidecomp.config import load_config
    except ImportError as exc:
        print("cannot import equidecomp: %s" % exc, file=sys.stderr)
        return EXIT_NO_PACKAGE
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print("equidecomp imported from %s, not %s" % (cli.__file__, SRC),
              file=sys.stderr)
        return EXIT_NO_PACKAGE
    cfg = load_config(config_path)
    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s}
    sys.stdout = sys.stderr           # the program's prints stay off the pipe
    try:
        if mode == "verify":
            t1 = time.perf_counter()
            out["rc"] = _call(cli.cmd_verify, cfg.out, None)
            out["verify_s"] = time.perf_counter() - t1
        elif mode == "memory":
            with RssPeaks() as rec:
                instrument(rec, {}, only=MEMORY_STAGES)
                out["rc"] = _call(cli.cmd_square, cfg)
            out["peak_mb"] = {n: rec.peaks.get(n, 0.0) for n in MEMORY_STAGES}
        else:
            counts = {}
            spans = Spans()
            if mode == "trace":
                instrument(spans, counts)
            elif mode != "square":
                raise SystemExit("unknown mode %r" % mode)
            square = spans.wrap(cli.cmd_square, "square")
            c0 = time.process_time()
            out["rc"] = _call(square, cfg)
            out["square_cpu_s"] = time.process_time() - c0
            out["square_s"] = spans.closed[-1][4] - spans.closed[-1][3]
            out["maxrss_kib"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
            if mode == "trace":
                out["self_s"] = spans.self_times()
                if out["rc"] == 0:
                    counts.update(summary_counts(cfg.out))
                    counts["report.bytes"] = _artifact_bytes(cfg.out)
                out["counts"] = counts
            else:
                import numpy
                import scipy
                out["versions"] = {"numpy": numpy.__version__,
                                   "scipy": scipy.__version__}
    finally:
        sys.stdout = sys.__stdout__
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
