"""Workload definitions, the layer map and the environment record.

Each workload is a set of `equidecomp` config keys.  The benchmark seed
does not enter these keys: `run.py` draws the base point `x0` from it, and
the action seed stays `ACTION_SEED` (the harness tests also use
`SECOND_ACTION_SEED`), so every seed gives a different orbit segment of
the same action.  Drawing the action seed instead moved `unmatched_frac`
3-5x and `square_s` by 15-25% between seeds (measured on seeds 0-5),
wider than any end-to-end bound.
"""

from __future__ import annotations

import importlib.util
import os
import platform

ACTION_SEED = 7
SECOND_ACTION_SEED = 11

WORKLOADS = {
    "flagship": {
        "config": {},
        "why": ("default config (k=1, d=3, L=32, direct, rect, auto K): "
                "repair, rounding and the K=1 tile scan each take a third; "
                "the scan sets peak RSS"),
    },
    "demo": {
        "config": {
            "k": "2", "delta": "1", "L": "10", "margin": "2", "n0": "1",
            "raster": "64",
            "shape_a": "disk:1/4:1/4:44280/221987",
            "shape_b": "rect:1/20:1/20:235416/665857:235416/665857",
        },
        "why": ("README k=2 disk-to-square (d=5, L=10): 100k vertices, "
                "repair-bound, and the only workload where sampling (disk "
                "membership) is large, also in verify"),
    },
    # Not in BENCHMARK.json: host speed drift gave its square_s median a
    # quartile spread of 0.19-0.29 over ten seeds, past the largest bound,
    # while flagship and demo stayed under 0.1.  Run it by name or `all`.
    "flat_cover": {
        "config": {
            "d": "2", "L": "128", "margin": "16", "n0": "4",
            "mode": "cover", "tiling": "voronoi", "voronoi_r": "6",
        },
        "why": ("d=2, L=128 in cover mode with Voronoi tiles: repair-bound, "
                "the only run of Euler walks and Voronoi tiling, and it "
                "skips the rect K scan"),
    },
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "lattice.sample_s": "square_s and verify_s on demo",
    "flowgrid.envelope_s": "square_s on all workloads (small)",
    "flowgrid.truncate_s": "square_s on demo and flagship; "
                           "barely on flat_cover",
    "pipeline.repair_s": "square_s on all: ~30% flagship, ~58% demo, "
                         "~77% flat_cover",
    "integralize.integralize_s": "square_s on all; cover path only on "
                                 "flat_cover",
    "equidecompose.select_K_s": "square_s and peak_rss_mb on flagship "
                                "and demo; 0 on flat_cover",
    "equidecompose.select_K_empirical_s": "square_s and peak_rss_mb on "
                                          "flagship and demo; 0 on "
                                          "flat_cover",
    "tiling.tiling_s": "square_s on all workloads",
    "equidecompose.tile_flow_s": "square_s on all workloads",
    "equidecompose.matching_s": "square_s on all workloads",
    "equidecompose.pieces_s": "square_s on all workloads",
    "equidecompose.verify_s": "square_s on all workloads",
    "report.write_s": "square_s (under 5 ms on flagship)",
    "*.peak_mb": "peak_rss_mb",
    "counts": "exact; they explain a time or memory change, never "
              "claim one",
    "trace.overhead_s": "none; traced total minus untraced square_s",
}

# BLAS/OpenMP pools are pinned so that a run's threads never outnumber
# the cores it may use, whatever machine runs it.
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def config_lines(workload: dict, out: str, x0, action_seed: int) -> str:
    """Config file text for one run of a workload at base point x0."""
    keys = dict(workload["config"])
    keys["seed"] = str(action_seed)
    keys["x0"] = ",".join(repr(float(c)) for c in x0)
    keys["out"] = out
    return "".join("%s = %s\n" % kv for kv in sorted(keys.items()))


def environment() -> dict:
    """Machine and toolchain facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        "numba_installed": importlib.util.find_spec("numba") is not None,
    }
