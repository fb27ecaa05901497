"""Run configuration: a flat key=value text format with validation.

A config file holds one `key = value` pair per line (# comments allowed);
every key can be overridden on the command line.  Validation happens before
any computation and failures name the offending key and the expected form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .flowgrid import psi_num_bits
from .lattice import ActionSpec, LatticeWindow, choose_lattice_dimension
from .shapes import Shape, parse_shape


class ConfigError(ValueError):
    """Invalid or missing configuration value."""


class PipelineError(RuntimeError):
    """A stage failed; certificate holds the evidence when there is some."""

    def __init__(self, stage: str, message: str,
                 certificate: Optional[dict] = None):
        super().__init__("%s: %s" % (stage, message))
        self.stage = stage
        self.certificate = certificate or {}


# The largest raster side: the image is built in memory, 3 bytes a pixel.
RASTER_MAX = 2048

# boundary separation n of the cover that cover.walk_cover builds
COVER_SEPARATION = 3


def max_cover_levels(window: LatticeWindow, n: int) -> int:
    """Largest i_max with n * 12^(i_max + 1) <= L, at least 0 when even
    level 0 fits; -1 otherwise."""
    i = -1
    while n * 12 ** (i + 2) <= window.L:
        i += 1
    return i


@dataclass
class RunConfig:
    k: int = 1                     # torus dimension
    d: int = 0                     # lattice rank; 0 = derive from delta
    delta: str = "0"               # upper box dimension of the shape boundaries
    L: int = 32                    # window side
    margin: int = 8                # frontier ring width
    n0: int = 3                    # truncation level
    seed: int = 7                  # generator seed
    x0: Tuple[float, ...] = ()     # base point; empty = origin
    shape_a: str = "intervals:0:1/4"
    shape_b: str = "intervals:1/2:3/4"
    mode: str = "direct"           # integralization mode
    tiling: str = "rect"
    K: int = 0                     # tile side; 0 = auto-select
    voronoi_r: int = 3             # net radius for tiling=voronoi
    eps: float = 0.0               # envelope exponent; 0 = grid search
    ns: str = "2,4,8,16,32,64"     # N values for the discrepancy table
    raster: int = 0                # raster resolution; 0 = no raster
    out: str = "out"

    def validate(self) -> None:
        if self.k not in (1, 2):
            raise ConfigError("k must be 1 or 2 (got %r)" % (self.k,))
        if self.d < 0:
            raise ConfigError("d must be >= 2, or 0 to derive it from delta")
        if self.d == 1:
            raise ConfigError("d = 1 has no 3-cycles; use d >= 2")
        try:
            delta = Fraction(self.delta)
        except (ValueError, ZeroDivisionError):
            raise ConfigError("delta must be a fraction like 1 or 3/2 "
                              "(got %r)" % (self.delta,))
        if not (0 <= delta < self.k):
            raise ConfigError("delta must satisfy 0 <= delta < k")
        if self.L < 2:
            raise ConfigError("L must be >= 2")
        if self.margin < 1:
            raise ConfigError("margin must be >= 1: repair needs a frontier "
                              "ring (got %d)" % self.margin)
        core = self.L - 2 * self.margin
        if core < 1:
            raise ConfigError("margin %d leaves no core in L = %d"
                              % (self.margin, self.L))
        if self.n0 < 1:
            raise ConfigError("n0 must be >= 1")
        bits = psi_num_bits(self.rank(), self.n0)
        if bits >= 63:
            raise ConfigError("n0 = %d overflows int64 in d = %d: flow "
                              "numerators reach 2^%d"
                              % (self.n0, self.rank(), bits))
        if (1 << (self.n0 + 1)) > self.L:
            raise ConfigError("n0 = %d needs L >= %d"
                              % (self.n0, 1 << (self.n0 + 1)))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.x0 and len(self.x0) != self.k:
            raise ConfigError("x0 needs %d coordinates" % self.k)
        if self.mode not in ("direct", "cover"):
            raise ConfigError("mode must be direct or cover")
        if (self.mode == "cover"
                and max_cover_levels(self.window(), COVER_SEPARATION) < 0):
            raise ConfigError("mode = cover at level 0 needs L >= %d "
                              "(got L = %d)" % (12 * COVER_SEPARATION, self.L))
        if self.tiling not in ("rect", "voronoi"):
            raise ConfigError("tiling must be rect or voronoi")
        if self.tiling == "voronoi" and self.voronoi_r < 1:
            raise ConfigError("voronoi_r must be >= 1")
        # a net radius past the core side gives the same one-seed net
        if self.tiling == "voronoi" and self.voronoi_r > core:
            raise ConfigError("voronoi_r = %d exceeds the core side %d"
                              % (self.voronoi_r, core))
        if self.K < 0:
            raise ConfigError("K must be >= 1, or 0 for automatic selection")
        if self.tiling == "rect" and self.K > core:
            raise ConfigError("K = %d exceeds the core side %d"
                              % (self.K, core))
        if self.eps < 0:
            raise ConfigError("eps must be positive, or 0 for a grid search")
        if not 0 <= self.raster <= RASTER_MAX:
            raise ConfigError("raster resolution must be 0 to %d (got %d)"
                              % (RASTER_MAX, self.raster))
        for shape_key in ("shape_a", "shape_b"):
            text = getattr(self, shape_key)
            try:
                shape = parse_shape(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError("%s: %s (got %r)" % (shape_key, exc, text))
            if shape.k != self.k:
                raise ConfigError("%s lives on the %d-torus but k = %d"
                                  % (shape_key, shape.k, self.k))
        try:
            ns = [int(v) for v in self.ns.split(",")]
        except ValueError:
            raise ConfigError("ns must be comma-separated integers "
                              "(got %r)" % (self.ns,))
        if min(ns) < 1 or len(set(ns)) < 3:
            raise ConfigError("ns needs at least 3 distinct values >= 1 "
                              "(got %r)" % (self.ns,))
        if not math.isfinite(self.eps):
            raise ConfigError("eps must be finite")
        if not all(math.isfinite(c) for c in self.x0):
            raise ConfigError("x0 coordinates must be finite")
        if not self.out:
            raise ConfigError("out directory must be non-empty")

    # -- derived objects ---------------------------------------------------

    def rank(self) -> int:
        if self.d:
            return self.d
        return choose_lattice_dimension(self.k, Fraction(self.delta))

    def window(self) -> LatticeWindow:
        return LatticeWindow(d=self.rank(), L=self.L, margin=self.margin)

    def action(self) -> ActionSpec:
        return ActionSpec.from_seed(self.k, self.rank(), self.seed,
                                    x0=list(self.x0) if self.x0 else None)

    def shapes(self) -> Tuple[Shape, Shape]:
        return parse_shape(self.shape_a), parse_shape(self.shape_b)

    def n_list(self) -> List[int]:
        return [int(v) for v in self.ns.split(",")]

    def to_dict(self) -> Dict[str, object]:
        d = asdict(self)
        d["x0"] = list(self.x0)
        return d


def _coerce(key: str, raw: str) -> object:
    kind = RunConfig.__dataclass_fields__[key].type
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "Tuple[float, ...]":
            return tuple(float(v) for v in raw.split(",")) if raw else ()
        return raw
    except ValueError:
        raise ConfigError("key %r expects %s, got %r" % (key, kind, raw))


def parse_config_text(text: str) -> Dict[str, str]:
    """Raw key=value mapping from config file text."""
    out: Dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("line %d: expected key = value, got %r"
                              % (ln, line.strip()))
        key, _, val = body.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_config(pairs: Dict[str, str]) -> RunConfig:
    """Typed, validated config from a raw mapping.  Unknown keys error."""
    cfg = RunConfig()
    for key, raw in pairs.items():
        if key not in RunConfig.__dataclass_fields__:
            known = ", ".join(sorted(RunConfig.__dataclass_fields__))
            raise ConfigError("unknown key %r (known: %s)" % (key, known))
        setattr(cfg, key, _coerce(key, raw))
    cfg.validate()
    return cfg


def load_config(path: Optional[str],
                overrides: Sequence[str] = ()) -> RunConfig:
    """Config from an optional file plus `key=value` override strings."""
    pairs: Dict[str, str] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("cannot read config file %r: %s" % (path, exc))
        pairs.update(parse_config_text(text))
    for item in overrides:
        if "=" not in item:
            raise ConfigError("override %r is not of the form key=value" % item)
        key, _, val = item.partition("=")
        pairs[key.strip()] = val.strip()
    return build_config(pairs)
