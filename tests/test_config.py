"""Config parsing, validation messages, and derived objects."""

import numpy as np
import pytest

from equidecomp.config import (
    ConfigError,
    RunConfig,
    build_config,
    load_config,
    parse_config_text,
)
from equidecomp.flowgrid import psi_num_bound, truncated_psi
from equidecomp.lattice import IndicatorField, LatticeWindow


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.rank() == 3                       # k=1, delta=0
    assert cfg.window().shape == (32, 32, 32)
    assert cfg.n_list() == [2, 4, 8, 16, 32, 64]


def test_rank_derivation_and_override():
    assert build_config({"k": "2", "delta": "1",
                         "shape_a": "disk:1/4:1/4:44280/221987",
                         "shape_b": "rect:1/20:1/20:235416/665857:235416/665857",
                         }).rank() == 5
    assert build_config({"d": "4"}).rank() == 4


def test_parse_config_text():
    text = """
    # a comment
    L = 16        # trailing comment
    seed=3

    n0 = 1
    """
    assert parse_config_text(text) == {"L": "16", "seed": "3", "n0": "1"}
    with pytest.raises(ConfigError) as exc:
        parse_config_text("L = 16\nwhat is this\n")
    assert "line 2" in str(exc.value)


def test_unknown_key_lists_known():
    with pytest.raises(ConfigError) as exc:
        build_config({"window": "16"})
    msg = str(exc.value)
    assert "unknown key 'window'" in msg and "L" in msg and "margin" in msg


def test_coercion_failures_name_key():
    with pytest.raises(ConfigError) as exc:
        build_config({"L": "sixteen"})
    assert "'L'" in str(exc.value)
    with pytest.raises(ConfigError):
        build_config({"eps": "tiny"})
    with pytest.raises(ConfigError):
        build_config({"x0": "0.1,oops"})
    assert build_config({"x0": ""}).x0 == ()


@pytest.mark.parametrize("pairs,fragment", [
    ({"k": "3"}, "k must be 1 or 2"),
    ({"d": "1"}, "3-cycles"),
    ({"delta": "2/0"}, "delta"),
    ({"delta": "1"}, "0 <= delta < k"),
    ({"L": "1"}, "L must be"),
    ({"margin": "16"}, "no core"),
    ({"n0": "0"}, "n0"),
    ({"n0": "5"}, "needs L >= 64"),
    ({"seed": "-1"}, "seed"),
    ({"x0": "0.1,0.2"}, "x0 needs 1"),
    ({"mode": "euler"}, "mode must be"),
    ({"tiling": "hex"}, "tiling must be"),
    ({"tiling": "voronoi", "voronoi_r": "0"}, "voronoi_r"),
    ({"K": "-2"}, "K must be"),
    ({"eps": "-0.1"}, "eps"),
    ({"raster": "-4"}, "raster"),
    ({"shape_a": "blob:1/4"}, "shape_a"),
    ({"shape_a": "disk:1/4:1/4:1/5"}, "shape_a lives on the 2-torus"),
    ({"ns": "2,four"}, "ns must be"),
    ({"out": ""}, "out"),
    ({"L": "16", "margin": "4", "n0": "1", "K": "20"},
     "K = 20 exceeds the core side 8"),
    ({"mode": "cover"}, "needs L >= 36 (got L = 32)"),
    ({"cover_i_max": "0"}, "unknown key 'cover_i_max'"),
    ({"mode": "cover", "L": "35", "margin": "6"},
     "needs L >= 36 (got L = 35)"),
    ({"ns": "2,4"}, "ns needs at least 3 distinct"),
    ({"ns": "0,2,4"}, "ns needs at least 3 distinct"),
    ({"eps": "nan"}, "eps must be finite"),
    ({"measure_tol": "1e-9"}, "unknown key 'measure_tol'"),
    ({"x0": "nan"}, "x0 coordinates must be finite"),
    ({"raster": "10000000"}, "raster resolution must be 0 to 2048"),
    ({"tiling": "voronoi", "voronoi_r": str(2 ** 63)},
     "voronoi_r = %d exceeds the core side 16" % 2 ** 63),
])
def test_validation_messages(pairs, fragment):
    with pytest.raises(ConfigError) as exc:
        build_config(pairs)
    assert fragment in str(exc.value)


def test_static_checks_accept_what_runs():
    # a K as large as the core, any K for Voronoi tiles, and cover mode
    # on the smallest window with a cover level all pass validation
    build_config({"L": "16", "margin": "4", "n0": "1", "K": "8"})
    build_config({"L": "16", "margin": "4", "n0": "1", "K": "20",
                  "tiling": "voronoi"})
    build_config({"d": "2", "L": "128", "margin": "16", "n0": "4",
                  "mode": "cover", "tiling": "voronoi", "voronoi_r": "6"})
    build_config({"L": "36", "margin": "6", "mode": "cover"})


def test_int64_headroom():
    """validate rejects a (d, n0) whose flow numerators can reach 2^63,
    without building a window; the bound holds, within a factor of 2, on
    a field split into a +1 and a -1 half."""
    assert psi_num_bound(2, 12) == 1 << 58 and psi_num_bound(3, 9) == 1 << 60
    RunConfig(d=2, n0=12, L=1 << 13).validate()
    RunConfig(d=3, n0=9, L=1 << 10).validate()
    # the exponent is compared before any shift: a 2^63 in d or n0 builds
    # no integer of 2^63 bits
    for d, n0, bits in ((2, 13, 63), (3, 10, 67), (2, 30, 148),
                        (3, 2 ** 63, 7 * 2 ** 63 - 3),
                        (2 ** 63, 1, 2 ** 63 + 1)):
        with pytest.raises(ConfigError) as exc:
            RunConfig(d=d, n0=n0, L=1 << min(n0 + 1, 64),
                      margin=1).validate()
        assert str(exc.value) == ("n0 = %d overflows int64 in d = %d: flow "
                                  "numerators reach 2^%d" % (n0, d, bits))
    for d, L, n0 in ((1, 64, 4), (2, 32, 3), (3, 16, 2)):
        w = LatticeWindow(d=d, L=L)
        half = np.indices(w.shape)[0] < L // 2
        psi = truncated_psi(IndicatorField(window=w, chi_a=half,
                                           chi_b=~half), n0)
        peak = int(np.abs(psi.values).max())
        assert psi_num_bound(d, n0) // 2 < peak < psi_num_bound(d, n0)


def test_load_config_file_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("L = 16\nmargin = 4\nn0 = 1\nseed = 5\n")
    cfg = load_config(str(p), overrides=["seed=9", "out=elsewhere"])
    assert cfg.L == 16 and cfg.seed == 9 and cfg.out == "elsewhere"
    with pytest.raises(ConfigError):
        load_config(str(p), overrides=["seed"])
    cfg2 = load_config(None, overrides=["L=16", "margin=4", "n0=1"])
    assert cfg2.L == 16
    # an unreadable file is a config error too, not an OSError or a
    # UnicodeDecodeError
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"L = \xff\xfe\n")
    for path in (str(bad), str(tmp_path / "missing.cfg")):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(path)


def test_to_dict_round_trips():
    cfg = load_config(None, overrides=["L=16", "margin=4", "n0=1", "x0=0.25"])
    d = cfg.to_dict()
    rebuilt = build_config({k: (",".join(str(f) for f in v)
                                if isinstance(v, (list, tuple)) else str(v))
                            for k, v in d.items()})
    assert rebuilt == cfg
