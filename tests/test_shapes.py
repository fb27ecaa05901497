"""Shape parsing, measures, and membership."""

import math
from fractions import Fraction

import numpy as np
import pytest

from equidecomp.shapes import measures_match, parse_shape


def test_interval_union_measure_and_membership():
    s = parse_shape("intervals:0:1/4,1/2:5/8")
    assert s.measure() == Fraction(3, 8)
    pts = np.array([[0.0], [0.25], [0.3], [0.5], [0.624], [0.625]])
    assert s.contains(pts).tolist() == [True, False, False, True, True, False]


def test_interval_union_rejects_overlap_and_disorder():
    with pytest.raises(ValueError):
        parse_shape("intervals:0:1/2,1/4:3/4")
    with pytest.raises(ValueError):
        parse_shape("intervals:1/2:1/4")


def test_disk_measure_and_membership():
    s = parse_shape("disk:1/4:1/4:1/8")
    assert s.measure() == pytest.approx(math.pi / 64)
    pts = np.array([[0.25, 0.25], [0.25, 0.374], [0.25, 0.376], [0.0, 0.0]])
    assert s.contains(pts).tolist() == [True, True, False, False]


def test_disk_must_fit_in_quarter_square():
    with pytest.raises(ValueError):
        parse_shape("disk:1/4:1/4:1/3")
    with pytest.raises(ValueError):
        parse_shape("disk:0:0:1/8")


def test_rect_measure_membership_half_open():
    s = parse_shape("rect:1/8:1/8:1/4:1/8")
    assert s.measure() == Fraction(1, 32)
    pts = np.array([[0.125, 0.125], [0.374, 0.24], [0.375, 0.2],
                    [0.2, 0.25], [0.1, 0.2]])
    assert s.contains(pts).tolist() == [True, True, False, False, False]


def test_rect_must_fit():
    # half-open: corner + side may reach exactly 1/2, not beyond
    parse_shape("rect:1/4:1/4:1/4:1/4")
    with pytest.raises(ValueError):
        parse_shape("rect:1/4:1/4:1/4:3/8")
    with pytest.raises(ValueError):
        parse_shape("rect:0:0:0:1/4")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_shape("blob:1:2")


def test_measures_match_exact_and_tolerant():
    a = parse_shape("intervals:0:1/4")
    b = parse_shape("intervals:1/2:3/4")
    assert measures_match(a, b, 0.0)          # exact Fractions
    c = parse_shape("intervals:0:1/8")
    assert not measures_match(a, c, 1e-9)
    # disk vs rect of (rationalized) equal area: needs the tolerance
    disk = parse_shape("disk:1/4:1/4:44280/221987")
    rect = parse_shape("rect:1/20:1/20:235416/665857:235416/665857")
    assert measures_match(disk, rect, 1e-9)
    assert not measures_match(disk, rect, 1e-16)


def test_shapes_know_their_torus_dimension():
    assert parse_shape("intervals:0:1/4").k == 1
    assert parse_shape("disk:1/4:1/4:1/8").k == 2
    assert parse_shape("rect:1/8:1/8:1/4:1/8").k == 2
