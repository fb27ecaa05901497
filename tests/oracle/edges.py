"""One edge flow read or written by vertex coordinates, through
lattice.edge_slots, the package's one conversion to EdgeField slots.
Coordinates are in the field's full window (field.crop.full); both
endpoints must lie in the box the field stores."""

import numpy as np

from equidecomp.lattice import edge_slots


def _slot(field, u, v):
    full = [np.ravel_multi_index(tuple(int(c) for c in x),
                                 field.crop.full.shape) for x in (u, v)]
    flat, inside = field.crop.from_full(full)
    if not inside.all():
        raise ValueError("edge %r -> %r leaves the stored box" % (u, v))
    return (int(a[0]) for a in edge_slots(field.window, *flat[:, None]))


def flow_num(field, u, v) -> int:
    """Numerator (at the field's scale) of the flow on u -> v."""
    row, tail, sign = _slot(field, u, v)
    return sign * int(field.values[row, tail])


def add_flow(field, u, v, delta: int) -> None:
    """Add delta (numerator units) to the flow on u -> v."""
    row, tail, sign = _slot(field, u, v)
    field.values[row, tail] += sign * int(delta)
