"""Repair's frontier descent one vertex at a time, in Python ints.

Each core vertex below the rim finds its parent by trying every signed
direction in lexicographic order and keeping the first whose head is
one layer shallower; no closed form is used.  Subtree sums are exact, so
the int64 guard is a stated rule here, not an overflow: the descent is
refused when sum |residual| reaches 2^63.  Each rim vertex spills what
reaches it over its frontier neighbours, direction by direction, +dirs[i]
before -dirs[i], each taking up to one unit of what is left.
"""

import itertools

import numpy as np

from equidecomp.lattice import directions, edge_slots

INT64_MAX = (1 << 63) - 1


def descend(values, window, residual, unit):
    """(a changed int64 copy of values, the largest change), or None
    where integralize._descend_to_frontier refuses: sum |residual| past
    int64, an edge carrying more than unit, or a rim vertex whose
    frontier neighbours cannot take its sum at unit each."""
    lo, hi = window.core_bounds
    side, d = hi - lo, window.d
    box = list(itertools.product(range(side), repeat=d))
    e = {x: int(residual[x]) for x in box}
    if sum(abs(v) for v in e.values()) > INT64_MAX:
        return None

    def depth(x):
        if not all(0 <= c < side for c in x):
            return 0
        return 1 + min(min(c, side - 1 - c) for c in x)

    signed = [g for g in itertools.product((-1, 0, 1), repeat=d) if any(g)]
    parent = {}
    for x in box:
        if depth(x) > 1:
            parent[x] = next(
                y for y in (tuple(a + b for a, b in zip(x, g))
                            for g in signed)
                if depth(y) == depth(x) - 1)
    for x in sorted(parent, key=depth, reverse=True):
        if abs(e[x]) > unit:
            return None
        e[parent[x]] += e[x]

    flows = [(x, y, e[x]) for x, y in parent.items()]
    for x in box:
        if depth(x) != 1:
            continue
        out = [y for g in directions(d).tolist() for y in
               (tuple(a + b for a, b in zip(x, g)),
                tuple(a - b for a, b in zip(x, g)))
               if depth(y) == 0]
        left = abs(e[x])
        if left > len(out) * unit:
            return None
        for y in out:
            take = min(unit, left)
            flows.append((x, y, take if e[x] > 0 else -take))
            left -= take

    out = np.array(values, dtype=np.int64)
    largest = 0
    for x, y, amount in flows:
        if amount:
            u, v = (np.ravel_multi_index(tuple(c + lo for c in p),
                                         window.shape) for p in (x, y))
            (row,), (tail,), (sign,) = edge_slots(window, [u], [v])
            out[row, tail] += int(sign) * amount
            largest = max(largest, abs(amount))
    return out, largest
