"""The cover path's grid morphology on scipy.ndimage, as the package did
it before: the l-infinity ball as a maximum filter of side 2r + 1, and
components labelled with full (3^d) connectivity for connectedness and
hole filling.  Masks are boolean grids of any shape."""

import numpy as np
from scipy import ndimage


def ball_mask(mask, r):
    if r == 0:
        return mask.copy()
    return ndimage.maximum_filter(mask, size=2 * r + 1, mode="constant",
                                  cval=False)


def _label(mask):
    return ndimage.label(mask, structure=np.ones((3,) * mask.ndim,
                                                 dtype=bool))


def is_connected(mask):
    return not mask.any() or _label(mask)[1] == 1


def fill_holes(mask):
    """mask plus every component of its complement that misses the shell."""
    comp, _ = _label(~mask)
    shell = np.zeros(mask.shape, dtype=bool)
    for ax in range(mask.ndim):
        idx = [slice(None)] * mask.ndim
        idx[ax] = 0
        shell[tuple(idx)] = True
        idx[ax] = mask.shape[ax] - 1
        shell[tuple(idx)] = True
    reaching = np.unique(comp[shell & (comp > 0)])
    return mask | (~mask & ~np.isin(comp, reaching))
