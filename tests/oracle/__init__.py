"""Exact references that the tests compare the package against.

`dyadic` is exact num / 2^exp arithmetic, `finiteflow` a finite-graph
flow layer with its own Dinic, and `paperflow` the per-edge, per-phase
definitions of the box flow.  `levelgrid` is the truncated flow summed
level by level on full-window grids, as the package summed it before
forming only the kept slots.  `edges` reads and writes one edge flow by
vertex coordinates, and `cyclegraph` builds the boundary 3-cycle graph
from shared vertices.  `freeness` is the full-box orbit separation
scan, within 2^-52 of the exact distance, and the blocked half-box scan
that formed coordinate 0 at every offset, equal to the package's scan
bit for bit; `gridpoints` is the orbit grid summed with the torus
coordinate last and reduced by np.mod.
`locality` is the verifier's unmatched-locality check one edge
direction at a time, `piecescsv` the piece CSV read one row at a time,
and `arcs` the supply-flow solver's CSR laid out by np.lexsort.
`morphology` is the cover path's box dilation and component labelling
on scipy.ndimage, and `ppm` the plain PPM writer one pixel at a time.
`descent` is repair's frontier descent one vertex at a time, each
parent found by trying every signed direction, in Python ints.
`frontier` is the dense rim slot table, the cumsum spill over it and
the router's outer-table heads, as built before face classes.
`matching` is the point matching one tile at a time: per-tile point
lists, a loop over the served pairs and one over every tile.
None of them is imported by the package.
"""
