"""Constructive translation equidecompositions on torus lattices.

Builds real-valued flows between two subsets of the k-torus out of
discrepancy-bounded lattice actions, rounds them to integral flows, and
extracts an explicit piecewise-translation bijection, verifying every
identity and bound along the way.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
