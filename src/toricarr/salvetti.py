"""The toric Salvetti category's cell census and the thickness of a face
category.

The Salvetti category's objects are the orbits of pairs [F, C] of a face
and a chamber at it; [G, C'] maps to [F, C] when F lies in the closure of
G and the two chambers agree on every hyperplane through G.  It is an
acyclic category whose nerve models the homotopy type of the arrangement
complement; its objects are in bijection with the cells of a (generally
non-regular) CW structure, graded by the codimension of F.  The commands
build it from vertex stars (`cells.VertexStars.salvetti_category`).
"""

from .category import euler_characteristic

__all__ = ["is_thick", "cw_census"]


def is_thick(fc):
    """A face category is thick when it is a poset: no parallel morphisms."""
    return all(c <= 1 for c in fc.morphism_multiplicities().values())


def cw_census(zcat):
    """Cell counts of the canonical CW structure, by codimension, with its
    Euler characteristic."""
    counts = zcat.census()
    return counts, euler_characteristic(counts)
