"""Salvetti poset of the lift and its quotient category on the torus.

Elements of the affine Salvetti poset are pairs [F, C] of a face and an
adjacent chamber; [F1,C1] <= [F2,C2] when F2 <= F1 and the two chambers
agree on every hyperplane through the span of F1.  The quotient by the
translation lattice is an acyclic category whose nerve models the
homotopy type of the arrangement complement; its objects are in
bijection with the cells of a (generally non-regular) CW structure,
graded by the codimension of F.

The commands build that category from vertex stars, with no window
(`cells.VertexStars.salvetti_category`).  This module builds it on the
windowed lift (`toric_salvetti`) and counts the lift's chain orbits
(`orbit_chain_counts`), `check`'s reference: it compares both with the
stars'.
"""

from .errors import WindowError
from .cells import PeriodicCategory
from .category import euler_characteristic

__all__ = [
    "salvetti_below", "toric_salvetti", "is_thick", "cw_census", "orbit_chain_counts",
]


def salvetti_below(lifted, element):
    """The pairs [F2, C2] that [F1, C1] bounds: F2 a face of F1, and C2 a
    chamber at F2 agreeing with C1 on every hyperplane through F1."""
    f1, c1 = element
    faces = lifted.faces
    plus1 = faces[c1].signs[0]
    zero1 = lifted.zero_mask(f1)
    # a chamber's minus mask is the complement of its plus mask
    return [(f2, c2) for f2 in lifted.lowers[f1] for c2 in lifted.chambers_above(f2)
            if not (plus1 ^ faces[c2].signs[0]) & zero1]


def _check_stars_visible(lifted, canonical):
    """Raise `WindowError` unless every face below the canonical faces lies
    inside the open box: a face in the box boundary has invisible
    chambers."""
    for f1 in canonical:
        for f2 in lifted.lowers[f1]:
            if not lifted.in_open_box(f2):
                raise WindowError(
                    "face %d below canonical face %d lies in the window boundary"
                    % (f2, f1))


def toric_salvetti(lifted, fc):
    """Quotient Salvetti category; objects are orbits of pairs [F, C].

    Each orbit is keyed by its pair over a canonical face of `fc`, graded
    by the codimension of F; morphisms follow `salvetti_below`.
    """
    _check_stars_visible(lifted, [f for (f,) in fc.objects])
    pairs = [(cf, cid) for (cf,) in fc.objects for cid in lifted.chambers_above(cf)]
    return PeriodicCategory(lifted, pairs, lambda e: salvetti_below(lifted, e))


def is_thick(fc):
    """A face category is thick when it is a poset: no parallel morphisms."""
    return all(c <= 1 for c in fc.morphism_multiplicities().values())


def cw_census(zcat):
    """Cell counts of the canonical CW structure, by codimension, with its
    Euler characteristic."""
    counts = zcat.census()
    return counts, euler_characteristic(counts)


def orbit_chain_counts(lifted, max_dim):
    """Per-degree counts of translation orbits of nerve chains of the
    lifted Salvetti poset, counted from canonical sources only.

    The poset's elements are the pairs [F, C] with F an honest (uncut)
    face of the periodic arrangement; boundary-cut chambers are fine, as
    their windowed sign data is exact, and the faces below an uncut face
    are uncut.  A degree-k chain is a sequence e_0 > e_1 > ... > e_k along
    `salvetti_below`, which is the whole strict order.  N_0(e) = 1 and
    N_k(e), the sum of N_{k-1}(t) over the t below e, counts the chains
    with source e; degree k's count is the sum of N_k(e) over the
    canonical sources, the e whose face has cell 0.  Counting stops at the
    first empty degree, as the nerve does.

    Why this is the orbit count.  A chain's orbit has exactly one translate
    whose source face has cell 0, so distinct chains from canonical
    sources lie in distinct orbits.  Conversely, let a chain of the window
    have its source face in cell u, and move it by -u.  Suppose (a) every
    uncut face has an uncut translate in cell 0, and (b) every face in the
    closure of an uncut cell-0 face has its barycenter inside the open
    box, so that every chamber at it was enumerated.  Then the moved
    source face is uncut by (a), the moved faces below it are uncut, and
    the moved chambers are in the window by (b).  `salvetti_below` reads
    only the faces' sign masks, which translation shifts, so the moved
    chain is a chain of the window from a canonical source.  Both conditions are
    checked, with the window containing [-1,2]^n, which puts the cell-0
    faces themselves inside the open box; a window that fails them raises
    `WindowError`, and `quotient_faces` or `toric_salvetti` fails first on
    such a window.
    """
    if not lifted.window.covers_quotient_core():
        raise WindowError("window must contain [-1,2]^n to canonicalize orbits")
    faces = lifted.faces
    canonical = []
    for f in faces:
        if f.boundary_cut:
            continue
        if not any(f.cell):
            canonical.append(f.id)
        elif faces[lifted.translate(f.id, tuple(-s for s in f.cell))].boundary_cut:
            raise WindowError("face %d has no whole translate in cell 0" % f.id)
    _check_stars_visible(lifted, canonical)
    sources = [(f, cid) for f in canonical for cid in lifted.chambers_above(f)]
    below = {}
    stack = list(sources)
    while stack:
        e = stack.pop()
        if e not in below:
            below[e] = salvetti_below(lifted, e)
            stack.extend(below[e])

    counts = [len(sources)]
    chains = dict.fromkeys(below, 1)
    for _ in range(max_dim):
        chains = {e: sum(map(chains.__getitem__, ts)) for e, ts in below.items()}
        count = sum(map(chains.__getitem__, sources))
        if not count:
            break
        counts.append(count)
    return counts
