"""Salvetti poset of the lift and its quotient category on the torus.

Elements of the affine Salvetti poset are pairs [F, C] of a face and an
adjacent chamber; [F1,C1] <= [F2,C2] when F2 <= F1 and the two chambers
agree on every hyperplane through the span of F1.  The quotient by the
translation lattice is an acyclic category whose nerve models the
homotopy type of the arrangement complement; its objects are in
bijection with the cells of a (generally non-regular) CW structure,
graded by the codimension of F.
"""

from .errors import WindowError, InternalError
from .category import AcyclicCategory, nerve_chains
from .cells import PeriodicCategory

__all__ = [
    "SalvettiPoset", "salvetti_poset", "salvetti_below", "toric_salvetti",
    "is_thick", "cw_census", "orbit_chain_counts",
]


class SalvettiPoset:
    """Pairs [F, C] over the windowed lift, restricted to faces whose
    closed star the window fully contains."""

    def __init__(self, lifted, elements):
        self.lifted = lifted
        self.elements = elements        # list of (fid, cid)
        self.index = {e: i for i, e in enumerate(elements)}

    def grade(self, i):
        fid, _ = self.elements[i]
        return self.lifted.dim - self.lifted.faces[fid].dim

    def relation_pairs(self):
        """All strict order pairs (i, j), grade-increasing."""
        pairs = []
        for i, e in enumerate(self.elements):
            js = (self.index.get(t) for t in salvetti_below(self.lifted, e))
            pairs.extend((i, j) for j in sorted(j for j in js if j is not None))
        return pairs

    def as_category(self):
        n_el = len(self.elements)
        grades = [self.grade(i) for i in range(n_el)]
        morphs = []
        identities = []
        for i in range(n_el):
            identities.append(len(morphs))
            morphs.append((i, i))
        strict = {}
        for (i, j) in self.relation_pairs():
            strict[(i, j)] = len(morphs)
            morphs.append((i, j))
        table = {}
        by_src = {}
        for (i, j), mid in strict.items():
            by_src.setdefault(i, []).append((j, mid))
        for (i, j), m1 in strict.items():
            for (k, m2) in by_src.get(j, ()):
                comp = strict.get((i, k))
                if comp is None:
                    raise InternalError("Salvetti order is not transitive")
                table[(m2, m1)] = comp
        return AcyclicCategory(grades, morphs, identities, table,
                               labels=list(self.elements))


def salvetti_below(lifted, element):
    """The pairs [F2, C2] that [F1, C1] bounds: F2 a face of F1, and C2 a
    chamber at F2 agreeing with C1 on every hyperplane through F1."""
    f1, c1 = element
    faces = lifted.faces
    sig1 = faces[c1].sign_vector
    zero1 = lifted.zero_set(f1)
    return [(f2, c2) for f2 in lifted.lowers[f1] for c2 in lifted.chambers_above(f2)
            if all(sig1[h] == faces[c2].sign_vector[h] for h in zero1)]


def salvetti_poset(lifted, truncated=True):
    """Pairs [F, C] of the lift.

    With `truncated` set (the default), only faces whose closed star the
    window fully contains are used: the lift is a finite snapshot of a
    periodic arrangement and boundary faces carry incomplete data.  Pass
    `truncated=False` when the hyperplane list is a complete affine
    arrangement; every sign class is then an honest face, unbounded ones
    included.
    """
    elements = []
    for f in lifted.faces:
        if truncated and not lifted.star_ok(f.id):
            continue
        for cid in lifted.chambers_above(f.id):
            elements.append((f.id, cid))
    elements.sort()
    return SalvettiPoset(lifted, elements)


def toric_salvetti(lifted, fc):
    """Quotient Salvetti category; objects are orbits of pairs [F, C].

    Each orbit is keyed by its pair over a canonical face of `fc`, graded
    by the codimension of F; morphisms follow `salvetti_below`.
    """
    faces = lifted.faces
    for (f1,) in fc.objects:
        for f2 in lifted.lowers[f1]:
            # a lower face inside the box boundary has invisible chambers
            if not lifted.window.contains(faces[f2].barycenter, strict=True):
                raise WindowError(
                    "face %d below canonical face %d lies in the window boundary"
                    % (f2, f1))
    pairs = [(cf, cid) for (cf,) in fc.objects for cid in lifted.chambers_above(cf)]
    return PeriodicCategory(lifted, pairs, lambda e: salvetti_below(lifted, e))


def is_thick(fc):
    """A face category is thick when it is a poset: no parallel morphisms."""
    return all(c <= 1 for c in fc.morphism_multiplicities().values())


def cw_census(zcat):
    """Cell counts of the canonical CW structure, by codimension, with its
    Euler characteristic."""
    counts = zcat.census()
    chi = sum((-1) ** c * k for c, k in enumerate(counts))
    return counts, chi


def orbit_chain_counts(lifted, max_dim):
    """Per-degree counts of translation orbits of nerve chains of the
    lifted Salvetti poset, canonicalized at the chain's source element.

    Elements range over pairs whose face is an honest face of the
    periodic arrangement (boundary-cut chamber classes are fine: their
    windowed sign data is exact).  Used to confirm that taking nerves
    commutes with the quotient.
    """
    faces = lifted.faces
    elements = []
    for f in faces:
        if f.boundary_cut:
            continue
        for cid in lifted.chambers_above(f.id):
            elements.append((f.id, cid))
    elements.sort()
    sal = SalvettiPoset(lifted, elements)
    cat = sal.as_category()
    chains = nerve_chains(cat, max_dim)

    counts = [len({lifted.canonical(e)[0] for e in sal.elements})]
    for k in range(1, len(chains)):
        seen = set()
        for chain in chains[k]:
            objs = [cat.source(chain[0])] + [cat.target(m) for m in chain]
            flat = tuple(f for i in objs for f in sal.elements[i])
            seen.add(lifted.canonical(flat)[0])
        counts.append(len(seen))
    return counts
