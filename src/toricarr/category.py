"""Acyclic categories, their nerves, and integral homology.

An acyclic category generalizes a poset: parallel morphisms are allowed,
but only identities are invertible and the only endomorphisms are the
identities.  The nerve collects chains of composable nonidentity
morphisms; because every category built here is graded (nonidentity
morphisms strictly raise the grade), the nerve has no degeneracies and a
hard dimension cap.
"""

from .errors import InternalError
from .exact import SparseMatrix, snf


class AcyclicCategory:
    """Objects with an integer grade, morphisms, and composition on demand.

    `morphisms[i]` starts with the pair (source, target).  The first
    `n_objects` morphisms are the identities, in object order.
    `composite(m2, m1)` is the id of m2 after m1, formed when asked, for a
    composable pair of nonidentity morphisms, or None when there is none;
    identity composition is implicit.  `by_source` lists the nonidentity
    morphisms out of each object, in id order.
    """

    def __init__(self, grades, morphisms, composite):
        self.grades = grades
        self.morphisms = morphisms
        self.composite = composite
        self.by_source = {}
        for mid in self.nonidentity():
            self.by_source.setdefault(morphisms[mid][0], []).append(mid)

    @property
    def n_objects(self):
        return len(self.grades)

    def is_identity(self, mid):
        return mid < len(self.grades)

    def source(self, mid):
        return self.morphisms[mid][0]

    def target(self, mid):
        return self.morphisms[mid][1]

    def nonidentity(self):
        return range(len(self.grades), len(self.morphisms))

    def compose(self, m2, m1):
        """Composite m2 after m1; requires target(m1) == source(m2)."""
        if self.target(m1) != self.source(m2):
            raise InternalError("morphisms are not composable")
        if self.is_identity(m1):
            return m2
        if self.is_identity(m2):
            return m1
        c = self.composite(m2, m1)
        if c is None:
            raise InternalError("missing composite for pair (%d, %d)" % (m2, m1))
        return c


def check_acyclic(cat):
    """Verify the acyclicity axioms plus composition closure/associativity.

    Returns (ok, diagnostics); failures are reported, never raised.
    """
    diags = []
    n = cat.n_objects
    if len(cat.morphisms) < n:
        diags.append("expected one identity per object")
    else:
        for o in range(n):
            if (cat.source(o), cat.target(o)) != (o, o):
                diags.append("identity of object %d has wrong endpoints" % o)
    nonid = cat.nonidentity()
    for mid in nonid:
        if cat.source(mid) == cat.target(mid):
            diags.append("nonidentity endomorphism %d at object %d" % (mid, cat.source(mid)))
    # opposite nonidentity morphisms would compose to endomorphisms and
    # hence to inverses; reject the pattern outright
    directed = dict.fromkeys((cat.source(mid), cat.target(mid)) for mid in nonid)
    for (s, t) in directed:
        if s != t and (t, s) in directed:
            diags.append("morphisms in both directions between %d and %d" % (s, t))
    composites = {}
    for m1 in nonid:
        for m2 in cat.by_source.get(cat.target(m1), ()):
            c = cat.composite(m2, m1)
            if c is None:
                diags.append("missing composite (%d, %d)" % (m2, m1))
                continue
            if (cat.source(c), cat.target(c)) != (cat.source(m1), cat.target(m2)):
                diags.append("composite (%d, %d) has wrong endpoints" % (m2, m1))
            composites[(m2, m1)] = c
    for (m2, m1), c in composites.items():
        for m3 in cat.by_source.get(cat.target(m2), ()):
            left = composites.get((m3, m2))
            if left is None:
                continue
            lhs = composites.get((m3, c))
            rhs = composites.get((left, m1))
            if lhs is None or rhs is None or lhs != rhs:
                diags.append("associativity fails on (%d, %d, %d)" % (m1, m2, m3))
    return (not diags, diags)


def nerve_chains(cat, max_dim):
    """Chains of composable nonidentity morphisms, degree by degree, up to
    the first empty degree; `nerve_counts` counts them with no list.

    Degree 0 lists object ids; degree k lists k-tuples of morphism ids.
    Order is deterministic: chains extend in ascending morphism id.
    """
    degrees = [list(range(cat.n_objects))]
    current = [(m,) for m in cat.nonidentity()]
    k = 1
    while k <= max_dim and current:
        degrees.append(current)
        nxt = []
        for chain in current:
            for m in cat.by_source.get(cat.target(chain[-1]), ()):
                nxt.append(chain + (m,))
        current = nxt
        k += 1
    return degrees


def nerve_counts(cat, max_dim):
    """`[len(d) for d in nerve_chains(cat, max_dim)]` with no chain listed:
    the chains of degree k that end at an object number the sum, over the
    nonidentity morphisms into it, of those of degree k - 1 ending at its
    source."""
    arrows = [m[:2] for m in cat.morphisms[cat.n_objects:]]
    counts = [cat.n_objects]
    ending = [1] * cat.n_objects        # chains of the last degree, by end
    while len(counts) <= max_dim:
        nxt = [0] * cat.n_objects
        for s, t in arrows:
            nxt[t] += ending[s]
        if not any(nxt):
            break
        counts.append(sum(nxt))
        ending = nxt
    return counts


class ChainComplex:
    """Integral chain complex: `counts[k]` chains in degree k, and
    `boundaries[k - 1]` the SparseMatrix of d_k, for k = 1 .. len(counts) - 1."""

    def __init__(self, counts, boundaries):
        self.counts = list(counts)
        self.boundaries = list(boundaries)


def boundary_matrices(chains, cat):
    """Simplicial-style boundary of the nerve: drop or compose morphisms.

    d(m1, ..., mk) alternates over dropping the first morphism, composing
    each inner pair, and dropping the last.  All faces stay nondegenerate
    and pairwise distinct because grades are strictly monotone along
    chains, so each boundary is a SparseMatrix whose columns hold k+1
    entries, all +-1.  Inner pairs are chains of degree 2, composed once.
    """
    index = [{c: i for i, c in enumerate(deg)} for deg in chains]
    composites = {pair: cat.compose(pair[1], pair[0]) for deg in chains[2:3] for pair in deg}
    boundaries = []
    for k in range(1, len(chains)):
        columns = []
        for chain in chains[k]:
            col = {}
            if k == 1:
                m = chain[0]
                col[cat.target(m)] = 1
                col[cat.source(m)] = -1
            else:
                for j in range(k + 1):
                    if j == 0:
                        face = chain[1:]
                    elif j == k:
                        face = chain[:-1]
                    else:
                        comp = composites[chain[j - 1:j + 1]]
                        face = chain[:j - 1] + (comp,) + chain[j + 1:]
                    col[index[k - 1][face]] = 1 if j % 2 == 0 else -1
            columns.append(col)
        boundaries.append(SparseMatrix(len(chains[k - 1]), len(chains[k]), columns))
    return ChainComplex([len(d) for d in chains], boundaries)


def homology(cc):
    """Integral homology of the complex: per degree (betti, torsion list).

    The boundaries beyond either end are zero and have no invariant
    factors, like a boundary with no rows or no columns.
    """
    factors = [[]] + [snf(b) for b in cc.boundaries] + [[]]
    return [(nk - len(out) - len(into), [d for d in into if d > 1])
            for nk, out, into in zip(cc.counts, factors, factors[1:])]


def euler_characteristic(counts):
    """Alternating sum of the counts: sum of (-1)^k counts[k]."""
    return sum((-1) ** k * c for k, c in enumerate(counts))


def verify_dd_zero(cc):
    """True when consecutive boundaries compose to zero, degree by degree.

    Each column of d_{k-1} d_k is formed as a sparse sum of the columns
    of d_{k-1}; the check stops at the first nonzero one.
    """
    for lower, upper in zip(cc.boundaries, cc.boundaries[1:]):
        a = lower.columns
        for col in upper.columns:
            prod = {}
            for r, x in col.items():
                for i, y in a[r].items():
                    prod[i] = prod.get(i, 0) + x * y
            if any(prod.values()):
                return False
    return True
