"""Finite presentation of the fundamental group of the complement.

Generators: one loop t_i per lattice direction and one meridian g_o per
codimension-1 face orbit.  Relators: commutators of the t_i, plus, for
every codimension-2 face orbit, the cyclic relations read off the star
of its canonical face.  Each meridian entering a relation is conjugated
back to the base chamber by an explicit word produced from crossing
sequences of straight legs and minimal positive chamber paths.  Such a
word moves with the lattice, so the crossings of the unit legs from the
base point and each orbit's chamber path, at its canonical face, are
found once and moved by arithmetic.
All of it is read off the vertex stars' face category, with faces as
codes (`cells.code_at` gives a point's), and each crossed wall as the
pair (i, k) read off a face's code: the hyperplane <alpha_i, x> = q_i + k
of its first source with an even entry.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cmp_to_key
import math
from operator import add, sub

from .errors import InternalError
from .exact import SparseMatrix, hermite_basis, integer_kernel, snf
from .cells import chamber_fiber, opposite_chamber, code_at, _dot


# ---------------------------------------------------------------------------
# words over signed generator indices


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_reduce(word):
    word = list(free_reduce(word))
    while len(word) >= 2 and word[0] == -word[-1]:
        word = word[1:-1]
    return tuple(word)


def invert_word(word):
    return tuple(-x for x in reversed(word))


def _substitute(word, gen, repl):
    out = []
    inv = invert_word(repl)
    for x in word:
        if abs(x) == gen:
            out.extend(repl if x > 0 else inv)
        else:
            out.append(x)
    return free_reduce(out)


class GroupPresentation:
    """Named generators and relator words of signed 1-based indices."""

    def __init__(self, names, relators):
        self.names = tuple(names)
        rels = []
        g = len(self.names)
        for r in relators:
            r = free_reduce(r)
            if any(abs(x) < 1 or abs(x) > g for x in r):
                raise InternalError("relator mentions an undeclared generator")
            rels.append(tuple(r))
        self.relators = tuple(rels)

    def __repr__(self):
        return "GroupPresentation(<%d generators | %d relators>)" % (
            len(self.names), len(self.relators))


def abelianize(pres):
    """First homology of the presented group: (betti, torsion factors)."""
    g = len(pres.names)
    columns = []
    for r in pres.relators:
        col = Counter()
        for x in r:
            col[abs(x) - 1] += 1 if x > 0 else -1
        columns.append({i: c for i, c in col.items() if c})
    factors = snf(SparseMatrix(g, len(columns), columns))
    return g - len(factors), [d for d in factors if d > 1]


def simplify_presentation(pres):
    """Tietze simplification: free and cyclic reduction, removal of
    trivial relators, and elimination of generators that some relator
    expresses in terms of the others."""
    relators = [cyclic_reduce(r) for r in pres.relators]
    relators = [r for r in relators if r]
    alive = list(range(1, len(pres.names) + 1))
    removed = set()
    while True:
        relators.sort(key=lambda r: (len(r), r))
        pick = None
        for idx, r in enumerate(relators):
            counts = Counter(abs(x) for x in r)
            for pos, x in enumerate(r):
                if counts[abs(x)] == 1:
                    pick = (idx, pos, x)
                    break
            if pick:
                break
        if pick is None:
            break
        idx, pos, x = pick
        r = relators[idx]
        rot = r[pos:] + r[:pos]
        repl = invert_word(rot[1:]) if rot[0] > 0 else tuple(rot[1:])
        gen = abs(x)
        removed.add(gen)
        nxt = []
        for j, r2 in enumerate(relators):
            if j == idx:
                continue
            r3 = cyclic_reduce(_substitute(r2, gen, repl))
            if r3:
                nxt.append(r3)
        relators = nxt
    survivors = [g for g in alive if g not in removed]
    remap = {g: i + 1 for i, g in enumerate(survivors)}
    names = tuple(pres.names[g - 1] for g in survivors)
    rels = tuple(tuple((1 if x > 0 else -1) * remap[abs(x)] for x in r)
                 for r in relators)
    return GroupPresentation(names, rels)


def quotient_without_meridians(pres, n):
    """Kill every meridian generator; what remains is generated by the n
    lattice loops, which come first."""
    rels = [free_reduce([x for x in r if abs(x) <= n]) for r in pres.relators]
    return GroupPresentation(pres.names[:n], [r for r in rels if r])


# ---------------------------------------------------------------------------
# crossings and paths


class Crossing(namedtuple("Crossing", "orbit shift wall")):
    """One wall crossing of a path: the crossed face as (orbit, shift),
    and its wall (i, k), the hyperplane <alpha_i, x> = q_i + k with i the
    face's first source with an even code entry and k that entry halved.
    Every face of one wall has the same sources with an even entry, those
    whose hyperplanes hold the wall, so the pair names the wall."""

    __slots__ = ()

    def moved(self, u, alphas):
        """The same crossing moved by the integer vector u: the wall's
        level rises by <alpha_i, u>, alphas the characters."""
        i, k = self.wall
        return Crossing(self.orbit, tuple(a + b for a, b in zip(self.shift, u)),
                        (i, k + _dot(alphas[i], u)))


def positive_minimal_path(ctx, c_from, c_to):
    """A directed chamber path crossing each separating wall exactly once,
    as (facet, chamber left behind) pairs of codes: from each chamber, the
    first facet in barycenter order whose wall separates it from the
    target.  Every source through a facet has the facet's wall, so one
    decides: the two chambers' entries lie on opposite sides of the
    facet's."""
    steps = []
    x = c_from
    while x != c_to:
        for f in ctx.facets(x):
            i = next(i for i, e in enumerate(f) if not e & 1)
            if (x[i] - f[i]) * (c_to[i] - f[i]) < 0:
                break
        else:
            raise InternalError("no facet of chamber %s separates it from %s" % (x, c_to))
        steps.append((f, x))
        x = opposite_chamber(x, f)
    return steps


class Pi1Context:
    """Base data for the presentation, read off the vertex stars: base
    point, base chamber, the crossings of its unit legs (`legs`), and
    generator bookkeeping.  Faces are codes; an orbit keeps its face
    category object number, and its canonical face is its translate with
    barycenter in [0,1)^n.  Meridians and codim-2 stars go in (dimension,
    barycenter) order."""

    def __init__(self, spec, stars, fc):
        self.spec = spec
        self.stars = stars
        self.fc = fc
        self.n = spec.rank
        self.x0, legs = _choose_base_point(spec, stars)
        self.c0 = code_at(stars.sources, self.x0)
        # per object: its canonical code and barycenter numerators over den
        self.den, canon = stars.barycenters()
        self.code, self.bary = zip(*(canon[reduced] for (reduced,) in fc.objects))
        order = sorted(range(len(fc.objects)), key=lambda k: (-fc.grades[k], self.bary[k]))
        self.codim1_orbits = [k for k in order if fc.grades[k] == 1]
        self.codim2_orbits = [k for k in order if fc.grades[k] == 2]
        self._gamma_pos = {o: i for i, o in enumerate(self.codim1_orbits)}
        # each chamber orbit's facets, at its reduced code, in barycenter order
        self._facets = {}
        for m in fc.morphisms[len(fc.objects):]:
            if fc.grades[m.src] == 0 and fc.grades[m.tgt] == 1:
                self._facets.setdefault(m.src, []).append(
                    tuple(map(add, fc.objects[m.tgt][0], m.shift)))
        for faces in self._facets.values():
            faces.sort(key=lambda f: self.barycenter(self.key(f)))
        # the crossings of the unit leg x0 -> x0 + e_j, per axis j
        self.legs = [[self.crossing_of_face(f) for f in leg] for leg in legs]
        self._omega_cache = {}
        self._access_cache = {}

    # generator numbering: 1..n are lattice loops, then meridians
    def gamma_gen(self, orbit):
        return self.n + 1 + self._gamma_pos[orbit]

    def generator_names(self):
        return tuple("t%d" % (i + 1) for i in range(self.n)) + \
            tuple("g%d" % (i + 1) for i in range(len(self.codim1_orbits)))

    def tau_word(self, shift):
        word = []
        for i, s in enumerate(shift):
            word.extend([i + 1 if s > 0 else -(i + 1)] * abs(s))
        return word

    def orbit(self, code):
        """(orbit, shift) of a face code: the code is the orbit's reduced
        code moved by the code shift."""
        (reduced,), shift = self.stars.canonical((code,))
        return self.fc.index[(reduced,)], shift

    def key(self, code):
        """(orbit, u) of a face code: the face is the orbit's canonical
        face moved by the integer vector u."""
        k, _ = self.orbit(code)
        return k, self.stars.lattice_vector(tuple(map(sub, code, self.code[k])))

    def barycenter(self, ref):
        """The barycenter numerators, over den, of the face (orbit, u)."""
        orbit, u = ref
        return [x + self.den * s for x, s in zip(self.bary[orbit], u)]

    def facets(self, chamber):
        """The facets of a chamber code, in barycenter order."""
        k, shift = self.orbit(chamber)
        return [tuple(map(add, f, shift)) for f in self._facets[k]]

    def crossing_of_face(self, code):
        """The crossing of a codim-1 face, with its wall read off the code."""
        i = next(i for i, c in enumerate(code) if not c & 1)
        return Crossing(*self.key(code), (i, code[i] // 2))

    def omega(self, u):
        u = tuple(int(x) for x in u)
        if u not in self._omega_cache:
            self._omega_cache[u] = omega_paths(self, u)
        return self._omega_cache[u]

    def access(self, orbit):
        """Crossings of the positive minimal path from the base chamber to
        the fiber chamber at the orbit's canonical face, found once."""
        got = self._access_cache.get(orbit)
        if got is None:
            fib = chamber_fiber(self.c0, self.code[orbit])
            got = self._access_cache[orbit] = [
                self.crossing_of_face(f) for f, _ in positive_minimal_path(self, self.c0, fib)]
        return got


def _primes():
    """2, 3, 5, 7, ... without end: each arrangement rules out finitely
    many of the base points 1/p^(i+1)."""
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _unit_legs(spec, stars, x0):
    """The codes of the faces that the unit leg x0 -> x0 + e_j crosses, in
    order, per axis j, or None when x0 is not generic: when it lies on a
    wall or a leg meets the walls at a point of codimension above 1.  Two
    distinct walls cross a leg at one time exactly when they meet there,
    as a wall that held the whole leg would hold x0; coincident copies of
    one wall give one point."""
    if not all(c & 1 for c in code_at(stars.sources, x0)):
        return None
    legs = []
    for axis in range(len(x0)):
        times = set()
        for alpha, q in spec.hypersurfaces:
            aj = alpha[axis]
            if aj:
                v0 = _dot(alpha, x0)
                lo, hi = sorted((v0, v0 + aj))
                times.update((q + k - v0) / aj
                             for k in range(math.floor(lo - q) + 1, math.ceil(hi - q)))
        leg = [code_at(stars.sources, tuple(x + t * (j == axis) for j, x in enumerate(x0)))
               for t in sorted(times)]
        if any(stars.codim(code) != 1 for code in leg):
            return None
        legs.append(leg)
    return legs


def _choose_base_point(spec, stars):
    """(x0, legs): the first generic base point 1/p^(i+1), p prime, and its
    unit legs (`_unit_legs`)."""
    for p in _primes():
        x0 = tuple(Fraction(1, p ** (i + 1)) for i in range(spec.rank))
        legs = _unit_legs(spec, stars, x0)
        if legs is not None:
            return x0, legs


def omega_paths(ctx, u):
    """Crossing sequence of the broken-segment path from the base point to
    its translate by a nonnegative lattice vector, axis by axis.  The
    arrangement is invariant under Z^n, so the unit step x0 + a -> x0 + a
    + e_j crosses the unit leg's walls moved by a, and no crossing falls
    on a step's end, a translate of the generic x0."""
    u = tuple(int(x) for x in u)
    if any(x < 0 for x in u):
        raise InternalError("omega paths need nonnegative coordinates")
    word = []
    offset = [0] * ctx.n
    for axis, steps in enumerate(u):
        for _ in range(steps):
            word.extend(c.moved(offset, ctx.stars.alphas) for c in ctx.legs[axis])
            offset[axis] += 1
    return word


def sigma(path):
    """Reduce a positive crossing word: the last crossing of each wall, in
    order.  This is the fixed point of dropping, again and again, every
    crossing whose wall has an odd number of later crossings: a wall's
    last crossing has none, and while a wall has two or more crossings,
    the one before its last has exactly one, so each pass drops some of
    them and keeps the last."""
    last = {c.wall: i for i, c in enumerate(path)}
    return [c for i, c in enumerate(path) if last[c.wall] == i]


def delta_word(ctx, ref):
    """Conjugating word of the codim-1 face (orbit, shift), the orbit's
    canonical face moved by a nonnegative shift: the product of the based
    meridians of the surviving crossings of the access path, `omega` to
    the moved base chamber, then the canonical face's `access` path moved
    by the shift, each crossing's orbit shift and wall with it."""
    orbit, shift = ref
    if any(s < 0 for s in shift):
        raise InternalError("expansion faces must have nonnegative shifts")
    mu = [c.moved(shift, ctx.stars.alphas) for c in ctx.access(orbit)]
    word = []
    for g in sigma(list(ctx.omega(shift)) + mu):
        tau = ctx.tau_word(g.shift)
        word.extend(tau)
        word.append(ctx.gamma_gen(g.orbit))
        word.extend(invert_word(tau))
    return free_reduce(word)


def gamma_delta_word(ctx, ref):
    """Based meridian of an arbitrary codim-1 face, as (orbit, shift)."""
    orbit, shift = ref
    delta = delta_word(ctx, ref)
    tau = ctx.tau_word(shift)
    core = list(tau) + [ctx.gamma_gen(orbit)] + list(invert_word(tau))
    return free_reduce(list(invert_word(delta)) + core + list(delta))


def transverse_plane(normals, n):
    """Two rows spanning the plane of the normals through a codim-2 face,
    oriented by the face's flat alone.

    With H the Hermite basis of the normals (`exact.hermite_basis`), F the
    two columns that the Hermite form of their kernel (`integer_kernel`)
    leaves without a pivot, and M = H restricted to F, the rows are
    sign(det M) adj(M) H: |det M| times the identity on F.  A basis of the
    plane is fixed by its entries on F, so any other choice of spanning
    rows gives a positive multiple of these, and the orientation depends
    only on the flat's direction.
    """
    h = hermite_basis(normals)
    pivots = {next(j for j, x in enumerate(row) if x) for row in integer_kernel(normals, n)}
    free = [j for j in range(n) if j not in pivots]
    (a, b), (c, d) = ([row[j] for j in free] for row in h)
    sign = 1 if a * d - b * c > 0 else -1
    return [[sign * (d * x - b * y) for x, y in zip(*h)],
            [sign * (a * y - c * x) for x, y in zip(*h)]]


def h_of_G(ctx, orbit):
    """The codim-1 faces around the canonical face G of a codim-2 orbit,
    as (orbit, shift) refs in cyclic angular order.

    G's cofaces are those of its orbit's representative in the vertex
    stars, moved to G.  Starts at the first face counterclockwise from the
    plane's first axis; each half meets each wall once, on opposite sides.
    Angles are read from G's barycenter to each coface's, in the plane of
    the normals through G, in the coordinates of `transverse_plane`'s
    rows: they are a positive multiple of the identity on the columns
    where the Hermite form of the flat's direction has no pivot, which
    fixes the plane's orientation and so the sense of the cycle (a lattice
    basis of the same plane, such as the normals' Hermite basis, can
    reverse it).
    """
    if ctx.fc.grades[orbit] != 2:
        raise InternalError("expected a face orbit of codimension 2")
    g = ctx.code[orbit]
    rep, cofaces = ctx.stars.star[ctx.fc.objects[orbit][0]]
    crossings = [ctx.crossing_of_face(tuple(map(add, map(sub, c, rep), g)))
                 for c in cofaces if ctx.stars.codim(c) == 1]
    proj = transverse_plane([a for a, c in zip(ctx.stars.alphas, g) if not c & 1], ctx.n)
    # barycenter numerators share one positive denominator, which scales
    # every vector and so keeps the half-plane and cross-product signs
    at = ctx.bary[orbit]
    vecs = []
    for x in crossings:
        v = [b - a for a, b in zip(at, ctx.barycenter((x.orbit, x.shift)))]
        w = (_dot(proj[0], v), _dot(proj[1], v))
        if w == (0, 0):
            raise InternalError("adjacent face projects onto the flat")
        vecs.append(w)

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    def cmp(a, b):
        wa, wb = vecs[a], vecs[b]
        ha, hb = half(wa), half(wb)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = wa[0] * wb[1] - wa[1] * wb[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        raise InternalError("two adjacent faces share a direction")

    ordered = [crossings[i] for i in sorted(range(len(crossings)), key=cmp_to_key(cmp))]
    if len(ordered) % 2 != 0:
        raise InternalError("odd number of faces around a codim-2 face")
    k = len(ordered) // 2
    for i in range(k):
        if ordered[i].wall != ordered[i + k].wall:
            raise InternalError("opposite faces lie on different walls")
    return [(x.orbit, x.shift) for x in ordered]


def relations_for_G(ctx, orbit):
    """Relators of one codim-2 orbit: all consecutive equalities of the
    cyclic window products of the based meridians around its canonical
    face G, each of the 2k windows of k meridians formed once.  The
    cofaces of G go in `h_of_G`'s order, from the smallest barycenter.
    Every shift then rises by s = max(0, -min entry): the star of
    G + (s, ..., s), whose shifts are nonnegative, as `delta_word`
    needs."""
    refs = h_of_G(ctx, orbit)
    start = refs.index(min(refs, key=ctx.barycenter))
    s = max(0, -min(x for _, u in refs for x in u))
    refs = [(o, tuple(x + s for x in u)) for o, u in refs[start:] + refs[:start]]
    words = [gamma_delta_word(ctx, ref) for ref in refs]
    two_k = len(words)
    windows = [[x for i in range(two_k // 2) for x in words[(j + i) % two_k]]
               for j in range(two_k)]
    relators = (free_reduce(w1 + list(invert_word(w2))) for w1, w2 in zip(windows, windows[1:]))
    return [rel for rel in relators if rel]


def build_context(spec, stars, fc):
    return Pi1Context(spec, stars, fc)


def presentation_from_context(ctx):
    n = ctx.n
    names = ctx.generator_names()
    relators = []
    for i in range(n):
        for j in range(i + 1, n):
            relators.append((i + 1, j + 1, -(i + 1), -(j + 1)))
    for orbit in ctx.codim2_orbits:
        relators.extend(relations_for_G(ctx, orbit))
    return GroupPresentation(names, relators)
