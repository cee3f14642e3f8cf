"""Faces of the periodic arrangement from vertex stars, the face and
Salvetti categories of the torus, and its layers.

A face is named by its integer code (`code_of_point`), one entry per
source (alpha_i, q_i): 2k where <alpha_i, x> = q_i + k on the face, 2k + 1
where it lies strictly between q_i + k and q_i + k + 1.  A code names
exactly one face, translation by u adds 2 <alpha_i, u> to entry i, and F
lies in the closure of G exactly when each entry of F equals G's where
G's is even and lies within 1 of it where G's is odd (`code_leq`).

`VertexStars` builds the torus's categories with no window.  Every face
has a vertex in its closure, so the faces at one vertex per vertex orbit
meet every face orbit; the vertices come from the Hermite forms of the
source matrices (`torus_vertices`), and the faces at a vertex v are the
covectors of the central arrangement through v, written as codes.  Codes
are made canonical modulo the lattice 2A Z^n, A the matrix of the
characters.  `PeriodicCategory` is the quotient by the translation
lattice: objects are orbits keyed by a canonical translate, a morphism
is (source, target, shift), and composites add shifts.

`layers` reads the stars' flats and their inclusions at each vertex, and
its layer poset gives `check` two references read off the layers alone,
not the categories: the Poincare polynomial of the complement and the
toric Zaslavsky face count.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
import math
from operator import add, mul, sub

from .errors import SpecError, InternalError
from .exact import (hermite_basis, hnf, integer_kernel, rank, reduce_mod_lattice,
                    saturation_basis)
from .category import AcyclicCategory

Q = Fraction


def _dot(a, b):
    return sum(map(mul, a, b))


def _times(x, den):
    """The rational x times den, as an int; den is a multiple of x's
    denominator."""
    return x.numerator * (den // x.denominator)


def code_of_point(sources, num, den):
    """The code of the point x = num / den, den > 0: per source (alpha, p,
    q) with angle p / q, 2k when <alpha, x> = p / q + k and 2k + 1 when it
    lies strictly between p / q + k and p / q + k + 1."""
    code = []
    for alpha, p, q in sources:
        k, r = divmod(_dot(alpha, num) * q - p * den, q * den)
        code.append(2 * k + (r != 0))
    return tuple(code)


def code_at(sources, point):
    """The code of an exact point, a tuple of Fractions (`code_of_point`)."""
    den = math.lcm(*(x.denominator for x in point))
    return code_of_point(sources, [_times(x, den) for x in point], den)


def code_leq(f, g):
    """True when the face with code f lies in the closure of the face with
    code g: on each source, f's entry is g's where g's is even (g lies on
    that hyperplane) and within 1 of it where g's is odd (the closed
    strip around g)."""
    return all(a == b if not b & 1 else -1 <= a - b <= 1 for a, b in zip(f, g))


# ---------------------------------------------------------------------------
# quotient by the translation lattice


Morphism = namedtuple("Morphism", "src tgt shift")


class PeriodicCategory(AcyclicCategory):
    """Quotient of the periodic faces by the translation lattice.

    An element is a tuple of face codes; its first face grades it.
    `objects` lists one canonical element per orbit and `grades` their
    grades, 0..dim.  `lowers` maps an object to the (object, shift) pairs
    it maps to: the element objects[object] moved by the code shift, and
    grades strictly rise along it.  A morphism orbit is the triple
    (source, target, shift) on its canonical source, so distinct
    translates of one orbit below the same element give parallel
    morphisms; `by_rep` numbers the triples.  Moving m2 along m1's shift
    composes it after m1, so the composite is (m1.src, m2.tgt, m1.shift +
    m2.shift).  The first `len(objects)` morphisms are the identities, as
    `AcyclicCategory` reads them.
    """

    def __init__(self, dim, objects, grades, lowers):
        self.dim = dim
        self.objects = objects
        self.index = {e: k for k, e in enumerate(objects)}
        morphisms = [Morphism(k, k, (0,) * len(e[0])) for k, e in enumerate(objects)]
        for k, e in enumerate(objects):
            morphisms.extend(Morphism(k, tgt, shift) for tgt, shift in lowers.get(e, ()))
        self.by_rep = {m: mid for mid, m in enumerate(morphisms)}
        super().__init__(grades, morphisms, {})
        for mid1 in self.nonidentity():
            m1 = morphisms[mid1]
            for mid2 in self.by_source.get(m1.tgt, ()):
                m2 = morphisms[mid2]
                comp = self.by_rep.get((m1.src, m2.tgt, tuple(map(add, m1.shift, m2.shift))))
                if comp is None:
                    raise InternalError("composition fell outside the star")
                self.table[(mid2, mid1)] = comp

    def census(self):
        """Object counts by grade 0..n."""
        counts = [0] * (self.dim + 1)
        for g in self.grades:
            counts[g] += 1
        return counts

    def morphism_multiplicities(self):
        counts = {}
        for m in self.morphisms[len(self.objects):]:
            counts[(m.src, m.tgt)] = counts.get((m.src, m.tgt), 0) + 1
        return counts


class FaceCategory(PeriodicCategory):
    """Face category of the torus: one object per face orbit, mapping to
    the orbits of its boundary faces."""

    def census(self):
        """Orbit counts by face dimension 0..n."""
        return super().census()[::-1]

    def is_thick(self):
        """A face category is thick when it is a poset: no parallel
        morphisms."""
        return all(c <= 1 for c in self.morphism_multiplicities().values())


# ---------------------------------------------------------------------------
# the categories from vertex stars


def torus_vertices(sources, n):
    """(D, coords): the vertices of the arrangement, one per vertex orbit,
    each the orbit's translate in [0,1)^n, as integer numerators over one
    denominator D, sorted.

    A vertex lies on n sources S whose normals, the rows of A_S, have
    rank n, and those meet where A_S x = q_S + k for some k in Z^n.  With
    U A_S = H, U unimodular and H the Hermite form (`exact.hnf`), that is
    H x = U q_S + k, and two k give the same x modulo Z^n exactly when
    they differ by an element of H Z^n.  H is upper triangular with
    positive pivots, so k_j in [0, H_jj) lists one k per coset of
    Z^n / H Z^n = U (Z^n / A_S Z^n): |det A_S| points, each found by
    back-substitution from the last coordinate.  Sources are grouped by
    normal, with one Hermite form per n-tuple of distinct normals and one
    sweep per choice of their angles.  With s clearing the angles'
    denominators and P the product of the pivots, the numerators over
    s P are integers at every step.
    """
    angles = {}
    for alpha, p, q in sources:
        angles.setdefault(alpha, []).append(Q(p, q))
    scale = math.lcm(*(a.denominator for qs in angles.values() for a in qs))
    found = []          # (den, numerators over den)
    for rows in combinations(sorted(angles), n):
        h, u = hnf(rows)
        if not any(h[-1]):
            continue    # rank below n: no vertex
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        den = scale * math.prod(row[j] for row, j in zip(h, pivots))
        for qs in product(*(angles[a] for a in rows)):
            rhs = [_dot(row, [_times(q, scale) for q in qs]) for row in u]
            for k in product(*(range(row[j]) for row, j in zip(h, pivots))):
                x = [0] * n
                for i in reversed(range(len(h))):
                    row, j = h[i], pivots[i]
                    x[j] = ((rhs[i] + k[i] * scale) * (den // scale) - _dot(row, x)) // row[j]
                found.append((den, [v % den for v in x]))
    if not found:
        raise SpecError("the characters must span the ambient space")
    common = math.lcm(*{den for den, _ in found})
    return common, sorted({tuple(v * (common // den) for v in x) for den, x in found})


class VertexStars:
    """The faces at one vertex per vertex orbit, as codes.

    The vertices are the points of [0,1)^n where sources whose normals
    have rank n meet (`torus_vertices`): each vertex orbit has exactly
    one translate there.

    Near a vertex v, a point v + y has v's code plus sign <alpha_i, y> on
    each source i through v, so the faces at v are v's code plus the
    covectors of the central arrangement of those normals.  In an
    essential central arrangement every covector is a composition of
    cocircuits, the sign vectors of the lines where n - 1 independent
    normals vanish (Bjoerner et al., Oriented Matroids, ch. 3 and 4), and
    any order of the cocircuits below a covector composes to it, so one
    pass that composes each covector found so far with the next cocircuit
    finds them all.  Every face has a vertex in its closure, and its
    cofaces all lie in that vertex's star: the first face met with each
    canonical code represents its orbit, and `star` lists its cofaces.

    A face orbit is a code modulo 2A Z^n, A the matrix of the characters;
    `canonical` reduces by the lattice's Hermite basis.  Shifts are code
    differences in that lattice, and `lattice_vector` turns one into the
    translation that makes it.  `vertices` lists each vertex as its
    numerators over `scale` with the codes of the faces at it.  The
    arrangement must be essential.
    """

    def __init__(self, spec):
        n = self.dim = spec.rank
        alphas = self.alphas = [alpha for alpha, _ in spec.hypersurfaces]
        # H = U G, G the rows 2A e_j spanning the lattice; all n rows of H
        # are nonzero, A having rank n
        self._basis, self._unimodular = hnf([[2 * a[j] for a in alphas] for j in range(n)])
        self._ranks = {}
        self._shifts = {}       # code -> its difference from its reduced code
        # (alpha, p, q) per source, its angle p / q, as `code_of_point` reads it
        self.sources = [(alpha, q.numerator, q.denominator)
                        for alpha, q in spec.hypersurfaces]
        self.scale, coords = torus_vertices(self.sources, n)
        lines = {}
        self.vertices = []
        self.star = {}          # canonical code -> (representative, its strict cofaces)
        for num in coords:
            vcode = code_of_point(self.sources, num, self.scale)
            through = [i for i, c in enumerate(vcode) if not c & 1]
            rays = set()
            for rows in combinations(sorted({alphas[i] for i in through}), n - 1):
                if rows not in lines:
                    kernel = integer_kernel(rows, n)
                    lines[rows] = kernel[0] if len(kernel) == 1 else None
                y = lines[rows]
                if y is not None:
                    values = [_dot(alphas[i], y) for i in through]
                    rays.add(tuple((x > 0) - (x < 0) for x in values))
                    rays.add(tuple((x < 0) - (x > 0) for x in values))
            covectors = {(0,) * len(through)}
            for ray in sorted(rays):
                covectors |= {tuple(a or b for a, b in zip(x, ray)) for x in covectors}
            faces = []
            for x in sorted(covectors):
                code = list(vcode)
                for i, s in zip(through, x):
                    code[i] += s
                faces.append(tuple(code))
            self.vertices.append((num, faces))
            for f in faces:
                key = self.canonical((f,))[0][0]
                if key not in self.star:
                    self.star[key] = (f, [g for g in faces if g != f and code_leq(f, g)])

    def codim(self, code):
        """The codimension of the face with this code: the rank of the
        normals of the sources with an even entry."""
        evens = frozenset(a for a, c in zip(self.alphas, code) if not c & 1)
        got = self._ranks.get(evens)
        if got is None:
            got = self._ranks[evens] = rank(list(evens)) if evens else 0
        return got

    def canonical(self, element):
        """(canonical translate, shift) of a tuple of codes: the translate
        whose first code is reduced modulo 2A Z^n, and the code difference
        the element lies from it."""
        shift = self._shifts.get(element[0])
        if shift is None:
            shift = self._shifts[element[0]] = tuple(
                map(sub, element[0], reduce_mod_lattice(element[0], self._basis)[0]))
        return tuple([tuple(map(sub, code, shift)) for code in element]), shift

    def lattice_vector(self, shift):
        """The u in Z^n whose translation adds `shift`, a code difference
        in 2A Z^n: the shift's coefficients t on the Hermite basis H = U G
        give shift = t U G = 2A (t U)."""
        rest, t = reduce_mod_lattice(shift, self._basis)
        if any(rest):
            raise InternalError("code difference outside the lattice 2A Z^n")
        return tuple(_dot(t, col) for col in zip(*self._unimodular))

    def barycenters(self):
        """(den, canon): per orbit, keyed by its reduced code, the code of
        its translate with barycenter in [0,1)^n and that barycenter as
        numerators over den.  The barycenter is the mean of the closure's
        vertices: each is a translate v + u of one vertex v, and the face
        moved by -u lies in v's star, so it is met once, at v."""
        sums = {}
        for num, faces in self.vertices:
            for f in faces:
                (key,), shift = self.canonical((f,))
                u = self.lattice_vector(shift)
                total, count = sums.get(key, (self.dim * (0,), 0))
                sums[key] = ([x + y - self.scale * s for x, y, s in zip(total, num, u)],
                             count + 1)
        common = math.lcm(*(count for _, count in sums.values()))
        den = self.scale * common
        canon = {}
        for key, (total, count) in sums.items():
            num = [x * (common // count) for x in total]
            u = [x // den for x in num]
            canon[key] = (tuple(c - 2 * _dot(a, u) for c, a in zip(key, self.alphas)),
                          tuple(x - den * s for x, s in zip(num, u)))
        return den, canon

    def face_category(self):
        """The face category: one object per face orbit, mapping to the
        orbits of its boundary faces."""
        return FaceCategory(self.dim, *self._quotient(False))

    def salvetti_category(self):
        """The toric Salvetti category: objects are orbits of pairs [F, C],
        C a chamber at F, graded by F's codimension.  [G, C'] maps to
        [F, C] when F < G and C' is the composite G o C, which keeps G's
        odd entries and takes C's where G's are even."""
        return PeriodicCategory(self.dim, *self._quotient(True))

    def _quotient(self, salvetti):
        """(objects, grades, lowers) of a `PeriodicCategory` on the elements
        (F,) + c: c is () for faces and (C,), C a chamber at F, for
        Salvetti pairs.  Each morphism orbit is met once, at F's
        representative, below G's element (G,) + G o c; moving it to that
        element's canonical translate, G's shift s_G, leaves F's orbit
        moved by s_F - s_G, s_F the shift of F's representative from its
        reduced code."""
        objects, lowers = [], {}
        for f, cofaces in self.star.values():
            # a chamber has no strict cofaces
            chambers = [(g,) for g in [f] + cofaces if self.codim(g) == 0] if salvetti else [()]
            for c in chambers:
                obj, s_f = self.canonical((f,) + c)
                for g in cofaces:
                    upper = (g,) + tuple(tuple(a if a & 1 else b for a, b in zip(g, x))
                                         for x in c)
                    e, s_g = self.canonical(upper)
                    lowers.setdefault(e, []).append((len(objects), tuple(map(sub, s_f, s_g))))
                objects.append(obj)
        return objects, [self.codim(e[0]) for e in objects], lowers


# ---------------------------------------------------------------------------
# layers


Layer = namedtuple("Layer", "index dim")


class LayerPoset:
    """The layers, ordered by dimension with the torus first, and the
    strict inclusions among them."""

    def __init__(self, layers, relations):
        self.layers = layers
        self.relations = relations      # (lower index, upper index) strict
        self._inside = {}               # upper index -> lower indices
        for lower, upper in relations:
            self._inside.setdefault(upper, set()).add(lower)

    def census(self):
        counts = {}
        for l in self.layers:
            counts[l.dim] = counts.get(l.dim, 0) + 1
        return counts

    def moebius(self, top):
        """mu(top, X) for top and every layer X inside it, the layers
        ordered by reverse inclusion: mu(top, top) = 1, and mu(top, X) is
        minus the sum of mu(top, Z) over the layers Z != X with X inside
        Z inside top, all of larger dimension than X."""
        mu = {top: 1}
        for x in sorted(self._inside.get(top, ()), key=lambda i: -self.layers[i].dim):
            mu[x] = -sum(m for z, m in mu.items() if x in self._inside.get(z, ()))
        return mu

    def poincare_betti(self):
        """Betti numbers of the complement in degrees 0..n: the
        coefficients of the Poincare polynomial, the sum over the layers X
        of |mu(T, X)| t^codim X (1 + t)^dim X, T the torus (De Concini and
        Procesi, Topics in Hyperplane Arrangements, Polytopes and
        Box-Splines, ch. 14)."""
        n = self.layers[0].dim
        betti = [0] * (n + 1)
        for x, m in self.moebius(0).items():
            d = self.layers[x].dim
            for i in range(d + 1):
                betti[n - d + i] += abs(m) * math.comb(d, i)
        return betti

    def face_census(self):
        """Face orbits by dimension 0..n, by the toric Zaslavsky count: a
        k-dimensional layer Y is cut into the sum over the points X in Y
        of |mu(Y, X)| open cells, as the restriction of an essential
        arrangement to Y is essential."""
        census = [0] * (self.layers[0].dim + 1)
        for y in self.layers:
            census[y.dim] += sum(abs(m) for x, m in self.moebius(y.index).items()
                                 if self.layers[x].dim == 0)
        return census


def layers(stars):
    """Connected components of hypersurface intersections on the torus.

    Every flat holds a vertex, so a translate of it is the span of a face
    at a vertex v of the stars: the flat through v of the sources with an
    even entry.  A layer is keyed by the saturated lattice of the flat's
    normals (`exact.saturation_basis`) and their values on the flat,
    reduced modulo the image of the translation lattice.

    At v, two flats nest exactly when their source sets do, the larger
    set giving the smaller flat.  Every inclusion X < Y of layers shows
    at a vertex of X: a lift of X through a vertex of the stars lies in a
    translate of Y's lift, which passes through that vertex too.  So the
    strict inclusions are read off the proper subsets among the source
    sets at each vertex."""
    n = stars.dim
    dims = {}           # layer key -> dimension
    lattices = {}       # sources -> (saturated normals, image of the lattice)
    at_vertex = []      # per vertex: {sources through a face: layer key}
    for num, faces in stars.vertices:
        keys = {}
        for f in faces:
            sources = frozenset(i for i, c in enumerate(f) if not c & 1)
            if sources in keys:
                continue
            if sources not in lattices:
                rows = saturation_basis([stars.alphas[i] for i in sorted(sources)], n)
                # the translation lattice acts on the values through the columns
                lattices[sources] = rows, hermite_basis([list(c) for c in zip(*rows)])
            rows, image = lattices[sources]
            # Fraction values: layers are ordered by the key's printed form
            b = [Q(_dot(row, num), stars.scale) for row in rows]
            key = keys[sources] = (tuple(map(tuple, rows)), reduce_mod_lattice(b, image)[0])
            dims[key] = n - len(rows)
        at_vertex.append(keys)
    ordered = sorted(dims, key=lambda key: (-dims[key], str(key)))
    index = {key: i for i, key in enumerate(ordered)}
    relations = {(index[lower], index[upper]) for keys in at_vertex
                 for s1, lower in keys.items() for s2, upper in keys.items() if s2 < s1}
    return LayerPoset([Layer(i, dims[key]) for i, key in enumerate(ordered)],
                      sorted(relations))


# ---------------------------------------------------------------------------
# local chamber operations on codes


def opposite_chamber(c, f):
    """The code of the chamber opposite the chamber c across its face f:
    c_i goes to 2 f_i - c_i wherever f_i is even, that is on the sources
    with a hyperplane through the face."""
    if not all(x & 1 for x in c):
        raise InternalError("opposite_chamber needs a chamber")
    if not code_leq(f, c):
        raise InternalError("face %s is not a face of chamber %s" % (f, c))
    return tuple(x if y & 1 else 2 * y - x for x, y in zip(c, f))


def chamber_fiber(c, f):
    """The code of the unique chamber of the localization fiber of the
    chamber c whose closure contains the face f: keep signs through the
    face's span, take the face's signs elsewhere.  An even face entry f_i
    becomes f_i + 1 or f_i - 1, toward c_i, and an odd one stays."""
    return tuple(y if y & 1 else (y + 1 if x > y else y - 1) for x, y in zip(c, f))
