from collections import Counter
from fractions import Fraction
from itertools import combinations
import json
import math

from hypothesis import Phase, settings
import pytest

from toricarr.arrangement import parse_spec, ArrangementSpec
from toricarr.category import AcyclicCategory
from toricarr.cells import VertexStars
from toricarr.pi1 import build_context

# A failure reports its first falsifying example unshrunk: each example
# of the pipeline tests runs the whole pipeline, and shrinking one failure
# took minutes of tier-1 time.
settings.register_profile("no_shrink", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("no_shrink")

CATALOG = {
    "one_point": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"}]},
    "two_points": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"},
                                                {"chi": [1], "q": "1/2"}]},
    "three_points": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"},
                                                  {"chi": [1], "q": "1/2"},
                                                  {"chi": [1], "q": "1/4"}]},
    "diagonals": {"rank": 2, "hypersurfaces": [{"chi": [1, 1], "q": "0"},
                                          {"chi": [1, -1], "q": "0"}]},
    "grid": {"rank": 2, "hypersurfaces": [{"chi": [1, 0], "q": "0"},
                                          {"chi": [1, 0], "q": "1/2"},
                                          {"chi": [0, 1], "q": "0"},
                                          {"chi": [0, 1], "q": "1/2"}]},
    "coord3": {"rank": 3, "hypersurfaces": [{"chi": [1, 0, 0], "q": "0"},
                                            {"chi": [0, 1, 0], "q": "0"},
                                            {"chi": [0, 0, 1], "q": "0"}]},
}


def catalog_spec(name):
    return parse_spec(json.dumps(CATALOG[name]))


class Pipeline:
    """Lazily built computation stages for one catalog arrangement: the
    vertex stars with their face and Salvetti categories and the pi1
    context read off them."""

    def __init__(self, name, spec=None):
        self.name = name
        self.spec = catalog_spec(name) if spec is None else spec
        self._stars = None
        self._fc = None
        self._zeta = None
        self._ctx = None

    @property
    def stars(self):
        if self._stars is None:
            self._stars = VertexStars(self.spec)
        return self._stars

    @property
    def fc(self):
        if self._fc is None:
            self._fc = self.stars.face_category()
        return self._fc

    @property
    def zeta(self):
        if self._zeta is None:
            self._zeta = self.stars.salvetti_category()
        return self._zeta

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = build_context(self.spec, self.stars, self.fc)
        return self._ctx


# Per rank, a unimodular U and a rational u: `moved_spec` takes x = U y + u
# to new coordinates y.
MOVES = {1: ([[-1]], ["1/3"]),
         2: ([[2, 1], [1, 1]], ["1/3", "1/5"]),
         3: ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], ["1/3", "1/5", "1/7"])}


def moved_spec(spec):
    """The arrangement in the coordinates y, x = U y + u, of MOVES: the
    source <alpha, x> = q becomes <U^T alpha, y> = q - <alpha, u>.  An
    automorphism of the torus composed with a translation, so every
    census, homology group and abelianization is that of `spec`, while the
    vertices, their Hermite forms and their order differ."""
    big_u, u = MOVES[spec.rank]
    pairs = []
    for alpha, q in spec.hypersurfaces:
        new = [_dot(alpha, col) for col in zip(*big_u)]
        pairs.append((new, (q - _dot(alpha, map(Fraction, u))) % 1))
    return ArrangementSpec(spec.rank, pairs)


_cache = {}


def pipeline(name):
    if name not in _cache:
        _cache[name] = Pipeline(name)
    return _cache[name]


@pytest.fixture(scope="session")
def catalog():
    return pipeline


# -- brute-force reference for the vertex stars.  Vertices come from one
# Fraction solve per choice of n lifted hyperplanes meeting the unit cube,
# the faces at a vertex from the sign vectors of the sums of its rays, and
# orbits from Fraction coordinates on n independent characters.  It shares
# no code with `cells` but the spec.

def _sign(x):
    return (x > 0) - (x < 0)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _kernel_dim(rows, n):
    return len(solve_affine(rows, [0] * len(rows), n)[1])


def central_covectors(normals, n):
    """The covectors of the essential central arrangement of `normals` in
    Q^n, as sign vectors.  A ray spans a line where n - 1 of the normals
    vanish.  Every face's cone is spanned by its rays, so the sum of those
    lies inside it, and every sum of rays lies in some face: the sign
    vectors of all sums of subsets of rays are the covectors."""
    rays = set()
    for rows in combinations(normals, n - 1):
        kernel = solve_affine(list(rows), [0] * len(rows), n)[1]
        if len(kernel) == 1:
            den = math.lcm(*(x.denominator for x in kernel[0]))
            y = tuple(int(x * den) for x in kernel[0])
            rays |= {y, tuple(-x for x in y)}
    sums = [(0,) * n]
    for ray in sorted(rays):
        sums += [tuple(a + b for a, b in zip(s, ray)) for s in sums]
    return {tuple(_sign(_dot(a, y)) for a in normals) for y in sums}


def covector_leq(s, t):
    """The face with covector s lies in the closure of the face with t."""
    return all(a == 0 or a == b for a, b in zip(s, t))


class BruteStars:
    """The face orbits, incidence orbits and Salvetti pairs of an
    essential arrangement, by brute force.  `vertices` lists the points of
    [0,1)^n where sources of rank n meet, sorted.  `canonical(*codes)`
    moves the codes by the first one's shift 2A floor(u), u the Fraction
    solution of 2A_S u = code_S on n sources S with independent
    characters."""

    def __init__(self, spec):
        n = self.n = spec.rank
        self._shifts = {}
        self.sources = list(spec.hypersurfaces)
        self.alphas = [alpha for alpha, _ in self.sources]
        planes = []
        for i, (alpha, q) in enumerate(self.sources):
            lo, hi = sum(min(a, 0) for a in alpha), sum(max(a, 0) for a in alpha)
            planes += [(i, q + k) for k in range(math.floor(lo - q), math.ceil(hi - q) + 1)]
        points = set()
        for combo in combinations(planes, n):
            sol = solve_affine([self.alphas[i] for i, _ in combo], [c for _, c in combo])
            if sol is not None and not sol[1] and all(0 <= x < 1 for x in sol[0]):
                points.add(sol[0])
        self.vertices = sorted(points)
        self.basis = next(s for s in combinations(range(len(self.alphas)), n)
                          if not _kernel_dim([self.alphas[i] for i in s], n))
        # per vertex: (code, covector) of each face at it, on its sources
        self.stars = []
        for v in self.vertices:
            vcode = self.code(v)
            through = [i for i, c in enumerate(vcode) if not c & 1]
            faces = []
            for s in central_covectors([self.alphas[i] for i in through], n):
                code = list(vcode)
                for i, x in zip(through, s):
                    code[i] += x
                faces.append((tuple(code), s))
            self.stars.append(faces)

    def code(self, point):
        """Per source, 2k where <alpha, x> - q = k and 2k + 1 where it
        lies strictly between k and k + 1."""
        out = []
        for alpha, q in self.sources:
            t = _dot(alpha, point) - q
            out.append(2 * math.floor(t) + (t != math.floor(t)))
        return tuple(out)

    def shift(self, code):
        got = self._shifts.get(code)
        if got is None:
            u = solve_affine([[2 * a for a in self.alphas[i]] for i in self.basis],
                             [code[i] for i in self.basis])[0]
            got = self._shifts[code] = tuple(2 * _dot(alpha, [math.floor(x) for x in u])
                                             for alpha in self.alphas)
        return got

    def canonical(self, *codes):
        """The codes moved together by the first one's shift."""
        s = self.shift(codes[0])
        return tuple(tuple(c - x for c, x in zip(code, s)) for code in codes)

    def dim(self, code):
        return _kernel_dim([a for a, c in zip(self.alphas, code) if not c & 1], self.n)

    def face_orbits(self):
        return {self.canonical(f)[0] for star in self.stars for f, _ in star}

    def incidences(self):
        """Counter of (upper orbit, lower orbit) over the incidence orbits
        F < G, each pair moved by G's shift."""
        pairs = {self.canonical(g, f) for star in self.stars
                 for f, s in star for g, t in star if s != t and covector_leq(s, t)}
        return Counter((self.canonical(g)[0], self.canonical(f)[0]) for g, f in pairs)

    def salvetti(self):
        """(objects, morphisms): the orbits of the pairs [F, C], C a
        chamber at F, and the Counter of (source, target) over the orbits
        of the morphisms [G, G o C] -> [F, C], F < G."""
        objects, arrows = set(), set()
        for star in self.stars:
            chambers = [(c, s) for c, s in star if 0 not in s]
            by_sign = dict((s, c) for c, s in star)
            for f, s in star:
                for c, sc in chambers:
                    if not covector_leq(s, sc):
                        continue
                    objects.add(self.canonical(f, c))
                    for g, t in star:
                        if s != t and covector_leq(s, t):
                            gc = by_sign[tuple(a or b for a, b in zip(t, sc))]
                            arrows.add(self.canonical(g, gc, f, c))
        return objects, Counter((self.canonical(g, gc), self.canonical(f, c))
                                for g, gc, f, c in arrows)


def central_salvetti(normals, n):
    """The Salvetti poset of the central arrangement of `normals` in Q^n
    as an acyclic category: objects the pairs [F, C], C a chamber at F,
    graded by F's codimension, with [G, G o C] -> [F, C] for F < G."""
    covs = sorted(central_covectors(normals, n))
    rank_of = {s: n - _kernel_dim([a for a, x in zip(normals, s) if x == 0], n)
               for s in covs}
    elements = [(f, c) for f in covs for c in covs if 0 not in c and covector_leq(f, c)]
    index = {e: i for i, e in enumerate(elements)}
    morphs = [(i, i) for i in range(len(elements))]
    strict = {}
    for (g, gc), i in index.items():
        for (f, c), j in index.items():
            if f != g and covector_leq(f, g) and gc == tuple(a or b for a, b in zip(g, c)):
                strict[(i, j)] = len(morphs)
                morphs.append((i, j))
    table = {}
    for (i, j), m1 in strict.items():
        for (j2, k), m2 in strict.items():
            if j2 == j:
                table[(m2, m1)] = strict[(i, k)]
    return AcyclicCategory([rank_of[f] for f, _ in elements], morphs, table)


# -- Fraction Gauss-Jordan elimination: the reference for the integer
# kernels and saturations of `toricarr.exact` and for `BruteStars`

def solve_affine(a_rows, b, ncols=None):
    """Solve A*x = b exactly over the rationals.

    `a_rows` is a list of coefficient rows, `b` the right-hand sides.
    Returns (particular_solution, kernel_basis) as tuples of Fractions,
    or None when the system is inconsistent.  The kernel basis spans the
    homogeneous solutions.  `ncols` is only needed for an empty system.
    """
    rows = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(a_rows, b)]
    if a_rows:
        ncols = len(a_rows[0])
    elif ncols is None:
        raise ValueError("empty system needs an explicit ncols")
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    part = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        part[col] = rows[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][fcol]
        basis.append(tuple(vec))
    return tuple(part), basis
