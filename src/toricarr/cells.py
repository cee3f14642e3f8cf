"""Faces of the periodic arrangement, from vertex stars and from the
windowed lift, and the face and Salvetti categories of the torus.

A face is named by its integer code (`code_of_point`), one entry per
source (alpha_i, q_i): 2k where <alpha_i, x> = q_i + k on the face, 2k + 1
where it lies strictly between q_i + k and q_i + k + 1.  A code names
exactly one face, translation by u adds 2 <alpha_i, u> to entry i, and F
lies in the closure of G exactly when each entry of F equals G's where
G's is even and lies within 1 of it where G's is odd (`code_leq`).

`VertexStars` builds the torus's categories with no window.  Every face
has a vertex in its closure, so the faces at one vertex per vertex orbit
meet every face orbit; the faces at a vertex v are the covectors of the
central arrangement through v, written as codes.  Codes are made
canonical modulo the lattice 2A Z^n, A the matrix of the characters,
and `face_category` and `salvetti_category` move codes to compose.
Every command reads only these; `layers` reads the stars' flats.

The windowed lift (`enumerate_faces`) stays as `check`'s independent
reference.  Its faces are the sign classes of the finite hyperplane list
inside the window box, stored with their signs, as the bit masks of the
hyperplanes on their + and - sides, their barycenter (vertex average of
the clipped closure) and their code.  Faces whose closure is entirely
inside the closed box are honest faces of the periodic arrangement; the
rest are flagged `boundary_cut` and never serve as orbit
representatives.  The masks decide incidence, the code names the face:
a lattice move is code arithmetic and one dictionary lookup.

`PeriodicCategory` quotients either space by the translation lattice:
objects are orbits keyed by a canonical translate, morphisms are orbits
of incidences.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, product
import math
from operator import add, mul, sub

from .errors import SpecError, WindowError, InternalError
from .exact import adjugate, rank, integer_kernel, hnf
from .category import AcyclicCategory
from .arrangement import Window, lift_to_window

Q = Fraction


def _dot(a, b):
    return sum(map(mul, a, b))


def _times(x, den):
    """The rational x times den, as an int; den is a multiple of x's
    denominator."""
    return x.numerator * (den // x.denominator)


class AffineFace:
    """One cell of the windowed decomposition.  `signs` is (plus, minus),
    the masks of the hyperplanes with the face on their + and - sides.
    The barycenter is stored as integer numerators `num` over `den`, one
    positive denominator for the whole lift.  `cell` is its integer floor:
    the face lies in the orbit's canonical position when it is zero."""

    __slots__ = ("id", "signs", "dim", "num", "den", "cell", "boundary_cut",
                 "vertex_ids")

    def __init__(self, fid, signs, dim, num, den, cell, boundary_cut, vertex_ids):
        self.id = fid
        self.signs = signs
        self.dim = dim
        self.num = num
        self.den = den
        self.cell = cell
        self.boundary_cut = boundary_cut
        self.vertex_ids = vertex_ids

    @property
    def barycenter(self):
        """The barycenter as a tuple of Fractions."""
        return tuple(Q(x, self.den) for x in self.num)

    def __repr__(self):
        return "AffineFace(id=%d, dim=%d, bary=%s%s)" % (
            self.id, self.dim, tuple(map(str, self.barycenter)),
            ", cut" if self.boundary_cut else "")


class LiftedFacePoset:
    """All faces of the windowed lift with their incidence structure."""

    def __init__(self, hyperplanes, window, den, faces, flats, uppers):
        self.hyperplanes = hyperplanes
        self.window = window
        self.den = den                  # the faces' barycenter denominator
        self.faces = faces
        # (zero frozenset, integer direction rows), as built by
        # `enumerate_faces`
        self.flats = flats
        self.uppers = uppers            # fid -> sorted tuple of fids (strict)
        self.lowers = {f.id: [] for f in faces}
        for fid, ups in uppers.items():
            for g in ups:
                self.lowers[g].append(fid)
        for fid in self.lowers:
            self.lowers[fid] = tuple(sorted(self.lowers[fid]))
        # (alpha, p, q) per source, its angle p / q; a clipped barycenter
        # lies inside its face, so it gives the face's code
        sources = {}
        for h in hyperplanes:
            angle = h.c - h.shift
            sources.setdefault(h.source, (h.alpha, angle.numerator, angle.denominator))
        self.sources = tuple(sources.values())
        self._steps = {}                # u -> 2 <alpha_i, u> per source
        self.zero = (0,) * window.dim
        self.codes = [code_of_point(self.sources, f.num, den) for f in faces]
        self.by_code = {code: fid for fid, code in enumerate(self.codes)}
        if len(self.by_code) != len(faces):
            raise InternalError("two faces share a code")
        self._all = (1 << len(hyperplanes)) - 1
        self._box = [(_times(a, den), _times(b, den)) for a, b in zip(window.lo, window.hi)]

    @property
    def dim(self):
        return self.window.dim

    def zero_mask(self, fid):
        """The mask of the hyperplanes through the face, those of its flat."""
        plus, minus = self.faces[fid].signs
        return self._all ^ (plus | minus)

    def translate(self, fid, u):
        """The face fid + u for an integer vector u.

        Moving a point by u adds <alpha_i, u> to its value on source i, so
        fid + u has the code of fid plus 2 <alpha_i, u> at entry i.  A code
        names one face of the periodic arrangement, and that face meets the
        box exactly when the window has a face with that code; that face is
        fid + u.  A miss raises `WindowError`.
        """
        step = self._steps.get(u)
        if step is None:
            step = self._steps[u] = [2 * _dot(alpha, u) for alpha, _, _ in self.sources]
        got = self.by_code.get(tuple(map(add, self.codes[fid], step)))
        if got is None:
            raise WindowError("face %d moved by %s leaves the window" % (fid, u))
        return got

    def codim(self, fid):
        return self.dim - self.faces[fid].dim

    def canonical(self, element):
        """Split a lifted element, a tuple of face ids, as (translate, u):
        the translate's first face has its barycenter in [0,1)^n, its
        `cell` is zero, and the element is the translate moved by u."""
        first = self.faces[element[0]]
        u = first.cell
        back = tuple(-s for s in u)
        moved = self.move(element, back)
        if self.faces[moved[0]].num != tuple(x - self.den * s for x, s in zip(first.num, u)):
            raise InternalError("orbit representative mismatch for %s" % (element,))
        return moved, u

    def move(self, element, u):
        return tuple([self.translate(f, u) for f in element])

    def in_open_box(self, fid):
        """The face's barycenter lies inside the open window box."""
        return all(lo < x < hi for x, (lo, hi) in zip(self.faces[fid].num, self._box))

    def chambers_above(self, fid):
        n = self.dim
        if self.faces[fid].dim == n:
            return (fid,)
        return tuple(g for g in self.uppers[fid] if self.faces[g].dim == n)


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


def _mask(flags):
    """The int whose bit i is set when flags[i] is true."""
    return int("".join(["01"[f] for f in reversed(flags)]), 2)


class SignTable:
    """The hyperplanes' signs over a fixed list of points, as bit masks.

    `scale` is one positive integer D that clears the denominators of the
    points and of the hyperplane constants: `coords[i]` = D * points[i]
    and `consts[h]` = D * c_h are integers.  Bit i of `pos[h]`, `neg[h]`
    and `zero[h]` is set when points[i] lies on the + side of h, on its
    - side, or on h.
    """

    def __init__(self, hyperplanes, scale, coords):
        index = {}
        self.normal_of = [index.setdefault(h.alpha, len(index)) for h in hyperplanes]
        self.normals = list(index)
        self.scale = scale
        self.consts = [_times(h.c, scale) for h in hyperplanes]
        self.coords = coords
        dots = [[_dot(a, p) for p in coords] for a in self.normals]
        self.pos, self.neg, self.zero, self._planes = [], [], [], []
        for h, (k, c) in enumerate(zip(self.normal_of, self.consts)):
            self.pos.append(_mask([v > c for v in dots[k]]))
            self.neg.append(_mask([v < c for v in dots[k]]))
            self.zero.append(_mask([v == c for v in dots[k]]))
            self._planes.append((1 << h, k, c))

    def signs(self, num, den):
        """The masks (plus, minus) of the hyperplanes that have the point
        num / (D den) on their + side and on their - side."""
        dots = [_dot(a, num) for a in self.normals]
        plus = minus = 0
        for bit, k, c in self._planes:
            v = dots[k] - c * den
            if v > 0:
                plus |= bit
            elif v < 0:
                minus |= bit
        return plus, minus


def candidate_vertices(hyperplanes, window):
    """(D, coords): every point of the closed box cut out by n independent
    planes among the hyperplanes and the box walls, as integer numerators
    over one denominator D, sorted.

    The planes are grouped by integer normal.  Each n-tuple A of distinct
    normals gets one determinant and one adjugate, and a singular tuple is
    skipped once.  With every constant scaled by one integer s, a choice c
    of one constant per normal gives the point adj(A) (s c) / (s det A):
    the numerators and the box test are integer arithmetic.  D is s times
    the lcm of the determinants that give a point, so D also clears every
    hyperplane constant.
    """
    n = window.dim
    consts = {}
    for h in hyperplanes:
        consts.setdefault(h.alpha, set()).add(h.c)
    for j in range(n):
        wall = tuple(int(i == j) for i in range(n))
        consts.setdefault(wall, set()).update((window.lo[j], window.hi[j]))
    scale = math.lcm(*(c.denominator for cs in consts.values() for c in cs))
    lo = [_times(x, scale) for x in window.lo]
    hi = [_times(x, scale) for x in window.hi]
    found = []      # (det, numerators over scale * det)
    for rows in combinations(consts, n):
        det, adj = adjugate(rows)
        if det == 0:
            continue
        if det < 0:
            det, adj = -det, [[-x for x in row] for row in adj]
        lo_d = [x * det for x in lo]
        hi_d = [x * det for x in hi]
        # each constant contributes its scaled value times its column of adj
        shares = [[tuple(_times(c, scale) * row[i] for row in adj) for c in consts[a]]
                  for i, a in enumerate(rows)]
        for choice in product(*shares):
            num = [sum(xs) for xs in zip(*choice)]
            if all(a <= x <= b for a, x, b in zip(lo_d, num, hi_d)):
                found.append((det, num))
    dets = math.lcm(*{det for det, _ in found})
    return scale * dets, sorted({tuple(x * (dets // det) for x in num)
                                 for det, num in found})


def _direction(rows, normals, n):
    """(kernel, parallel): the direction of the flats cut out by
    hyperplanes with the integer normals `rows`.

    With A the matrix of those rows and H its Hermite form (`exact.hnf`),
    the nonzero rows of H are invertible on the pivot columns P, with a
    determinant det > 0, as H_P is upper triangular with positive pivots.
    The reduced row echelon form of A is adj(H_P) H / det, so det times
    its kernel basis is integral: `kernel` has, for each free column f in
    ascending order, the row that is det at f and -adj(H_P) H_f on P.  It
    depends only on the span of A, up to the positive factor det.
    `parallel[k]` is True when normals[k] lies in the span of A.
    """
    h = [row for row in hnf(rows)[0] if any(row)]
    cols = [next(j for j, x in enumerate(row) if x) for row in h]
    det, adj = adjugate([[row[j] for j in cols] for row in h])
    kernel = []
    for f in range(n):
        if f in cols:
            continue
        v = [0] * n
        v[f] = det
        at_f = [row[f] for row in h]
        for row, col in zip(adj, cols):
            v[col] = -_dot(row, at_f)
        kernel.append(tuple(v))
    parallel = [all(_dot(a, v) == 0 for v in kernel) for a in normals]
    return tuple(kernel), parallel


def _bits(mask):
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _faces_on_flat(table, rows, cands, cutting, weak_sides, forced, on_wall):
    """The faces on one flat, as (dim, coordinate sums, vertex ids, (+ mask,
    - mask), boundary_cut) tuples, the masks holding the
    hyperplanes with each sign: a DFS over strict signs on the cutting
    hyperplanes.  A node holds W, the mask of the flat's candidates
    `cands` weakly signed by its assignment, its sign masks, and `need`,
    the masks of the candidates strictly on each assigned side; by the
    lemma of `enumerate_faces` it is a region exactly when W meets every
    mask in `need`.  `forced` holds the sign masks of the forced
    hyperplanes, and `weak_sides` the candidates on the forced side of
    each forced hyperplane with a zero on the flat's candidates; only
    those need checking."""
    pos, neg, coords = table.pos, table.neg, table.coords

    # the face's closure leaves the box exactly when the face meets a
    # wall x_j = b along which x_j varies on the flat; the wall's share
    # of the clipped vertices includes every vertex of that wall face
    # of the clipped closure, so their average lies in its relative
    # interior, which is either wholly inside the face or wholly
    # inside one hyperplane
    walls = [wall for j, pair in enumerate(on_wall) if any(v[j] for v in rows)
             for wall in pair]

    out = []
    stack = [(0, cands, forced, [])]
    while stack:
        depth, w, signs, need = stack.pop()
        if depth < len(cutting):
            h = cutting[depth]
            plus, minus = signs
            for strict, other, signs2 in ((pos[h], neg[h], (plus | 1 << h, minus)),
                                          (neg[h], pos[h], (plus, minus | 1 << h))):
                w2 = w & ~other
                if w2 & strict and (w2 == w or all(map(w2.__and__, need))):
                    stack.append((depth + 1, w2, signs2, need + [strict]))
            continue
        if not all(map(w.__and__, weak_sides)):
            continue
        ids = _bits(w)
        sums = [sum(xs) for xs in zip(*map(coords.__getitem__, ids))]
        if table.signs(sums, len(ids)) != signs:
            raise InternalError("barycenter escaped its own face")
        need = need + weak_sides
        cut = any(x and all(map(x.__and__, need)) for x in map(w.__and__, walls))
        out.append((len(rows), sums, tuple(ids), signs, cut))
    return out


def enumerate_faces(hyperplanes, window):
    """Stratify the window by the hyperplane list.

    Emits every sign class meeting the closed box.  Everything is decided
    in integers: the candidate vertices (`candidate_vertices`) are integer
    numerators over one denominator D, and a `SignTable` holds, per
    hyperplane, the masks of the candidates on its + side, on its - side
    and on it.  A set of candidates is a mask too.

    Flats are found by closing the hyperplane set under intersection; each
    carries the mask of the candidates on it (its parent's masked by the
    new hyperplane's zeros), and a flat with none misses the box.  A
    flat's direction depends only on the set of its hyperplanes' normals,
    so its integer direction rows and parallel mask are computed once per
    normal set (`_direction`).

    Faces on a flat are found by a depth-first sweep over strict sign
    assignments, certified by averages of the clipped regions' vertices.
    A strict sign vector on the flat is a face exactly when the average
    of its weakly signed candidates has its strict signs: the closure of
    a nonempty face, clipped to the box, is the hull of those candidates,
    and their average lies in its relative interior.  The same test
    decides every prefix of the sign vector, so a prefix that fails has
    no face below it and the sweep prunes it.  The test is a mask AND:

    Lemma.  Let W be the flat's candidates weakly signed by an assignment
    and (h, s) an assigned pair.  The average of W has the strict sign s
    on h exactly when W & side[s][h] is nonzero, side[s] being the + or
    - masks.  Proof: h's value is affine, so its value at the average is
    the average of its values on W.  Each of these has the sign s or is
    zero, so the average has the sign s when one of them does, and is
    zero when none does.

    Before the sweep, each other hyperplane is classified by its masks on
    the flat's candidates:
    - cutting: both strict signs occur; the sweep branches on it;
    - forced: one strict sign occurs, besides zeros.  Every face has that
      sign, and weak signs on it keep every candidate, so a leaf of the
      sweep over the cutting hyperplanes is a face exactly when the same
      average also has the forced signs.  A forced hyperplane without a
      zero there has its sign at every average and needs no check;
    - dead: zero on every candidate.  The clipped flat lies in the
      hyperplane and carries no face.
    The lemma also decides `boundary_cut`, on the candidates on the box
    walls.  Each face's barycenter is kept as the coordinate sums of W,
    and every hyperplane is evaluated there to confirm the face's sign
    masks.  The barycenters are then put over one denominator, D times
    the lcm of the vertex counts, and compared in integers.
    """
    n = window.dim
    m = len(hyperplanes)
    if m == 0 or rank([h.alpha for h in hyperplanes]) < n:
        raise SpecError("hyperplane normals must span the ambient space")

    scale, coords = candidate_vertices(hyperplanes, window)
    if not coords:
        raise InternalError("window contains no arrangement vertices")
    table = SignTable(hyperplanes, scale, coords)
    pos, neg, zero = table.pos, table.neg, table.zero
    normal_of = table.normal_of
    with_normal = [[] for _ in table.normals]
    for i, k in enumerate(normal_of):
        with_normal[k].append(i)
    directions = {}

    def direction(key):
        got = directions.get(key)
        if got is None:
            got = directions[key] = _direction([table.normals[k] for k in sorted(key)],
                                               table.normals, n)
        return got

    # flats: closure of the hyperplane list under intersection, inside box;
    # a vertex of flat & box is cut out by n of the planes, so every flat
    # meeting the box holds a candidate.  keys[f] is the normal set of f.
    flats = [(frozenset(), direction(frozenset())[0])]
    cands_of = [(1 << len(coords)) - 1]
    keys = [frozenset()]
    flat_index = {frozenset(): 0}
    head = 0
    while head < len(flats):
        rows = flats[head][1]
        cands = cands_of[head]
        key = keys[head]
        head += 1
        if not rows:
            continue
        # a hyperplane parallel to the flat holds it or misses it
        par = direction(key)[1]
        for hidx in range(m):
            if par[normal_of[hidx]]:
                continue
            cands2 = cands & zero[hidx]
            if not cands2:
                continue  # misses the box entirely
            key2 = key | {normal_of[hidx]}
            rows2, par2 = direction(key2)
            on = cands2 & -cands2
            zero2 = frozenset(i for k, p in enumerate(par2) if p
                              for i in with_normal[k] if zero[i] & on)
            if zero2 in flat_index:
                continue
            flat_index[zero2] = len(flats)
            flats.append((zero2, rows2))
            cands_of.append(cands2)
            keys.append(frozenset(normal_of[i] for i in zero2))

    # the masks of the candidates on the two box walls of each axis
    on_wall = [[_mask([p[j] == b for p in coords])
                for b in (_times(window.lo[j], scale), _times(window.hi[j], scale))]
               for j in range(n)]

    # faces per flat: classify the other hyperplanes on the flat's
    # candidates, then sweep the cutting ones unless one is dead
    raw = []
    for (zero_set, rows), cands in zip(flats, cands_of):
        cutting, weak_sides, forced = [], [], [0, 0]
        for hidx in range(m):
            if hidx in zero_set:
                continue
            p, q = cands & pos[hidx], cands & neg[hidx]
            if p and q:
                cutting.append(hidx)
            elif p or q:
                forced[not p] |= 1 << hidx
                if p | q != cands:
                    weak_sides.append(p | q)
            else:
                break  # dead
        else:
            raw += _faces_on_flat(table, rows, cands, cutting, weak_sides,
                                  tuple(forced), on_wall)

    # by dimension, then barycenter: the numerators over D * L, with L the
    # lcm of the vertex counts
    common = math.lcm(*{len(r[2]) for r in raw})
    den = scale * common
    raw = sorted(((d, tuple(x * (common // len(ids)) for x in sums), ids, sig, cut)
                  for d, sums, ids, sig, cut in raw),
                 key=lambda r: r[:2])
    faces = []
    cells = {}      # one tuple per distinct cell, shared by its faces
    for fid, (d, num, ids, sig, cut) in enumerate(raw):
        cell = tuple(x // den for x in num)
        faces.append(AffineFace(fid, sig, d, num, den, cells.setdefault(cell, cell),
                                cut, ids))

    # closure order: a face's clipped vertices all recur on larger faces,
    # so one shared vertex narrows the candidate uppers
    at_vertex = {}
    for f in faces:
        for ci in f.vertex_ids:
            at_vertex.setdefault(ci, []).append(f.id)
    # the closure order: lower's masks lie inside upper's.  at_vertex
    # lists ids in order, so uppers are sorted.
    uppers = {}
    for f in faces:
        p, q = f.signs
        uppers[f.id] = tuple(g.id for g in map(faces.__getitem__, at_vertex[f.vertex_ids[0]])
                             if g.dim > f.dim and not p & ~g.signs[0] and not q & ~g.signs[1])

    return LiftedFacePoset(hyperplanes, window, den, faces, flats, uppers)


# ---------------------------------------------------------------------------
# quotient by the translation lattice


Morphism = namedtuple("Morphism", "src tgt shift target")


class PeriodicCategory:
    """Quotient of a periodic space of faces by the translation lattice.

    The space is the windowed lift (faces are ids) or the vertex stars
    (faces are codes).  It gives a face's codimension (`codim`), splits an
    element, a tuple of faces, as its canonical translate and the shift
    from it (`canonical`), moves an element by a shift (`move`), and
    names the zero shift (`zero`).  An element's first face grades it:
    an object's grade is that face's codimension.  `below(e)` lists every
    element that e maps to; grades strictly rise along it.  `objects`
    lists one canonical element per orbit.  A morphism orbit is stored on
    its canonical source with its target and the target's (object,
    shift), so distinct translates of one orbit below the same element
    give parallel morphisms.  The first `len(objects)` morphisms are the
    identities.
    """

    def __init__(self, space, elements, below):
        self.space = space
        self.objects = list(elements)
        self.index = {e: k for k, e in enumerate(self.objects)}
        self.grades = [space.codim(e[0]) for e in self.objects]
        self.morphisms = [Morphism(k, k, space.zero, e) for k, e in enumerate(self.objects)]
        for k, e in enumerate(self.objects):
            for target in below(e):
                tgt, u = self.key(target)
                self.morphisms.append(Morphism(k, tgt, u, target))
        self.by_rep = {(m.src, m.target): mid for mid, m in enumerate(self.morphisms)}

        # composition through translates: move the second factor's target
        # along the first factor's shift and look the pair up
        nonid = range(len(self.objects), len(self.morphisms))
        by_src = {}
        for mid in nonid:
            by_src.setdefault(self.morphisms[mid].src, []).append(mid)
        self.table = {}
        for mid1 in nonid:
            m1 = self.morphisms[mid1]
            for mid2 in by_src.get(m1.tgt, ()):
                target = space.move(self.morphisms[mid2].target, m1.shift)
                comp = self.by_rep.get((m1.src, target))
                if comp is None:
                    raise InternalError("composition fell outside the star")
                self.table[(mid2, mid1)] = comp

    def key(self, element):
        """(object, u) of an element: the element is objects[object] + u."""
        canonical, u = self.space.canonical(element)
        k = self.index.get(canonical)
        if k is None:
            raise WindowError("the orbit of %s has no whole representative in the "
                              "window" % (element,))
        return k, u

    def census(self):
        """Object counts by grade 0..n."""
        counts = [0] * (self.space.dim + 1)
        for g in self.grades:
            counts[g] += 1
        return counts

    def morphism_multiplicities(self):
        counts = {}
        for m in self.morphisms[len(self.objects):]:
            counts[(m.src, m.tgt)] = counts.get((m.src, m.tgt), 0) + 1
        return counts

    def as_category(self):
        return AcyclicCategory(self.grades, [(m.src, m.tgt) for m in self.morphisms],
                               range(len(self.objects)), self.table)


class FaceCategory(PeriodicCategory):
    """Face category of the torus: one object per face orbit, mapping to
    the orbits of its boundary faces."""

    @property
    def orbits(self):
        """Canonical face of each orbit, in object order."""
        return [e[0] for e in self.objects]

    def census(self):
        """Orbit counts by face dimension 0..n."""
        return super().census()[::-1]


def quotient_faces(lifted):
    """Quotient the windowed lift by integer translations.

    Every orbit needs a whole (uncut) representative in the window.  One
    that has none shows at the orbits below it: vertices are never cut,
    so each missing orbit lies above a present one, which then receives
    fewer morphism orbits than its canonical face has cofaces.
    """
    if not lifted.window.covers_quotient_core():
        raise WindowError("window must contain [-1,2]^n to canonicalize orbits")
    faces = lifted.faces

    def below(e):
        lows = lifted.lowers[e[0]]
        if any(faces[f].boundary_cut for f in lows):
            raise InternalError("cut face below an uncut face")
        return [(f,) for f in lows]

    canonical = [(f.id,) for f in faces if not f.boundary_cut and not any(f.cell)]
    fc = FaceCategory(lifted, canonical, below)
    arriving = [0] * len(fc.objects)
    for m in fc.morphisms[len(fc.objects):]:
        arriving[m.tgt] += 1
    for k, (fid,) in enumerate(fc.objects):
        if arriving[k] != len(lifted.uppers[fid]):
            raise WindowError("face %d has %d cofaces but %d incidence orbits reach "
                              "it: some face orbit has no whole representative in "
                              "the window" % (fid, len(lifted.uppers[fid]), arriving[k]))
    return fc


# ---------------------------------------------------------------------------
# the categories from vertex stars


class VertexStars:
    """The faces at one vertex per vertex orbit, as codes.

    The vertices are the points of [0,1)^n where hyperplanes of rank n
    meet: each vertex orbit has exactly one translate there.  They come
    from `candidate_vertices` on the lift to the unit cube, which also
    lists points cut out by the cube's walls; a point is kept where the
    sources through it, those with an even code entry, have normals of
    rank n.

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
        alphas = self.alphas = [chi.alpha for chi, _ in spec.hypersurfaces]
        # H = U G, G the rows 2A e_j spanning the lattice; all n rows of H
        # are nonzero, A having rank n
        self._basis, self._unimodular = hnf([[2 * a[j] for a in alphas] for j in range(n)])
        self._ranks = {}
        self._shifts = {}       # code -> its difference from its reduced code
        self.zero = (0,) * len(alphas)
        # (alpha, p, q) per source, its angle p / q, as `code_of_point` reads it
        self.sources = [(chi.alpha, a.q.numerator, a.q.denominator)
                        for chi, a in spec.hypersurfaces]
        unit = Window([0] * n, [1] * n)
        scale, coords = candidate_vertices(lift_to_window(spec, unit), unit)
        self.scale = scale
        lines = {}
        self.vertices = []
        self.star = {}          # canonical code -> (representative, its strict cofaces)
        for num in coords:
            if scale in num:
                continue        # on the far wall of the unit cube
            vcode = code_of_point(self.sources, num, scale)
            through = [i for i, c in enumerate(vcode) if not c & 1]
            if self.codim(vcode) < n:
                continue
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
                map(sub, element[0], _reduce_mod_lattice(element[0], self._basis)[0]))
        return tuple([tuple(map(sub, code, shift)) for code in element]), shift

    def move(self, element, shift):
        return tuple([tuple(map(add, code, shift)) for code in element])

    def lattice_vector(self, shift):
        """The u in Z^n whose translation adds `shift`, a code difference
        in 2A Z^n: the shift's coefficients t on the Hermite basis H = U G
        give shift = t U G = 2A (t U)."""
        rest, t = _reduce_mod_lattice(shift, self._basis)
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
        """The face category: each incidence orbit F <= G is met once, at
        F's representative, and moved to G's canonical translate."""
        lowers = {}
        for f, cofaces in self.star.values():
            for g in cofaces:
                e, _ = self.canonical((g, f))
                lowers.setdefault(e[:1], []).append(e[1:])
        return FaceCategory(self, [(f,) for f in self.star],
                            lambda e: lowers.get(e, ()))

    def salvetti_category(self):
        """The toric Salvetti category: objects are orbits of pairs [F, C],
        C a chamber at F.  [G, C'] maps to [F, C] when F < G and C' is the
        composite G o C, which keeps G's odd entries and takes C's where
        G's are even (`salvetti.salvetti_below` on the lift).  Each
        morphism orbit is met once, at F's representative."""
        objects, lowers = [], {}
        for f, cofaces in self.star.values():
            for c in [f] if self.codim(f) == 0 else \
                    [g for g in cofaces if self.codim(g) == 0]:
                objects.append(self.canonical((f, c))[0])
                for g in cofaces:
                    pair = (g, tuple(a if a & 1 else b for a, b in zip(g, c)))
                    e, _ = self.canonical(pair + (f, c))
                    lowers.setdefault(e[:2], []).append(e[2:])
        return PeriodicCategory(self, objects, lambda e: lowers.get(e, ()))


def same_quotient(lifted, lift_cat, stars, star_cat):
    """True when a category built on the lift and the same category built
    from the vertex stars have the same census and the same morphism
    multiplicities, each lifted object matched to the star object with
    its canonical codes."""
    def name(e):
        return star_cat.index.get(stars.canonical(tuple(lifted.codes[f] for f in e))[0])

    names = [name(e) for e in lift_cat.objects]
    return (lift_cat.census() == star_cat.census() and
            Counter((names[m.src], names[m.tgt]) for m in lift_cat.morphisms) ==
            Counter((m.src, m.tgt) for m in star_cat.morphisms))


# ---------------------------------------------------------------------------
# layers


class Layer:
    __slots__ = ("index", "dim", "key", "flat")

    def __init__(self, index, dim, key, flat):
        self.index = index
        self.dim = dim
        self.key = key
        self.flat = flat

    def __repr__(self):
        return "Layer(%d, dim=%d)" % (self.index, self.dim)


class LayerPoset:
    def __init__(self, layers, relations):
        self.layers = layers
        self.relations = relations      # (lower index, upper index) strict

    def census(self):
        counts = {}
        for l in self.layers:
            counts[l.dim] = counts.get(l.dim, 0) + 1
        return counts


def _column_hnf(rows):
    """HNF basis of the lattice spanned by the rows (as vectors)."""
    return [row for row in hnf(rows)[0] if any(row)]


def _reduce_mod_lattice(vec, hbasis):
    """(r, t): r = vec - t H, each pivot entry brought into [0, pivot) by
    the rows of the Hermite basis H in turn."""
    v, t = list(vec), []
    for row in hbasis:
        piv = next(j for j, x in enumerate(row) if x != 0)
        t.append(v[piv] // row[piv])
        if t[-1]:
            v = [x - t[-1] * y for x, y in zip(v, row)]
    return tuple(v), t


def layers(spec, stars):
    """Connected components of hypersurface intersections on the torus.

    Every flat holds a vertex, so a translate of it is the span of a face
    at a vertex v of the stars: the flat through v of the sources with an
    even entry.  A layer is keyed by the characters vanishing on the
    flat's direction (`integer_kernel`) and their values on the flat,
    reduced modulo the image of the translation lattice."""
    n = spec.rank
    recs = {}
    kernels = {}        # normals -> (direction rows, characters vanishing there)
    for num, faces in stars.vertices:
        for normals in {frozenset(a for a, c in zip(stars.alphas, f) if not c & 1)
                        for f in faces}:
            if normals not in kernels:
                rows = integer_kernel(sorted(normals), n)
                kernels[normals] = rows, integer_kernel(rows, n)
            rows, a_rows = kernels[normals]
            r = len(a_rows)
            if r == 0:
                key = ((), ())
                image = []
            else:
                # Fraction constants: layers are ordered by the key's printed form
                b = [Q(_dot(row, num), stars.scale) for row in a_rows]
                # the translation lattice acts on constants through the columns
                cols = [[a_rows[i][j] for i in range(r)] for j in range(n)]
                image = _column_hnf(cols)
                key = (tuple(tuple(row) for row in a_rows),
                       _reduce_mod_lattice(b, image)[0])
            if key not in recs:
                recs[key] = (n - r, (num, stars.scale, rows), a_rows, image)
    ordered = sorted(recs.items(), key=lambda kv: (-kv[1][0], str(kv[0])))
    layers_list = [Layer(i, dim, key, flat)
                   for i, (key, (dim, flat, _, _)) in enumerate(ordered)]

    def contained(l1, l2):
        # some integer translate of flat(l1) lies inside flat(l2)
        if l1.dim > l2.dim:
            return False
        p1, d1, rows1 = l1.flat
        p2, d2, _ = l2.flat
        _, _, a2, image = recs[l2.key]
        if not a2:
            return True
        if any(_dot(row, v) for row in a2 for v in rows1):
            return False
        # a2 (p2 - p1), over d1 d2, must be an integer vector in the image
        d = d1 * d2
        w = [_dot(row, p2) * d1 - _dot(row, p1) * d2 for row in a2]
        if any(x % d for x in w):
            return False
        return not any(_reduce_mod_lattice([x // d for x in w], image)[0])

    relations = []
    for l1 in layers_list:
        for l2 in layers_list:
            if l1.index != l2.index and l1.dim < l2.dim and contained(l1, l2):
                relations.append((l1.index, l2.index))
    return LayerPoset(layers_list, relations)


# ---------------------------------------------------------------------------
# local chamber operations on codes


def opposite_chamber(c, f):
    """The code of the chamber opposite the chamber c across its face f:
    c_i goes to 2 f_i - c_i wherever f_i is even, that is on the sources
    with a hyperplane through the face."""
    if not all(x & 1 for x in c):
        raise SpecError("opposite_chamber needs a chamber")
    if not code_leq(f, c):
        raise SpecError("face %s is not a face of chamber %s" % (f, c))
    return tuple(x if y & 1 else 2 * y - x for x, y in zip(c, f))


def chamber_fiber(c, f):
    """The code of the unique chamber of the localization fiber of the
    chamber c whose closure contains the face f: keep signs through the
    face's span, take the face's signs elsewhere.  An even face entry f_i
    becomes f_i + 1 or f_i - 1, toward c_i, and an odd one stays."""
    return tuple(y if y & 1 else (y + 1 if x > y else y - 1) for x, y in zip(c, f))
