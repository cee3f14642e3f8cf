"""Faces of the windowed lift and the face category of the torus.

Faces are the sign classes of the finite hyperplane list inside the
window box.  A face is stored with its signs, as the bit masks of the
hyperplanes on its + and on its - side, its flat, and its barycenter
(vertex average of its clipped closure).  Faces whose closure is
entirely inside the closed box are honest faces of the periodic
arrangement; the rest are flagged `boundary_cut` and never serve as
orbit representatives.

`PeriodicCategory` quotients a lifted poset by the integer translation
lattice; the face category and the toric Salvetti category are both
built with it.  Objects are orbits keyed by the unique translate with
barycenter in [0,1)^n, morphisms are orbits of incidences.  A face moves
by an integer vector through a shift of its masks, source by source
(`LiftedFacePoset.translate`).
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
import math
from operator import mul

from .errors import SpecError, WindowError, InternalError
from .exact import adjugate, rank, integer_kernel, hnf
from .category import AcyclicCategory
from .arrangement import geometric_key

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

    __slots__ = ("id", "signs", "dim", "num", "den", "cell", "flat_id",
                 "boundary_cut", "vertex_ids")

    def __init__(self, fid, signs, dim, num, den, cell, flat_id,
                 boundary_cut, vertex_ids):
        self.id = fid
        self.signs = signs
        self.dim = dim
        self.num = num
        self.den = den
        self.cell = cell
        self.flat_id = flat_id
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

    def __init__(self, hyperplanes, table, window, den, faces, flats, by_signs,
                 uppers, geo_class):
        self.hyperplanes = hyperplanes
        self.table = table              # SignTable of the candidate vertices
        self.window = window
        self.den = den                  # the faces' barycenter denominator
        self.faces = faces
        # (zero frozenset, point numerators, their positive denominator,
        # integer direction rows), as built by `enumerate_faces`
        self.flats = flats
        self.by_signs = by_signs        # (plus, minus) masks -> face id
        self.uppers = uppers            # fid -> sorted tuple of fids (strict)
        self.geo_class = geo_class      # hyperplane idx -> geometric class id
        self.chamber_ids = tuple(f.id for f in faces if f.dim == window.dim)
        self.lowers = {f.id: [] for f in faces}
        for fid, ups in uppers.items():
            for g in ups:
                self.lowers[g].append(fid)
        for fid in self.lowers:
            self.lowers[fid] = tuple(sorted(self.lowers[fid]))
        self._translated = {}
        self._runs = _runs(hyperplanes)
        self._all = (1 << len(hyperplanes)) - 1
        self._box = [(_times(a, den), _times(b, den)) for a, b in zip(window.lo, window.hi)]

    @property
    def dim(self):
        return self.window.dim

    def zero_set(self, fid):
        return self.flats[self.faces[fid].flat_id][0]

    def zero_mask(self, fid):
        """The mask of the hyperplanes through the face, those of its flat."""
        plus, minus = self.faces[fid].signs
        return self._all ^ (plus | minus)

    def leq(self, f1, f2):
        """True when face f1 lies in the closure of f2: its masks lie in f2's."""
        (p1, q1), (p2, q2) = self.faces[f1].signs, self.faces[f2].signs
        return not (p1 & ~p2 or q1 & ~q2)

    def locate(self, point):
        """Face containing an exact point, via its sign masks."""
        if not self.window.contains(point):
            raise WindowError("point %s escapes the window" % (tuple(map(str, point)),))
        den = math.lcm(*(x.denominator for x in point))
        fid = self.by_signs.get(self.table.signs(
            [_times(x, den) * self.table.scale for x in point], den))
        if fid is None:
            raise WindowError("no face enumerated at %s" % (tuple(map(str, point)),))
        return fid

    def translate(self, fid, u):
        """The face fid + u for an integer vector u, memoised.

        The arrangement is periodic: on the lifted hyperplane (source i,
        shift k) fid + u has fid's sign on (i, k - s), s = <alpha_i, u>.
        Source i's lift is one run of bits by ascending shift (`_runs`), so
        the masks move s bits inside each run.  Source i's other
        hyperplanes miss the box, so fid lies on the box's side of each: +
        below the run, - above.  The |s| vacated bits get that side, + when
        s > 0, and the |s| bits that leave the run must have the side where
        they land, - when s > 0; if fid has fewer, fid + u misses the box.
        Otherwise fid + u has the box's side off the lift, so it meets the
        box exactly when a face of the window has the moved masks, and that
        face is fid + u.  Both misses raise `WindowError`.
        """
        key = (fid, u)
        got = self._translated.get(key)
        if got is None:
            got = self._translated[key] = self._moved(fid, u) if any(u) else fid
        return got

    def _moved(self, fid, u):
        plus, minus = self.faces[fid].signs
        p = q = 0
        for alpha, run in self._runs:
            step = _dot(alpha, u)
            if step > (minus & run).bit_count() or -step > (plus & run).bit_count():
                raise WindowError("face %d moved by %s leaves the window" % (fid, u))
            p |= _shift(plus & run, step) & run
            q |= _shift(minus & run, step) & run
            fill = run & ~_shift(run, step)
            if step > 0:
                p |= fill
            else:
                q |= fill
        got = self.by_signs.get((p, q))
        if got is None:
            raise WindowError("no face enumerated at face %d moved by %s" % (fid, u))
        return got

    def canonical(self, element):
        """Split a lifted element, a tuple of face ids, as (translate, u):
        the translate's first face has its barycenter in [0,1)^n, its
        `cell` is zero, and the element is the translate moved by u."""
        u = self.faces[element[0]].cell
        back = tuple(-s for s in u)
        return tuple(self.translate(f, back) for f in element), u

    def in_open_box(self, fid):
        """The face's barycenter lies inside the open window box."""
        return all(lo < x < hi for x, (lo, hi) in zip(self.faces[fid].num, self._box))

    def chambers_above(self, fid):
        n = self.dim
        if self.faces[fid].dim == n:
            return (fid,)
        return tuple(g for g in self.uppers[fid] if self.faces[g].dim == n)


def _mask(flags):
    """The int whose bit i is set when flags[i] is true."""
    return int("".join(["01"[f] for f in reversed(flags)]), 2)


def _shift(mask, step):
    """The mask moved up by step bits, or down when step < 0."""
    return mask << step if step >= 0 else mask >> -step


def _runs(hyperplanes):
    """(alpha, run) per source, run the mask of its lifted hyperplanes.
    `translate` needs them listed together by ascending shift, as
    `lift_to_window` lists them: index minus shift is one constant."""
    runs = {}
    for i, h in enumerate(hyperplanes):
        alpha, offset, run = runs.setdefault(h.source, (h.alpha, i - h.shift, 0))
        if i - h.shift != offset or run and not run >> (i - 1) & 1:
            raise InternalError("the lift of source %d is not one run of "
                                "ascending shifts" % h.source)
        runs[h.source] = alpha, offset, run | 1 << i
    return [(alpha, run) for alpha, _, run in runs.values()]


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
    """(kernel, parallel, pivot_cols, transform, det, adj): the direction
    of the flats cut out by hyperplanes with the integer normals `rows`.

    With A the matrix of those rows and H = U A its Hermite form
    (`exact.hnf`), the r nonzero rows of H are invertible on the pivot
    columns P; `det` and `adj` belong to that block H_P, and det > 0, as
    H_P is upper triangular with positive pivots.  `transform` is the
    first r rows of U.  The reduced row echelon form of A is adj H / det,
    so det times its kernel basis is integral: `kernel` has, for each free
    column f in ascending order, the row that is det at f and -adj H_f on
    P.  A flat with the constants c on A has the reduced form's particular
    solution as its point: adj (U c) / det on P and 0 elsewhere.
    `parallel[k]` is True when normals[k] lies in the span of A.
    """
    h, u = hnf(rows)
    h = [row for row in h if any(row)]
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
    return tuple(kernel), parallel, cols, u[:len(h)], det, adj


def _bits(mask):
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _faces_on_flat(table, flat_id, rows, cands, cutting, weak_sides, forced, on_wall):
    """The faces on one flat, as (dim, coordinate sums, vertex ids, (+ mask,
    - mask), flat id, boundary_cut) tuples, the masks holding the
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
        out.append((len(rows), sums, tuple(ids), signs, flat_id, cut))
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
    so its integer direction rows, parallel mask and pivot adjugate are
    computed once per normal set (`_direction`), and a new flat's point
    comes from that adjugate, as integer numerators over det * D.

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

    geo_class = {}
    seen_geo = {}
    for i, h in enumerate(hyperplanes):
        geo_class[i] = seen_geo.setdefault(geometric_key(h.alpha, h.c), len(seen_geo))

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
    flats = [(frozenset(), (0,) * n, 1, direction(frozenset())[0])]
    cands_of = [(1 << len(coords)) - 1]
    keys = [frozenset()]
    flat_index = {frozenset(): 0}
    head = 0
    while head < len(flats):
        rows = flats[head][3]
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
            rows2, par2, cols2, transform, det, adj = direction(key2)
            on = cands2 & -cands2
            zero2 = frozenset(i for k, p in enumerate(par2) if p
                              for i in with_normal[k] if zero[i] & on)
            if zero2 in flat_index:
                continue
            const_of = {normal_of[i]: table.consts[i] for i in zero2}
            cs = [const_of[k] for k in sorted(key2)]
            uc = [_dot(row, cs) for row in transform]
            num = [0] * n
            for row, j in zip(adj, cols2):
                num[j] = _dot(row, uc)
            flat_index[zero2] = len(flats)
            flats.append((zero2, tuple(num), det * scale, rows2))
            cands_of.append(cands2)
            keys.append(frozenset(const_of))

    # the masks of the candidates on the two box walls of each axis
    on_wall = [[_mask([p[j] == b for p in coords])
                for b in (_times(window.lo[j], scale), _times(window.hi[j], scale))]
               for j in range(n)]

    # faces per flat: classify the other hyperplanes on the flat's
    # candidates, then sweep the cutting ones unless one is dead
    raw = []
    for flat_id, (zero_set, _, _, rows) in enumerate(flats):
        cands = cands_of[flat_id]
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
            raw += _faces_on_flat(table, flat_id, rows, cands, cutting, weak_sides,
                                  tuple(forced), on_wall)

    # by dimension, then barycenter: the numerators over D * L, with L the
    # lcm of the vertex counts
    common = math.lcm(*{len(r[2]) for r in raw})
    den = scale * common
    raw = sorted(((d, tuple(x * (common // len(ids)) for x in sums), ids, sig, flat_id, cut)
                  for d, sums, ids, sig, flat_id, cut in raw),
                 key=lambda r: r[:2])
    faces = []
    by_signs = {}
    cells = {}      # one tuple per distinct cell, shared by its faces
    for fid, (d, num, ids, sig, flat_id, cut) in enumerate(raw):
        cell = tuple(x // den for x in num)
        faces.append(AffineFace(fid, sig, d, num, den, cells.setdefault(cell, cell),
                                flat_id, cut, ids))
        by_signs[sig] = fid

    # closure order: a face's clipped vertices all recur on larger faces,
    # so one shared vertex narrows the candidate uppers
    at_vertex = {}
    for f in faces:
        for ci in f.vertex_ids:
            at_vertex.setdefault(ci, []).append(f.id)
    # the order of `leq`: lower's masks lie inside upper's.  at_vertex
    # lists ids in order, so uppers are sorted.
    uppers = {}
    for f in faces:
        p, q = f.signs
        uppers[f.id] = tuple(g.id for g in map(faces.__getitem__, at_vertex[f.vertex_ids[0]])
                             if g.dim > f.dim and not p & ~g.signs[0] and not q & ~g.signs[1])

    return LiftedFacePoset(hyperplanes, table, window, den, faces, flats, by_signs,
                           uppers, geo_class)


# ---------------------------------------------------------------------------
# quotient by the translation lattice


Morphism = namedtuple("Morphism", "src tgt shift target")


class PeriodicCategory:
    """Quotient of a periodic lifted poset by the translation lattice.

    Lifted elements are tuples of face ids whose first face grades them:
    an object's grade is that face's codimension.  `below(e)` lists, from
    the star of e, every element that e maps to; grades strictly rise
    along it.  An orbit is keyed by its translate whose first face has
    its barycenter in [0,1)^n, and `objects` lists these canonical
    elements.  A morphism orbit is stored on its canonical source with its
    lifted target and the target's (object, shift), so distinct
    translates of one orbit below the same element give parallel
    morphisms.  The first `len(objects)` morphisms are the identities.
    """

    def __init__(self, lifted, elements, below):
        if not lifted.window.covers_quotient_core():
            raise WindowError("window must contain [-1,2]^n to canonicalize orbits")
        n = lifted.dim
        self.lifted = lifted
        self.objects = list(elements)
        self.index = {e: k for k, e in enumerate(self.objects)}
        self.grades = [n - lifted.faces[e[0]].dim for e in self.objects]
        self.morphisms = [Morphism(k, k, (0,) * n, e)
                          for k, e in enumerate(self.objects)]
        for k, e in enumerate(self.objects):
            for target in below(e):
                tgt, u = self.key(target)
                self.morphisms.append(Morphism(k, tgt, u, target))
        self.by_rep = {(m.src, m.target): mid for mid, m in enumerate(self.morphisms)}

        # composition through lifts: move the second factor's target along
        # the first factor's shift and look the pair up
        nonid = range(len(self.objects), len(self.morphisms))
        by_src = {}
        for mid in nonid:
            by_src.setdefault(self.morphisms[mid].src, []).append(mid)
        self.table = {}
        for mid1 in nonid:
            m1 = self.morphisms[mid1]
            for mid2 in by_src.get(m1.tgt, ()):
                target = tuple(lifted.translate(f, m1.shift)
                               for f in self.morphisms[mid2].target)
                comp = self.by_rep.get((m1.src, target))
                if comp is None:
                    raise InternalError("composition fell outside the star")
                self.table[(mid2, mid1)] = comp

    def key(self, element):
        """(object, u) of a lifted element: the element is objects[object] + u."""
        lifted = self.lifted
        canonical, u = lifted.canonical(element)
        k = self.index.get(canonical)
        if k is None:
            raise WindowError("the orbit of %s has no whole representative in the "
                              "window" % (element,))
        den = lifted.den
        if lifted.faces[canonical[0]].num != \
                tuple(x - den * s for x, s in zip(lifted.faces[element[0]].num, u)):
            raise InternalError("orbit representative mismatch for %s" % (element,))
        return k, u

    def census(self):
        """Object counts by grade 0..n."""
        counts = [0] * (self.lifted.dim + 1)
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
        """Canonical face id of each orbit, in object order."""
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
# layers


class Layer:
    __slots__ = ("index", "dim", "key", "rep_flat")

    def __init__(self, index, dim, key, rep_flat):
        self.index = index
        self.dim = dim
        self.key = key
        self.rep_flat = rep_flat

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
    v = list(vec)
    for row in hbasis:
        piv = next(j for j, x in enumerate(row) if x != 0)
        t = v[piv] // row[piv]
        if t:
            v = [x - t * y for x, y in zip(v, row)]
    return tuple(v)


def layers(spec, lifted):
    """Connected components of hypersurface intersections on the torus."""
    n = spec.rank
    recs = {}
    for flat_id, (_, num, den, rows) in enumerate(lifted.flats):
        # the characters vanishing on the flat's direction
        a_rows = integer_kernel(rows, n)
        r = len(a_rows)
        if r == 0:
            key = ((), ())
            image = []
        else:
            # Fraction constants: layers are ordered by the key's printed form
            b = [Q(_dot(row, num), den) for row in a_rows]
            # the translation lattice acts on constants through the columns
            cols = [[a_rows[i][j] for i in range(r)] for j in range(n)]
            image = _column_hnf(cols)
            key = (tuple(tuple(row) for row in a_rows),
                   _reduce_mod_lattice(b, image))
        if key not in recs:
            recs[key] = (n - r, flat_id, a_rows, image)
    ordered = sorted(recs.items(), key=lambda kv: (-kv[1][0], str(kv[0])))
    layers_list = [Layer(i, dim, key, flat_id)
                   for i, (key, (dim, flat_id, _, _)) in enumerate(ordered)]

    def contained(l1, l2):
        # some integer translate of flat(l1) lies inside flat(l2)
        if l1.dim > l2.dim:
            return False
        _, p1, d1, rows1 = lifted.flats[l1.rep_flat]
        _, p2, d2, _ = lifted.flats[l2.rep_flat]
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
        return not any(_reduce_mod_lattice([x // d for x in w], image))

    relations = []
    for l1 in layers_list:
        for l2 in layers_list:
            if l1.index != l2.index and l1.dim < l2.dim and contained(l1, l2):
                relations.append((l1.index, l2.index))
    return LayerPoset(layers_list, relations)


# ---------------------------------------------------------------------------
# local chamber operations


def opposite_chamber(lifted, cid, fid):
    """The chamber opposite a chamber across one of its faces."""
    if lifted.faces[cid].dim != lifted.dim:
        raise SpecError("opposite_chamber needs a chamber")
    if not lifted.leq(fid, cid):
        raise SpecError("face %d is not a face of chamber %d" % (fid, cid))
    zero = lifted.zero_mask(fid)
    plus, minus = lifted.faces[cid].signs
    got = lifted.by_signs.get((plus ^ zero, minus ^ zero))
    if got is None:
        raise WindowError("opposite chamber of (%d, %d) escapes the window" % (cid, fid))
    return got


def chamber_fiber(lifted, cid, fid):
    """The unique chamber of the localization fiber of `cid` whose closure
    contains the face: keep signs through the face's span, take the
    face's signs elsewhere."""
    if lifted.faces[cid].dim != lifted.dim:
        raise SpecError("chamber_fiber needs a chamber")
    zero = lifted.zero_mask(fid)
    (cp, cq), (fp, fq) = lifted.faces[cid].signs, lifted.faces[fid].signs
    got = lifted.by_signs.get((cp & zero | fp, cq & zero | fq))
    if got is None:
        raise WindowError("fiber chamber of (%d, %d) escapes the window" % (cid, fid))
    return got
