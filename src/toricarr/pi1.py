"""Finite presentation of the fundamental group of the complement.

Generators: one loop t_i per lattice direction and one meridian g_o per
codimension-1 face orbit.  Relators: commutators of the t_i, plus, for
every codimension-2 face orbit, the cyclic relations read off the star
of its canonical face.  Each meridian entering a relation is conjugated
back to the base chamber by an explicit word produced from crossing
sequences of straight segments and minimal positive chamber paths.
Such a word moves with the lattice, so each orbit's chamber path is
found once, at its canonical face, and moved by arithmetic.
"""

from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
import math

from .errors import SpecError, WindowError, InternalError
from .exact import SparseMatrix, snf
from .arrangement import geometric_key
from .cells import chamber_fiber, opposite_chamber, _direction, _dot


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

    def __init__(self, names, relators, tau_count=None):
        self.names = tuple(names)
        rels = []
        g = len(self.names)
        for r in relators:
            r = free_reduce(r)
            if any(abs(x) < 1 or abs(x) > g for x in r):
                raise SpecError("relator mentions an undeclared generator")
            rels.append(tuple(r))
        self.relators = tuple(rels)
        self.tau_count = tau_count

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
    taus = sum(1 for g in survivors
               if pres.tau_count is not None and g <= pres.tau_count)
    return GroupPresentation(names, rels, tau_count=taus if pres.tau_count is not None else None)


def quotient_without_meridians(pres):
    """Kill every meridian generator; what remains is generated by the
    lattice loops alone."""
    if pres.tau_count is None:
        raise SpecError("presentation does not distinguish lattice generators")
    t = pres.tau_count
    rels = []
    for r in pres.relators:
        rels.append(free_reduce([x for x in r if abs(x) <= t]))
    return GroupPresentation(pres.names[:t], [r for r in rels if r], tau_count=t)


# ---------------------------------------------------------------------------
# crossings and paths


class Crossing:
    """One wall crossing of a path, recorded on the lifted arrangement."""

    __slots__ = ("orbit", "shift", "hyper_key")

    def __init__(self, orbit, shift, hyper_key):
        self.orbit = orbit
        self.shift = shift
        self.hyper_key = hyper_key

    def __repr__(self):
        return "Crossing(orbit=%d, shift=%s)" % (self.orbit, self.shift)

    def moved(self, u):
        """The same crossing on the lift moved by the integer vector u."""
        return Crossing(self.orbit, tuple(a + b for a, b in zip(self.shift, u)),
                        _shifted_key(self.hyper_key, u))


def positive_minimal_path(lifted, c_from, c_to):
    """A directed chamber path crossing each separating wall exactly once.

    Returns the crossings as (face id, chamber left behind) pairs; walks
    greedily toward the target, which always succeeds when the window
    contains the whole straight-line tube between the chambers.
    """
    steps = []
    x = c_from
    tgt_plus = lifted.faces[c_to].signs[0]
    n = lifted.dim
    guard = len(lifted.hyperplanes) + 1
    while x != c_to:
        if guard == 0:
            raise InternalError("chamber walk failed to terminate")
        guard -= 1
        x_plus = lifted.faces[x].signs[0]
        found = None
        for f in lifted.lowers[x]:
            if lifted.faces[f].dim != n - 1:
                continue
            # chambers: the plus masks decide; one wall through f suffices
            zero = lifted.zero_mask(f)
            if not (x_plus ^ tgt_plus) & zero & -zero:
                continue
            try:
                opp = opposite_chamber(lifted, x, f)
            except WindowError:
                continue
            found = (f, opp)
            break
        if found is None:
            raise WindowError("no positive minimal path between chambers %d and %d"
                              % (c_from, c_to))
        steps.append((found[0], x))
        x = found[1]
    return steps


def _shifted_key(key, shift):
    alpha, c = key
    return alpha, c + _dot(alpha, shift)


class Pi1Context:
    """Base data for the presentation: base point, base chamber, crossing
    sequences, and generator bookkeeping."""

    def __init__(self, spec, lifted, fc):
        self.spec = spec
        self.lifted = lifted
        self.fc = fc
        self.n = spec.rank
        self.x0 = _choose_base_point(spec)
        self.c0 = lifted.locate(self.x0)
        self.codim1_orbits = [k for k, g in enumerate(fc.grades) if g == 1]
        self._gamma_pos = {o: i for i, o in enumerate(self.codim1_orbits)}
        self._canonical_key = {}
        for o in self.codim1_orbits:
            h = lifted.hyperplanes[min(lifted.zero_set(fc.objects[o][0]))]
            self._canonical_key[o] = geometric_key(h.alpha, h.c)
        self._omega_cache = {}
        self._access_cache = {}

    # generator numbering: 1..n are lattice loops, then meridians
    @property
    def tau_count(self):
        return self.n

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

    def crossing_of_face(self, fid):
        if self.lifted.faces[fid].boundary_cut:
            raise WindowError("crossed face %d has no orbit data in the window" % fid)
        orbit, u = self.fc.key((fid,))
        return Crossing(orbit, u, _shifted_key(self._canonical_key[orbit], u))

    def crossing_at_point(self, point):
        base = tuple(math.floor(x) for x in point)
        fid = self.lifted.locate(tuple(x - b for x, b in zip(point, base)))
        if self.lifted.faces[fid].dim != self.n - 1:
            raise InternalError("crossing point does not lie on a single wall")
        return self.crossing_of_face(fid).moved(base)

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
            fib = chamber_fiber(self.lifted, self.c0, self.fc.objects[orbit][0])
            got = self._access_cache[orbit] = [
                self.crossing_of_face(f)
                for f, _ in positive_minimal_path(self.lifted, self.c0, fib)]
        return got


def _primes():
    """2, 3, 5, 7, ... without end: each arrangement rules out finitely
    many of the base points 1/p^(i+1)."""
    p = 2
    while True:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            yield p
        p += 1


def _segment_crossings(spec, base, axis, steps):
    """Crossing times and points of the straight leg base -> base + steps*e_axis
    against the full periodic arrangement."""
    out = []
    for chi, a in spec.hypersurfaces:
        aj = chi.alpha[axis]
        if aj == 0:
            continue
        v0 = _dot(chi.alpha, base)
        v1 = v0 + steps * aj
        lo, hi = (v0, v1) if v1 > v0 else (v1, v0)
        k = math.floor(lo - a.q) + 1
        while a.q + k < hi:
            c = a.q + k
            if c > lo:
                t = (c - v0) / (steps * aj)
                point = tuple(x + t * steps * int(j == axis)
                              for j, x in enumerate(base))
                out.append((t, point, geometric_key(chi.alpha, c)))
            k += 1
    out.sort(key=lambda z: (z[0], z[2]))
    return out


def _is_generic(spec, x0):
    n = spec.rank
    for chi, a in spec.hypersurfaces:
        if (_dot(chi.alpha, x0) - a.q).denominator == 1:
            return False
    for axis in range(n):
        crossings = _segment_crossings(spec, x0, axis, 1)
        for (t1, _, k1), (t2, _, k2) in zip(crossings, crossings[1:]):
            if t1 == t2 and k1 != k2:
                return False
    return True


def _choose_base_point(spec):
    n = spec.rank
    for p in _primes():
        x0 = tuple(Fraction(1, p ** (i + 1)) for i in range(n))
        if _is_generic(spec, x0):
            return x0


def omega_paths(ctx, u):
    """Crossing sequence of the broken-segment path from the base point to
    its translate by a nonnegative lattice vector."""
    u = tuple(int(x) for x in u)
    if any(x < 0 for x in u):
        raise SpecError("omega paths need nonnegative coordinates")
    word = []
    base = list(ctx.x0)
    for axis in range(ctx.n):
        steps = u[axis]
        if steps == 0:
            continue
        crossings = _segment_crossings(ctx.spec, tuple(base), axis, steps)
        for (t1, _, k1), (t2, _, k2) in zip(crossings, crossings[1:]):
            if t1 == t2 and k1 != k2:
                raise InternalError("segment is not generic")
        last_key = None
        for t, point, key in crossings:
            if key == last_key:
                continue  # coincident copies of one geometric wall
            word.append(ctx.crossing_at_point(point))
            last_key = key
        base[axis] += steps
    return word


def sigma(path):
    """Reduce a positive crossing word: repeatedly drop every crossing
    whose wall supports an odd number of later crossings, until stable."""
    seq = list(path)
    while True:
        tail = Counter()
        marks = []
        for c in reversed(seq):
            marks.append(tail[c.hyper_key] % 2 == 1)
            tail[c.hyper_key] += 1
        marks.reverse()
        if not any(marks):
            return seq
        seq = [c for c, mk in zip(seq, marks) if not mk]


def delta_word(ctx, ref):
    """Conjugating word of the codim-1 face (orbit, shift), the orbit's
    canonical face moved by a nonnegative shift: the product of the based
    meridians of the surviving crossings of the access path, `omega` to
    the moved base chamber, then the canonical face's `access` path moved
    by the shift, each crossing's orbit shift and wall key with it."""
    orbit, shift = ref
    if any(s < 0 for s in shift):
        raise SpecError("expansion faces must have nonnegative shifts")
    mu = [c.moved(shift) for c in ctx.access(orbit)]
    word = []
    for g in sigma(list(ctx.omega(shift)) + mu):
        tau = ctx.tau_word(g.shift)
        word.extend(tau)
        word.append(ctx.gamma_gen(g.orbit))
        word.extend(invert_word(tau))
    return free_reduce(word)


def gamma_delta_word(ctx, ref):
    """Based meridian of an arbitrary codim-1 face of the lift."""
    orbit, shift = ref
    delta = delta_word(ctx, ref)
    tau = ctx.tau_word(shift)
    core = list(tau) + [ctx.gamma_gen(orbit)] + list(invert_word(tau))
    return free_reduce(list(invert_word(delta)) + core + list(delta))


def h_of_G(lifted, gfid):
    """The codim-1 faces around a codim-2 face, in cyclic angular order.

    Starts at the first face counterclockwise from the plane's first
    axis; each half meets each wall once, on opposite sides.
    Angles are read in the plane orthogonal to G's flat, in the
    coordinates of `_direction`'s kernel rows for the flat's direction
    rows: det > 0 times the reduced-echelon kernel basis, which fixes the
    plane's orientation and so the sense of the cycle (a lattice basis of
    the same plane, such as `integer_kernel`'s, can reverse it).
    """
    n = lifted.dim
    g = lifted.faces[gfid]
    if g.dim != n - 2:
        raise SpecError("expected a face of codimension 2")
    ups = [f for f in lifted.uppers[gfid] if lifted.faces[f].dim == n - 1]
    proj = _direction(lifted.flats[g.flat_id][3], (), n)[0]
    if len(proj) != 2:
        raise InternalError("transverse plane of a codim-2 face is not 2-dimensional")
    # barycenter numerators share one positive denominator, which scales
    # every vector and so keeps the half-plane and cross-product signs
    vecs = {}
    for f in ups:
        v = tuple(b - a for a, b in zip(g.num, lifted.faces[f].num))
        w = (_dot(proj[0], v), _dot(proj[1], v))
        if w == (0, 0):
            raise InternalError("adjacent face projects onto the flat")
        vecs[f] = w

    def half(w):
        return 0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1

    def cmp(fa, fb):
        wa, wb = vecs[fa], vecs[fb]
        ha, hb = half(wa), half(wb)
        if ha != hb:
            return -1 if ha < hb else 1
        cross = wa[0] * wb[1] - wa[1] * wb[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        raise InternalError("two adjacent faces share a direction")

    ordered = sorted(ups, key=cmp_to_key(cmp))
    if len(ordered) % 2 != 0:
        raise InternalError("odd number of faces around a codim-2 face")
    k = len(ordered) // 2
    wall = [min(lifted.zero_set(f)) for f in ordered]
    for i in range(k):
        if lifted.geo_class[wall[i]] != lifted.geo_class[wall[i + k]]:
            raise InternalError("opposite faces lie on different walls")
    return ordered


def relations_for_G(ctx, canonical_gfid):
    """Relators of one codim-2 orbit: all consecutive equalities of the
    cyclic window products of the based meridians around its canonical
    face G.  The incidence orbit from orbit o to G's orbit moved by u
    names the coface (o, -u); `quotient_faces` gives G one per coface, cut
    ones included.  They go in `h_of_G`'s order, as a clipped barycenter
    stays on its coface's ray, from the smallest true barycenter.  Every
    shift then rises by s = max(0, -min entry): the star of G + (s, ...,
    s), whose shifts are nonnegative, as `delta_word` needs."""
    lifted, fc = ctx.lifted, ctx.fc
    g, ref_of = fc.index[(canonical_gfid,)], {}
    for m in fc.morphisms:
        if m.tgt == g and fc.grades[m.src] == 1:
            back = tuple(-s for s in m.shift)
            ref_of[lifted.translate(fc.objects[m.src][0], back)] = (m.src, back)
    ordered = h_of_G(lifted, canonical_gfid)
    if set(ordered) != set(ref_of):
        raise InternalError("cofaces of face %d and their incidence orbits differ"
                            % canonical_gfid)
    refs = [ref_of[f] for f in ordered]

    def barycenter(ref):  # the canonical face's, moved by the shift
        num = lifted.faces[fc.objects[ref[0]][0]].num
        return [x + lifted.den * s for x, s in zip(num, ref[1])]

    start = refs.index(min(refs, key=barycenter))
    s = max(0, -min(x for _, u in refs for x in u))
    refs = [(orbit, tuple(x + s for x in u)) for orbit, u in refs[start:] + refs[:start]]
    words = [gamma_delta_word(ctx, ref) for ref in refs]
    two_k = len(words)
    k = two_k // 2
    relators = []
    for j in range(two_k - 1):
        w1 = []
        w2 = []
        for i in range(k):
            w1.extend(words[(j + i) % two_k])
            w2.extend(words[(j + 1 + i) % two_k])
        rel = free_reduce(list(w1) + list(invert_word(w2)))
        if rel:
            relators.append(rel)
    return relators


def build_context(spec, lifted, fc):
    return Pi1Context(spec, lifted, fc)


def presentation_from_context(ctx):
    n = ctx.n
    names = ctx.generator_names()
    relators = []
    for i in range(n):
        for j in range(i + 1, n):
            relators.append((i + 1, j + 1, -(i + 1), -(j + 1)))
    codim2 = sorted(e[0] for e, g in zip(ctx.fc.objects, ctx.fc.grades) if g == 2)
    for gfid in codim2:
        relators.extend(relations_for_G(ctx, gfid))
    return GroupPresentation(names, relators, tau_count=n)
