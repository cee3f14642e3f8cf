import json
import math
from fractions import Fraction
from itertools import combinations, product

from hypothesis import assume, given, settings, strategies as st
import pytest

from toricarr.errors import SpecError, WindowError
from toricarr.arrangement import (AffineHyperplane, Window, parse_spec,
                                  lift_to_window, essentialize, window_cap)
from toricarr.cells import (enumerate_faces, quotient_faces, layers,
                            opposite_chamber, chamber_fiber, candidate_vertices,
                            SignTable, VertexStars, same_quotient, code_at,
                            code_leq, _bits, _dot, _reduce_mod_lattice)
from toricarr.salvetti import toric_salvetti
from toricarr.exact import rank
from toricarr.category import check_acyclic

from conftest import CATALOG, sign_vector, solve_affine
from test_cli import SPEC_G1_01, SPEC_G2_00
from test_generated import Q_VALUES
from test_golden import DOCS


def inside(window, point):
    """The point lies in the closed window box."""
    return all(a <= x <= b for a, x, b in zip(window.lo, point, window.hi))


def line_arrangement(cs, window):
    hps = [AffineHyperplane((1,), c, 0, k) for k, c in enumerate(cs)]
    return enumerate_faces(hps, window)


def crossing_lines(window):
    hps = [AffineHyperplane((1, 0), 0, 0, 0), AffineHyperplane((0, 1), 0, 1, 0)]
    return enumerate_faces(hps, window)


# the first three draws of the benchmark's generator family 1, and g2_00
GENERATED = {
    "g1_00": '{"rank":2,"hypersurfaces":[{"chi":[-1,0],"q":"1/3"},'
             '{"chi":[-1,1],"q":"1/2"},{"chi":[0,-1],"q":"1/4"}]}',
    "g1_01": SPEC_G1_01,
    "g1_02": '{"rank":1,"hypersurfaces":[{"chi":[2],"q":"0"},{"chi":[2],"q":"1/3"}]}',
    "g2_00": SPEC_G2_00,
}
CUT_CASES = dict({name: json.dumps(doc) for name, doc in CATALOG.items()
                  if name != "coord3"}, **GENERATED)


# -- enumeration

def test_enumerate_line_points():
    lifted = line_arrangement([0, 1], Window([-1], [2]))
    verts = sorted(f.barycenter[0] for f in lifted.faces if f.dim == 0)
    edges = sorted(f.barycenter[0] for f in lifted.faces if f.dim == 1)
    assert verts == [0, 1]
    assert edges == [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]


def test_enumerate_requires_spanning():
    with pytest.raises(SpecError):
        enumerate_faces([], Window([-1], [2]))
    with pytest.raises(SpecError):
        enumerate_faces([AffineHyperplane((1, 0), 0, 0, 0)], Window.standard(2))


@pytest.mark.parametrize("name", CUT_CASES)
def test_boundary_cut_agrees_with_larger_window(name):
    # a window-1 face is cut exactly when the window-2 face containing it
    # is cut there or has a vertex outside window 1
    spec = parse_spec(CUT_CASES[name])
    small, big = (Window.standard(spec.rank, k) for k in (1, 2))
    lifted1 = enumerate_faces(lift_to_window(spec, small), small)
    lifted2 = enumerate_faces(lift_to_window(spec, big), big)
    for f in lifted1.faces:
        g = lifted2.by_code[lifted1.codes[f.id]]
        expected = lifted2.faces[g].boundary_cut or any(
            lifted2.faces[v].dim == 0 and not inside(small, lifted2.faces[v].barycenter)
            for v in lifted2.lowers[g])
        assert f.boundary_cut == expected, f


def test_diagonals_window_has_diamonds(catalog):
    lifted = catalog("diagonals").lifted
    by_dim = {}
    for f in lifted.faces:
        by_dim.setdefault(f.dim, []).append(f)
    # interior diamonds have four boundary edges and four vertices
    interior = [f for f in by_dim[2] if not f.boundary_cut]
    assert interior
    for f in interior:
        lows = lifted.lowers[f.id]
        dims = sorted(lifted.faces[g].dim for g in lows)
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1]


def reference_candidates(hyperplanes, window):
    """Every point cut out by n independent planes among the hyperplanes
    and the box walls and lying in the closed box, by one Fraction solve
    per n-subset of planes."""
    n = window.dim
    planes = [(h.alpha, h.c) for h in hyperplanes]
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        planes += [(e, window.lo[j]), (e, window.hi[j])]
    points = set()
    for combo in combinations(planes, n):
        sol = solve_affine([a for a, _ in combo], [c for _, c in combo])
        if sol is not None and not sol[1] and inside(window, sol[0]):
            points.add(sol[0])
    return points


@st.composite
def spanning_arrangements(draw, rank_):
    # two or three walls; small characters in rank 3 keep the reference's
    # solves few
    entries = st.integers(-1, 2) if rank_ == 2 else st.integers(-1, 1)
    chi = st.lists(entries, min_size=rank_, max_size=rank_).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(("0", "1/2", "1/3"))),
                          min_size=rank_, max_size=3, unique=True)
                 .filter(lambda ws: rank([c for c, _ in ws]) == rank_))
    return {"rank": rank_,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


@pytest.mark.parametrize("rank_,k", [(2, 1), (2, 2), (3, 1), (3, 2)])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_candidates_match_reference(rank_, k, data):
    doc = data.draw(spanning_arrangements(rank_))
    spec = parse_spec(json.dumps(doc))
    window = Window.standard(spec.rank, k)
    hyperplanes = lift_to_window(spec, window)
    scale, coords = candidate_vertices(hyperplanes, window)
    cand = [tuple(Fraction(x, scale) for x in p) for p in coords]
    assert set(cand) == reference_candidates(hyperplanes, window), (doc, k)
    assert cand == sorted(set(cand))
    if spec.rank == 2:
        # the sign table's masks hold the candidates' signs
        table = SignTable(hyperplanes, scale, coords)
        for i, p in enumerate(cand):
            for h, s in enumerate(reference_signs(hyperplanes, p)):
                assert (table.pos[h] >> i & 1, table.neg[h] >> i & 1,
                        table.zero[h] >> i & 1) == (s > 0, s < 0, s == 0), (doc, k, p, h)


def integer_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(spanning_arrangements(3),
       st.integers(1, 3).flatmap(lambda j: st.tuples(integer_matrices(3, j),
                                                      integer_matrices(j, 4))))
def test_essentialize_and_flats_in_integers(doc, factors):
    # the characters pushed into Z^4 through Z^j span at most rank j: each
    # comes back from its essentialized coordinates times the basis
    a, b = factors
    walls = []
    for h in doc["hypersurfaces"]:
        y = [_dot(h["chi"], col) for col in zip(*a)]
        walls.append((tuple(_dot(y, col) for col in zip(*b)), h["q"]))
    assume(all(any(chi) for chi, _ in walls) and len(set(walls)) == len(walls))
    spec4 = parse_spec(json.dumps({"rank": 4, "hypersurfaces": [
        {"chi": list(chi), "q": q} for chi, q in walls]}))
    work, basis = essentialize(spec4)
    assert work.rank <= len(b)
    for (chi, _), (y, _) in zip(spec4.hypersurfaces, work.hypersurfaces):
        assert tuple(_dot(y.alpha, col) for col in zip(*basis)) == chi.alpha
    # every flat of the rank-3 lift: its direction rows are independent
    # and orthogonal to their normals
    spec = parse_spec(json.dumps(doc))
    window = Window.standard(3)
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    for zero, rows in lifted.flats:
        planes = [lifted.hyperplanes[i] for i in zero]
        assert not any(_dot(h.alpha, v) for h in planes for v in rows)
        assert len(rows) == 3 - rank([h.alpha for h in planes]) == rank(rows)


def test_flat_touching_box_at_a_corner_has_no_face(catalog):
    # x + y = -2 and x + y = 4 meet the box [-1,2]^2 only at a corner,
    # x - y = -3 and x - y = 3 too, and x -/+ y = 0 passes through it
    lifted = catalog("diagonals").lifted
    assert (len(lifted.flats), len(lifted.faces)) == (40, 85)
    corner_flats = set()
    for zero, _ in lifted.flats:
        planes = {(lifted.hyperplanes[i].alpha, lifted.hyperplanes[i].c) for i in zero}
        if planes in ({((1, 1), -2)}, {((1, 1), 4)}, {((1, -1), -3)}, {((1, -1), 3)}):
            corner_flats.add(zero)
    assert len(corner_flats) == 4
    # a face's zero set is the zero set of its flat
    assert not corner_flats & {frozenset(_bits(lifted.zero_mask(f.id))) for f in lifted.faces}


def test_flat_touching_box_at_a_corner_with_strict_signs():
    # x + y = -2 meets the box [-1,2]^2 only at (-1,-1), off the walls
    # x = 1/2 + k and y = 1/2 + k, so the corner is a cut 1-face; so is (2,2)
    spec = parse_spec('{"rank":2,"hypersurfaces":[{"chi":[1,1],"q":"0"},'
                      '{"chi":[1,0],"q":"1/2"},{"chi":[0,1],"q":"1/2"}]}')
    window = Window.standard(2, 1)
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    assert len(lifted.faces) == 79
    corners = [f.barycenter for f in lifted.faces
               if f.dim == 1 and f.boundary_cut and len(f.vertex_ids) == 1]
    assert corners == [(-1, -1), (2, 2)]


def reference_signs(hyperplanes, point):
    """Signs of <alpha, point> - c in Fraction arithmetic."""
    out = []
    for h in hyperplanes:
        v = sum(a * Fraction(x) for a, x in zip(h.alpha, point)) - h.c
        out.append((v > 0) - (v < 0))
    return tuple(out)


def test_sign_vectors_strict_on_barycenter():
    for name, doc in CUT_CASES.items():
        spec = parse_spec(doc)
        for k in (1, 2):
            window = Window.standard(spec.rank, k)
            lifted = enumerate_faces(lift_to_window(spec, window), window)
            for f in lifted.faces:
                assert reference_signs(lifted.hyperplanes, f.barycenter) == \
                    sign_vector(lifted, f.id), (name, k, f)
                assert lifted.by_code[code_at(lifted.sources, f.barycenter)] == f.id, \
                    (name, k, f)
    # x = 7/3 misses the box, so no candidate vertex has a denominator 3
    lifted = line_arrangement([0, Fraction(7, 3)], Window([-1], [2]))
    for f in lifted.faces:
        assert reference_signs(lifted.hyperplanes, f.barycenter) == \
            sign_vector(lifted, f.id), f


def test_vertex_ids_and_barycenters_match_reference():
    # a face's vertices are the candidates in its closure, those whose
    # signs are zero or the face's on every hyperplane, and its barycenter
    # is their mean, all in Fraction arithmetic
    for name, doc in CUT_CASES.items():
        spec = parse_spec(doc)
        for k in (1, 2):
            window = Window.standard(spec.rank, k)
            hyperplanes = lift_to_window(spec, window)
            lifted = enumerate_faces(hyperplanes, window)
            cand = sorted(reference_candidates(hyperplanes, window))
            signs = [reference_signs(hyperplanes, p) for p in cand]
            for f in lifted.faces:
                fsig = sign_vector(lifted, f.id)
                ids = tuple(i for i, sig in enumerate(signs)
                            if all(a == 0 or a == b for a, b in zip(sig, fsig)))
                assert f.vertex_ids == ids, (name, k, f)
                mean = tuple(sum(xs) / len(ids) for xs in zip(*(cand[i] for i in ids)))
                assert f.barycenter == mean, (name, k, f)


def test_locate_clears_large_denominators(catalog):
    # no candidate vertex has a denominator 53 or 59; the face with a
    # point's code contains it
    lifted = catalog("three_points").lifted
    fid = lifted.by_code[code_at(lifted.sources, (Fraction(1, 53),))]
    assert lifted.faces[fid].barycenter == (Fraction(1, 8),)
    lifted = catalog("diagonals").lifted
    point = (Fraction(1, 53), Fraction(-7, 59))
    fid = lifted.by_code[code_at(lifted.sources, point)]
    assert sign_vector(lifted, fid) == reference_signs(lifted.hyperplanes, point)
    assert lifted.faces[fid].dim == 2


def source_slabs(lifted):
    """(alpha, lo, hi) per source: the constants of the unlifted
    hyperplanes next to its lifted ones, below the lowest and above the
    highest; both miss the box."""
    runs = {}
    for h in lifted.hyperplanes:
        runs.setdefault(h.source, []).append(h)
    return [(run[0].alpha, min(h.c for h in run) - 1, max(h.c for h in run) + 1)
            for run in runs.values()]


def reference_translate(lifted, slabs, by_masks, fid, u):
    """The face fid + u, read at the moved barycenter x in Fraction
    arithmetic.  The face leaves the window when x lies on or beyond
    an unlifted hyperplane of `source_slabs`.  Otherwise it is the face
    with x's signs on the lifted hyperplanes, each sign being
    <alpha, x> - c with x and c put over one denominator, looked up in
    `by_masks`, and it leaves the window when no face has them."""
    point = tuple(x + s for x, s in zip(lifted.faces[fid].barycenter, u))
    den = math.lcm(*(x.denominator for x in point))
    num = [x.numerator * (den // x.denominator) for x in point]
    leaves = WindowError("face %d moved by %s leaves the window" % (fid, u))
    for alpha, lo, hi in slabs:
        if not lo * den < sum(a * x for a, x in zip(alpha, num)) < hi * den:
            raise leaves
    plus = minus = 0
    for i, h in enumerate(lifted.hyperplanes):
        v = sum(a * x for a, x in zip(h.alpha, num)) * h.c.denominator - h.c.numerator * den
        plus |= (v > 0) << i
        minus |= (v < 0) << i
    got = by_masks.get((plus, minus))
    if got is None:
        raise leaves
    return got


def outcome(fn, *args):
    try:
        return fn(*args)
    except WindowError as e:
        return str(e)


# (name, document, window, step): every step-th face moves.  r3 has 4327
# faces at window 1 and 18471 at window 2; all of them would take most of
# the tier-1 time budget
TRANSLATE_CASES = [(name, doc, k, 1) for name, doc in CUT_CASES.items()
                   for k in (1, 2)] + [("r3", json.dumps(DOCS["r3"]), 1, 23)]


def test_translate_matches_reference_locate():
    # signs moved from a lifted pre-image, and signs fixed by the side of
    # the box that a pre-image outside the lift lies on; faces found with
    # the moved barycenter outside the box, and faces that leave the box
    paths = {"lifted": 0, "fixed": 0, "found outside": 0, "leaves": 0}
    for name, doc, k, step in TRANSLATE_CASES:
        spec = parse_spec(doc)
        window = Window.standard(spec.rank, k)
        lifted = enumerate_faces(lift_to_window(spec, window), window)
        lifted_at = {(h.source, h.shift) for h in lifted.hyperplanes}
        slabs = source_slabs(lifted)
        by_masks = {f.signs: f.id for f in lifted.faces}
        for u in product((-1, 0, 1), repeat=spec.rank):
            if not any(u):
                continue
            moved = sum((h.source, h.shift - sum(a * s for a, s in zip(h.alpha, u)))
                        in lifted_at for h in lifted.hyperplanes)
            for f in lifted.faces[::step]:
                got = outcome(lifted.translate, f.id, u)
                assert got == outcome(reference_translate, lifted, slabs, by_masks,
                                      f.id, u), (name, k, f, u)
                if isinstance(got, int):
                    paths["lifted"] += moved
                    paths["fixed"] += len(lifted.hyperplanes) - moved
                    paths["found outside"] += not inside(
                        window, tuple(x + s for x, s in zip(f.barycenter, u)))
                else:
                    paths["leaves"] += 1
    assert all(paths.values()), paths


def reference_code(lifted, fid):
    """The face's code read from its signs: per source, with k0 its lowest
    lifted shift and p the count of its lifted hyperplanes with the face on
    their + side, 2 (k0 + p) when the face lies on one of them and
    2 (k0 + p) - 1 otherwise."""
    sig = sign_vector(lifted, fid)
    by_source = {}
    for h, s in zip(lifted.hyperplanes, sig):
        by_source.setdefault(h.source, []).append((h.shift, s))
    return tuple(2 * (min(k for k, _ in run) + sum(s > 0 for _, s in run))
                 - (0 not in {s for _, s in run}) for run in by_source.values())


# (name, document, window): the cut cases at windows 1 and 2, and r3
CODE_CASES = [(name, doc, k) for name, doc in CUT_CASES.items() for k in (1, 2)] + \
    [("r3", json.dumps(DOCS["r3"]), 1)]


def test_codes_match_signs_and_locate():
    # each face's code is the one its signs give, no two faces share one,
    # and a point's code names the face with the point's reference signs
    # at every 7th point off the vertices of a grid of step 1/6, which
    # meets the walls at angles 0, 1/3 and 1/2
    for name, doc, k in CODE_CASES:
        spec = parse_spec(doc)
        window = Window.standard(spec.rank, k)
        lifted = enumerate_faces(lift_to_window(spec, window), window)
        codes = [reference_code(lifted, f.id) for f in lifted.faces]
        assert lifted.codes == codes, (name, k)
        assert len(set(codes)) == len(codes), (name, k)
        face_of_signs = {sign_vector(lifted, f.id): f.id for f in lifted.faces}
        grid = [[lo + Fraction(j, 6) for j in range(int(6 * (hi - lo)) + 1)]
                for lo, hi in zip(window.lo, window.hi)]
        vertices = {f.barycenter for f in lifted.faces if f.dim == 0}
        points = [p for p in product(*grid) if p not in vertices]
        for point in points[::7]:
            assert lifted.by_code[code_at(lifted.sources, point)] == \
                face_of_signs[reference_signs(lifted.hyperplanes, point)], (name, k, point)


# -- quotient

def test_quotient_circle_with_one_point(catalog):
    fc = catalog("one_point").fc
    assert fc.census() == [1, 1]
    nonid = fc.morphisms[len(fc.objects):]
    assert len(nonid) == 2
    assert sorted(m.shift for m in nonid) == [(0,), (1,)]


def test_quotient_diagonals_census(catalog):
    assert catalog("diagonals").fc.census() == [2, 4, 2]


def test_quotient_grid_is_poset(catalog):
    fc = catalog("grid").fc
    assert all(c <= 1 for c in fc.morphism_multiplicities().values())


def test_quotient_euler_vanishes(catalog):
    for name in ("one_point", "two_points", "diagonals", "grid", "coord3"):
        fc = catalog(name).fc
        assert sum((-1) ** d * c for d, c in enumerate(fc.census())) == 0


def test_quotient_category_axioms(catalog):
    for name in ("one_point", "diagonals", "grid"):
        ok, diags = check_acyclic(catalog(name).fc.as_category())
        assert ok, diags


def test_quotient_window_independent(catalog):
    for name in ("one_point", "diagonals", "grid"):
        small = catalog(name, 1).fc
        large = catalog(name, 2).fc
        assert small.census() == large.census()
        assert len(small.morphisms) == len(large.morphisms)
        assert sorted(small.morphism_multiplicities().values()) == \
            sorted(large.morphism_multiplicities().values())


def test_quotient_requires_core_window():
    spec = parse_spec('{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"}]}')
    window = Window([0], [1])
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    with pytest.raises(WindowError):
        quotient_faces(lifted)


# -- layers

def test_layers_one_point(catalog):
    pipe = catalog("one_point")
    lp = layers(pipe.spec, pipe.stars)
    assert lp.census() == {1: 1, 0: 1}


def test_layers_diagonals(catalog):
    pipe = catalog("diagonals")
    lp = layers(pipe.spec, pipe.stars)
    assert lp.census() == {2: 1, 1: 2, 0: 2}
    top = max(range(len(lp.layers)), key=lambda i: lp.layers[i].dim)
    below_top = {a for a, b in lp.relations if b == top}
    assert len(below_top) == 4
    # each point layer sits inside both circle layers
    for l in lp.layers:
        if l.dim == 0:
            ups = {b for a, b in lp.relations if a == l.index}
            assert len(ups) == 3


def test_reduce_mod_lattice_is_exact_on_large_ints():
    # a float division would round (10**17 + 1) / 3 and floor it to the
    # wrong multiple
    assert _reduce_mod_lattice((10**17 + 1,), [[3]]) == ((2,), [33333333333333333])
    assert _reduce_mod_lattice((Fraction(7, 2), 5), [[2, 1], [0, 3]])[0] == \
        (Fraction(3, 2), 1)


# -- local operations

def project(lifted, fid, g):
    """Signs of face g on the hyperplanes through face fid."""
    sig = sign_vector(lifted, g)
    return tuple(sig[i] for i in _bits(lifted.zero_mask(fid)))


def test_project_chamber_is_constant(catalog):
    lifted = catalog("diagonals").lifted
    cid = next(f.id for f in lifted.faces if f.dim == lifted.dim)
    assert {project(lifted, cid, g) for g in (cid,) + lifted.uppers[cid]} == {()}


def test_project_vertex_separates_quadrants(catalog):
    lifted = catalog("diagonals").lifted
    vertex = next(f.id for f in lifted.faces
                  if f.dim == 0 and f.barycenter == (0, 0))
    chambers = lifted.chambers_above(vertex)
    images = {project(lifted, vertex, g) for g in chambers}
    assert len(chambers) == 4
    assert len(images) == 4


def chambers_at(stars, f):
    """The chambers at the representative face f of an orbit: itself, or
    its cofaces of codimension 0."""
    _, cofaces = stars.star[stars.canonical((f,))[0][0]]
    return [g for g in [f] + cofaces if stars.codim(g) == 0]


def test_opposite_chamber_involution(catalog):
    stars = catalog("grid").stars
    facets = [f for f, _ in stars.star.values() if stars.codim(f) == 1]
    assert len(facets) == 8
    for f in facets:
        chambers = chambers_at(stars, f)
        assert len(chambers) == 2
        for c in chambers:
            opp = opposite_chamber(c, f)
            assert opposite_chamber(opp, f) == c
            assert opp != c and opp in chambers


def test_opposite_chamber_rejects_nonface():
    # one_point: the vertex 0 has the code (0,), the chamber (1, 2) the
    # code (3,); a code with an even entry is no chamber
    with pytest.raises(SpecError):
        opposite_chamber((3,), (0,))
    with pytest.raises(SpecError):
        opposite_chamber((2,), (2,))


def test_chamber_fiber_line():
    assert chamber_fiber((3,), (0,)) == (1,)


def test_chamber_fiber_contains_face(catalog):
    # every odd pair is a chamber of the diagonals
    stars = catalog("diagonals").stars
    for f, _ in stars.star.values():
        for c in [(a, b) for a in range(-3, 4, 2) for b in range(-3, 4, 2)]:
            fib = chamber_fiber(c, f)
            assert code_leq(f, fib)
            assert fib in chambers_at(stars, f)


def test_chamber_fiber_identity_when_adjacent(catalog):
    stars = catalog("diagonals").stars
    for f, _ in stars.star.values():
        for c in chambers_at(stars, f):
            assert chamber_fiber(c, f) == c


def test_quotient_functorial_on_lifted_incidences(catalog):
    # composing two incidence orbits through their lifts agrees with the
    # orbit of the composed incidence
    fc = catalog("diagonals").fc
    lifted = catalog("diagonals").lifted
    cat = fc.as_category()
    for k, (g,) in enumerate(fc.objects):
        for mid_fid in lifted.lowers[g]:
            for low_fid in lifted.lowers[mid_fid]:
                m1 = fc.by_rep[(k, (mid_fid,))]
                # translate the lower incidence into canonical position
                o_mid, u_mid = fc.key((mid_fid,))
                low_can = lifted.translate(low_fid, tuple(-x for x in u_mid))
                m2 = fc.by_rep[(o_mid, (low_can,))]
                composed = cat.compose(m2, m1)
                direct = fc.by_rep[(k, (low_fid,))]
                assert composed == direct


# -- the categories from vertex stars against the lift

def lift_reference(spec):
    """The lift at the first window where its face and Salvetti quotients
    exist, with those two categories."""
    for k in range(1, window_cap(spec) + 1):
        window = Window.standard(spec.rank, k)
        lifted = enumerate_faces(lift_to_window(spec, window), window)
        try:
            fc = quotient_faces(lifted)
            return lifted, fc, toric_salvetti(lifted, fc)
        except WindowError:
            continue
    raise AssertionError("the lift has no quotient up to the cap")


def assert_stars_match_lift(doc):
    spec, _ = essentialize(parse_spec(json.dumps(doc)))
    lifted, fc, z = lift_reference(spec)
    stars = VertexStars(spec)
    star_fc, star_z = stars.face_category(), stars.salvetti_category()
    # one star per vertex orbit
    assert len(stars.vertices) == fc.census()[0]
    # each orbit's translate with its barycenter in [0,1)^n is the lift's
    # canonical face, with its code and barycenter
    den, canon = stars.barycenters()
    assert sorted((code, tuple(Fraction(x, den) for x in num)) for code, num in canon.values()) \
        == sorted((lifted.codes[f], lifted.faces[f].barycenter) for (f,) in fc.objects)
    for lift_cat, star_cat in ((fc, star_fc), (z, star_z)):
        assert star_cat.census() == lift_cat.census()
        assert sorted(star_cat.morphism_multiplicities().values()) == \
            sorted(lift_cat.morphism_multiplicities().values())
        assert same_quotient(lifted, lift_cat, stars, star_cat)
    assert not same_quotient(lifted, fc, stars, star_z)


@st.composite
def ranks_two_and_three(draw):
    """Two or three walls in rank 2, entries in [-2, 2]; three or four in
    rank 3, entries in [-1, 1]; angles as in the `check` battery."""
    rank = draw(st.sampled_from((2, 3)))
    entries = st.integers(-2, 2) if rank == 2 else st.integers(-1, 1)
    chi = st.lists(entries, min_size=rank, max_size=rank).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(Q_VALUES)),
                          min_size=rank, max_size=rank + 1, unique=True))
    return {"rank": rank,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(ranks_two_and_three())
def test_stars_match_lift_on_generated(doc):
    assert_stars_match_lift(doc)


@pytest.mark.parametrize("name", ["coincident", "nonessential", "g2_00", "three_walls_2"])
def test_stars_match_lift(name):
    # two sources share the lift's integer walls; a rank-3 spec whose
    # characters span rank 2; a lift that needs window 2; flats with
    # non-integral directions
    docs = dict(DOCS, coincident={"rank": 1, "hypersurfaces": [
        {"chi": [1], "q": "0"}, {"chi": [2], "q": "0"}]})
    assert_stars_match_lift(docs[name])


def test_code_leq_is_the_closure_order(catalog):
    # f lies in the closure of g when f's sign masks lie in g's
    lifted = catalog("diagonals").lifted
    codes = lifted.codes
    for f in lifted.faces:
        for g in lifted.faces:
            (p1, q1), (p2, q2) = f.signs, g.signs
            assert code_leq(codes[f.id], codes[g.id]) == (not (p1 & ~p2 or q1 & ~q2))
