from collections import Counter
import json
from fractions import Fraction
from itertools import product
from operator import sub

from hypothesis import assume, given, settings, strategies as st
import pytest

from toricarr.errors import InternalError, SpecError
from toricarr.arrangement import parse_spec, essentialize
from toricarr.cells import (layers, opposite_chamber, chamber_fiber, torus_vertices,
                            VertexStars, code_at, code_leq, _dot)
from toricarr.exact import integer_kernel, rank, reduce_mod_lattice
from toricarr.pi1 import transverse_plane
from toricarr.category import check_acyclic

from conftest import BruteStars, Pipeline, covector_leq, moved_spec
from test_cli import SPEC_G1_01, SPEC_G2_00
from test_generated import Q_VALUES
from test_golden import DOCS


# the first three draws of the benchmark's generator family 1, and g2_00
GENERATED = {
    "g1_00": '{"rank":2,"hypersurfaces":[{"chi":[-1,0],"q":"1/3"},'
             '{"chi":[-1,1],"q":"1/2"},{"chi":[0,-1],"q":"1/4"}]}',
    "g1_01": SPEC_G1_01,
    "g1_02": '{"rank":1,"hypersurfaces":[{"chi":[2],"q":"0"},{"chi":[2],"q":"1/3"}]}',
    "g2_00": SPEC_G2_00,
}
CUT_CASES = dict({name: json.dumps(DOCS[name]) for name in
                  ("one_point", "two_points", "three_points", "diagonals", "grid",
                   "three_walls", "two_wall")}, **GENERATED)


def test_enumerate_line_points():
    # 2x = 0 and 3x = 1/2 meet the circle at 0, 1/2 and 1/6, 1/2, 5/6:
    # |det| points per source, 1/2 met twice
    sources = [((2,), 0, 1), ((3,), 1, 2)]
    scale, coords = torus_vertices(sources, 1)
    assert [Fraction(x, scale) for (x,) in coords] == \
        [0, Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]


def test_enumerate_requires_spanning():
    with pytest.raises(SpecError):
        torus_vertices([((1, 0), 0, 1), ((2, 0), 1, 2)], 2)


def test_torus_vertices_one_per_coset():
    # the rows (1, 1) and (1, -1) have determinant -2: two points modulo Z^2
    # for each choice of angles, (0, 0) and (1/2, 1/2) at angles 0
    scale, coords = torus_vertices([((1, 1), 0, 1), ((1, -1), 0, 1)], 2)
    assert [tuple(Fraction(x, scale) for x in p) for p in coords] == \
        [(0, 0), (Fraction(1, 2), Fraction(1, 2))]


def test_flat_touching_box_at_a_corner_has_no_face(catalog):
    # x + y = 0 and x + y = 2 meet the unit square only at a corner, and so
    # do x - y = 1 and x - y = -1; all four corners are the one vertex
    # (0, 0), met once, and no face lies on a corner alone
    stars = catalog("diagonals").stars
    vertices = [tuple(Fraction(x, stars.scale) for x in num) for num, _ in stars.vertices]
    assert vertices == [(0, 0), (Fraction(1, 2), Fraction(1, 2))]
    assert BruteStars(catalog("diagonals").spec).vertices == vertices
    origin = stars.canonical((code_at(stars.sources, (0, 0)),))[0]
    for corner in product((0, 1), repeat=2):
        code = code_at(stars.sources, tuple(map(Fraction, corner)))
        assert stars.canonical((code,))[0] == origin
    assert catalog("diagonals").fc.census() == [2, 4, 2]


def test_flat_touching_box_at_a_corner_with_strict_signs():
    # x + y = 0 meets the unit square only at the corners (0, 0) and
    # (1, 1), off the walls x = 1/2 + k and y = 1/2 + k: each corner lies
    # on an edge, and the one vertex is (1/2, 1/2), where all three meet
    spec = parse_spec('{"rank":2,"hypersurfaces":[{"chi":[1,1],"q":"0"},'
                      '{"chi":[1,0],"q":"1/2"},{"chi":[0,1],"q":"1/2"}]}')
    stars = VertexStars(spec)
    assert [tuple(Fraction(x, stars.scale) for x in num) for num, _ in stars.vertices] == \
        [(Fraction(1, 2), Fraction(1, 2))]
    assert BruteStars(spec).vertices == [(Fraction(1, 2), Fraction(1, 2))]
    for corner in ((0, 0), (1, 1)):
        code = code_at(stars.sources, tuple(map(Fraction, corner)))
        assert [c & 1 for c in code] == [0, 1, 1] and stars.codim(code) == 1
    assert stars.face_category().census() == [1, 3, 2]


@st.composite
def spanning_arrangements(draw, rank_):
    # two or three walls; small characters in rank 3
    entries = st.integers(-1, 2) if rank_ == 2 else st.integers(-1, 1)
    chi = st.lists(entries, min_size=rank_, max_size=rank_).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(("0", "1/2", "1/3"))),
                          min_size=rank_, max_size=3, unique=True)
                 .filter(lambda ws: rank([c for c, _ in ws]) == rank_))
    return {"rank": rank_,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


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
    for (alpha, _), (y, _) in zip(spec4.hypersurfaces, work.hypersurfaces):
        assert tuple(_dot(y, col) for col in zip(*basis)) == alpha
    # the transverse plane of every codim-2 face at a vertex of the
    # rank-3 stars: its rows are orthogonal to the flat's direction, and
    # c times the identity, c > 0, on the columns where the direction's
    # Hermite form has no pivot
    stars = VertexStars(parse_spec(json.dumps(doc)))
    for _, faces in stars.vertices:
        for f in faces:
            if stars.codim(f) != 2:
                continue
            normals = [a for a, c in zip(stars.alphas, f) if not c & 1]
            kernel = integer_kernel(normals, 3)
            rows = transverse_plane(normals, 3)
            assert not any(_dot(row, v) for row in rows for v in kernel)
            pivots = {next(j for j, x in enumerate(v) if x) for v in kernel}
            free = [j for j in range(3) if j not in pivots]
            c = rows[0][free[0]]
            assert c > 0
            assert [[row[j] for j in free] for row in rows] == [[c, 0], [0, c]]


@st.composite
def bounded_arrangements(draw, rank_, bound):
    chi = st.lists(st.integers(-bound, bound), min_size=rank_, max_size=rank_).filter(any)
    walls = draw(st.lists(st.tuples(chi.map(tuple), st.sampled_from(("0", "1/2", "1/3"))),
                          min_size=rank_, max_size=3, unique=True)
                 .filter(lambda ws: rank([c for c, _ in ws]) == rank_))
    return {"rank": rank_,
            "hypersurfaces": [{"chi": list(c), "q": q} for c, q in walls]}


@pytest.mark.parametrize("rank_,bound", [(2, 1), (2, 2), (3, 1), (3, 2)])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_candidates_match_reference(rank_, bound, data):
    # the vertices from the sources' Hermite forms are those of one
    # Fraction solve per choice of n lifted hyperplanes through the unit
    # cube, character entries in [-bound, bound]
    doc = data.draw(bounded_arrangements(rank_, bound))
    spec = parse_spec(json.dumps(doc))
    stars = VertexStars(spec)
    scale, coords = torus_vertices(stars.sources, rank_)
    assert [tuple(Fraction(x, scale) for x in p) for p in coords] == \
        BruteStars(spec).vertices, doc


def face_vertices(brute, code, reach):
    """The vertices in the closure of the face with this code, among the
    brute-force vertices moved by every u in [-reach, reach]^n, in
    Fractions; none may need the outermost moves."""
    found = []
    for v in brute.vertices:
        for u in product(range(-reach, reach + 1), repeat=brute.n):
            w = tuple(x + s for x, s in zip(v, u))
            if code_leq(brute.code(w), code):
                assert reach not in map(abs, u), (code, w)
                found.append(w)
    return found


def test_vertex_ids_and_barycenters_match_reference():
    # each orbit's barycenter is the mean of the vertices in the closure of
    # its face with that barycenter, all in Fraction arithmetic, and lies
    # in [0,1)^n
    for name, doc in CUT_CASES.items():
        spec = parse_spec(doc)
        stars, brute = VertexStars(spec), BruteStars(spec)
        den, canon = stars.barycenters()
        for code, num in canon.values():
            verts = face_vertices(brute, code, 3)
            mean = tuple(sum(xs) / len(verts) for xs in zip(*verts))
            assert mean == tuple(Fraction(x, den) for x in num), (name, code)
            assert all(0 <= x < 1 for x in mean), (name, code)


def test_sign_vectors_strict_on_barycenter():
    # each orbit's barycenter lies inside its face: the point's code is
    # the face's, so its signs are strict off the face's hyperplanes
    for name, doc in list(CUT_CASES.items()) + [("r3", json.dumps(DOCS["r3"]))]:
        stars = VertexStars(parse_spec(doc))
        den, canon = stars.barycenters()
        for code, num in canon.values():
            assert code_at(stars.sources, [Fraction(x, den) for x in num]) == code, (name, code)


def test_translate_matches_reference_locate():
    # a face moved by u is the face whose code is its code plus
    # 2 <alpha_i, u>: the code the brute-force reference reads at its
    # barycenter moved by u
    for name, doc in list(CUT_CASES.items()) + [("r3", json.dumps(DOCS["r3"]))]:
        spec = parse_spec(doc)
        stars, brute = VertexStars(spec), BruteStars(spec)
        den, canon = stars.barycenters()
        for code, num in canon.values():
            for u in product((-1, 0, 2), repeat=spec.rank):
                point = tuple(Fraction(x, den) + s for x, s in zip(num, u))
                moved = tuple(c + 2 * _dot(a, u) for c, a in zip(code, stars.alphas))
                assert brute.code(point) == moved, (name, code, u)
                assert stars.lattice_vector(tuple(m - c for m, c in zip(moved, code))) == u


def test_locate_clears_large_denominators(catalog):
    # no vertex has a denominator 53 or 59; the face orbit with a point's
    # code is the one containing it
    stars = catalog("three_points").stars
    (key,), _ = stars.canonical((code_at(stars.sources, (Fraction(1, 53),)),))
    den, canon = stars.barycenters()
    assert Fraction(canon[key][1][0], den) == Fraction(1, 8)
    stars = catalog("diagonals").stars
    point = (Fraction(1, 53), Fraction(-7, 59))
    code = code_at(stars.sources, point)
    assert code == BruteStars(catalog("diagonals").spec).code(point)
    assert stars.codim(code) == 0


# (name, document): the catalog but coord3, the generated cases and r3
CODE_CASES = [(name, json.dumps(doc)) for name, doc in DOCS.items()
              if name in ("one_point", "two_points", "three_points", "diagonals", "grid",
                          "three_walls", "r3")] + list(GENERATED.items())


def test_codes_match_signs_and_locate():
    # a point's code is the one its signs on the lifted hyperplanes give,
    # in Fraction arithmetic, and names a face orbit of the stars, at
    # every 7th point of a grid of step 1/6 over [-1, 2]^n, which meets
    # the walls at angles 0, 1/3 and 1/2
    for name, doc in CODE_CASES:
        spec = parse_spec(doc)
        stars, brute = VertexStars(spec), BruteStars(spec)
        grid = [Fraction(j, 6) for j in range(-6, 13)]
        for point in list(product(grid, repeat=spec.rank))[::7]:
            code = code_at(stars.sources, point)
            assert code == brute.code(point), (name, point)
            assert stars.canonical((code,))[0][0] in stars.star, (name, point)


# -- quotient

def test_quotient_circle_with_one_point(catalog):
    pipe = catalog("one_point")
    fc = pipe.fc
    assert fc.census() == [1, 1]
    nonid = fc.morphisms[len(fc.objects):]
    assert len(nonid) == 2
    assert sorted(pipe.stars.lattice_vector(m.shift) for m in nonid) == [(0,), (1,)]


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
        ok, diags = check_acyclic(catalog(name).fc)
        assert ok, diags


def test_diagonals_window_has_diamonds(catalog):
    # each chamber orbit has four edges and four vertices in its closure,
    # as each uncut 2-face of the lift to a window had
    fc = catalog("diagonals").fc
    below = {}
    for m in fc.morphisms[len(fc.objects):]:
        below.setdefault(m.src, []).append(fc.grades[m.tgt])
    chambers = [k for k, g in enumerate(fc.grades) if g == 0]
    assert len(chambers) == 2
    for k in chambers:
        assert sorted(below[k]) == [1, 1, 1, 1, 2, 2, 2, 2]


def test_quotient_window_independent(catalog):
    # the face category, once stable under enlarging the lift's window, is
    # stable under a change of coordinates and base point (`moved_spec`)
    for name in ("one_point", "diagonals", "grid"):
        fc = catalog(name).fc
        moved = Pipeline(name, moved_spec(catalog(name).spec)).fc
        assert fc.census() == moved.census()
        assert len(fc.morphisms) == len(moved.morphisms)
        assert sorted(fc.morphism_multiplicities().values()) == \
            sorted(moved.morphism_multiplicities().values())


# -- layers

def test_layers_one_point(catalog):
    pipe = catalog("one_point")
    lp = layers(pipe.stars)
    assert lp.census() == {1: 1, 0: 1}


def test_layers_diagonals(catalog):
    pipe = catalog("diagonals")
    lp = layers(pipe.stars)
    assert lp.census() == {2: 1, 1: 2, 0: 2}
    top = max(range(len(lp.layers)), key=lambda i: lp.layers[i].dim)
    below_top = {a for a, b in lp.relations if b == top}
    assert len(below_top) == 4
    # each point layer sits inside both circle layers
    for l in lp.layers:
        if l.dim == 0:
            ups = {b for a, b in lp.relations if a == l.index}
            assert len(ups) == 3


@pytest.mark.parametrize("name,betti,census", [
    # mu(T, p) = -1 at the point of the circle
    ("one_point", [1, 2], [1, 1]),
    # two points on each of two circles meeting at two points
    ("diagonals", [1, 4, 5], [2, 4, 2]),
    ("coord3", [1, 6, 12, 8], [1, 3, 3, 1]),
    ("r3", [1, 9, 30, 39], [15, 48, 50, 17]),
])
def test_layer_references(name, betti, census):
    # the Poincare polynomial's Betti numbers and the toric Zaslavsky face
    # count from the layer poset alone; r3's are those `homology` and
    # `faces` print
    spec = parse_spec(json.dumps(DOCS[name]))
    lp = layers(VertexStars(spec))
    assert (lp.poincare_betti(), lp.face_census()) == (betti, census)


def test_reduce_mod_lattice_is_exact_on_large_ints():
    # a float division would round (10**17 + 1) / 3 and floor it to the
    # wrong multiple
    assert reduce_mod_lattice((10**17 + 1,), [[3]]) == ((2,), [33333333333333333])
    assert reduce_mod_lattice((Fraction(7, 2), 5), [[2, 1], [0, 3]])[0] == \
        (Fraction(3, 2), 1)


# -- local operations

def project(f, g):
    """Signs of the face with code g on the hyperplanes through the face
    with code f, which lies in g's closure."""
    return tuple(b - a for a, b in zip(f, g) if not a & 1)


def chambers_at(stars, f):
    """The chambers at the representative face f of an orbit: itself, or
    its cofaces of codimension 0."""
    _, cofaces = stars.star[stars.canonical((f,))[0][0]]
    return [g for g in [f] + cofaces if stars.codim(g) == 0]


def test_project_chamber_is_constant(catalog):
    stars = catalog("diagonals").stars
    c = next(f for f, _ in stars.star.values() if stars.codim(f) == 0)
    assert {project(c, g) for g in chambers_at(stars, c)} == {()}


def test_project_vertex_separates_quadrants(catalog):
    stars = catalog("diagonals").stars
    num, faces = stars.vertices[0]
    assert not any(num)
    vertex = next(f for f in faces if stars.codim(f) == 2)
    chambers = chambers_at(stars, vertex)
    assert len(chambers) == 4
    assert len({project(vertex, c) for c in chambers}) == 4


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
    with pytest.raises(InternalError):
        opposite_chamber((3,), (0,))
    with pytest.raises(InternalError):
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
    # for faces e < f < g at one vertex of the periodic arrangement,
    # composing the orbits of f -> e and g -> f gives the orbit of g -> e
    for stars in (catalog("diagonals").stars, VertexStars(parse_spec(json.dumps(DOCS["r3"])))):
        fc = stars.face_category()

        def morphism(upper, lower):
            (g,), s_g = stars.canonical((upper,))
            (f,), s_f = stars.canonical((lower,))
            return fc.by_rep[(fc.index[(g,)], fc.index[(f,)], tuple(map(sub, s_f, s_g)))]

        for _, faces in stars.vertices:
            ups = {f: [g for g in faces if g != f and code_leq(f, g)] for f in faces}
            for e in faces:
                for f in ups[e]:
                    for g in ups[f]:
                        assert fc.compose(morphism(f, e), morphism(g, f)) == morphism(g, e)


# -- the categories from vertex stars against the lifted hyperplanes, read
# by the brute-force reference of `conftest.BruteStars`

def assert_stars_match_lift(doc):
    spec, _ = essentialize(parse_spec(json.dumps(doc)))
    stars, brute = VertexStars(spec), BruteStars(spec)
    n = spec.rank
    # one star per vertex orbit, at its translate in [0,1)^n, sorted
    assert [tuple(Fraction(x, stars.scale) for x in num) for num, _ in stars.vertices] \
        == brute.vertices
    fc, z = stars.face_category(), stars.salvetti_category()
    orbits = brute.face_orbits()
    assert sorted(brute.canonical(f)[0] for (f,) in fc.objects) == sorted(orbits)
    assert fc.census() == [sum(brute.dim(f) == d for f in orbits) for d in range(n + 1)]

    def names(cat, m):
        return (brute.canonical(*cat.objects[m.src]), brute.canonical(*cat.objects[m.tgt]))

    assert Counter((g, f) for (g,), (f,) in (names(fc, m) for m in fc.morphisms[len(fc.objects):])) \
        == brute.incidences()
    objects, arrows = brute.salvetti()
    assert sorted(brute.canonical(*e) for e in z.objects) == sorted(objects)
    assert z.census() == [sum(n - brute.dim(f) == g for f, _ in objects) for g in range(n + 1)]
    assert Counter(names(z, m) for m in z.morphisms[len(z.objects):]) == arrows


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


@pytest.mark.parametrize("name", ["coincident", "nonessential", "g2_00", "three_walls_2", "r3"])
def test_stars_match_lift(name):
    # two sources share their hyperplanes at the integers; a rank-3 spec
    # whose characters span rank 2; a chamber orbit reaching far from its
    # vertex; parallel characters (2, -2) and (-1, 1); oblique rank-3 walls
    docs = dict(DOCS, coincident={"rank": 1, "hypersurfaces": [
        {"chi": [1], "q": "0"}, {"chi": [2], "q": "0"}]})
    assert_stars_match_lift(docs[name])


def test_code_leq_is_the_closure_order():
    # f lies in the closure of g exactly when f's sign vector at a shared
    # vertex lies below g's
    for name in ("diagonals", "three_walls", "r3"):
        brute = BruteStars(parse_spec(json.dumps(DOCS[name])))
        for star in brute.stars:
            for (f, s), (g, t) in product(star, repeat=2):
                assert code_leq(f, g) == covector_leq(s, t), (name, f, g)
