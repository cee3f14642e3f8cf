from collections import Counter
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from toricarr.errors import InternalError
from toricarr.arrangement import parse_spec, essentialize
from toricarr.cells import VertexStars
from toricarr.category import nerve_chains, boundary_matrices, homology
from toricarr.pi1 import (GroupPresentation, abelianize, simplify_presentation,
                          quotient_without_meridians,
                          positive_minimal_path, omega_paths, sigma,
                          delta_word, gamma_delta_word, h_of_G,
                          relations_for_G, build_context,
                          presentation_from_context, free_reduce, invert_word,
                          Crossing)

from test_cells import ranks_two_and_three


def context(doc):
    spec, _ = essentialize(parse_spec(json.dumps(doc)))
    stars = VertexStars(spec)
    return build_context(spec, stars, stars.face_category())


def code_of(ctx, ref):
    """The code of the face (orbit, u): the orbit's canonical code moved
    by u."""
    orbit, u = ref
    return tuple(c + 2 * sum(a * s for a, s in zip(alpha, u))
                 for c, alpha in zip(ctx.code[orbit], ctx.stars.alphas))


def wall(ctx, code):
    return ctx.crossing_of_face(code).wall


# -- minimal paths; on one_point the chamber (k, k + 1) has the code
# (2k + 1,) and the point k the code (2k,)

def test_minimal_path_trivial(catalog):
    ctx = catalog("one_point").ctx
    assert positive_minimal_path(ctx, ctx.c0, ctx.c0) == []


def test_minimal_path_adjacent(catalog):
    ctx = catalog("one_point").ctx
    steps = positive_minimal_path(ctx, (-1,), (1,))
    assert steps == [((0,), (-1,))]


def test_minimal_path_line(catalog):
    ctx = catalog("one_point").ctx
    steps = positive_minimal_path(ctx, (-1,), (3,))
    assert [f for f, _ in steps] == [(0,), (2,)]
    assert [x for _, x in steps] == [(-1,), (1,)]


def test_minimal_path_takes_the_first_separating_facet():
    # three walls x = y, x - 2y = 2/3 and x + 2y = 0: from the chamber
    # (1, -3, 5), three of its facets separate it from (-1, -1, 1), and the
    # walk leaves by the first of them in barycenter order
    ctx = context({"rank": 2, "hypersurfaces": [{"chi": [1, -1], "q": "0"},
                                                {"chi": [1, -2], "q": "2/3"},
                                                {"chi": [1, 2], "q": "0"}]})
    assert ctx.facets((1, -3, 5)) == [(1, -3, 4), (0, -3, 5), (1, -2, 5), (1, -3, 6)]
    assert positive_minimal_path(ctx, (1, -3, 5), (-1, -1, 1)) == [
        ((1, -3, 4), (1, -3, 5)), ((0, -3, 3), (1, -3, 3)),
        ((-1, -3, 2), (-1, -3, 3)), ((-1, -2, 1), (-1, -3, 1))]


def test_orbits_in_dimension_and_barycenter_order(catalog):
    # the diagonals' edges and vertices, by their canonical faces'
    # barycenters; their reduced codes order the edges otherwise
    ctx = catalog("diagonals").ctx

    def barycenters(orbits):
        return [tuple(Fraction(x, ctx.den) for x in ctx.bary[o]) for o in orbits]

    F = Fraction
    assert barycenters(ctx.codim1_orbits) == [
        (F(1, 4), F(1, 4)), (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (F(3, 4), F(3, 4))]
    assert [ctx.code[o] for o in ctx.codim1_orbits] == [(1, 0), (2, -1), (2, 1), (3, 0)]
    assert barycenters(ctx.codim2_orbits) == [(0, 0), (F(1, 2), F(1, 2))]


def test_minimal_path_crosses_each_wall_once(catalog):
    # every odd pair is a chamber of the diagonals, and a path between
    # two crosses the walls between them, each once
    ctx = catalog("diagonals").ctx
    chambers = [(a, b) for a in range(-3, 4, 2) for b in range(-3, 4, 2)]
    src = chambers[0]
    for dst in chambers:
        steps = positive_minimal_path(ctx, src, dst)
        walls = [wall(ctx, f) for f, _ in steps]
        assert len(walls) == len(set(walls))
        assert len(walls) == sum(abs(x - y) for x, y in zip(src, dst)) // 2


# -- crossing sequences

def test_omega_zero_is_empty(catalog):
    assert catalog("one_point").ctx.omega((0,)) == []


def test_omega_unit_line(catalog):
    ctx = catalog("one_point").ctx
    word = ctx.omega((1,))
    assert len(word) == 1
    assert (word[0].orbit, word[0].shift) == (ctx.codim1_orbits[0], (1,)) or \
        word[0].shift == (1,)
    # from x0 = 1/2, the unit leg crosses the point 1, and the second step,
    # the leg moved by 1, the point 2
    assert ctx.x0 == (Fraction(1, 2),)
    assert ctx.omega((2,)) == [(1, (1,), (0, 1)), (1, (2,), (0, 2))]


def test_omega_diagonals_horizontal(catalog):
    ctx = catalog("diagonals").ctx
    word = ctx.omega((1, 0))
    # one crossing per diagonal family along a horizontal unit segment
    assert len(word) == 2
    assert {c.wall[0] for c in word} == {0, 1}


def test_omega_rejects_negative(catalog):
    with pytest.raises(InternalError):
        omega_paths(catalog("one_point").ctx, (-1,))


def test_omega_crosses_family_members_once(catalog):
    for name in ("diagonals", "grid"):
        ctx = catalog(name).ctx
        for i in range(ctx.n):
            unit = tuple(int(j == i) for j in range(ctx.n))
            keys = [c.wall for c in ctx.omega(unit)]
            assert len(keys) == len(set(keys))
    # on the grid, from x0 = (1/3, 1/9): the leg along x crosses x = 1/2
    # and x = 1, then the leg along y, moved by (1, 0), y = 1/2 and y = 1
    ctx = catalog("grid").ctx
    assert ctx.omega((1, 1)) == [(14, (0, 0), (1, 0)), (5, (1, 0), (0, 1)),
                                 (11, (1, 0), (3, 0)), (7, (1, 1), (2, 1))]


# -- sigma reduction

def test_sigma_distinct_walls_unchanged():
    word = [Crossing(0, (0,), (0, 0)), Crossing(1, (0,), (1, 0))]
    assert sigma(word) == word


def test_sigma_deletes_odd_supported():
    a = Crossing(0, (0,), (0, 0))
    b = Crossing(0, (1,), (0, 0))     # same wall, later
    out = sigma([a, b])
    assert out == [b]


def sigma_by_passes(path):
    """sigma's definition: drop every crossing whose wall has an odd
    number of later crossings, again and again, until none has."""
    seq = list(path)
    while True:
        tail = Counter()
        marks = []
        for c in reversed(seq):
            marks.append(tail[c.wall] % 2 == 1)
            tail[c.wall] += 1
        marks.reverse()
        if not any(marks):
            return seq
        seq = [c for c, mk in zip(seq, marks) if not mk]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(-1, 1)), max_size=12))
def test_sigma_matches_its_definition(walls):
    # words over at most nine walls; each crossing its own orbit, so the
    # comparison sees which copy of a wall survives
    word = [Crossing(j, (0,), w) for j, w in enumerate(walls)]
    assert sigma(word) == sigma_by_passes(word)


def test_sigma_empty():
    assert sigma([]) == []


def test_sigma_is_fixpoint(catalog):
    ctx = catalog("diagonals").ctx
    word = ctx.omega((1, 1))
    out = sigma(word)
    assert sigma(out) == out


# -- delta words

def test_delta_empty_for_base_adjacent_faces(catalog):
    ctx = catalog("one_point").ctx
    orbit, shift = ctx.key((0,))
    assert shift == (0,)
    assert delta_word(ctx, (orbit, shift)) == ()


def test_delta_shifted_vertex_is_conjugated_meridian(catalog):
    ctx = catalog("one_point").ctx
    ref = ctx.key((2,))
    assert ref[1] == (1,)
    word = delta_word(ctx, ref)
    gamma = ctx.gamma_gen(ref[0])
    assert word == (1, gamma, -1)


def test_gamma_delta_reduces_to_meridian_at_base(catalog):
    ctx = catalog("one_point").ctx
    ref = ctx.key((0,))
    assert gamma_delta_word(ctx, ref) == (ctx.gamma_gen(ref[0]),)


# -- stars of codimension-2 faces

def test_h_of_two_lines():
    ctx = context({"rank": 2, "hypersurfaces": [{"chi": [1, 0], "q": "0"},
                                                {"chi": [0, 1], "q": "0"}]})
    origin, = ctx.codim2_orbits
    assert ctx.code[origin] == (0, 0)
    ordered = h_of_G(ctx, origin)
    assert len(ordered) == 4
    walls = [wall(ctx, code_of(ctx, ref)) for ref in ordered]
    assert walls[0] == walls[2] and walls[1] == walls[3]
    assert walls[0] != walls[1]
    # counterclockwise from the first axis of the plane
    assert [code_of(ctx, ref) for ref in ordered] == [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_h_of_three_concurrent_lines():
    ctx = context({"rank": 2, "hypersurfaces": [{"chi": [1, 0], "q": "0"},
                                                {"chi": [0, 1], "q": "0"},
                                                {"chi": [1, 1], "q": "0"}]})
    origin, = ctx.codim2_orbits
    ordered = h_of_G(ctx, origin)
    assert len(ordered) == 6
    walls = [wall(ctx, code_of(ctx, ref)) for ref in ordered]
    for i in range(3):
        assert walls[i] == walls[i + 3]
    assert len(set(walls[:3])) == 3


def test_h_of_g_rejects_wrong_codim(catalog):
    ctx = catalog("diagonals").ctx
    chamber = next(k for k, g in enumerate(ctx.fc.grades) if g == 0)
    with pytest.raises(InternalError):
        h_of_G(ctx, chamber)


# -- relations and presentations

def test_relations_count_diagonals(catalog):
    ctx = catalog("diagonals").ctx
    assert len(ctx.codim2_orbits) == 2
    for v in ctx.codim2_orbits:
        rels = relations_for_G(ctx, v)
        assert len(rels) == 3          # 2k - 1 with k = 2 walls per vertex


def test_presentation_one_point(catalog):
    pres = presentation_from_context(catalog("one_point").ctx)
    assert pres.names == ("t1", "g1")
    assert pres.relators == ()
    assert abelianize(pres) == (2, [])


def test_presentation_two_points(catalog):
    pres = presentation_from_context(catalog("two_points").ctx)
    assert len(pres.names) == 3
    assert pres.relators == ()


def test_presentation_diagonals_shape(catalog):
    pres = presentation_from_context(catalog("diagonals").ctx)
    assert pres.names[:2] == ("t1", "t2")
    assert len(pres.names) == 6
    assert pres.relators[0] == (1, 2, -1, -2)
    assert len(pres.relators) == 1 + 2 * 3


def h1(spec, stars):
    """The first homology of the stars' Salvetti nerve."""
    cat = stars.salvetti_category()
    chains = nerve_chains(cat, spec.rank)
    h = homology(boundary_matrices(chains[:3], cat))
    return h[1][0], list(h[1][1])


def test_presentation_matches_h1(catalog):
    # against the H1 of the stars' Salvetti category
    for name in ("one_point", "two_points", "diagonals", "grid"):
        pipe = catalog(name)
        pres = presentation_from_context(pipe.ctx)
        cat = pipe.zeta
        chains = nerve_chains(cat, pipe.spec.rank)
        h = homology(boundary_matrices(chains, cat))
        ab = abelianize(pres)
        assert (ab[0], list(ab[1])) == (h[1][0], list(h[1][1]))


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(ranks_two_and_three())
def test_presentation_matches_h1_on_generated(doc):
    # the stars' presentation abelianizes to the stars' H1, and killing
    # the meridians leaves the lattice
    ctx = context(doc)
    pres = presentation_from_context(ctx)
    ab = abelianize(pres)
    assert (ab[0], list(ab[1])) == h1(ctx.spec, ctx.stars), doc
    assert abelianize(quotient_without_meridians(pres, ctx.n)) == (ctx.n, []), doc


def test_meridian_quotient_is_lattice(catalog):
    for name in ("one_point", "diagonals", "grid"):
        pres = presentation_from_context(catalog(name).ctx)
        n = catalog(name).spec.rank
        assert abelianize(quotient_without_meridians(pres, n)) == (n, [])


# -- presentation utilities

def test_abelianize_free():
    assert abelianize(GroupPresentation(("a", "b"), [])) == (2, [])


def test_abelianize_commutator():
    pres = GroupPresentation(("a", "b"), [(1, 2, -1, -2)])
    assert abelianize(pres) == (2, [])


def test_abelianize_torsion():
    pres = GroupPresentation(("a",), [(1, 1)])
    assert abelianize(pres) == (0, [2])


def test_free_reduce_and_invert():
    assert free_reduce((1, -1, 2)) == (2,)
    assert invert_word((1, 2)) == (-2, -1)


def test_simplify_no_relators_unchanged():
    pres = GroupPresentation(("a", "b"), [])
    out = simplify_presentation(pres)
    assert out.names == ("a", "b") and out.relators == ()


def test_simplify_kills_trivial_generator():
    pres = GroupPresentation(("a", "b"), [(2,)])
    out = simplify_presentation(pres)
    assert out.names == ("a",)
    assert out.relators == ()


def test_simplify_preserves_abelianization(catalog):
    for name in ("diagonals", "grid"):
        pres = presentation_from_context(catalog(name).ctx)
        assert abelianize(simplify_presentation(pres)) == abelianize(pres)


def test_presentation_top_level(catalog):
    pres = presentation_from_context(catalog("two_points").ctx)
    assert len(pres.names) == 3
    assert simplify_presentation(pres).relators == ()


def test_base_point_genericity(catalog):
    from toricarr.pi1 import _unit_legs
    for name in ("diagonals", "grid", "coord3"):
        ctx = catalog(name).ctx
        assert _unit_legs(ctx.spec, ctx.stars, ctx.x0) is not None
        # base point lies in the open unit cube and in its chamber
        assert all(0 < c < 1 for c in ctx.x0)
        assert ctx.stars.codim(ctx.c0) == 0


def test_base_point_search_is_unbounded():
    # q = 1/p puts a wall through the candidate base point 1/p for each
    # of the first fifteen primes
    from toricarr.arrangement import parse_spec, essentialize
    from toricarr.pi1 import _choose_base_point
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    spec = parse_spec(json.dumps({"rank": 1, "hypersurfaces": [
        {"chi": [1], "q": "1/%d" % p} for p in primes]}))
    stars = VertexStars(spec)
    assert _choose_base_point(spec, stars)[0] == (Fraction(1, 53),)
    pres = presentation_from_context(build_context(spec, stars, stars.face_category()))
    assert abelianize(pres) == (16, [])
