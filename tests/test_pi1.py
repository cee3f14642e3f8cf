import json
from fractions import Fraction

import pytest

from toricarr.errors import SpecError
from toricarr.arrangement import AffineHyperplane, Window, lift_to_window
from toricarr.cells import enumerate_faces, quotient_faces
from toricarr.category import nerve_chains, boundary_matrices, homology
from toricarr.pi1 import (GroupPresentation, abelianize, simplify_presentation,
                          quotient_without_meridians,
                          positive_minimal_path, omega_paths, sigma,
                          delta_word, gamma_delta_word, h_of_G,
                          relations_for_G, build_context,
                          presentation_from_context, free_reduce, invert_word,
                          Crossing)

from conftest import star_ok


def face_at(lifted, dim, bary):
    bary = tuple(Fraction(b) for b in bary)
    return next(f.id for f in lifted.faces
                if f.dim == dim and f.barycenter == bary)


# -- minimal paths

def test_minimal_path_trivial(catalog):
    lifted = catalog("one_point").lifted
    c = lifted.chamber_ids[0]
    assert positive_minimal_path(lifted, c, c) == []


def test_minimal_path_adjacent(catalog):
    lifted = catalog("one_point").lifted
    a = face_at(lifted, 1, (Fraction(-1, 2),))
    b = face_at(lifted, 1, (Fraction(1, 2),))
    steps = positive_minimal_path(lifted, a, b)
    assert len(steps) == 1
    assert steps[0][1] == a


def test_minimal_path_line(catalog):
    lifted = catalog("one_point").lifted
    a = face_at(lifted, 1, (Fraction(-1, 2),))
    b = face_at(lifted, 1, (Fraction(3, 2),))
    steps = positive_minimal_path(lifted, a, b)
    crossed = [lifted.faces[f].barycenter[0] for f, _ in steps]
    assert crossed == [0, 1]


def test_minimal_path_crosses_each_wall_once(catalog):
    lifted = catalog("diagonals").lifted
    chambers = [c for c in lifted.chamber_ids if star_ok(lifted, c)]
    src = chambers[0]
    for dst in chambers:
        steps = positive_minimal_path(lifted, src, dst)
        walls = [min(lifted.zero_set(f)) for f, _ in steps]
        classes = [lifted.geo_class[w] for w in walls]
        assert len(classes) == len(set(classes))


# -- crossing sequences

def test_omega_zero_is_empty(catalog):
    assert catalog("one_point").ctx.omega((0,)) == []


def test_omega_unit_line(catalog):
    ctx = catalog("one_point").ctx
    word = ctx.omega((1,))
    assert len(word) == 1
    assert (word[0].orbit, word[0].shift) == (ctx.codim1_orbits[0], (1,)) or \
        word[0].shift == (1,)


def test_omega_diagonals_horizontal(catalog):
    ctx = catalog("diagonals").ctx
    word = ctx.omega((1, 0))
    # one crossing per diagonal family along a horizontal unit segment
    assert len(word) == 2
    keys = {c.hyper_key[0] for c in word}
    assert keys == {(1, 1), (1, -1)}


def test_omega_rejects_negative(catalog):
    with pytest.raises(SpecError):
        omega_paths(catalog("one_point").ctx, (-1,))


def test_omega_crosses_family_members_once(catalog):
    for name in ("diagonals", "grid"):
        ctx = catalog(name).ctx
        for i in range(ctx.n):
            unit = tuple(int(j == i) for j in range(ctx.n))
            keys = [c.hyper_key for c in ctx.omega(unit)]
            assert len(keys) == len(set(keys))


# -- sigma reduction

def make_crossing(orbit, shift, key):
    return Crossing(orbit, shift, key)


def test_sigma_distinct_walls_unchanged():
    word = [make_crossing(0, (0,), ((1,), 0)),
            make_crossing(1, (0,), ((1,), Fraction(1, 2)))]
    assert sigma(word) == word


def test_sigma_deletes_odd_supported():
    a = make_crossing(0, (0,), ((1,), 0))
    b = make_crossing(0, (1,), ((1,), 0))     # same wall, later
    out = sigma([a, b])
    assert out == [b]


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
    lifted = ctx.lifted
    v0 = face_at(lifted, 0, (0,))
    orbit, shift = ctx.fc.key((v0,))
    assert shift == (0,)
    assert delta_word(ctx, (orbit, shift)) == ()


def test_delta_shifted_vertex_is_conjugated_meridian(catalog):
    ctx = catalog("one_point").ctx
    lifted = ctx.lifted
    v1 = face_at(lifted, 0, (1,))
    ref = ctx.fc.key((v1,))
    assert ref[1] == (1,)
    word = delta_word(ctx, ref)
    gamma = ctx.gamma_gen(ref[0])
    assert word == (1, gamma, -1)


def test_gamma_delta_reduces_to_meridian_at_base(catalog):
    ctx = catalog("one_point").ctx
    v0 = face_at(ctx.lifted, 0, (0,))
    ref = ctx.fc.key((v0,))
    assert gamma_delta_word(ctx, ref) == (ctx.gamma_gen(ref[0]),)


# -- stars of codimension-2 faces

def test_h_of_two_lines():
    hps = [AffineHyperplane((1, 0), 0, 0, 0), AffineHyperplane((0, 1), 0, 1, 0)]
    lifted = enumerate_faces(hps, Window([-1, -1], [1, 1]))
    origin = face_at(lifted, 0, (0, 0))
    ordered = h_of_G(lifted, origin)
    assert len(ordered) == 4
    walls = [lifted.geo_class[min(lifted.zero_set(f))] for f in ordered]
    assert walls[0] == walls[2] and walls[1] == walls[3]
    assert walls[0] != walls[1]


def test_h_of_three_concurrent_lines():
    hps = [AffineHyperplane((1, 0), 0, 0, 0),
           AffineHyperplane((0, 1), 0, 1, 0),
           AffineHyperplane((1, 1), 0, 2, 0)]
    lifted = enumerate_faces(hps, Window([-1, -1], [1, 1]))
    origin = face_at(lifted, 0, (0, 0))
    ordered = h_of_G(lifted, origin)
    assert len(ordered) == 6
    walls = [lifted.geo_class[min(lifted.zero_set(f))] for f in ordered]
    for i in range(3):
        assert walls[i] == walls[i + 3]
    assert len(set(walls[:3])) == 3


def test_h_of_g_rejects_wrong_codim(catalog):
    lifted = catalog("diagonals").lifted
    with pytest.raises(SpecError):
        h_of_G(lifted, lifted.chamber_ids[0])


# -- relations and presentations

def test_relations_count_diagonals(catalog):
    ctx = catalog("diagonals").ctx
    vertices = sorted(f for f in ctx.fc.orbits if ctx.lifted.faces[f].dim == 0)
    assert len(vertices) == 2
    for v in vertices:
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


def test_presentation_matches_h1(catalog):
    for name in ("one_point", "two_points", "diagonals", "grid"):
        pipe = catalog(name)
        pres = presentation_from_context(pipe.ctx)
        cat = pipe.zeta.as_category()
        chains = nerve_chains(cat, pipe.spec.rank)
        h = homology(boundary_matrices(chains, cat))
        ab = abelianize(pres)
        assert (ab[0], list(ab[1])) == (h[1][0], list(h[1][1]))


def test_meridian_quotient_is_lattice(catalog):
    for name in ("one_point", "diagonals", "grid"):
        pres = presentation_from_context(catalog(name).ctx)
        assert abelianize(quotient_without_meridians(pres)) == \
            (catalog(name).spec.rank, [])


def test_presentation_window_stable(catalog):
    for name in ("one_point", "diagonals"):
        p1 = presentation_from_context(catalog(name, 1).ctx)
        p2 = presentation_from_context(catalog(name, 2).ctx)
        assert p1.names == p2.names
        assert len(p1.relators) == len(p2.relators)
        assert abelianize(p1) == abelianize(p2)


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
    from toricarr.pi1 import _is_generic
    for name in ("diagonals", "grid", "coord3"):
        ctx = catalog(name).ctx
        assert _is_generic(ctx.spec, ctx.x0)
        # base point lies in the open unit cube and in its chamber
        assert all(0 < c < 1 for c in ctx.x0)
        assert ctx.lifted.faces[ctx.c0].dim == ctx.n


def test_base_point_search_is_unbounded():
    # q = 1/p puts a wall through the candidate base point 1/p for each
    # of the first fifteen primes
    from toricarr.arrangement import parse_spec
    from toricarr.pi1 import _choose_base_point
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    spec = parse_spec(json.dumps({"rank": 1, "hypersurfaces": [
        {"chi": [1], "q": "1/%d" % p} for p in primes]}))
    assert _choose_base_point(spec) == (Fraction(1, 53),)
    window = Window.standard(1)
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    pres = presentation_from_context(
        build_context(spec, lifted, quotient_faces(lifted)))
    assert abelianize(pres) == (16, [])
