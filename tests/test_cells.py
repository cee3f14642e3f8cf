import json
from fractions import Fraction

import pytest

from toricarr.errors import SpecError, WindowError
from toricarr.arrangement import (AffineHyperplane, Window, parse_spec,
                                  lift_to_window)
from toricarr.cells import (enumerate_faces, quotient_faces, layers,
                            opposite_chamber, chamber_fiber)
from toricarr.category import check_acyclic

from conftest import CATALOG
from test_cli import SPEC_G2_00


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
    "g1_01": '{"rank":2,"hypersurfaces":[{"chi":[1,0],"q":"0"},'
             '{"chi":[1,-1],"q":"1/4"}]}',
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
        g = lifted2.locate(f.barycenter)
        expected = lifted2.faces[g].boundary_cut or any(
            lifted2.faces[v].dim == 0 and not small.contains(lifted2.faces[v].barycenter)
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
                    f.sign_vector, (name, k, f)
                assert lifted.locate(f.barycenter) == f.id, (name, k, f)
    # x = 7/3 misses the box, so no candidate vertex has a denominator 3
    lifted = line_arrangement([0, Fraction(7, 3)], Window([-1], [2]))
    for f in lifted.faces:
        assert reference_signs(lifted.hyperplanes, f.barycenter) == f.sign_vector, f


def test_locate_clears_large_denominators(catalog):
    # no candidate vertex has a denominator 53 or 59
    lifted = catalog("three_points").lifted
    fid = lifted.locate((Fraction(1, 53),))
    assert lifted.faces[fid].barycenter == (Fraction(1, 8),)
    lifted = catalog("diagonals").lifted
    point = (Fraction(1, 53), Fraction(-7, 59))
    fid = lifted.locate(point)
    assert lifted.faces[fid].sign_vector == reference_signs(lifted.hyperplanes, point)
    assert lifted.faces[fid].dim == 2


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
    lp = layers(pipe.spec, pipe.lifted)
    assert lp.census() == {1: 1, 0: 1}


def test_layers_diagonals(catalog):
    pipe = catalog("diagonals")
    lp = layers(pipe.spec, pipe.lifted)
    assert lp.census() == {2: 1, 1: 2, 0: 2}
    top = max(range(len(lp.layers)), key=lambda i: lp.layers[i].dim)
    below_top = {a for a, b in lp.relations if b == top}
    assert len(below_top) == 4
    # each point layer sits inside both circle layers
    for l in lp.layers:
        if l.dim == 0:
            ups = {b for a, b in lp.relations if a == l.index}
            assert len(ups) == 3


# -- local operations

def project(lifted, fid, g):
    """Signs of face g on the hyperplanes through face fid."""
    return tuple(lifted.faces[g].sign_vector[i] for i in sorted(lifted.zero_set(fid)))


def test_project_chamber_is_constant(catalog):
    lifted = catalog("diagonals").lifted
    cid = lifted.chamber_ids[0]
    assert {project(lifted, cid, g) for g in (cid,) + lifted.uppers[cid]} == {()}


def test_project_vertex_separates_quadrants(catalog):
    lifted = catalog("diagonals").lifted
    vertex = next(f.id for f in lifted.faces
                  if f.dim == 0 and f.barycenter == (0, 0))
    chambers = lifted.chambers_above(vertex)
    images = {project(lifted, vertex, g) for g in chambers}
    assert len(chambers) == 4
    assert len(images) == 4


def test_opposite_chamber_involution(catalog):
    lifted = catalog("grid").lifted
    for f in lifted.faces:
        if f.dim != lifted.dim - 1 or not lifted.star_ok(f.id):
            continue
        for cid in lifted.chambers_above(f.id):
            opp = opposite_chamber(lifted, cid, f.id)
            assert opposite_chamber(lifted, opp, f.id) == cid
            assert opp != cid


def test_opposite_chamber_rejects_nonface(catalog):
    lifted = catalog("one_point").lifted
    v0 = next(f.id for f in lifted.faces if f.dim == 0 and f.barycenter == (0,))
    far = next(f.id for f in lifted.faces
               if f.dim == 1 and f.barycenter == (Fraction(3, 2),))
    with pytest.raises(SpecError):
        opposite_chamber(lifted, far, v0)


def test_chamber_fiber_line(catalog):
    lifted = catalog("one_point").lifted
    v0 = next(f.id for f in lifted.faces if f.dim == 0 and f.barycenter == (0,))
    c = next(f.id for f in lifted.faces
             if f.dim == 1 and f.barycenter == (Fraction(3, 2),))
    fib = chamber_fiber(lifted, c, v0)
    assert lifted.faces[fib].barycenter == (Fraction(1, 2),)


def test_chamber_fiber_contains_face(catalog):
    lifted = catalog("diagonals").lifted
    for f in lifted.faces:
        if f.boundary_cut or not lifted.window.contains(f.barycenter, strict=True):
            continue
        for cid in lifted.chamber_ids[:4]:
            try:
                fib = chamber_fiber(lifted, cid, f.id)
            except WindowError:
                continue
            assert lifted.leq(f.id, fib)


def test_chamber_fiber_identity_when_adjacent(catalog):
    lifted = catalog("diagonals").lifted
    for f in lifted.faces:
        if f.dim != 1 or f.boundary_cut:
            continue
        for cid in lifted.chambers_above(f.id):
            assert chamber_fiber(lifted, cid, f.id) == cid


def test_quotient_functorial_on_lifted_incidences(catalog):
    # composing two incidence orbits through their lifts agrees with the
    # orbit of the composed incidence
    fc = catalog("diagonals").fc
    lifted = fc.lifted
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
