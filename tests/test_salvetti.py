import json

from hypothesis import given, settings
import pytest

from toricarr.arrangement import (AffineHyperplane, Window, parse_spec, lift_to_window,
                                  is_essential)
from toricarr.cells import enumerate_faces, quotient_faces
from toricarr.errors import WindowError
from toricarr.category import (check_acyclic, nerve_chains, boundary_matrices,
                               homology, euler_characteristic, verify_dd_zero)
from toricarr.salvetti import toric_salvetti, is_thick, cw_census, orbit_chain_counts
from toricarr.cells import PeriodicCategory

from conftest import CATALOG, SalvettiPoset, salvetti_poset
from test_generated import arrangements


def nerve_homology(cat, max_dim):
    chains = nerve_chains(cat, max_dim)
    cc = boundary_matrices(chains, cat)
    assert verify_dd_zero(cc)
    return chains, homology(cc)


# -- affine Salvetti poset

def test_point_in_line_is_circle():
    lifted = enumerate_faces([AffineHyperplane((1,), 0, 0, 0)], Window([-1], [1]))
    sal = salvetti_poset(lifted, truncated=False)
    assert len(sal.elements) == 4
    chains, h = nerve_homology(sal.as_category(), 1)
    assert [len(d) for d in chains] == [4, 4]
    assert h == [(1, []), (1, [])]


def test_two_generic_lines_are_torus():
    hps = [AffineHyperplane((1, 0), 0, 0, 0), AffineHyperplane((0, 1), 0, 1, 0)]
    lifted = enumerate_faces(hps, Window([-1, -1], [1, 1]))
    sal = salvetti_poset(lifted, truncated=False)
    assert len(sal.elements) == 16
    _, h = nerve_homology(sal.as_category(), 2)
    assert h == [(1, []), (2, []), (1, [])]


def test_chamber_pairs_bound_nothing(catalog):
    sal = salvetti_poset(catalog("one_point").lifted)
    bounded = {j for _, j in sal.relation_pairs()}
    for i, (fid, cid) in enumerate(sal.elements):
        if fid == cid:
            assert sal.grade(i) == 0
            assert i not in bounded


# -- toric Salvetti category

def test_zeta_one_point(catalog):
    pipe = catalog("one_point")
    z = pipe.zeta
    assert z.census() == [1, 2]
    cat = z.as_category()
    ok, diags = check_acyclic(cat)
    assert ok, diags
    assert len(cat.nonidentity()) == 4
    chains, h = nerve_homology(cat, 1)
    assert euler_characteristic([len(d) for d in chains]) == -1
    assert h == [(1, []), (2, [])]


def test_zeta_two_points(catalog):
    z = catalog("two_points").zeta
    assert z.census() == [2, 4]
    cat = z.as_category()
    assert len(cat.nonidentity()) == 8
    chains, h = nerve_homology(cat, 1)
    assert h == [(1, []), (3, [])]


def test_zeta_diagonals(catalog):
    pipe = catalog("diagonals")
    z = pipe.zeta
    assert z.census() == [2, 8, 8]
    counts, chi = cw_census(z)
    assert (counts, chi) == ([2, 8, 8], 2)
    cat = z.as_category()
    ok, diags = check_acyclic(cat)
    assert ok, diags
    chains, h = nerve_homology(cat, 2)
    assert euler_characteristic([len(d) for d in chains]) == 2 == chi
    assert h[0] == (1, [])


def test_thickness_catalog(catalog):
    assert is_thick(catalog("grid").fc)
    assert not is_thick(catalog("one_point").fc)
    assert not is_thick(catalog("diagonals").fc)


def test_thick_zeta_is_poset(catalog):
    cat = catalog("grid").zeta.as_category()
    seen = {}
    for m in cat.nonidentity():
        key = (cat.source(m), cat.target(m))
        assert key not in seen
        seen[key] = m


def test_thick_on_empty_category(catalog):
    fc = PeriodicCategory(catalog("one_point").lifted, [], lambda e: ())
    assert is_thick(fc)


def test_quotient_commutes_with_nerve(catalog):
    for name in ("one_point", "two_points", "diagonals", "grid"):
        pipe = catalog(name)
        n = pipe.spec.rank
        chains = nerve_chains(pipe.zeta.as_category(), n)
        assert orbit_chain_counts(pipe.lifted, n) == [len(d) for d in chains]


def brute_orbit_chain_counts(lifted, max_dim):
    """The orbit counts by brute force: the Salvetti poset on every pair
    over an uncut face of the window, its whole nerve, and one canonical
    translate per chain."""
    elements = sorted((f.id, cid) for f in lifted.faces if not f.boundary_cut
                      for cid in lifted.chambers_above(f.id))
    sal = SalvettiPoset(lifted, elements)
    cat = sal.as_category()
    chains = nerve_chains(cat, max_dim)
    counts = [len({lifted.canonical(e)[0] for e in sal.elements})]
    for k in range(1, len(chains)):
        seen = set()
        for chain in chains[k]:
            objs = [cat.source(chain[0])] + [cat.target(m) for m in chain]
            seen.add(lifted.canonical(tuple(f for i in objs for f in sal.elements[i]))[0])
        counts.append(len(seen))
    return counts


def assert_chain_counts_match(doc, k):
    """Where the face quotient and the brute force succeed, the counts
    from canonical sources agree with it.  The brute force moves clipped
    chamber barycenters, which can leave the window although the moved
    chamber is in it; `toric_salvetti` fails on such windows too."""
    spec = parse_spec(json.dumps(doc))
    window = Window.standard(spec.rank, k)
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    try:
        quotient_faces(lifted)
        expected = brute_orbit_chain_counts(lifted, spec.rank)
    except WindowError:
        return
    assert orbit_chain_counts(lifted, spec.rank) == expected, (doc, k)


@pytest.mark.parametrize("name", CATALOG)
def test_orbit_chain_counts_match_brute_force_on_catalog(name):
    # coord3 at window 2 would take a second
    for k in (1,) if name == "coord3" else (1, 2):
        assert_chain_counts_match(CATALOG[name], k)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(arrangements().filter(lambda doc: is_essential(parse_spec(json.dumps(doc)))))
def test_orbit_chain_counts_match_brute_force_on_generated(doc):
    for k in (1, 2):
        assert_chain_counts_match(doc, k)


@pytest.mark.parametrize("doc,message", [
    # a face below a canonical face lies in the box boundary
    ('{"rank":2,"hypersurfaces":[{"chi":[1,-3],"q":"1/2"},{"chi":[1,-1],"q":"1/2"}]}',
     "below canonical face"),
    # an uncut face whose translate in cell 0 is cut
    ('{"rank":2,"hypersurfaces":[{"chi":[1,-1],"q":"2/3"},{"chi":[0,1],"q":"1/2"},'
     '{"chi":[-1,3],"q":"1/4"}]}', "no whole translate in cell 0")])
def test_orbit_chain_counts_rejects_windows_it_cannot_count(doc, message):
    # toric_salvetti and quotient_faces reject these windows first
    spec = parse_spec(doc)
    window = Window.standard(2, 1)
    lifted = enumerate_faces(lift_to_window(spec, window), window)
    with pytest.raises(WindowError, match=message):
        orbit_chain_counts(lifted, 2)


def test_orbit_chain_counts_needs_core_window():
    lifted = enumerate_faces([AffineHyperplane((1,), 0, 0, 0)], Window([-1], [1]))
    with pytest.raises(WindowError, match=r"\[-1,2\]"):
        orbit_chain_counts(lifted, 1)


def test_window_independent_censuses(catalog):
    for name in ("one_point", "diagonals", "grid"):
        small = catalog(name, 1).zeta
        large = catalog(name, 2).zeta
        assert small.census() == large.census()
        assert len(small.morphisms) == len(large.morphisms)


def test_zeta_connected(catalog):
    for name in ("one_point", "diagonals", "grid"):
        cat = catalog(name).zeta.as_category()
        _, h = nerve_homology(cat, catalog(name).spec.rank)
        assert h[0] == (1, [])
