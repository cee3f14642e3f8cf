import json

from hypothesis import given, settings
import pytest

from toricarr.arrangement import parse_spec, essentialize
from toricarr.errors import InternalError
from toricarr.cells import FaceCategory, VertexStars
from toricarr.category import (check_acyclic, nerve_chains, boundary_matrices,
                               homology, euler_characteristic, verify_dd_zero)

from conftest import CATALOG, BruteStars, Pipeline, central_salvetti, moved_spec
from test_generated import arrangements


def nerve_homology(cat, max_dim):
    chains = nerve_chains(cat, max_dim)
    cc = boundary_matrices(chains, cat)
    assert verify_dd_zero(cc)
    return chains, homology(cc)


# -- Salvetti poset of a central arrangement, from the brute-force reference

def test_point_in_line_is_circle():
    cat = central_salvetti([(1,)], 1)
    assert cat.n_objects == 4
    chains, h = nerve_homology(cat, 1)
    assert [len(d) for d in chains] == [4, 4]
    assert h == [(1, []), (1, [])]


def test_two_generic_lines_are_torus():
    cat = central_salvetti([(1, 0), (0, 1)], 2)
    assert cat.n_objects == 16
    _, h = nerve_homology(cat, 2)
    assert h == [(1, []), (2, []), (1, [])]


def test_chamber_pairs_bound_nothing():
    cat = central_salvetti([(1, 1), (1, -1), (1, 0)], 2)
    bounded = {cat.target(m) for m in cat.nonidentity()}
    chambers = [i for i, g in enumerate(cat.grades) if g == 0]
    assert len(chambers) == 6
    assert not bounded & set(chambers)


# -- toric Salvetti category

def test_zeta_one_point(catalog):
    z = catalog("one_point").zeta
    assert z.census() == [1, 2]
    ok, diags = check_acyclic(z)
    assert ok, diags
    assert len(z.nonidentity()) == 4
    chains, h = nerve_homology(z, 1)
    assert euler_characteristic([len(d) for d in chains]) == -1
    assert h == [(1, []), (2, [])]


def test_zeta_two_points(catalog):
    z = catalog("two_points").zeta
    assert z.census() == [2, 4]
    assert len(z.nonidentity()) == 8
    chains, h = nerve_homology(z, 1)
    assert h == [(1, []), (3, [])]


def test_zeta_diagonals(catalog):
    z = catalog("diagonals").zeta
    assert z.census() == [2, 8, 8]
    chi = euler_characteristic(z.census())
    assert chi == 2
    ok, diags = check_acyclic(z)
    assert ok, diags
    chains, h = nerve_homology(z, 2)
    assert euler_characteristic([len(d) for d in chains]) == 2 == chi
    assert h[0] == (1, [])


def test_missing_composite_is_reported_and_raised():
    z = Pipeline("diagonals").zeta
    m1 = next(m for m in z.nonidentity() if z.target(m) in z.by_source)
    m2 = z.by_source[z.target(m1)][0]
    del z.by_rep[z.morphisms[z.compose(m2, m1)]]
    ok, diags = check_acyclic(z)
    assert not ok
    assert "missing composite (%d, %d)" % (m2, m1) in diags
    with pytest.raises(InternalError, match="missing composite"):
        z.compose(m2, m1)


def test_thickness_catalog(catalog):
    assert catalog("grid").fc.is_thick()
    assert not catalog("one_point").fc.is_thick()
    assert not catalog("diagonals").fc.is_thick()


def test_thick_zeta_is_poset(catalog):
    cat = catalog("grid").zeta
    seen = {}
    for m in cat.nonidentity():
        key = (cat.source(m), cat.target(m))
        assert key not in seen
        seen[key] = m


def test_thick_on_empty_category():
    assert FaceCategory(1, [], [], {}).is_thick()


def brute_chain_counts(spec):
    """Chain counts of the quotient Salvetti nerve from the brute-force
    morphism orbits: with M the matrix of their multiplicities, degree k
    has 1^T M^k 1 chains, one per path of k morphism orbits."""
    objects, arrows = BruteStars(spec).salvetti()
    paths = dict.fromkeys(objects, 1)
    counts = [len(objects)]
    for _ in range(spec.rank):
        nxt = dict.fromkeys(objects, 0)
        for (src, tgt), mult in arrows.items():
            nxt[src] += mult * paths[tgt]
        paths = nxt
        if not sum(paths.values()):
            break
        counts.append(sum(paths.values()))
    return counts


def test_quotient_commutes_with_nerve(catalog):
    for name in ("one_point", "two_points", "diagonals", "grid"):
        pipe = catalog(name)
        n = pipe.spec.rank
        chains = nerve_chains(pipe.zeta, n)
        assert brute_chain_counts(pipe.spec) == [len(d) for d in chains]


def assert_chain_counts_match(doc):
    """The quotient Salvetti nerve counts the lattice orbits of chains:
    its chain counts match the brute-force orbit counts."""
    spec, _ = essentialize(parse_spec(json.dumps(doc)))
    chains = nerve_chains(VertexStars(spec).salvetti_category(), spec.rank)
    assert brute_chain_counts(spec) == [len(d) for d in chains], doc


@pytest.mark.parametrize("name", CATALOG)
def test_orbit_chain_counts_match_brute_force_on_catalog(name):
    assert_chain_counts_match(CATALOG[name])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(arrangements())
def test_orbit_chain_counts_match_brute_force_on_generated(doc):
    assert_chain_counts_match(doc)


def test_window_independent_censuses(catalog):
    # the Salvetti category, once stable under enlarging the lift's window,
    # is stable under a change of coordinates and base point (`moved_spec`)
    for name in ("one_point", "diagonals", "grid"):
        zeta = catalog(name).zeta
        moved = Pipeline(name, moved_spec(catalog(name).spec)).zeta
        assert zeta.census() == moved.census()
        assert len(zeta.morphisms) == len(moved.morphisms)


def test_zeta_connected(catalog):
    for name in ("one_point", "diagonals", "grid"):
        cat = catalog(name).zeta
        _, h = nerve_homology(cat, catalog(name).spec.rank)
        assert h[0] == (1, [])
