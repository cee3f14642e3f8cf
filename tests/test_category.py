import pytest

from toricarr.errors import InternalError
from toricarr.exact import SparseMatrix
from toricarr.category import (AcyclicCategory, ChainComplex, check_acyclic,
                               nerve_chains, boundary_matrices, homology,
                               euler_characteristic, verify_dd_zero)


def interval_category():
    # poset 0 < 1: objects a, b; identity each; one morphism a -> b
    return AcyclicCategory(grades=[0, 1], morphisms=[(0, 0), (1, 1), (0, 1)],
                           table={})


def parallel_pair():
    # two parallel morphisms a -> b: a circle
    return AcyclicCategory(grades=[0, 1],
                           morphisms=[(0, 0), (1, 1), (0, 1), (0, 1)], table={})


def chain_of_two():
    # poset 0 < 1 < 2 with the composite present
    morphs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
    return AcyclicCategory(grades=[0, 1, 2], morphisms=morphs, table={(4, 3): 5})


def test_check_single_object():
    cat = AcyclicCategory([0], [(0, 0)], {})
    ok, diags = check_acyclic(cat)
    assert ok, diags


def test_check_allows_parallel():
    ok, diags = check_acyclic(parallel_pair())
    assert ok, diags


def test_check_rejects_endomorphism():
    cat = AcyclicCategory([0], [(0, 0), (0, 0)], {})
    ok, diags = check_acyclic(cat)
    assert not ok
    assert any("endomorphism" in d for d in diags)


def test_check_rejects_missing_composite():
    morphs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)]
    cat = AcyclicCategory([0, 1, 2], morphs, {})
    ok, diags = check_acyclic(cat)
    assert not ok
    assert any("missing composite" in d for d in diags)


def test_nerve_interval():
    chains = nerve_chains(interval_category(), 2)
    assert [len(d) for d in chains] == [2, 1]


def test_nerve_parallel_pair():
    chains = nerve_chains(parallel_pair(), 2)
    assert [len(d) for d in chains] == [2, 2]


def test_nerve_respects_cap():
    chains = nerve_chains(chain_of_two(), 1)
    assert [len(d) for d in chains] == [3, 3]


def test_boundary_single_morphism():
    cat = interval_category()
    chains = nerve_chains(cat, 1)
    cc = boundary_matrices(chains, cat)
    d1 = cc.boundaries[0]
    assert (d1.rows, d1.cols, d1.columns) == (2, 1, [{0: -1, 1: 1}])


def test_boundary_two_chain():
    cat = chain_of_two()
    chains = nerve_chains(cat, 2)
    assert chains[2] == [(3, 4)]
    cc = boundary_matrices(chains, cat)
    d2 = cc.boundaries[1]
    # d(a->b->c) = (b->c) - (a->c) + (a->b), in chain order (3,), (4,), (5,)
    assert chains[1] == [(3,), (4,), (5,)]
    assert (d2.rows, d2.cols, d2.columns) == (3, 1, [{0: 1, 1: 1, 2: -1}])


def test_dd_zero_small():
    cat = chain_of_two()
    chains = nerve_chains(cat, 2)
    assert verify_dd_zero(boundary_matrices(chains, cat))


def test_dd_nonzero_detected():
    # d1 = [[1, 0]], d2 = [[1], [0]]: d1 d2 = [[1]]
    cc = ChainComplex([1, 2, 1], [SparseMatrix(1, 2, [{0: 1}, {}]),
                                  SparseMatrix(2, 1, [{0: 1}])])
    assert verify_dd_zero(cc) is False


def test_homology_torsion_of_projective_plane():
    # cellular RP^2: one cell per degree, d1 = [[0]], d2 = [[2]]
    cc = ChainComplex([1, 1, 1], [SparseMatrix(1, 1, [{}]),
                                  SparseMatrix(1, 1, [{0: 2}])])
    assert verify_dd_zero(cc)
    assert homology(cc) == [(1, []), (0, [2]), (0, [])]


def test_homology_interval():
    cat = interval_category()
    cc = boundary_matrices(nerve_chains(cat, 1), cat)
    assert homology(cc) == [(1, []), (0, [])]


def test_homology_circle():
    cat = parallel_pair()
    cc = boundary_matrices(nerve_chains(cat, 1), cat)
    assert homology(cc) == [(1, []), (1, [])]


def test_homology_face_category_of_point(catalog):
    cat = catalog("one_point").fc
    chains = nerve_chains(cat, 1)
    assert [len(d) for d in chains] == [2, 2]
    assert homology(boundary_matrices(chains, cat)) == [(1, []), (1, [])]


def test_torus_homology_from_grid(catalog):
    cat = catalog("grid").fc
    chains = nerve_chains(cat, 2)
    h = homology(boundary_matrices(chains, cat))
    assert h == [(1, []), (2, []), (1, [])]


def test_euler_characteristic_examples(catalog):
    def euler(cat):
        return euler_characteristic([len(d) for d in nerve_chains(cat, 1)])
    assert euler(interval_category()) == 1
    assert euler(parallel_pair()) == 0
    assert euler(catalog("one_point").zeta) == -1


def test_euler_equals_alternating_betti(catalog):
    for name in ("one_point", "diagonals", "grid"):
        cat = catalog(name).fc
        n = catalog(name).spec.rank
        chains = nerve_chains(cat, n)
        h = homology(boundary_matrices(chains, cat))
        assert euler_characteristic([len(d) for d in chains]) == \
            sum((-1) ** k * b for k, (b, _) in enumerate(h))


def test_thick_nerve_is_simplicial(catalog):
    # chains of a poset nerve are determined by their object support
    cat = catalog("grid").zeta
    chains = nerve_chains(cat, 2)
    for deg in chains[1:]:
        supports = set()
        for chain in deg:
            objs = tuple([cat.source(chain[0])] +
                         [cat.target(m) for m in chain])
            assert objs not in supports
            supports.add(objs)


def test_nerve_dimension_bounded_by_grade_span(catalog):
    for name in ("diagonals", "grid"):
        cat = catalog(name).zeta
        chains = nerve_chains(cat, 10)
        assert len(chains) - 1 <= 2


def test_compose_requires_composability():
    cat = chain_of_two()
    with pytest.raises(InternalError):
        cat.compose(3, 4)
