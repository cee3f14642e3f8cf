"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
interleaved with the test names.
"""

from math import comb

from toricarr.category import (nerve_chains, boundary_matrices, homology,
                               euler_characteristic, verify_dd_zero)
from toricarr.pi1 import (presentation_from_context, abelianize, quotient_without_meridians,
                          simplify_presentation)
from toricarr.exact import snf

from conftest import Pipeline, pipeline, central_salvetti, moved_spec
from test_salvetti import brute_chain_counts

CATALOG5 = ("one_point", "two_points", "diagonals", "grid", "coord3")

_nerves = {}
_complexes = []


def nerve_data(name, space):
    """Chain counts, complex and homology of one nerve, cached across
    criteria."""
    key = (name, space)
    if key not in _nerves:
        pipe = pipeline(name)
        n = pipe.spec.rank
        cat = pipe.fc if space == "face" else pipe.zeta
        chains = nerve_chains(cat, n)
        cc = boundary_matrices(chains, cat)
        _complexes.append((key, cc))
        _nerves[key] = (cc.counts, cc, homology(cc))
    return _nerves[key]


def verdict(num, desc, ok):
    print("criterion %2d [%s]: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def test_criterion_01_torus_recovery():
    ok = True
    for name in CATALOG5:
        n = pipeline(name).spec.rank
        _, _, h = nerve_data(name, "face")
        expected = [(comb(n, k), []) for k in range(n + 1)]
        ok = ok and [(b, list(t)) for b, t in h] == [(b, t) for b, t in expected]
    verdict(1, "face-category nerves have exact torus homology", ok)


def test_criterion_02_punctured_circle_complements():
    ok = True
    for k, name in ((1, "one_point"), (2, "two_points"), (3, "three_points")):
        pipe = pipeline(name)
        chain_counts, _, h = nerve_data(name, "salvetti")
        ok = ok and h[0] == (1, [])
        ok = ok and h[1] == (k + 1, [])
        ok = ok and euler_characteristic(chain_counts) == -k
        pres = presentation_from_context(pipe.ctx)
        ok = ok and len(pres.names) == k + 1 and pres.relators == ()
    verdict(2, "n=1 complements are wedges of k+1 circles with free groups", ok)


def test_criterion_03_diagonals_censuses():
    pipe = pipeline("diagonals")
    ok = pipe.fc.census() == [2, 4, 2]
    counts = pipe.zeta.census()
    chi = euler_characteristic(counts)
    ok = ok and counts == [2, 8, 8]
    chain_counts, _, _ = nerve_data("diagonals", "salvetti")
    ok = ok and chi == 2 and euler_characteristic(chain_counts) == 2
    verdict(3, "diagonal pair censuses (2,4,2) and (2,8,8) with Euler number 2", ok)


def test_criterion_04_coordinate_three_torus():
    chain_counts, _, h = nerve_data("coord3", "salvetti")
    ok = [b for b, _ in h] == [1, 6, 12, 8]
    ok = ok and all(t == [] for _, t in h)
    ok = ok and euler_characteristic(chain_counts) == -1
    verdict(4, "n=3 product case has Betti numbers (1,6,12,8) and Euler -1", ok)


def test_criterion_05_pi1_h1_consistency():
    ok = True
    for name in CATALOG5:
        pipe = pipeline(name)
        n = pipe.spec.rank
        _, _, h = nerve_data(name, "salvetti")
        pres = presentation_from_context(pipe.ctx)
        ab = abelianize(pres)
        ok = ok and (ab[0], list(ab[1])) == (h[1][0], list(h[1][1]))
        ok = ok and abelianize(quotient_without_meridians(pres, n)) == (n, [])
    verdict(5, "abelianized presentations equal H1 and meridian quotients "
               "equal the lattice", ok)


def test_criterion_06_thickness():
    ok = pipeline("grid").fc.is_thick()
    ok = ok and not pipeline("one_point").fc.is_thick()
    ok = ok and not pipeline("diagonals").fc.is_thick()
    verdict(6, "grid is thick; one point and diagonal pair are not", ok)


def test_criterion_07_quotient_commutes_with_nerve():
    ok = True
    for name in CATALOG5:
        chain_counts, _, _ = nerve_data(name, "salvetti")
        ok = ok and brute_chain_counts(pipeline(name).spec) == chain_counts
    verdict(7, "per-degree chain counts match the paths of lattice orbits of "
               "the Salvetti morphisms", ok)


def test_criterion_08_affine_sanity():
    cat = central_salvetti([(1,)], 1)
    cc = boundary_matrices(nerve_chains(cat, 1), cat)
    h = homology(cc)
    ok = h == [(1, []), (1, [])]
    cat2 = central_salvetti([(1, 0), (0, 1)], 2)
    cc2 = boundary_matrices(nerve_chains(cat2, 2), cat2)
    ok = ok and homology(cc2) == [(1, []), (2, []), (1, [])]
    verdict(8, "affine Salvetti posets: point gives a circle, two lines a torus", ok)


def test_criterion_09_window_independence():
    # The answers once had to be stable under enlarging the window of the
    # lift.  With no window left, the auxiliary choices are the coordinates
    # and base point the vertices are found in: a unimodular change of
    # coordinates and a translation change every vertex, Hermite form and
    # object order, and must change no census, homology group or
    # abelianization.  Generator counts before simplification are
    # invariant too; simplification is greedy in the object order.
    ok = True
    for name in CATALOG5:
        pipe = pipeline(name)
        moved = Pipeline(name, moved_spec(pipe.spec))
        n = pipe.spec.rank
        ok = ok and pipe.fc.census() == moved.fc.census()
        ok = ok and pipe.zeta.census() == moved.zeta.census()
        for space in ("face", "salvetti"):
            ch, _, h = nerve_data(name, space)
            cat = moved.fc if space == "face" else moved.zeta
            cc = boundary_matrices(nerve_chains(cat, n), cat)
            ok = ok and cc.counts == ch
            ok = ok and homology(cc) == h
        p1 = presentation_from_context(pipe.ctx)
        p2 = presentation_from_context(moved.ctx)
        ok = ok and len(p1.names) == len(p2.names)
        ok = ok and len(p1.relators) == len(p2.relators)
        ok = ok and abelianize(p1) == abelianize(p2)
        ok = ok and abelianize(simplify_presentation(p1)) == \
            abelianize(simplify_presentation(p2))
    verdict(9, "every census, homology group and abelianization is stable "
               "under a change of coordinates and base point", ok)


def test_criterion_10_boundary_and_divisibility():
    ok = True
    for key, cc in _complexes:
        ok = ok and verify_dd_zero(cc)
        for b in cc.boundaries:
            factors = snf(b)
            for a, c in zip(factors, factors[1:]):
                ok = ok and c % a == 0
    ok = ok and len(_complexes) >= 10
    verdict(10, "boundary-of-boundary vanishes and Smith factors divide in "
                "every generated complex", ok)
