"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
interleaved with the test names.
"""

from math import comb

from toricarr.arrangement import AffineHyperplane, Window
from toricarr.cells import enumerate_faces
from toricarr.category import (nerve_chains, boundary_matrices, homology,
                               euler_characteristic, verify_dd_zero)
from toricarr.salvetti import is_thick, cw_census, orbit_chain_counts
from toricarr.pi1 import (presentation_from_context, abelianize,
                          simplify_presentation, quotient_without_meridians)
from toricarr.exact import snf

from conftest import pipeline, salvetti_poset

CATALOG5 = ("one_point", "two_points", "diagonals", "grid", "coord3")

_nerves = {}
_complexes = []


def nerve_data(name, k, space):
    """Chain counts, complex and homology of one nerve, cached across
    criteria."""
    key = (name, k, space)
    if key not in _nerves:
        pipe = pipeline(name, k)
        n = pipe.spec.rank
        cat = pipe.fc.as_category() if space == "face" else pipe.zeta.as_category()
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
        _, _, h = nerve_data(name, 1, "face")
        expected = [(comb(n, k), []) for k in range(n + 1)]
        ok = ok and [(b, list(t)) for b, t in h] == [(b, t) for b, t in expected]
    verdict(1, "face-category nerves have exact torus homology", ok)


def test_criterion_02_punctured_circle_complements():
    ok = True
    for k, name in ((1, "one_point"), (2, "two_points"), (3, "three_points")):
        pipe = pipeline(name)
        chain_counts, _, h = nerve_data(name, 1, "salvetti")
        ok = ok and h[0] == (1, [])
        ok = ok and h[1] == (k + 1, [])
        ok = ok and euler_characteristic(chain_counts) == -k
        pres = presentation_from_context(pipe.ctx)
        ok = ok and len(pres.names) == k + 1 and pres.relators == ()
    verdict(2, "n=1 complements are wedges of k+1 circles with free groups", ok)


def test_criterion_03_diagonals_censuses():
    pipe = pipeline("diagonals")
    ok = pipe.fc.census() == [2, 4, 2]
    counts, chi = cw_census(pipe.zeta)
    ok = ok and counts == [2, 8, 8]
    chain_counts, _, _ = nerve_data("diagonals", 1, "salvetti")
    ok = ok and chi == 2 and euler_characteristic(chain_counts) == 2
    verdict(3, "diagonal pair censuses (2,4,2) and (2,8,8) with Euler number 2", ok)


def test_criterion_04_coordinate_three_torus():
    chain_counts, _, h = nerve_data("coord3", 1, "salvetti")
    ok = [b for b, _ in h] == [1, 6, 12, 8]
    ok = ok and all(t == [] for _, t in h)
    ok = ok and euler_characteristic(chain_counts) == -1
    verdict(4, "n=3 product case has Betti numbers (1,6,12,8) and Euler -1", ok)


def test_criterion_05_pi1_h1_consistency():
    ok = True
    for name in CATALOG5:
        pipe = pipeline(name)
        n = pipe.spec.rank
        _, _, h = nerve_data(name, 1, "salvetti")
        pres = presentation_from_context(pipe.ctx)
        ab = abelianize(pres)
        ok = ok and (ab[0], list(ab[1])) == (h[1][0], list(h[1][1]))
        ok = ok and abelianize(quotient_without_meridians(pres)) == (n, [])
    verdict(5, "abelianized presentations equal H1 and meridian quotients "
               "equal the lattice", ok)


def test_criterion_06_thickness():
    ok = is_thick(pipeline("grid").fc)
    ok = ok and not is_thick(pipeline("one_point").fc)
    ok = ok and not is_thick(pipeline("diagonals").fc)
    verdict(6, "grid is thick; one point and diagonal pair are not", ok)


def test_criterion_07_quotient_commutes_with_nerve():
    ok = True
    for name in CATALOG5:
        pipe = pipeline(name)
        n = pipe.spec.rank
        chain_counts, _, _ = nerve_data(name, 1, "salvetti")
        ok = ok and orbit_chain_counts(pipe.lifted, n) == chain_counts
    verdict(7, "per-degree chain counts match lattice-orbit counts of the "
               "lifted Salvetti nerve", ok)


def test_criterion_08_affine_sanity():
    lifted = enumerate_faces([AffineHyperplane((1,), 0, 0, 0)], Window([-1], [1]))
    cat = salvetti_poset(lifted, truncated=False).as_category()
    cc = boundary_matrices(nerve_chains(cat, 1), cat)
    h = homology(cc)
    ok = h == [(1, []), (1, [])]
    hps = [AffineHyperplane((1, 0), 0, 0, 0), AffineHyperplane((0, 1), 0, 1, 0)]
    lifted2 = enumerate_faces(hps, Window([-1, -1], [1, 1]))
    cat2 = salvetti_poset(lifted2, truncated=False).as_category()
    cc2 = boundary_matrices(nerve_chains(cat2, 2), cat2)
    ok = ok and homology(cc2) == [(1, []), (2, []), (1, [])]
    verdict(8, "affine Salvetti posets: point gives a circle, two lines a torus", ok)


def test_criterion_09_window_independence():
    ok = True
    for name in CATALOG5:
        small = pipeline(name, 1)
        large = pipeline(name, 2)
        ok = ok and small.fc.census() == large.fc.census()
        ok = ok and small.zeta.census() == large.zeta.census()
        for space in ("face", "salvetti"):
            ch1, _, h1 = nerve_data(name, 1, space)
            ch2, _, h2 = nerve_data(name, 2, space)
            ok = ok and ch1 == ch2
            ok = ok and h1 == h2
        n = small.spec.rank
        ch1, _, _ = nerve_data(name, 1, "salvetti")
        ok = ok and orbit_chain_counts(large.lifted, n) == ch1
        p1 = presentation_from_context(small.ctx)
        p2 = presentation_from_context(large.ctx)
        ok = ok and p1.names == p2.names
        ok = ok and len(p1.relators) == len(p2.relators)
        ok = ok and abelianize(p1) == abelianize(p2)
        s1, s2 = simplify_presentation(p1), simplify_presentation(p2)
        ok = ok and len(s1.names) == len(s2.names)
        ok = ok and abelianize(s1) == abelianize(s2)
    verdict(9, "every census, homology group and presentation is stable "
               "under window enlargement", ok)


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
