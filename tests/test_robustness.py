"""Arrangements off the main catalog: non-primitive characters, walls
backed by several list entries at once, and nonzero angles."""

import json
from fractions import Fraction
import subprocess
import sys

from toricarr.arrangement import parse_spec
from toricarr.cells import VertexStars
from toricarr.category import (nerve_chains, boundary_matrices, homology,
                               euler_characteristic)
from toricarr.pi1 import (build_context, presentation_from_context, abelianize,
                          quotient_without_meridians)

from test_salvetti import brute_chain_counts


def full_pipeline(doc):
    spec = parse_spec(doc)
    stars = VertexStars(spec)
    return spec, stars, stars.face_category(), stars.salvetti_category()


def presentation(spec):
    """The pi1 presentation read off the vertex stars."""
    stars = VertexStars(spec)
    return presentation_from_context(build_context(spec, stars, stars.face_category()))


def zeta_homology(spec, z):
    chains = nerve_chains(z, spec.rank)
    return chains, homology(boundary_matrices(chains, z))


def test_square_character_has_two_components():
    # t^2 = 1 cuts the circle at both square roots of unity
    spec, stars, fc, z = full_pipeline(
        '{"rank":1,"hypersurfaces":[{"chi":[2],"q":"0"}]}')
    assert fc.census() == [2, 2]
    chains, h = zeta_homology(spec, z)
    assert h == [(1, []), (3, [])]
    pres = presentation(spec)
    assert len(pres.names) == 3 and pres.relators == ()


def test_coincident_walls_share_geometry():
    # t = 1 and t^2 = 1 overlap at the integers of the lift, so both
    # sources pass through the vertex 0
    spec, stars, fc, z = full_pipeline(
        '{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"},{"chi":[2],"q":"0"}]}')
    # the unit leg meets x = 1/2 on the second source and x = 1 on both:
    # two crossings on two walls, the coincident copy at x = 1 skipped
    ctx = build_context(spec, stars, fc)
    word = ctx.omega((1,))
    assert len(word) == 2
    assert len({c.wall for c in word}) == 2
    # from x0 = 1/3; the second step is the unit leg moved by 1
    assert ctx.x0 == (Fraction(1, 3),)
    assert ctx.omega((2,)) == [(3, (0,), (1, 1)), (1, (1,), (0, 1)),
                               (3, (1,), (1, 3)), (1, (2,), (0, 2))]
    assert [code for code in stars.vertices[0][1] if not any(c & 1 for c in code)] == [(0, 0)]
    assert fc.census() == [2, 2]
    chains, h = zeta_homology(spec, z)
    assert h == [(1, []), (3, [])]
    assert brute_chain_counts(spec) == [len(d) for d in chains]
    assert abelianize(presentation(spec)) == (3, [])


def test_mixed_angles_translate_the_diagonal_pair():
    spec, stars, fc, z = full_pipeline(
        '{"rank":2,"hypersurfaces":[{"chi":[1,1],"q":"0"},{"chi":[1,-1],"q":"1/2"}]}')
    assert fc.census() == [2, 4, 2]
    assert z.census() == [2, 8, 8]
    chains, h = zeta_homology(spec, z)
    assert euler_characteristic([len(d) for d in chains]) == 2
    assert h == [(1, []), (4, []), (5, [])]
    assert brute_chain_counts(spec) == [len(d) for d in chains]
    pres = presentation(spec)
    assert abelianize(pres) == (4, [])
    assert abelianize(quotient_without_meridians(pres, 2)) == (2, [])


def test_cli_essentializes_rank_deficient_input(tmp_path):
    doc = '{"rank":2,"hypersurfaces":[{"chi":[2,2],"q":"0"}]}'
    path = tmp_path / "arr.json"
    path.write_text(doc)
    res = subprocess.run([sys.executable, "-m", "toricarr", "validate",
                          str(path), "--format", "json"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["essential"] is False
    ess = report["essentialization"]
    assert ess["rank"] == 1
    assert ess["basis"] == [[1, 1]]
    assert ess["arrangement"]["hypersurfaces"] == [{"chi": [2], "q": "0"}]
    res2 = subprocess.run([sys.executable, "-m", "toricarr", "salvetti",
                           str(path), "--format", "json"],
                          capture_output=True, text=True)
    assert res2.returncode == 0
    report2 = json.loads(res2.stdout)
    assert report2["face_census"] == [2, 2]
    assert report2["object_census_by_codim"] == [2, 4]
