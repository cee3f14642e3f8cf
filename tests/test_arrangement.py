import json
import math
from fractions import Fraction

import pytest

from toricarr.errors import SpecError
from toricarr.arrangement import (parse_spec, spec_to_json_dict, is_essential,
                                  essentialize, lift_to_window,
                                  window_cap, ArrangementSpec, Window)


def make(rank, pairs):
    return ArrangementSpec(rank, pairs)


# -- parsing

def test_parse_minimal():
    spec = parse_spec('{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"}]}')
    assert spec.rank == 1
    assert len(spec.hypersurfaces) == 1


def test_parse_diagonal_pair():
    spec = parse_spec('{"rank":2,"hypersurfaces":'
                      '[{"chi":[1,1],"q":"0"},{"chi":[1,-1],"q":"0"}]}')
    assert spec.rank == 2
    assert [chi.alpha for chi, _ in spec.hypersurfaces] == [(1, 1), (1, -1)]


@pytest.mark.parametrize("doc", [
    "not json at all",
    '{"rank":1}',
    '{"rank":0,"hypersurfaces":[]}',
    '{"rank":1,"hypersurfaces":[{"chi":[0],"q":"0"}]}',
    '{"rank":1,"hypersurfaces":[{"chi":[1],"q":"1"}]}',
    '{"rank":1,"hypersurfaces":[{"chi":[1],"q":"-1/2"}]}',
    '{"rank":1,"hypersurfaces":[{"chi":[1],"q":"0"},{"chi":[1],"q":"0"}]}',
    '{"rank":2,"hypersurfaces":[{"chi":[1],"q":"0"}]}',
    '{"rank":1,"hypersurfaces":[{"chi":[1],"q":0.5}]}',
])
def test_parse_rejects(doc):
    with pytest.raises(SpecError):
        parse_spec(doc)


@pytest.mark.parametrize("doc", [
    '{"rank":true,"hypersurfaces":[{"chi":[1],"q":"0"}]}',
    '{"rank":1,"hypersurfaces":[{"chi":[true],"q":"0"}]}',
])
def test_parse_rejects_json_booleans(doc):
    with pytest.raises(SpecError):
        parse_spec(doc)


def test_spec_roundtrip():
    doc = '{"rank":2,"hypersurfaces":[{"chi":[1,1],"q":"1/3"}]}'
    spec = parse_spec(doc)
    assert parse_spec(json.dumps(spec_to_json_dict(spec))) == spec


# -- essentiality

def test_essential_coordinate_pair():
    assert is_essential(make(2, [((1, 0), 0), ((0, 1), 0)]))


def test_not_essential_rank_one():
    assert not is_essential(make(2, [((1, 1), 0), ((2, 2), Fraction(1, 2))]))


def test_essential_diagonals():
    assert is_essential(make(2, [((1, 1), 0), ((1, -1), 0)]))


def test_essentialize_identity_on_essential():
    spec = make(2, [((1, 0), 0), ((0, 1), 0)])
    out, basis = essentialize(spec)
    assert out is spec
    assert basis == [[1, 0], [0, 1]]


def test_essentialize_saturates():
    # the character stays an index-2 element of the saturated lattice
    spec = make(2, [((2, 2), 0)])
    out, basis = essentialize(spec)
    assert out.rank == 1
    assert basis == [[1, 1]]
    assert out.hypersurfaces[0][0].alpha == (2,)


def test_essentialize_coordinate_line():
    spec = make(2, [((1, 0), 0)])
    out, basis = essentialize(spec)
    assert out.rank == 1
    assert out.hypersurfaces[0][0].alpha == (1,)


def test_essentialize_idempotent():
    spec = make(3, [((2, 2, 0), 0), ((0, 2, 2), Fraction(1, 2))])
    once, _ = essentialize(spec)
    twice, _ = essentialize(once)
    assert twice == once


# -- lifting

def test_lift_unit_circle():
    spec = make(1, [((1,), 0)])
    hps = lift_to_window(spec, Window([-1], [2]))
    assert [h.c for h in hps] == [-1, 0, 1, 2]
    assert [h.shift for h in hps] == [-1, 0, 1, 2]


def test_lift_half_angle_tight_window():
    spec = make(1, [((1,), Fraction(1, 2))])
    hps = lift_to_window(spec, Window([0], [1]))
    assert [h.c for h in hps] == [Fraction(1, 2)]


def test_lift_requires_essential():
    spec = make(2, [((1, 1), 0)])
    with pytest.raises(SpecError):
        lift_to_window(spec, Window.standard(2))


def test_lift_is_exactly_the_box_hitting_family():
    # brute-force scan over a provably sufficient shift range
    spec = make(2, [((1, 1), 0), ((2, -1), Fraction(1, 3))])
    window = Window.standard(2)
    hps = lift_to_window(spec, window)
    got = {(h.source, h.shift) for h in hps}
    corners = [(x, y) for x in window.lo + window.hi for y in window.lo + window.hi]
    for src, (chi, a) in enumerate(spec.hypersurfaces):
        vals = [sum(c * x for c, x in zip(chi.alpha, p)) for p in corners]
        lo, hi = min(vals), max(vals)
        for k in range(math.floor(lo - a.q) - 2, math.ceil(hi - a.q) + 3):
            hits = lo <= a.q + k <= hi
            assert ((src, k) in got) == hits


def test_window_validation():
    with pytest.raises(SpecError):
        Window([0], [0])
    with pytest.raises(SpecError):
        Window([Fraction(1, 2)], [2])
    w = Window.standard(2, 2)
    assert w.lo == (-2, -2) and w.hi == (3, 3)


@pytest.mark.parametrize("pairs,cap", [
    # coordinate grid: A = I, e = 1
    ([((1, 0), 0), ((1, 0), Fraction(1, 2)), ((0, 1), 0),
      ((0, 1), Fraction(1, 2))], 2),
    # sheared pair: A^-1 = [[1, 0], [-1, 1]], e = 2
    ([((1, 0), 0), ((1, 1), 0)], 3),
    # three walls: e = 3 on {(1,-1), (1,-2)}, e = 1 on {(1,-1), (1,2)}
    ([((1, -1), 0), ((1, -2), Fraction(2, 3)), ((1, 2), 0)], 2),
    # two walls: A^-1 = [[2, 1], [1, 1]] up to sign, e = 3
    ([((-1, 1), Fraction(1, 4)), ((1, -2), 0)], 4),
])
def test_window_cap(pairs, cap):
    assert window_cap(make(2, pairs)) == cap


def test_window_cap_uses_essentialized_characters():
    # no three of these characters are independent; essentialized, they
    # are the sheared pair (1, 0), (1, 1)
    spec = make(3, [((0, 1, 0), 0), ((0, 1, 1), Fraction(1, 2))])
    work, _ = essentialize(spec)
    assert [chi.alpha for chi, _ in work.hypersurfaces] == [(1, 0), (1, 1)]
    assert window_cap(spec) == 3
