import json
from fractions import Fraction

import pytest

from toricarr.errors import SpecError
from toricarr.arrangement import (parse_spec, spec_to_json_dict, is_essential,
                                  essentialize, ArrangementSpec)


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
    assert [alpha for alpha, _ in spec.hypersurfaces] == [(1, 1), (1, -1)]


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


def test_parse_reports_the_first_fault_in_document_order():
    # the zero character of item 0 comes before item 1's unparseable
    # angle and its short character
    doc = ('{"rank":2,"hypersurfaces":'
           '[{"chi":[0,0],"q":"0"},{"chi":[1],"q":"x"}]}')
    with pytest.raises(SpecError, match="^character exponent vector must be nonzero$"):
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
    assert out.hypersurfaces[0][0] == (2,)


def test_essentialize_coordinate_line():
    spec = make(2, [((1, 0), 0)])
    out, basis = essentialize(spec)
    assert out.rank == 1
    assert out.hypersurfaces[0][0] == (1,)


def test_essentialize_idempotent():
    spec = make(3, [((2, 2, 0), 0), ((0, 2, 2), Fraction(1, 2))])
    once, _ = essentialize(spec)
    twice, _ = essentialize(once)
    assert twice == once
