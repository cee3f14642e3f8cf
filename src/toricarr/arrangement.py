"""Complexified toric arrangements: parsing and essentialization.

An arrangement is a finite list of hypersurfaces (alpha, q): the
character alpha is a nonzero integer exponent vector, and the angle q, a
Fraction in [0, 1), stands for the unit-modulus constant exp(2*pi*i*q).
On the universal cover of the compact torus the arrangement pulls back
to the periodic family of affine hyperplanes <alpha, x> = q + k over all
integers k.
"""

import json
from fractions import Fraction

from .errors import SpecError, InternalError
from .exact import rank, reduce_mod_lattice, saturation_basis


def _hypersurface(alpha, q):
    """(alpha, q) as a tuple of ints and a Fraction; the character must be
    nonzero and the angle in [0, 1)."""
    alpha = tuple(int(a) for a in alpha)
    if not any(alpha):
        raise SpecError("character exponent vector must be nonzero")
    q = Fraction(q)
    if not (0 <= q < 1):
        raise SpecError("angle must lie in [0, 1), got %s" % q)
    return alpha, q


class ArrangementSpec:
    """A rank together with pairwise-distinct hypersurfaces (alpha, q),
    each alpha a nonzero tuple of rank ints and q a Fraction in [0, 1).
    This is the one type that enforces those conditions.

    Rank 0 is allowed only for the degenerate empty arrangement that
    essentializing an arrangement without hypersurfaces produces.
    """

    def __init__(self, rank_, hypersurfaces):
        rank_ = int(rank_)
        if rank_ < 0:
            raise SpecError("rank must be nonnegative")
        pairs = []
        for alpha, q in hypersurfaces:
            pair = _hypersurface(alpha, q)
            if len(pair[0]) != rank_:
                raise SpecError("character length %d does not match rank %d"
                                % (len(pair[0]), rank_))
            if pair in pairs:
                raise SpecError("duplicate hypersurface %r" % (pair,))
            pairs.append(pair)
        self.rank = rank_
        self.hypersurfaces = tuple(pairs)

    def __eq__(self, other):
        return (isinstance(other, ArrangementSpec) and self.rank == other.rank
                and self.hypersurfaces == other.hypersurfaces)

    def __repr__(self):
        return "ArrangementSpec(rank=%d, %d hypersurfaces)" % (
            self.rank, len(self.hypersurfaces))


def parse_spec(text):
    """Parse the JSON arrangement document into an ArrangementSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError("invalid JSON: %s" % e) from None
    if not isinstance(doc, dict):
        raise SpecError("top-level JSON value must be an object")
    if "rank" not in doc or "hypersurfaces" not in doc:
        raise SpecError("document needs 'rank' and 'hypersurfaces'")
    rank_ = doc["rank"]
    if type(rank_) is not int or rank_ < 1:  # JSON true/false are ints too
        raise SpecError("'rank' must be a positive integer")
    hs = doc["hypersurfaces"]
    if not isinstance(hs, list):
        raise SpecError("'hypersurfaces' must be a list")
    pairs = []
    for i, item in enumerate(hs):
        if not isinstance(item, dict) or "chi" not in item or "q" not in item:
            raise SpecError("hypersurface %d needs 'chi' and 'q'" % i)
        chi = item["chi"]
        if not isinstance(chi, list) or not all(type(a) is int for a in chi):
            raise SpecError("hypersurface %d: 'chi' must be a list of integers" % i)
        qraw = item["q"]
        if not isinstance(qraw, str):
            raise SpecError("hypersurface %d: 'q' must be a rational string" % i)
        try:
            q = Fraction(qraw)
        except (ValueError, ZeroDivisionError):
            raise SpecError("hypersurface %d: cannot parse rational %r" % (i, qraw)) from None
        pairs.append(_hypersurface(chi, q))
    return ArrangementSpec(rank_, pairs)


def spec_to_json_dict(spec):
    return {
        "rank": spec.rank,
        "hypersurfaces": [
            {"chi": list(alpha), "q": str(q)} for alpha, q in spec.hypersurfaces
        ],
    }


def is_essential(spec):
    """True when the characters span a finite-index sublattice."""
    if spec.rank == 0:
        return True
    if not spec.hypersurfaces:
        return False
    return rank([alpha for alpha, _ in spec.hypersurfaces]) == spec.rank


def essentialize(spec):
    """Project onto the saturation of the character span.

    Returns (essential_spec, basis) where the basis rows generate the
    saturated sublattice in the original coordinates; an essential input
    comes back unchanged with the identity basis.  The basis is in Hermite
    form, so a character's coordinates y with y * basis = chi come from
    back-substitution on the pivot columns (`reduce_mod_lattice`).
    """
    if is_essential(spec):
        ident = [[int(i == j) for j in range(spec.rank)] for i in range(spec.rank)]
        return spec, ident
    basis = saturation_basis([alpha for alpha, _ in spec.hypersurfaces], spec.rank)
    new_pairs = []
    for alpha, q in spec.hypersurfaces:
        rest, y = reduce_mod_lattice(alpha, basis)
        if any(rest):
            raise InternalError("character escaped its own saturation")
        new_pairs.append((y, q))
    return ArrangementSpec(len(basis), new_pairs), basis
