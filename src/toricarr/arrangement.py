"""Complexified toric arrangements: parsing, essentialization, and the
geometric key of a lifted hyperplane.

An arrangement is a finite list of pairs (character, angle): the character
is an integer exponent vector, the angle a rational q standing for the
unit-modulus constant exp(2*pi*i*q).  On the universal cover of the
compact torus the arrangement pulls back to the periodic family of affine
hyperplanes <alpha, x> = q + k over all integers k.
"""

import json
from fractions import Fraction
import math

from .errors import SpecError, InternalError
from .exact import rank, reduce_mod_lattice, saturation_basis


class Character:
    """Integer exponent vector of a Laurent monomial; never zero."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        if not any(alpha):
            raise SpecError("character exponent vector must be nonzero")
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __eq__(self, other):
        return isinstance(other, Character) and self.alpha == other.alpha

    def __hash__(self):
        return hash(self.alpha)

    def __repr__(self):
        return "Character(%r)" % (self.alpha,)


class AngleQ:
    """Rational angle q in [0, 1), representing exp(2*pi*i*q)."""

    __slots__ = ("q",)

    def __init__(self, q):
        q = Fraction(q)
        if not (0 <= q < 1):
            raise SpecError("angle must lie in [0, 1), got %s" % q)
        object.__setattr__(self, "q", q)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __eq__(self, other):
        return isinstance(other, AngleQ) and self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return "AngleQ(%s)" % (self.q,)


class ArrangementSpec:
    """A rank together with pairwise-distinct (character, angle) pairs.

    Rank 0 is allowed only for the degenerate empty arrangement that
    essentializing an arrangement without hypersurfaces produces.
    """

    def __init__(self, rank_, hypersurfaces):
        rank_ = int(rank_)
        if rank_ < 0:
            raise SpecError("rank must be nonnegative")
        pairs = []
        seen = set()
        for chi, a in hypersurfaces:
            if not isinstance(chi, Character):
                chi = Character(chi)
            if not isinstance(a, AngleQ):
                a = AngleQ(a)
            if len(chi.alpha) != rank_:
                raise SpecError("character length %d does not match rank %d"
                                % (len(chi.alpha), rank_))
            key = (chi.alpha, a.q)
            if key in seen:
                raise SpecError("duplicate hypersurface %r" % (key,))
            seen.add(key)
            pairs.append((chi, a))
        self.rank = rank_
        self.hypersurfaces = tuple(pairs)

    def __eq__(self, other):
        return (isinstance(other, ArrangementSpec) and self.rank == other.rank
                and self.hypersurfaces == other.hypersurfaces)

    def __repr__(self):
        return "ArrangementSpec(rank=%d, %d hypersurfaces)" % (
            self.rank, len(self.hypersurfaces))


def geometric_key(alpha, c):
    """Canonical key of the hyperplane <alpha, x> = c as a point set:
    the primitive normal with positive leading entry, and its constant."""
    g = 0
    for a in alpha:
        g = math.gcd(g, a)
    sgn = 1 if next(a for a in alpha if a != 0) > 0 else -1
    return tuple(a // (sgn * g) for a in alpha), Fraction(c) / (sgn * g)


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
        pairs.append((Character(chi), AngleQ(q)))
    return ArrangementSpec(rank_, pairs)


def spec_to_json_dict(spec):
    return {
        "rank": spec.rank,
        "hypersurfaces": [
            {"chi": list(chi.alpha), "q": str(a.q)} for chi, a in spec.hypersurfaces
        ],
    }


def is_essential(spec):
    """True when the characters span a finite-index sublattice."""
    if spec.rank == 0:
        return True
    if not spec.hypersurfaces:
        return False
    return rank([chi.alpha for chi, _ in spec.hypersurfaces]) == spec.rank


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
    basis = saturation_basis([chi.alpha for chi, _ in spec.hypersurfaces], spec.rank)
    new_pairs = []
    for chi, a in spec.hypersurfaces:
        rest, y = reduce_mod_lattice(chi.alpha, basis)
        if any(rest):
            raise InternalError("character escaped its own saturation")
        new_pairs.append((Character(y), a))
    return ArrangementSpec(len(basis), new_pairs), basis
