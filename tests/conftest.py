import json
from fractions import Fraction

import pytest

from toricarr.arrangement import parse_spec, Window, lift_to_window
from toricarr.category import AcyclicCategory
from toricarr.cells import enumerate_faces, quotient_faces
from toricarr.errors import InternalError
from toricarr.salvetti import salvetti_below, toric_salvetti
from toricarr.pi1 import build_context

CATALOG = {
    "one_point": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"}]},
    "two_points": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"},
                                                {"chi": [1], "q": "1/2"}]},
    "three_points": {"rank": 1, "hypersurfaces": [{"chi": [1], "q": "0"},
                                                  {"chi": [1], "q": "1/2"},
                                                  {"chi": [1], "q": "1/4"}]},
    "diagonals": {"rank": 2, "hypersurfaces": [{"chi": [1, 1], "q": "0"},
                                          {"chi": [1, -1], "q": "0"}]},
    "grid": {"rank": 2, "hypersurfaces": [{"chi": [1, 0], "q": "0"},
                                          {"chi": [1, 0], "q": "1/2"},
                                          {"chi": [0, 1], "q": "0"},
                                          {"chi": [0, 1], "q": "1/2"}]},
    "coord3": {"rank": 3, "hypersurfaces": [{"chi": [1, 0, 0], "q": "0"},
                                            {"chi": [0, 1, 0], "q": "0"},
                                            {"chi": [0, 0, 1], "q": "0"}]},
}


def catalog_spec(name):
    return parse_spec(json.dumps(CATALOG[name]))


class Pipeline:
    """Lazily built computation stages for one arrangement and window."""

    def __init__(self, name, k=1):
        self.name = name
        self.k = k
        self.spec = catalog_spec(name)
        self.window = Window.standard(self.spec.rank, k)
        self._lifted = None
        self._fc = None
        self._zeta = None
        self._ctx = None

    @property
    def lifted(self):
        if self._lifted is None:
            self._lifted = enumerate_faces(
                lift_to_window(self.spec, self.window), self.window)
        return self._lifted

    @property
    def fc(self):
        if self._fc is None:
            self._fc = quotient_faces(self.lifted)
        return self._fc

    @property
    def zeta(self):
        if self._zeta is None:
            self._zeta = toric_salvetti(self.lifted, self.fc)
        return self._zeta

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = build_context(self.spec, self.lifted, self.fc)
        return self._ctx


_cache = {}


def pipeline(name, k=1):
    key = (name, k)
    if key not in _cache:
        _cache[key] = Pipeline(name, k)
    return _cache[key]


@pytest.fixture(scope="session")
def catalog():
    return pipeline


def sign_vector(lifted, fid):
    """The face's signs on the lifted hyperplanes as a tuple of 1, -1 and
    0, expanded from its (plus, minus) masks."""
    plus, minus = lifted.faces[fid].signs
    return tuple((plus >> h & 1) - (minus >> h & 1) for h in range(len(lifted.hyperplanes)))


def star_ok(lifted, fid):
    """The face's closed star lies inside the window box: the face is uncut,
    its barycenter lies in the open box, and no coface is cut.  A face in
    the box boundary fails, as parts of its true star miss the window."""
    return (not lifted.faces[fid].boundary_cut and lifted.in_open_box(fid) and
            not any(lifted.faces[g].boundary_cut for g in lifted.uppers[fid]))


# -- the affine Salvetti poset of a lift: the brute-force reference for
# the quotient Salvetti category and its chain counts

class SalvettiPoset:
    """Pairs [F, C] over the windowed lift, restricted to faces whose
    closed star the window fully contains."""

    def __init__(self, lifted, elements):
        self.lifted = lifted
        self.elements = elements        # list of (fid, cid)
        self.index = {e: i for i, e in enumerate(elements)}

    def grade(self, i):
        fid, _ = self.elements[i]
        return self.lifted.dim - self.lifted.faces[fid].dim

    def relation_pairs(self):
        """All strict order pairs (i, j), grade-increasing."""
        pairs = []
        for i, e in enumerate(self.elements):
            js = (self.index.get(t) for t in salvetti_below(self.lifted, e))
            pairs.extend((i, j) for j in sorted(j for j in js if j is not None))
        return pairs

    def as_category(self):
        n_el = len(self.elements)
        grades = [self.grade(i) for i in range(n_el)]
        morphs = []
        identities = []
        for i in range(n_el):
            identities.append(len(morphs))
            morphs.append((i, i))
        strict = {}
        for (i, j) in self.relation_pairs():
            strict[(i, j)] = len(morphs)
            morphs.append((i, j))
        table = {}
        by_src = {}
        for (i, j), mid in strict.items():
            by_src.setdefault(i, []).append((j, mid))
        for (i, j), m1 in strict.items():
            for (k, m2) in by_src.get(j, ()):
                comp = strict.get((i, k))
                if comp is None:
                    raise InternalError("Salvetti order is not transitive")
                table[(m2, m1)] = comp
        return AcyclicCategory(grades, morphs, identities, table)


def salvetti_poset(lifted, truncated=True):
    """Pairs [F, C] of the lift.

    With `truncated` set (the default), only faces whose closed star the
    window fully contains are used: the lift is a finite snapshot of a
    periodic arrangement and boundary faces carry incomplete data.  Pass
    `truncated=False` when the hyperplane list is a complete affine
    arrangement; every sign class is then an honest face, unbounded ones
    included.
    """
    elements = []
    for f in lifted.faces:
        if truncated and not star_ok(lifted, f.id):
            continue
        for cid in lifted.chambers_above(f.id):
            elements.append((f.id, cid))
    elements.sort()
    return SalvettiPoset(lifted, elements)


# -- Fraction Gauss-Jordan elimination: the reference for the integer
# vertices, kernels and saturations of `toricarr.exact` and `cells`

def solve_affine(a_rows, b, ncols=None):
    """Solve A*x = b exactly over the rationals.

    `a_rows` is a list of coefficient rows, `b` the right-hand sides.
    Returns (particular_solution, kernel_basis) as tuples of Fractions,
    or None when the system is inconsistent.  The kernel basis spans the
    homogeneous solutions.  `ncols` is only needed for an empty system.
    """
    rows = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(a_rows, b)]
    if a_rows:
        ncols = len(a_rows[0])
    elif ncols is None:
        raise ValueError("empty system needs an explicit ncols")
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols] != 0:
            return None
    part = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        part[col] = rows[i][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -rows[i][fcol]
        basis.append(tuple(vec))
    return tuple(part), basis
