"""Exact integer and rational linear algebra.

Everything here is arbitrary precision: integer matrices use Python ints,
rational data uses fractions.Fraction.  No floating point anywhere; the
geometric and homological layers above rely on exact signs and exact
divisibility.
"""

from fractions import Fraction


class IntMatrix:
    """An immutable integer matrix stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(int(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows_list):
        rows_list = [list(r) for r in rows_list]
        r = len(rows_list)
        c = len(rows_list[0]) if r else 0
        if any(len(row) != c for row in rows_list):
            raise ValueError("ragged rows")
        return cls(r, c, [e for row in rows_list for e in row])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [0] * (rows * cols))

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def tolists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.tolists(),)


class SparseMatrix:
    """An integer matrix stored by columns: `columns[j]` maps a row index
    to the nonzero entry of column j in that row."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns):
        if len(columns) != cols:
            raise ValueError("column count does not match shape")
        self.rows = rows
        self.cols = cols
        self.columns = columns

    @classmethod
    def from_dense(cls, m):
        return cls(m.rows, m.cols,
                   [{i: m.entries[i * m.cols + j] for i in range(m.rows)
                     if m.entries[i * m.cols + j]} for j in range(m.cols)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [{} for _ in range(cols)])


def hnf(m):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U*m = H.  H is in row-echelon
    Hermite form: pivots positive, entries above a pivot reduced into
    [0, pivot), zero rows at the bottom.
    """
    a = m.tolists()
    rows, cols = m.rows, m.cols
    u = IntMatrix.identity(rows).tolists()

    def row_op(i, j, q):
        # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    r = 0
    for col in range(cols):
        # gcd-reduce column entries below r into a single pivot
        while True:
            nz = [i for i in range(r, rows) if a[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(a[i][col]), i))
            if piv != r:
                swap(r, piv)
            if a[r][col] < 0:
                negate(r)
            done = True
            for i in range(r + 1, rows):
                if a[i][col] != 0:
                    q = a[i][col] // a[r][col]
                    row_op(i, r, q)
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if r < rows and a[r][col] != 0:
            for i in range(r):
                q = a[i][col] // a[r][col]
                if q:
                    row_op(i, r, q)
            r += 1
            if r == rows:
                break
    return IntMatrix.from_rows(a), IntMatrix.from_rows(u)


def rank(m):
    h, _ = hnf(m)
    return sum(1 for i in range(h.rows) if any(h.row(i)))


def snf_with_transforms(m):
    """Smith normal form with transforms: returns (D, U, V), U*m*V = D.

    Pivoting always picks the smallest nonzero absolute value in the
    remaining block, which keeps intermediate entries tame.  A pivot is
    only accepted once it divides every entry of the remaining block, so
    the divisibility chain d1 | d2 | ... holds by construction.
    """
    a = m.tolists()
    rows, cols = m.rows, m.cols
    u = IntMatrix.identity(rows).tolists()
    v = IntMatrix.identity(cols).tolists()

    def row_op(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    k = min(rows, cols)
    t = 0
    while t < k:
        # smallest nonzero entry of the block a[t:, t:] becomes the pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        clean = True
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                row_op(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                col_op(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue
        # pivot must divide the whole remaining block, else fold the
        # offending row in and re-reduce
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1
    d = IntMatrix.from_rows(a)
    return d, IntMatrix.from_rows(u), IntMatrix.from_rows(v)


def _eliminate_units(columns, nrows):
    """Eliminate +-1 pivots from a column-sparse matrix in place.

    A pivot a[r][c] = +-1 clears the rest of row r by column operations,
    after which row r and column c split off as a direct summand [+-1]
    and are removed.  Both steps are unimodular, so the Smith form of the
    input is [1] * count followed by the Smith form of what is left.  The
    pivot row is the row held by the fewest columns, which keeps the
    number of column operations and the fill-in small.  Returns count.
    """
    import heapq  # not needed at start-up
    held = [set() for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i in col:
            held[i].add(j)
    # rows by how many columns hold them; an entry goes stale when its row
    # changes, and a changed row is pushed again
    queue = [(len(h), i) for i, h in enumerate(held) if h]
    heapq.heapify(queue)
    count = 0
    while queue:
        n, r = heapq.heappop(queue)
        if n != len(held[r]):
            continue
        units = [j for j in held[r] if columns[j][r] in (1, -1)]
        if not units:
            continue
        c = min(units, key=lambda j: (len(columns[j]), j))
        pivot = columns[c]
        p = pivot[r]
        for j in held[r] - {c}:
            col = columns[j]
            q = col[r] * p
            for i, x in pivot.items():
                y = col.get(i, 0) - q * x
                if y:
                    col[i] = y
                    held[i].add(j)
                else:
                    del col[i]
                    held[i].discard(j)
        for i in pivot:
            held[i].discard(c)
            if held[i]:
                heapq.heappush(queue, (len(held[i]), i))
        columns[c] = {}
        count += 1
    return count


def snf(m):
    """Smith normal form: returns (D, invariant_factors).

    `m` is an IntMatrix or a SparseMatrix.  The +-1 pivots are eliminated
    by sparse unimodular operations first; the dense
    snf_with_transforms then runs only on the block they leave.  The
    invariant factors d1 | d2 | ... are the nonzero diagonal entries of
    the Smith form D, returned as a SparseMatrix of the shape of m.
    """
    if isinstance(m, IntMatrix):
        m = SparseMatrix.from_dense(m)
    columns = [dict(col) for col in m.columns]
    factors = [1] * _eliminate_units(columns, m.rows)
    live = [col for col in columns if col]
    if live:
        rows = sorted({i for col in live for i in col})
        d, _, _ = snf_with_transforms(
            IntMatrix.from_rows([[col.get(i, 0) for col in live] for i in rows]))
        factors += [d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i] != 0]
    diagonal = [{i: f} for i, f in enumerate(factors)]
    diagonal += [{} for _ in range(m.cols - len(factors))]
    return SparseMatrix(m.rows, m.cols, diagonal), factors


def inv_unimodular(m):
    """Exact inverse of a unimodular integer matrix (again integral)."""
    n = m.rows
    if n != m.cols:
        raise ValueError("not square")
    a = [[Fraction(x) for x in m.row(i)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = []
    for i in range(n):
        row = a[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([x.numerator for x in row])
    return IntMatrix.from_rows(out)


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


def kernel_basis(a_rows, ncols):
    """Rational basis of {x : A x = 0} for a possibly empty row list."""
    if not a_rows:
        ident = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
        return [tuple(r) for r in ident]
    sol = solve_affine(a_rows, [0] * len(a_rows), ncols)
    assert sol is not None
    return sol[1]


def saturation_basis(char_rows, n):
    """Integer basis of the saturation of the row span inside Z^n.

    The saturation is {x in Z^n : k*x in span for some k >= 1}.  Returned
    as a list of integer rows; empty when the span is trivial.
    """
    nonzero = [list(r) for r in char_rows if any(r)]
    if not nonzero:
        return []
    m = IntMatrix.from_rows(nonzero)
    h, _ = hnf(m)
    basis = [list(h.row(i)) for i in range(h.rows) if any(h.row(i))]
    r = len(basis)
    hm = IntMatrix.from_rows(basis)
    _, _, v = snf_with_transforms(hm)
    vinv = inv_unimodular(v)
    # rows of V^-1 scaled by the invariant factors span the same rational
    # space as the lattice; dropping the factors saturates it
    sat = [list(vinv.row(i)) for i in range(r)]
    # renormalise to a canonical HNF basis for determinism
    hs, _ = hnf(IntMatrix.from_rows(sat))
    return [list(hs.row(i)) for i in range(hs.rows) if any(hs.row(i))]
