"""Exact integer linear algebra on Python ints.

Everything here is arbitrary precision and integral: lattices come from
Hermite forms (`hnf`, `hermite_basis`, `integer_kernel`), and a vector is
reduced modulo a lattice by back-substitution on its Hermite basis
(`reduce_mod_lattice`).  No floating point and no rational elimination
anywhere; the geometric and homological layers above rely on exact signs
and exact divisibility.

`hnf` and the sparse +-1 elimination that `snf` runs before the dense
residual block are the only eliminators: kernels, saturation and the
invariant factors of `snf` all come from them.
"""

from math import gcd


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


def hnf(m):
    """Row Hermite normal form of a list of integer rows m.

    Returns (H, U) as lists of rows with U unimodular and U*m = H.  H is
    in row-echelon Hermite form: pivots positive, entries above a pivot
    reduced into [0, pivot), zero rows at the bottom.
    """
    a = [list(r) for r in m]
    rows = len(a)
    cols = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

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
    return a, u


def hermite_basis(rows):
    """The nonzero rows of the Hermite form of the rows (`hnf`): a basis
    of the lattice they span, with positive pivots in ascending columns."""
    return [row for row in hnf(rows)[0] if any(row)]


def rank(rows):
    return len(hermite_basis(rows))


def reduce_mod_lattice(vec, hbasis):
    """(r, t): r = vec - t H, each pivot entry brought into [0, pivot) by
    the rows of the Hermite basis H in turn.  The rows below a row vanish
    at its pivot, so r is 0 exactly when vec lies in the lattice, and t
    then holds its coordinates."""
    v, t = list(vec), []
    for row in hbasis:
        piv = next(j for j, x in enumerate(row) if x != 0)
        t.append(v[piv] // row[piv])
        if t[-1]:
            v = [x - t[-1] * y for x, y in zip(v, row)]
    return tuple(v), t


def integer_kernel(rows, n):
    """HNF basis of the integer kernel {x in Z^n : <row, x> = 0 for all rows}.

    With U*rows^T = H from `hnf`, the rows of U beside the zero rows of H
    are a basis of the kernel: U is unimodular and the nonzero rows of H
    are independent (Cohen, A Course in Computational Algebraic Number
    Theory, section 2.4).
    """
    h, u = hnf([[row[j] for row in rows] for j in range(n)])
    return hnf([ui for ui, hi in zip(u, h) if not any(hi)])[0]


def _smith_factors(rows):
    """Nonzero invariant factors d1 | d2 | ... of a dense integer matrix
    given as a list of rows.

    Row Hermite forms of the matrix and of its transpose alternate, each
    dropping its zero rows, until every row has one nonzero entry; every
    step is unimodular, so what is left is a diagonal with the Smith form
    of the input (Kannan and Bachem, SIAM J. Comput. 8, 1979).  It ends:
    the first pivot can only shrink to a proper divisor of itself, and
    once it divides its row, its row and column stay split off, leaving
    the same argument to the rest.  Replacing each pair (a, b) by
    (gcd, lcm) sorts every prime's exponents, which makes the diagonal a
    divisibility chain.
    """
    while True:
        rows = hermite_basis(rows)
        if all(sum(map(bool, row)) == 1 for row in rows):
            break
        rows = [list(col) for col in zip(*rows)]
    d = [sum(row) for row in rows]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


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
    """Invariant factors d1 | d2 | ... of a SparseMatrix: the nonzero
    diagonal entries of its Smith form, as a list ([] when m has no rows
    or no columns).

    The +-1 pivots are eliminated by sparse unimodular operations first;
    only the block they leave goes to `_smith_factors`.
    """
    columns = [dict(col) for col in m.columns]
    factors = [1] * _eliminate_units(columns, m.rows)
    live = [col for col in columns if col]
    if live:
        rows = sorted({i for col in live for i in col})
        factors += _smith_factors([[col.get(i, 0) for col in live] for i in rows])
    return factors


def saturation_basis(char_rows, n):
    """HNF basis of the saturation of the row span inside Z^n.

    The saturation {x in Z^n : k*x in span for some k >= 1} is the integer
    kernel of the integer kernel of the rows; empty when the span is
    trivial.
    """
    return integer_kernel(integer_kernel(char_rows, n), n)
