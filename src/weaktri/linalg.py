"""Square matrices, exact Gaussian elimination, and characteristic
polynomials over a FieldCtx.

A vector is a plain tuple of packed field elements: the row-space
utilities and ``Mat.row`` take or return such tuples, and a Mat keeps its
entries as one row-major tuple of them.  Row arithmetic (elimination and
products) goes through ``FieldCtx.axpy`` and ``FieldCtx.dot``, the
package's one vector kernel.
``char_poly_coeffs`` is the one characteristic-polynomial kernel: it reads
a flat row-major entry tuple, and ``char_poly`` wraps its coefficients in a
Poly.
"""

from __future__ import annotations

from .gf import Poly


class Mat:
    """Immutable n-by-n matrix, entries row-major."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field, n, entries):
        entries = tuple(field.coerce(e) for e in entries)
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        self.field = field
        self.n = n
        self.entries = entries

    @classmethod
    def _wrap(cls, field, n, entries):
        # fast path for internally produced, already-reduced entries
        m = object.__new__(cls)
        m.field = field
        m.n = n
        m.entries = entries
        return m

    @classmethod
    def identity(cls, field, n):
        return cls._wrap(field, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def unit(cls, field, n, i, j):
        """Matrix with a single 1 at row i, column j (0-based)."""
        entries = [0] * (n * n)
        entries[i * n + j] = 1
        return cls._wrap(field, n, tuple(entries))

    def entry(self, i, j):
        return self.entries[i * self.n + j]

    def row(self, i):
        return self.entries[i * self.n : (i + 1) * self.n]

    def col(self, j):
        return tuple(self.entries[i * self.n + j] for i in range(self.n))

    def rows(self):
        return [self.row(i) for i in range(self.n)]

    def __add__(self, other):
        F = self.field
        return Mat._wrap(F, self.n, tuple(F.axpy(1, other.entries, self.entries)))

    def __sub__(self, other):
        F = self.field
        return Mat._wrap(F, self.n, tuple(F.axpy(F.neg(1), other.entries, self.entries)))

    def __mul__(self, other):
        F, n = self.field, self.n
        if isinstance(other, Mat):
            cols = [other.entries[j::n] for j in range(n)]
            return Mat._wrap(F, n, tuple(F.dot(row, col) for row in self.rows() for col in cols))
        return NotImplemented

    def trace(self):
        F, n = self.field, self.n
        acc = 0
        for i in range(n):
            acc = F.add(acc, self.entries[i * n + i])
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.n, self.entries))

    def __repr__(self):
        rows = ["[" + " ".join(str(e) for e in self.row(i)) + "]" for i in range(self.n)]
        return "Mat[" + " ".join(rows) + "]"


# -- row-space primitives on plain tuples -------------------------------------


def rref(rows, field):
    """Reduced row echelon form of a list of equal-length rows.

    Returns (reduced_rows, pivot_columns): nonzero rows with leading 1s at
    strictly increasing pivot columns and zeros above and below each pivot.
    """
    work = [list(r) for r in rows]
    m = len(work)
    width = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inv(work[r][c])
        if inv != 1:
            work[r] = field.axpy(inv, work[r])
        for i in range(m):
            if i != r and work[i][c] != 0:
                work[i] = field.axpy(field.neg(work[i][c]), work[r], work[i])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in work[:r]], pivots


def span_rows(rows, field):
    """Canonical (RREF) basis of the row space, as a tuple of row tuples."""
    reduced, _ = rref(rows, field)
    return tuple(reduced)


def rref_solve(a_rows, b, field):
    """One solution x of A x = b (free variables 0), or None if inconsistent."""
    width = len(a_rows[0]) if a_rows else 0
    aug = [tuple(row) + (rhs,) for row, rhs in zip(a_rows, b)]
    reduced, pivots = rref(aug, field)
    x = [0] * width
    for row, pc in zip(reduced, pivots):
        if pc == width:
            return None
        x[pc] = row[-1]
    return tuple(x)


def kernel_basis(a_rows, field, width=None):
    """Canonical basis of the null space of A, one vector per free column:
    ``rref``, then ``rref_kernel``.  ``width`` is the number of columns,
    read off the first row when None; an A with no rows needs it."""
    if width is None:
        width = len(a_rows[0]) if a_rows else 0
    reduced, pivots = rref(a_rows, field)
    return rref_kernel(reduced, pivots, field, width)


def rref_kernel(rows, pivots, field, width):
    """Canonical basis of the null space of ``rows``, already in reduced row
    echelon form with these pivot columns, as ``rref`` returns them: the
    vector of free column f has a 1 at f, -row[f] at each row's pivot
    column and 0 elsewhere.  No elimination is done."""
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [0] * width
        v[free] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[free])
        basis.append(tuple(v))
    return basis


# -- square-matrix solvers -----------------------------------------------------


def invert(m: Mat):
    """Inverse matrix, or None when singular: Gauss-Jordan on [M | I]."""
    F, n = m.field, m.n
    aug = [m.row(i) + tuple(int(i == j) for j in range(n)) for i in range(n)]
    reduced, pivots = rref(aug, F)
    if pivots != list(range(n)):
        return None
    return Mat._wrap(F, n, tuple(e for row in reduced for e in row[n:]))


def char_poly(m: Mat) -> Poly:
    """Characteristic polynomial det(tI - M), monic; see ``char_poly_coeffs``."""
    return Poly(m.field, char_poly_coeffs(m.field, m.n, m.entries))


def char_poly_coeffs(field, n, entries):
    """Coefficients, constant term first, of the monic det(tI - M) for the
    n-by-n matrix M with these row-major packed entries.

    Over a prime field with n <= 3 they are the closed forms -det, the sum
    of the principal 2-minors and -trace (for n = 3), computed in plain
    integers and reduced mod p once.  Otherwise they come from Berkowitz's
    division-free recursion on leading principal submatrices, which works
    over any field (no interpolation points needed).
    """
    if field.k == 1 and 0 < n <= 3:
        p = field.p
        if n == 1:
            return (-entries[0] % p, 1)
        if n == 2:
            a, b, c, d = entries
            return ((a * d - b * c) % p, -(a + d) % p, 1)
        a, b, c, d, e, f, g, h, i = entries
        ei_fh = e * i - f * h
        minors = a * e - b * d + a * i - c * g + ei_fh
        det3 = a * ei_fh - b * (d * i - f * g) + c * (d * h - e * g)
        return (-det3 % p, minors % p, -(a + e + i) % p, 1)
    dot = field.dot
    c = [1]  # leading-first coefficients for the empty matrix
    for size in range(1, n + 1):
        last = size - 1
        rows = [entries[i * n : i * n + last] for i in range(size)]
        t = [1, field.neg(entries[last * n + last])]
        v = [entries[j * n + last] for j in range(last)]
        for step in range(last):
            t.append(field.neg(dot(rows[last], v)))
            if step < last - 1:
                # v <- A_last v on the leading principal block
                v = [dot(rows[i], v) for i in range(last)]
        # c <- T c for the lower-triangular Toeplitz T with first column t
        c = [dot(t[i::-1], c) for i in range(size + 1)]
    return tuple(reversed(c))
