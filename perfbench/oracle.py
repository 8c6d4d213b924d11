"""Reference arithmetic for the benchmark's answer checks.

Written apart from ``weaktri`` on purpose: the recovery check compares the
library's recovered flag with the column spans of the conjugator, computed
here, so a defect in the library's field or row reduction code cannot make
its own answer look right.  Elements use the library's packing: an element of
GF(p^k) is the integer whose base-p digits, constant digit first, are its
coefficients modulo the monic ``modulus``.
"""

from __future__ import annotations


class RefField:
    """GF(p^k) by schoolbook polynomial arithmetic; small q only."""

    def __init__(self, p, k=1, modulus=None):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = tuple(modulus) if modulus else None

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _pack(self, digits):
        value = 0
        for d in reversed(digits):
            value = value * self.p + d
        return value

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self._pack([(x + y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.k == 1:
            return -a % self.p
        return self._pack([-x % self.p for x in self._digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the monic modulus, top degree first
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top]
            if c:
                for i, m in enumerate(self.modulus):
                    prod[top - k + i] = (prod[top - k + i] - c * m) % p
        return self._pack(prod[:k])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def ref_rref(rows, field: RefField):
    """Canonical reduced row echelon basis of the row space, as a tuple."""
    work = [list(r) for r in rows]
    out = []
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((r for r in work if r[c]), None)
        if pivot is None:
            continue
        work.remove(pivot)
        inv = field.inv(pivot[c])
        pivot = [field.mul(inv, e) for e in pivot]
        for row in out + work:
            f = row[c]
            if f:
                row[:] = [field.sub(a, field.mul(f, b)) for a, b in zip(row, pivot)]
        out.append(pivot)
    return tuple(tuple(r) for r in out)


def column_chain(entries, n, field: RefField):
    """The flag span(P e_1) <= ... <= span(P e_1..P e_n) of a row-major P."""
    cols = [tuple(entries[i * n + j] for i in range(n)) for j in range(n)]
    return tuple(ref_rref(cols[:i], field) for i in range(n + 1))


def rank(entries, n, field: RefField):
    return len(ref_rref([entries[i * n:(i + 1) * n] for i in range(n)], field))
