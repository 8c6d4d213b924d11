"""Exact arithmetic in GF(p^k) and dense univariate polynomials over it.

Field elements are plain integers in [0, q).  The base-p digits of an element
(least significant first) are the coefficients of its representative
polynomial, so element 5 in GF(3^2) is 2 + 1*x.  This packing makes vectors
and matrices of elements directly comparable and hashable.

Extension fields keep discrete-log tables for multiplication, so q = p^k is
capped at 2^16 for k > 1; a prime field needs p below the bound up to which
``is_prime`` decides primality, about 3.2 * 10^23.  Every characteristic is
admitted, 2 included.

``Poly`` offers only the arithmetic the package runs: ``-`` (t^q - t,
t^(p^i) - t and the GF(2) counterexample), ``*`` by a polynomial or an
integer scalar, ``%`` (the one division loop; no caller needs a quotient),
``pow_mod``, ``monic`` and ``poly_gcd``.  These split a polynomial, prove a
modulus irreducible and find the log tables' generator over GF(p).  Each
runs on the one vector kernel ``FieldCtx.axpy``: a difference, a scalar
multiple, each row of a product and each step of a division is one axpy on
a coefficient slice.  Its results are already reduced, so they skip the
coercion that the public constructor ``Poly(field, coeffs)`` applies.

A nonzero f splits over GF(q) exactly when f divides (t^q - t)^deg f.  The
reason: t^q - t is the product of the q monic linear polynomials, each once,
so its (deg f)-th power holds every linear factor to a multiplicity no root
of f can exceed, and it has no other irreducible factor.  ``splits_over``
decides splitting by this one divisibility test, in any characteristic;
``splits_coeffs`` is the same memoized decision on a coefficient tuple.
"""

from __future__ import annotations

import functools
import operator


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _MR_BASES
_MR_LIMIT = 318665857834031151167461

_EXT_TABLE_LIMIT = 1 << 16
_ADD_TABLE_LIMIT = 1 << 10
_SPLIT_MEMO_SIZE = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the twelve prime bases 2..37.

    These bases decide primality exactly for n < 318665857834031151167461
    = 399165290221 * 798330580441, the least strong pseudoprime to all of
    them (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
    bases", Math. Comp., 2017).  A larger n raises ValueError.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large to test: primality is decided for n < {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """A finite field GF(p^k) with all element-level arithmetic.

    Every characteristic is admitted, 2 included: no decision procedure
    branches on it.  Only the survey's report does, counting the non-flag
    hits that characteristic 2 allows.
    """

    def __init__(self, p, k=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        if k == 1:
            if modulus is not None:
                raise ValueError("modulus only applies to extension fields (k > 1)")
            self.modulus = None
            self._exp = self._log = self._add_table = None
        else:
            if modulus is None:
                raise ValueError("extension field needs a modulus polynomial")
            if self.q > _EXT_TABLE_LIMIT:
                raise ValueError(f"extension field too large (q = {self.q} > {_EXT_TABLE_LIMIT})")
            f = self._check_modulus(modulus)
            self.modulus = f.coeffs
            self._build_tables(f)
        # nothing writes to a FieldCtx after construction, so its hash, part
        # of every Poly, Mat and MatSpace hash and of the split memo's key,
        # is computed once
        self._hash = hash(self._key())

    # -- construction helpers ------------------------------------------------

    def _check_modulus(self, modulus):
        base = FieldCtx(self.p)
        coeffs = tuple(c % self.p for c in modulus)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if len(coeffs) != self.k + 1:
            raise ValueError(f"modulus must have degree {self.k}")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        f = Poly(base, coeffs)
        if not _is_irreducible(f):
            raise ValueError(f"modulus {list(coeffs)} is reducible over GF({self.p})")
        return f

    def _build_tables(self, f):
        q = self.q
        # find a generator of the multiplicative group by Poly arithmetic mod f
        for g in range(2, q):
            gen = Poly(f.field, self.to_digits(g))
            powers = [1]
            x = gen
            while x.coeffs != (1,):
                powers.append(self.from_digits(x.coeffs))
                x = x * gen % f
            if len(powers) == q - 1:
                break
        else:  # pragma: no cover - the group is always cyclic
            raise RuntimeError("no multiplicative generator found")
        self._exp, self._log = powers, [0] * q
        for i, v in enumerate(powers):
            self._log[v] = i
        if q <= _ADD_TABLE_LIMIT:
            self._add_table = [
                [self._add_digits(a, b) for b in range(q)] for a in range(q)
            ]
        else:
            self._add_table = None

    def _add_digits(self, a, b):
        digits = [(x + y) % self.p for x, y in zip(self.to_digits(a), self.to_digits(b))]
        return self.from_digits(digits)

    # -- element arithmetic --------------------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a):
        # -1 is 1 in characteristic 2 and g^((q-1)/2) for odd q
        if self.k == 1:
            return -a % self.p
        if a == 0 or self.p == 2:
            return a
        return self._exp[(self._log[a] + (self.q - 1) // 2) % (self.q - 1)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a] % (self.q - 1)]

    def elements(self):
        return range(self.q)

    # -- rows ----------------------------------------------------------------
    #
    # The one vector kernel: the package's row loops (elimination, matrix
    # products, sweeps, ``Poly`` arithmetic) go through these two, so the
    # prime/extension fork is taken once per row, not once per entry.  Over
    # GF(p) a row is one comprehension in plain integers with a single
    # reduction per entry; over GF(p^k) products come from the log/exp
    # tables, zero entries are skipped, ``axpy`` reads sums straight from
    # the add table (short ``Poly`` rows would pay a call per entry) or
    # the digit path above _ADD_TABLE_LIMIT, and ``dot`` sums by ``add``.

    def axpy(self, c, x, y=None):
        """The list y + c*x for rows x and y of equal length; y=None is the
        zero row, so ``axpy(c, x)`` scales x."""
        if self.k == 1:
            p = self.p
            if y is None:
                return [c * a % p for a in x]
            return [(b + c * a) % p for a, b in zip(x, y)]
        if not c:
            return [0] * len(x) if y is None else list(y)
        exp, log, order = self._exp, self._log, self.q - 1
        lc = log[c]
        if y is None:
            return [exp[(lc + log[a]) % order] if a else 0 for a in x]
        table = self._add_table
        if table is not None:
            return [table[b][exp[(lc + log[a]) % order]] if a else b for a, b in zip(x, y)]
        return [self._add_digits(b, exp[(lc + log[a]) % order]) if a else b for a, b in zip(x, y)]

    def dot(self, x, y):
        """The sum of x_i * y_i; a longer row's extra entries are ignored,
        as ``zip`` pairs them."""
        if self.k == 1:
            return sum(map(operator.mul, x, y)) % self.p
        exp, log, order, add = self._exp, self._log, self.q - 1, self.add
        acc = 0
        for a, b in zip(x, y):
            if a and b:
                acc = add(acc, exp[(log[a] + log[b]) % order])
        return acc

    # -- packing -------------------------------------------------------------

    def to_digits(self, a):
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return digits

    def from_digits(self, digits):
        value = 0
        for d in reversed(digits):
            value = value * self.p + d % self.p
        return value

    def coerce(self, value):
        """Reduce an integer into the field (digit-wise for extensions)."""
        if self.k == 1:
            return value % self.p
        if 0 <= value < self.q:
            return value
        raise ValueError(f"{value} is not an element of {self.descriptor()}")

    # -- identity ------------------------------------------------------------

    def descriptor(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; " + ",".join(str(c) for c in self.modulus) + ")"

    def _key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return other is self or (isinstance(other, FieldCtx) and self._key() == other._key())

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldCtx({self.descriptor()})"


def parse_field(text) -> FieldCtx:
    """Parse a field descriptor: ``GF(p)`` or ``GF(p^k; c0,c1,...,ck)``."""
    s = text.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise ValueError(f"bad field descriptor {text!r}")
    body = s[3:-1]
    if ";" in body:
        head, _, tail = body.partition(";")
        if "^" not in head:
            raise ValueError(f"bad field descriptor {text!r}: modulus without p^k")
        p_s, _, k_s = head.partition("^")
        p, k = _descriptor_int(p_s, text), _descriptor_int(k_s, text)
        tokens = (c for c in tail.replace(" ", "").split(",") if c != "")
        return FieldCtx(p, k, tuple(_descriptor_int(c, text) for c in tokens))
    if "^" in body:
        raise ValueError(f"bad field descriptor {text!r}: extension field needs a modulus")
    return FieldCtx(_descriptor_int(body, text))


def _descriptor_int(token, text):
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad field descriptor {text!r}: {token!r} is not an integer") from None


class Poly:
    """Dense univariate polynomial over a FieldCtx, constant term first.

    Immutable; the zero polynomial has empty coeffs and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _wrap(cls, field, coeffs):
        # fast path for coefficient lists the kernel has already reduced:
        # trailing zeros are trimmed, nothing is coerced
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        f = object.__new__(cls)
        f.field = field
        f.coeffs = tuple(coeffs)
        return f

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field, degree):
        return cls(field, (0,) * degree + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __sub__(self, other):
        # self + (-1)*other, one axpy over other's coefficients
        self._check(other)
        F, m = self.field, len(other.coeffs)
        out = list(self.coeffs) + [0] * (m - len(self.coeffs))
        out[:m] = F.axpy(F.neg(1), other.coeffs, out[:m])
        return Poly._wrap(F, out)

    def __mul__(self, other):
        F = self.field
        if isinstance(other, int):
            return Poly._wrap(F, F.axpy(F.coerce(other), self.coeffs))
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(F)
        f, g = self.coeffs, other.coeffs
        if len(f) > len(g):  # one axpy per coefficient of the shorter factor
            f, g = g, f
        m = len(g)
        out = [0] * (len(f) + m - 1)
        for i, c in enumerate(f):
            if c:
                out[i:i + m] = F.axpy(c, g, out[i:i + m])
        return Poly._wrap(F, out)

    def __mod__(self, other):
        # the remainder of self by other, one axpy per division step
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        g, m = other.coeffs, len(other.coeffs)
        dq = len(self.coeffs) - m
        if dq < 0:
            return self
        rem = list(self.coeffs)
        lead_inv = F.inv(g[-1])
        for i in range(dq, -1, -1):
            c = F.mul(rem[i + m - 1], lead_inv)
            if c:
                rem[i:i + m] = F.axpy(F.neg(c), g, rem[i:i + m])
        return Poly._wrap(F, rem)

    def _check(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise TypeError("polynomials over different fields")

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return self * self.field.inv(self.coeffs[-1])

    def pow_mod(self, e, modulus):
        """self**e reduced mod ``modulus`` by square and multiply."""
        result = Poly.one(self.field) % modulus
        base = self % modulus
        while e > 0:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def __repr__(self):
        if self.is_zero:
            return f"Poly(0 over {self.field.descriptor()})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                mono = "t" if i == 1 else f"t^{i}"
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return f"Poly({' + '.join(terms)} over {self.field.descriptor()})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def splits_over(f: Poly) -> bool:
    """True iff f factors into linear factors over its field.

    Decided by whether f divides (t^q - t)^deg f, computed as
    (t^q - t mod f)^deg f mod f.  Over GF(q), t^q - t is the product of the
    q monic linear polynomials, each once, so its (deg f)-th power holds
    every linear factor with multiplicity deg f and has no other irreducible
    factor.  A split f has no root of multiplicity above deg f, so it divides
    that power; a divisor of the power is a product of linear factors.
    The verdict is ``splits_coeffs`` on f's coefficients, memoized there.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no splitting verdict")
    return splits_coeffs(f.field, f.coeffs)


@functools.lru_cache(maxsize=_SPLIT_MEMO_SIZE)
def splits_coeffs(field, coeffs):
    """``splits_over`` of the nonzero polynomial with coefficient tuple
    ``coeffs``: field elements, constant term first, no trailing zero.

    Callers that hold coefficient tuples, like the pencil sweep's monic
    tails, ask here and build no ``Poly`` on a memo hit.  Verdicts are
    memoized on (field, coefficients) in a least-recently-used cache of
    fixed size ``_SPLIT_MEMO_SIZE``, so sweeps that meet few distinct
    polynomials decide each one once while large fields stay bounded.  The
    pencil sweeps and GF(2) counterexamples of ``lemma31`` decide 634
    distinct polynomials; emptying the memo before each pass of that
    workload made it 76 ms, not 7.5 (Python 3.11, Xeon, median of 8 passes
    in one process).
    """
    f = Poly(field, coeffs)
    x = Poly.x(field)
    h = x.pow_mod(field.q, f) - x
    return h.pow_mod(f.degree, f).is_zero


def _is_irreducible(f: Poly) -> bool:
    """True iff f over GF(p) has positive degree k and no factor of degree
    strictly between 0 and k: gcd(t^(p^i) - t, f) = 1 for every i <= k/2
    (M. O. Rabin, "Probabilistic algorithms in finite fields", 1980).

    t^(p^i) - t is the product of the monic irreducibles over GF(p) whose
    degree divides i.  So a gcd other than 1 at some i <= k/2 is a factor of
    f of degree at most k/2 < k, and f is reducible.  Conversely a reducible
    f has an irreducible factor of some degree d <= k/2; that factor divides
    t^(p^d) - t, so the gcd at i = d is not 1.  The loop therefore decides
    irreducibility alone, with no closing test of f | t^(p^k) - t.
    """
    F = f.field
    k = f.degree
    if k <= 0:
        return False
    x = Poly.x(F)
    for i in range(1, k // 2 + 1):
        xq = x.pow_mod(F.p**i, f)
        if poly_gcd(xq - x, f).degree != 0:
            return False
    return True
