"""Linear subspaces of M_n(F) with a canonical RREF basis, the budget checks
that every sweep makes before it starts, and the plain-text space-file
format.

A space is stored as the reduced row echelon form of the row-major
vectorizations of any spanning set, so equal spaces always carry identical
basis sequences and can be hashed, deduplicated, and diffed.  The element
sweep of a space is not here: ``triang`` walks its canonical basis with the
package's one class walk.
"""

from __future__ import annotations

from .errors import BudgetExceededError, PreconditionError, SpaceFileError
from .gf import parse_field
from .linalg import Mat, rref

DEFAULT_BUDGET = 2**28

# A count with a lower bound 2^N, N >= _EXACT_BITS, is far past any sweep
# a run can make, and computing it exactly can take seconds (3^19999999
# takes over 10 s), so it is refused on the bound alone.  Counts with a
# smaller bound are computed and shown in full.
_EXACT_BITS = 1 << 12


def _resolve_budget(budget):
    limit = DEFAULT_BUDGET if budget is None else budget
    if limit < 0:
        raise PreconditionError(f"budget must be >= 0, got {limit}")
    return limit


def _shown(count):
    try:
        return str(count)
    except ValueError:  # more digits than int-to-str conversion allows
        return f"at least 2^{count.bit_length() - 1}"


def check_budget(count, budget, what):
    """Raise BudgetExceededError "<count> <what> <limit>" when ``count``
    exceeds the budget; ``budget=None`` means DEFAULT_BUDGET.  A negative
    budget is refused with PreconditionError.  A count too long to print
    is shown as "at least 2^N"."""
    limit = _resolve_budget(budget)
    if count > limit:
        raise BudgetExceededError(f"{_shown(count)} {what} {_shown(limit)}")


def check_budget_floor(bits, budget, what):
    """Raise BudgetExceededError "at least 2^<bits> <what> <limit>" for a
    count not yet computed but known to be at least 2^bits, when 2^bits
    exceeds the budget and bits >= _EXACT_BITS.  Otherwise the caller
    computes the count and passes it to ``check_budget``."""
    limit = _resolve_budget(budget)
    if bits >= max(limit.bit_length(), _EXACT_BITS):
        raise BudgetExceededError(f"at least 2^{bits} {what} {_shown(limit)}")


def check_matrix_size(n):
    """Refuse a matrix size below 1, as a space file does."""
    if n < 1:
        raise PreconditionError(f"matrix size n must be >= 1, got {n}")


class MatSpace:
    """Subspace of n-by-n matrices over a FieldCtx, canonical basis."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field, n, basis):
        """Internal: ``basis`` must already be canonical. Use from_span."""
        self.field = field
        self.n = n
        self.basis = tuple(basis)

    @classmethod
    def from_span(cls, mats, field=None, n=None):
        """Canonicalize a spanning set; duplicates and dependencies removed."""
        mats = list(mats)
        if mats:
            field = mats[0].field
            n = mats[0].n
            for m in mats:
                if m.field != field or m.n != n:
                    raise ValueError("spanning matrices over mixed fields or sizes")
        elif field is None or n is None:
            raise ValueError("empty span needs explicit field and n")
        # rref's rows are reduced field elements already: wrap, do not coerce
        reduced, _ = rref([m.entries for m in mats], field)
        return cls(field, n, (Mat._wrap(field, n, row) for row in reduced))

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, MatSpace)
            and self.field == other.field
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.n, tuple(m.entries for m in self.basis)))

    def __repr__(self):
        return f"MatSpace(n={self.n}, dim={self.dim} over {self.field.descriptor()})"

    def key(self):
        """Hashable canonical identity (used to sort and deduplicate spaces)."""
        return tuple(m.entries for m in self.basis)

    # -- membership ------------------------------------------------------------

    def coords_of(self, m: Mat):
        """Coefficients of m over the canonical basis, or None if m is outside."""
        if m.field != self.field or m.n != self.n:
            raise ValueError("matrix from a different ambient space")
        F = self.field
        v = list(m.entries)
        coords = []
        for b in self.basis:
            pivot = next(i for i, e in enumerate(b.entries) if e)
            c = v[pivot]
            coords.append(c)
            if c:
                v = F.axpy(F.neg(c), b.entries, v)
        if any(v):
            return None
        return tuple(coords)

    def combination(self, coeffs) -> Mat:
        F = self.field
        acc = [0] * (self.n * self.n)
        for c, b in zip(coeffs, self.basis):
            if c:
                acc = F.axpy(c, b.entries, acc)
        return Mat._wrap(F, self.n, tuple(acc))

    def element_count(self) -> int:
        return self.field.q**self.dim


# -- space files ----------------------------------------------------------------


def format_spacefile(space: MatSpace) -> str:
    lines = [
        f"field {space.field.descriptor()}",
        f"n {space.n}",
        f"dim {space.dim}",
    ]
    for m in space.basis:
        lines.append("mat " + " ".join(str(e) for e in m.entries))
    return "\n".join(lines) + "\n"


def parse_spacefile(text: str) -> MatSpace:
    """Parse the plain-text space format.

    Dependent or duplicate basis lines are canonicalized away; a second
    ``field``, ``n`` or ``dim`` directive is an error.
    """
    field = None
    n = None
    declared_dim = None
    mats = []
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in headers:
            raise SpaceFileError(f"second {key!r} directive", line=lineno)
        if key != "mat":
            headers.add(key)
        if key == "field":
            try:
                field = parse_field(rest)
            except ValueError as exc:
                raise SpaceFileError(str(exc), line=lineno) from None
        elif key == "n":
            n = _parse_int(rest, lineno, "n")
            if n < 1:
                raise SpaceFileError(f"matrix size n must be >= 1, got {n}", line=lineno)
        elif key == "dim":
            declared_dim = _parse_int(rest, lineno, "dim")
        elif key == "mat":
            if field is None or n is None:
                raise SpaceFileError("mat line before field/n header", line=lineno)
            entries = []
            for col, tok in enumerate(rest.split(), start=1):
                try:
                    value = int(tok)
                except ValueError:
                    raise SpaceFileError(
                        f"column {col}: {tok!r} is not an integer", line=lineno
                    ) from None
                if not 0 <= value < field.q:
                    raise SpaceFileError(
                        f"column {col}: {value} outside [0, {field.q})", line=lineno
                    )
                entries.append(value)
            if len(entries) != n * n:
                raise SpaceFileError(
                    f"expected {n * n} entries, got {len(entries)}", line=lineno
                )
            mats.append(Mat(field, n, entries))
        else:
            raise SpaceFileError(f"unknown directive {key!r}", line=lineno)
    if field is None or n is None:
        raise SpaceFileError("missing field/n header")
    if declared_dim is not None and declared_dim != len(mats):
        raise SpaceFileError(f"dim says {declared_dim} but {len(mats)} mat lines found")
    return MatSpace.from_span(mats, field=field, n=n)


def _parse_int(text, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise SpaceFileError(f"bad {what} value {text!r}", line=lineno) from None
