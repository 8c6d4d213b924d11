"""Triangularizability of a single matrix and of a whole matrix space.

A matrix is triangularizable over F exactly when its characteristic
polynomial splits over F (the characteristic and minimal polynomial share
irreducible factors, so either gives the same verdict; the characteristic
polynomial is cheaper).  The polynomial of cM (c != 0) splits iff that of M
does, and so does the polynomial of M + lambda I, so the exhaustive space
check decides one element per class of ``MatSpace.enumerate_classes``
rather than all q^dim elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, TheoremViolationError
from .gf import roots_with_multiplicity, splits_over
from .linalg import Mat, char_poly, invert, kernel_basis
from .spaces import MatSpace


def is_triangularizable(m: Mat) -> bool:
    return splits_over(char_poly(m))


def triangularize(m: Mat) -> Mat:
    """An invertible P with P^-1 M P upper triangular.

    Built by repeated eigenvector extraction: peel off the smallest
    eigenvalue's canonical eigenvector, recurse on the induced map of the
    quotient.  Any P satisfying the postcondition is acceptable.
    """
    if not is_triangularizable(m):
        raise PreconditionError("matrix has a non-split characteristic polynomial")
    p = _triangularize(m)
    got = invert(p) * m * p
    if not got.is_upper_triangular():
        raise TheoremViolationError("triangularize postcondition failed")
    return p


def _triangularize(m: Mat) -> Mat:
    F, n = m.field, m.n
    if n == 1:
        return Mat.identity(F, 1)
    lam = roots_with_multiplicity(char_poly(m))[0][0]
    shifted = m - Mat.identity(F, n).scale(lam)
    v = kernel_basis([shifted.row(i) for i in range(n)], F)[0]
    pivot = next(i for i, e in enumerate(v) if e)
    # complete v to a basis with the standard vectors away from its pivot
    cols = [v] + [tuple(int(r == j) for r in range(n)) for j in range(n) if j != pivot]
    q = Mat(F, n, tuple(cols[j][i] for i in range(n) for j in range(n)))
    inner = invert(q) * m * q
    if any(inner.entry(i, 0) for i in range(1, n)):
        raise TheoremViolationError("eigenvector basis does not fix the eigenline")
    sub = Mat(F, n - 1, tuple(inner.entry(i, j) for i in range(1, n) for j in range(1, n)))
    p_sub = _triangularize(sub)
    block = [[0] * n for _ in range(n)]
    block[0][0] = 1
    for i in range(n - 1):
        for j in range(n - 1):
            block[i + 1][j + 1] = p_sub.entry(i, j)
    return q * Mat(F, n, tuple(e for row in block for e in row))


@dataclass(frozen=True)
class SpaceVerdict:
    """Outcome of a weak-triangularizability check.

    ``certified`` is False only for a clean sample-mode run, which can never
    certify a positive verdict; a witness is always definitive.
    """

    all_triangularizable: bool
    witness: Mat | None
    certified: bool
    checked: int

    def __bool__(self):
        return self.all_triangularizable


def space_weakly_triangularizable(
    space: MatSpace,
    mode: str = "exhaustive",
    count: int = 1000,
    seed: int = 0,
    budget=None,
) -> SpaceVerdict:
    """Check that every element of the space is triangularizable.

    Exhaustive mode walks the classes of ``MatSpace.enumerate_classes`` in
    rank order and reports the first counterexample of the full
    lexicographic sweep, which heads its class; ``checked`` counts the
    elements that sweep would have checked (the witness's rank + 1, or all
    q^dim on a true verdict).  Sample mode draws ``count`` seeded
    coefficient vectors.
    """
    if mode == "exhaustive":
        for rank, m in space.enumerate_classes(budget=budget):
            if not is_triangularizable(m):
                return SpaceVerdict(False, m, True, rank + 1)
        return SpaceVerdict(True, None, True, space.element_count())
    if mode == "sample":
        rng = random.Random(seed)
        q = space.field.q
        for i in range(count):
            m = space.combination([rng.randrange(q) for _ in range(space.dim)])
            if not is_triangularizable(m):
                return SpaceVerdict(False, m, True, i + 1)
        return SpaceVerdict(True, None, False, count)
    raise ValueError(f"unknown mode {mode!r}")
