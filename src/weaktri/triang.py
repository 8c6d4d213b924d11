"""Triangularizability of a single matrix and of a whole matrix space, and
the package's one class walk.

A matrix is triangularizable over F exactly when its characteristic
polynomial splits over F (the characteristic and minimal polynomial share
irreducible factors, so either gives the same verdict; the characteristic
polynomial is cheaper).  The polynomial of cM (c != 0) splits iff that of M
does, and so does the polynomial of M + lambda I.  ``nonsplit_classes``
decides one element per class of nonzero multiples of a span and yields
the classes that do not split; the exhaustive space check and the
campaign's goodness table (``scan.Quotient.goodness_table``) both run on
it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .gf import Poly, splits_over
from .linalg import Mat, char_poly, char_poly_coeffs
from .spaces import MatSpace, check_budget


def is_triangularizable(m: Mat) -> bool:
    return splits_over(char_poly(m))


def nonsplit_classes(field, n, vectors):
    """Yield (index, entries) for each class of nonzero multiples in the
    span of ``vectors`` whose characteristic polynomial does not split.

    ``vectors`` are row-major n-by-n entry sequences.  The first nonzero
    entry of each must be a 1 at a column, its own, where every other
    vector is 0: unit vectors and a canonical basis both qualify.  The
    index of a combination is its coordinate vector packed little-endian in
    base q, the first vector the least significant digit.  Each class is
    yielded by its element whose top nonzero coordinate is 1, as a tuple of
    entries, and classes come in increasing index, so the first class
    yielded holds the least index of any non-split element.  Coordinates
    are written straight into the own columns; any other column is filled
    as a linear form in them.

    Each distinct characteristic polynomial is passed to ``splits_over``
    once per call, and its verdict is kept in a dict for the rest of the
    call.  Over GF(3) at n = 3 the goodness table's 3,280 classes meet only
    27 cubics, and without the dict (each class going through the
    ``splits_over`` memo) the table took 13.3 ms, not 9.5, and a
    ``campaign-gf3`` pass 10-16% longer (Python 3.11, Xeon).
    """
    q, dot = field.q, field.dot
    vectors = [tuple(v) for v in vectors]
    own = [next(c for c, e in enumerate(v) if e) for v in vectors]
    forms = [c for c in range(n * n) if c not in own and any(v[c] for v in vectors)]
    entries = [0] * (n * n)
    verdicts = {}  # characteristic polynomial coefficients -> splits
    for j, top in enumerate(own):
        entries[top] = 1
        # the product varies its last digit, coordinate 0, fastest
        lower = [own[i] for i in range(j - 1, -1, -1)]
        linear = [(c, tuple(vectors[i][c] for i in range(j, -1, -1))) for c in forms]
        for index, digits in enumerate(itertools.product(range(q), repeat=j), q**j):
            for col, v in zip(lower, digits):
                entries[col] = v
            for col, form in linear:
                entries[col] = dot(form, (1, *digits))
            coeffs = char_poly_coeffs(field, n, entries)
            splits = verdicts.get(coeffs)
            if splits is None:
                splits = verdicts[coeffs] = splits_over(Poly(field, coeffs))
            if not splits:
                yield index, tuple(entries)


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

    Exhaustive mode walks ``nonsplit_classes`` over the canonical basis
    reversed, so a class's index is its rank: the position of its
    coefficient vector in the lexicographic order of F^dim.  When I is in
    the space its coordinates lead with b_0 (I is 1 at column 0, the first
    pivot), so b_0 is left out: the elements with coordinate 0 there are one
    per class of M ~ M + lambda I.  The first class yielded heads the first
    counterexample of the full lexicographic sweep, and ``checked`` counts
    the elements that sweep would have checked (the witness's rank + 1, or
    all q^dim on a true verdict).  The budget bounds the classes,
    1 + (q^d' - 1)/(q - 1) with the zero class, where d' is the number of
    basis vectors walked.  Sample mode draws ``count`` seeded coefficient
    vectors; ``count`` must not exceed the budget.
    """
    F, n, q = space.field, space.n, space.field.q
    if mode == "exhaustive":
        vectors = [b.entries for b in reversed(space.basis)]
        if space.coords_of(Mat.identity(F, n)) is not None:
            vectors.pop()
        classes = 1 + (q ** len(vectors) - 1) // (q - 1)
        check_budget(classes, budget, "classes exceed the sweep budget")
        for index, entries in nonsplit_classes(F, n, vectors):
            return SpaceVerdict(False, Mat._wrap(F, n, entries), True, index + 1)
        return SpaceVerdict(True, None, True, space.element_count())
    if mode == "sample":
        if count < 0:
            raise ValueError(f"sample count must be >= 0, got {count}")
        check_budget(count, budget, "samples exceed the sweep budget")
        rng = random.Random(seed)
        for i in range(count):
            m = space.combination([rng.randrange(q) for _ in range(space.dim)])
            if not is_triangularizable(m):
                return SpaceVerdict(False, m, True, i + 1)
        return SpaceVerdict(True, None, False, count)
    raise ValueError(f"unknown mode {mode!r}")
