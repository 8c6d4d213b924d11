"""Counting and streaming the k-dimensional subspaces of F^m.

Subspaces are produced exactly once each, as canonical RREF bases (tuples of
row tuples): pivot patterns in lexicographic order, free entries in
lexicographic odometer order within a pattern.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, TheoremViolationError
from .linalg import rref, span_rows
from .spaces import check_budget


def grassmann_count(m: int, k: int, q: int) -> int:
    """Gaussian binomial: the number of k-dimensional subspaces of F_q^m."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    count, rem = divmod(num, den)
    if rem:
        raise TheoremViolationError(f"Gaussian binomial {num}/{den} is not an integer")
    return count


def pivot_patterns(m: int, k: int):
    """All strictly increasing pivot-column patterns, lexicographically."""
    return list(itertools.combinations(range(m), k))


def free_positions(pattern, m):
    """Non-pivot positions to the right of each row's pivot, row-major."""
    pivot_set = set(pattern)
    return [
        (row, col)
        for row, pc in enumerate(pattern)
        for col in range(pc + 1, m)
        if col not in pivot_set
    ]


def pattern_size(pattern, m, q):
    """Number of subspaces whose RREF has this pivot pattern."""
    return q ** len(free_positions(pattern, m))


def _enumerate_plain(m, k, field):
    for pattern in pivot_patterns(m, k):
        free = free_positions(pattern, m)
        template = [[0] * m for _ in range(k)]
        for row, pc in enumerate(pattern):
            template[row][pc] = 1
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [list(r) for r in template]
            for (row, col), v in zip(free, values):
                rows[row][col] = v
            yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(m, k, field, must_contain=(), budget=None):
    """Stream every k-dimensional subspace of F^m satisfying the constraints.

    ``must_contain`` is a list of vectors whose span the subspace must
    include; those are handled by enumerating (k - r)-dimensional subspaces
    of the quotient by the constraint span and lifting back.
    """
    reduced, section = reduce_constraints(list(must_contain), m, field)
    r = len(reduced)
    if r > k:
        raise ValueError(f"cannot fit a {r}-dimensional constraint span in dimension {k}")
    check_budget(grassmann_count(m - r, k - r, field.q), budget, "subspaces exceed budget")
    for sub in _enumerate_plain(m - r, k - r, field):
        yield lift_quotient_rows(reduced, section, sub, field) if r else sub


def reduce_constraints(rows, m, field):
    """(RREF rows, section columns) of linearly independent constraint
    vectors of F^m.  The section columns are the non-pivot columns: the
    coordinates of the quotient by the constraint span."""
    reduced, pivots = rref(rows, field)
    if len(reduced) != len(rows):
        raise PreconditionError("constraints are linearly dependent")
    return reduced, [c for c in range(m) if c not in pivots]


def lift_quotient_rows(constraint_rows, section_cols, quotient_rows, field):
    """Canonical basis of the subspace spanned by the RREF constraint rows and
    the quotient rows placed on the section (non-pivot) columns."""
    m = len(constraint_rows) + len(section_cols)
    lifted = []
    for qrow in quotient_rows:
        full = [0] * m
        for c, v in zip(section_cols, qrow):
            full[c] = v
        lifted.append(tuple(full))
    return span_rows(list(constraint_rows) + lifted, field)
