"""Counting subspaces and the quotient lift.

The k-dimensional subspaces of F^m are counted by the Gaussian binomial and
split by the pivot pattern of their canonical RREF basis.  A subspace that
must contain a constraint span is a subspace of the quotient by that span,
lifted back onto the section (non-pivot) columns.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, TheoremViolationError
from .linalg import rref, span_rows


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


def pattern_size(pattern, m, q):
    """Number of subspaces whose RREF has this pivot pattern: q to the number
    of non-pivot positions to the right of each row's pivot."""
    pivot_set = set(pattern)
    free = sum(1 for pc in pattern for col in range(pc + 1, m) if col not in pivot_set)
    return q**free


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
