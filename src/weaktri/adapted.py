"""Adapted vectors of a matrix space.

A nonzero vector x is adapted to S when S has no element whose range is
exactly the line F.x and whose trace is zero.  This is decided by exact
linear algebra on the coordinates of S.  A vector is a tuple of field
elements.
"""

from __future__ import annotations

import itertools

from .linalg import kernel_basis
from .spaces import MatSpace, check_budget


def projective_reps(field, n):
    """Normalized projective representatives of F^n in lexicographic order.

    Each line is represented by its unique vector with first nonzero
    coordinate 1; tuples compare lexicographically, so representatives with
    later leading index come first.  Generated lazily: a scan that stops early
    never touches the q^(n-1) representatives with leading index 0.
    """
    for lead in range(n - 1, -1, -1):
        for tail in itertools.product(field.elements(), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def range_constrained(space: MatSpace, x) -> MatSpace:
    """The subspace {u in S : im(u) is contained in F.x}.

    Solved as linear constraints on S-coordinates: each column of u must be
    its x-leading entry times x.
    """
    F, n = space.field, space.n
    x = tuple(F.coerce(e) for e in x)
    lead = next((i for i, e in enumerate(x) if e), None)
    if lead is None:
        raise ValueError("the zero vector spans no line")
    inv = F.inv(x[lead])
    xn = F.axpy(inv, x)
    rows = []
    for col in range(n):
        leads = [b.entry(lead, col) for b in space.basis]
        for i in range(n):
            if i == lead:
                continue
            # entry (i, col) - x_i * entry (lead, col) = 0
            entries = [b.entry(i, col) for b in space.basis]
            rows.append(tuple(F.axpy(F.neg(xn[i]), leads, entries)))
    if not space.basis:
        return space
    coeff_vectors = kernel_basis(rows, F, width=space.dim)
    mats = [space.combination(c) for c in coeff_vectors]
    return MatSpace.from_span(mats, field=F, n=n)


def is_adapted_vector(space: MatSpace, x) -> bool:
    """True when no element of S has range F.x together with trace zero:
    the trace functional is injective on {u in S : im(u) <= F.x}, so that
    space has dimension <= 1 with nonzero trace on a generator."""
    line = range_constrained(space, x)
    if line.dim == 0:
        return True
    return line.dim == 1 and line.basis[0].trace() != 0


def find_adapted_vector(space: MatSpace, budget=None):
    """First adapted projective representative in scan order, or None.

    ``weaktri adapted`` runs it on arbitrary spaces.  On a flag space the
    adapted vectors are those off the flag's hyperplane, so the first one
    is the unit vector e_l with the largest l off it.  The budget bounds the
    lines tried, not the (q^n - 1)/(q - 1) lines of F^n: the line past it
    raises BudgetExceededError, so a space whose first line is adapted
    answers under any budget of at least 1, whatever q is.
    """
    for tried, x in enumerate(projective_reps(space.field, space.n), start=1):
        check_budget(tried, budget, "lines exceed the line-scan budget")
        if is_adapted_vector(space, x):
            return x
    return None
