"""Exhaustive verification that split pencils force divisibility.

For monic p of degree d and monic q of degree d-1 over a finite field with
more than two elements, if p - lambda*q splits for every lambda in the field
then q divides p.  Over GF(2) this fails for every odd d, witnessed by
p = t^d and q = t^d - (t-1)^d.

``verify_pencil_division`` checks the statement on every monic pair.  Each
pencil p - lambda*q is itself monic of degree d, so the sweep first decides
all q^d monic degree-d polynomials with ``splits_over`` and keeps the split
ones, as coefficient tuples, in a split table.  A pencil is then decided by
one set lookup on its coefficient tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import TheoremViolationError
from .gf import FieldCtx, Poly, splits_over
from .spaces import check_budget


def pencil_splits_all(p: Poly, q: Poly) -> bool:
    """True iff p - lambda*q splits over the base field for every lambda."""
    if p.field != q.field:
        raise ValueError("pencil polynomials over different fields")
    if not p.is_monic or not q.is_monic:
        raise ValueError("pencil polynomials must be monic")
    if p.degree < 1 or q.degree != p.degree - 1:
        raise ValueError(
            f"need deg p >= 1 and deg q = deg p - 1, got {p.degree} and {q.degree}"
        )
    for lam in p.field.elements():
        if not splits_over(p - q * lam):
            return False
    return True


@dataclass
class PencilReport:
    """Outcome of one exhaustive pencil sweep."""

    field_descriptor: str
    degree: int
    pairs_checked: int
    hypothesis_hits: int
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        line = (
            f"{self.pairs_checked} pairs, {self.hypothesis_hits} with split pencils, "
            f"{len(self.violations)} violations"
        )
        for p_coeffs, q_coeffs in self.violations:
            line += (
                f"\nviolation p={','.join(map(str, p_coeffs))}"
                f" q={','.join(map(str, q_coeffs))}"
            )
        return line


def _monic_coeffs(field, degree):
    """Coefficient tuples, constant term first, of the monic polynomials of
    ``degree``, in lexicographic order of their tails."""
    return [tail + (1,) for tail in itertools.product(field.elements(), repeat=degree)]


def verify_pencil_division(field: FieldCtx, degree: int, budget=None) -> PencilReport:
    """Sweep all monic (p, q) of degrees (d, d-1); whenever the pencil splits
    for every lambda, q must divide p.

    Every pair is counted and decided, p in the outer loop and q in the
    inner one, in the order of their coefficient tails.  The split table
    holds the monic degree-d coefficient tuples that split; each of the q^d
    candidates is decided once by ``splits_over``, and the q^(2d-1) pairs
    the budget bounds are at least as many.  A p that does not split
    rejects its whole row of q^(d-1) pairs, counted at once, since its
    lambda = 0 pencil is p itself.  For a split p, the pencils
    lambda = 1, ..., q-1 of each q are looked up in the table until the
    first miss, and only a pair whose pencils all split is tested for
    divisibility.

    Any violating pair ends up in the report; an empty list certifies the
    statement for this field and degree.
    """
    if field.q <= 2:
        raise ValueError("the divisibility statement needs a field with more than 2 elements")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    check_budget(field.q ** (2 * degree - 1), budget, "pairs exceed budget")
    monics = _monic_coeffs(field, degree)
    split = frozenset(p for p in monics if splits_over(Poly(field, p)))
    divisors = _monic_coeffs(field, degree - 1)
    # lambda*q for lambda != 0, padded with a zero t^d coefficient
    multiples = [
        [tuple(field.axpy(lam, q)) + (0,) for lam in field.elements() if lam]
        for q in divisors
    ]
    report = PencilReport(field.descriptor(), degree, 0, 0)
    for p in monics:
        report.pairs_checked += len(divisors)
        if p not in split:
            continue
        for q, lam_qs in zip(divisors, multiples):
            if all(tuple(map(field.sub, p, lam_q)) in split for lam_q in lam_qs):
                report.hypothesis_hits += 1
                if not (Poly(field, p) % Poly(field, q)).is_zero:
                    report.violations.append((p, q))
    return report


@dataclass
class CounterexampleReport:
    """The odd-degree failure over GF(2)."""

    degree: int
    p_coeffs: tuple
    q_coeffs: tuple
    pencil_splits: bool
    divides: bool

    @property
    def confirmed(self):
        return self.pencil_splits and not self.divides


def char2_odd_counterexample(degree: int) -> CounterexampleReport:
    """Check that p = t^d, q = t^d - (t-1)^d breaks the divisibility statement
    over the two-element field when d is odd."""
    if degree % 2 == 0 or degree < 3:
        raise ValueError("the counterexample construction needs odd degree >= 3")
    field = FieldCtx(2, exploratory=True)
    p = Poly.monomial(field, degree)
    shifted = Poly(field, (1, 1))  # t - 1 == t + 1 over GF(2)
    power = Poly.one(field)
    for _ in range(degree):
        power = power * shifted
    q = p - power
    if q.degree != degree - 1 or not q.is_monic:
        raise TheoremViolationError("counterexample construction degenerated")
    report = CounterexampleReport(
        degree,
        p.coeffs,
        q.coeffs,
        pencil_splits_all(p, q),
        (p % q).is_zero,
    )
    if not report.confirmed:
        raise TheoremViolationError(
            f"degree-{degree} counterexample over GF(2) failed to confirm"
        )
    return report
