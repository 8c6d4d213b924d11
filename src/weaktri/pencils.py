"""Brute-force verification that split pencils force divisibility.

For monic p of degree d and monic q of degree d-1 over a finite field with
more than two elements, if p - lambda*q splits for every lambda in the field
then q divides p.  Over GF(2) this fails for every odd d, witnessed by
p = t^d and q = t^d - (t-1)^d; both facts are checked by exhaustive sweeps.
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


def _monic_polys(field, degree):
    for tail in itertools.product(field.elements(), repeat=degree):
        yield Poly(field, tail + (1,))


def verify_pencil_division(field: FieldCtx, degree: int, budget=None) -> PencilReport:
    """Sweep all monic (p, q) of degrees (d, d-1); whenever the pencil splits
    for every lambda, q must divide p.

    Any violating pair ends up in the report; an empty list certifies the
    statement for this field and degree.
    """
    if field.q <= 2:
        raise ValueError("the divisibility statement needs a field with more than 2 elements")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    check_budget(field.q ** (2 * degree - 1), budget, "pairs exceed budget")
    report = PencilReport(field.descriptor(), degree, 0, 0)
    for p in _monic_polys(field, degree):
        for q in _monic_polys(field, degree - 1):
            report.pairs_checked += 1
            if not pencil_splits_all(p, q):
                continue
            report.hypothesis_hits += 1
            if not (p % q).is_zero:
                report.violations.append((p.coeffs, q.coeffs))
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
