"""Exhaustive verification that split pencils force divisibility.

For monic p of degree d and monic q of degree d-1 over a finite field with
more than two elements, if p - lambda*q splits for every lambda in the field
then q divides p.  Over GF(2) this fails for every odd d, witnessed by
p = t^d and q = t^d - (t-1)^d.

``verify_pencil_division`` checks the statement on every monic pair.  Each
pencil p - lambda*q is itself monic of degree d, so the sweep first decides
all q^d monic degree-d polynomials with ``splits_coeffs`` on their
coefficient tuples and keeps the split ones in a lookup set.  A pencil is
then decided by one integer addition and one set lookup.  Over GF(p^k) an
element's base-p digits add digit-wise mod p, so a tail (the coefficients
below the leading 1) is packed digit by digit into one integer,
w = (2p - 2).bit_length() bits per digit.  Then packed(p) + packed(-lambda*q)
holds the tail of p - lambda*q: each slot sums two digits below p, so it
stays in [0, 2p - 2] and never carries into the next.  The lookup set holds
every such unreduced form of each split tail, a digit d also as d + p when
d + p <= 2p - 2; that is at most 2^(d*k) forms per split tail, and no form
names two tails.

Divisibility takes one division step, since the degrees differ by one: p and
q monic with deg p = deg q + 1 give p = (t + c)*q + r, so r = p - t*q - c*q.
As p - t*q has degree below d, its t^(d-1) coefficient is c, and q divides p
exactly when p - t*q equals c*q (``_divides``).  The sweep's hits and the
GF(2) counterexample both use this one test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import TheoremViolationError
from .gf import FieldCtx, Poly, splits_coeffs, splits_over
from .spaces import check_budget, check_budget_floor


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


def _divides(field, q, p):
    """True iff monic q divides monic p, coefficient tuples with
    deg p = deg q + 1, by one division step (see the module docstring)."""
    rest = field.axpy(field.neg(1), (0,) + q[:-1], p[:-1])  # p - t*q
    return rest == field.axpy(rest[-1], q)


def _pack(spread, coeffs, stride):
    """The packed digits of ``coeffs``: coefficient i from bit i*stride up,
    with ``spread[c]`` the packed digits of element c."""
    return sum(spread[c] << (i * stride) for i, c in enumerate(coeffs))


def _packed_tails(spread, degree, stride):
    """``_pack`` of every tail of ``degree`` coefficients, in the order of
    ``itertools.product(field.elements(), repeat=degree)``."""
    columns = [[s << (i * stride) for s in spread] for i in range(degree)]
    return list(map(sum, itertools.product(*columns)))


def verify_pencil_division(field: FieldCtx, degree: int, budget=None) -> PencilReport:
    """Sweep all monic (p, q) of degrees (d, d-1); whenever the pencil splits
    for every lambda, q must divide p.

    Every pair is counted and decided, p in the outer loop and q in the
    inner one, in the order of their coefficient tails.  The budget bounds
    the q^(2d-1) pairs, which is at least the q^d candidates that
    ``splits_coeffs`` decides once each; a split p then costs up to q - 1
    pencil lookups per pair.  A p that does not split rejects its whole
    row of q^(d-1) pairs at once, since its lambda = 0 pencil is p itself.
    For a split p, the lambda = 1 pencils of the whole row are looked up
    first, then the pencils lambda = 1, ..., q-1 of each q that passed,
    until the first miss.  Only a pair whose pencils all split is tested
    for divisibility, by one division step on coefficient tuples: q divides
    p exactly when p - t*q is its t^(d-1) coefficient times q, which holds
    because the quotient of p by q is t + c for some c (``_divides``).

    Each lookup is one integer addition and one set lookup: the packed
    tail of p plus the packed tail of -lambda*q, built once per sweep, is
    an unreduced packed tail of p - lambda*q, since slots of
    w = (2p - 2).bit_length() bits never carry (see the module docstring).
    The lookup set holds all unreduced forms of the split tails, at most
    2^(d*k) per split tail over GF(p^k).

    Any violating pair ends up in the report; an empty list certifies the
    statement for this field and degree.
    """
    if field.q <= 2:
        raise ValueError("the divisibility statement needs a field with more than 2 elements")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    exponent, what = 2 * degree - 1, "pairs exceed budget"  # q^exponent pairs
    check_budget_floor(exponent * (field.q.bit_length() - 1), budget, what)
    check_budget(field.q**exponent, budget, what)
    char, width = field.p, (2 * field.p - 2).bit_length()
    stride = field.k * width
    elements = field.elements()
    # range(char) maps each digit to itself
    spread = [_pack(range(char), field.to_digits(a), width) for a in elements]
    tails = list(itertools.product(elements, repeat=degree))
    splits = [splits_coeffs(field, tail + (1,)) for tail in tails]
    packed = _packed_tails(spread, degree, stride)
    lookup = {v for v, split in zip(packed, splits) if split}
    mask = (1 << width) - 1
    for shift in range(0, degree * stride, width):
        lift = char << shift
        lookup.update([v + lift for v in lookup if (v >> shift) & mask < char - 1])
    divisors = [tail + (1,) for tail in itertools.product(elements, repeat=degree - 1)]
    negs = [
        [_pack(spread, field.axpy(field.neg(lam), q), stride) for lam in elements if lam]
        for q in divisors
    ]
    firsts = [negs_q[0] for negs_q in negs]
    report = PencilReport(field.descriptor(), degree, len(tails) * len(divisors), 0)
    contains = lookup.__contains__
    for tail, packed_p, split in zip(tails, packed, splits):
        if not split:
            continue
        # the lambda = 1 pencils of the whole row first, then every pencil
        # of each q that passed
        row = map(contains, map(packed_p.__add__, firsts))
        for q, negs_q in itertools.compress(zip(divisors, negs), row):
            if all(map(contains, map(packed_p.__add__, negs_q))):
                report.hypothesis_hits += 1
                p = tail + (1,)
                if not _divides(field, q, p):
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
    field = FieldCtx(2)
    p = Poly.monomial(field, degree)
    shifted = Poly(field, (1, 1))  # t - 1 == t + 1 over GF(2)
    power = Poly.one(field)
    for _ in range(degree):
        power = power * shifted
    q = p - power
    # cannot fire: for odd d, (t+1)^d = t^d + t^(d-1) + ..., so q = t^(d-1) + ...
    if q.degree != degree - 1 or not q.is_monic:
        raise TheoremViolationError("counterexample construction degenerated")
    report = CounterexampleReport(
        degree,
        p.coeffs,
        q.coeffs,
        pencil_splits_all(p, q),
        _divides(field, q.coeffs, p.coeffs),
    )
    if not report.confirmed:
        raise TheoremViolationError(
            f"degree-{degree} counterexample over GF(2) failed to confirm"
        )
    return report
