"""Named matrix-space families and survey campaigns over the Grassmannian of
matrix subspaces: the campaign policy.  ``count_flags`` is the closed-form
count of complete flags, which an optimal campaign over an odd field must
match hit for hit, and ``grassmann_count`` the Gaussian binomial, the
number of candidates a campaign must decide.

A campaign sweeps every candidate subspace of the target dimension, or
every one that contains I (the only constraint: M + lambda I has the
shifted characteristic polynomial, so adding F.I keeps a space weakly
triangularizable and every optimal space contains I), decides weak
triangularizability for each, and verifies every hit by one policy,
independently of the scan.  Weakly triangularizable spaces have
dimension at most t_n = n(n+1)/2.  A hit of dimension t_n is verified by
``recover_flag``, whose flag gate decides and whose element sweep only
explains a failed gate: a non-split element is the alarm that the scan
accepted it, and a weakly triangularizable hit that is not a flag space is
counted in its own report line over characteristic 2, where t_n still
bounds the dimension but the flag spaces are not the only optimal spaces,
and is a recovery alarm otherwise.  Below t_n the element sweep is the
whole check; above t_n a hit that survives it is a theorem-violation
alarm.

The quotient by F.I, its goodness table and the pruned scan belong to
``scan.Quotient``, which a campaign builds once, and only when it has at
least one row to scan: a campaign of dimension 1 through I, or of
dimension 0, has one candidate, F.I or the zero space, and builds no
``Quotient``.  One scan returns the candidate count, which must equal the
Gaussian binomial, and the hit spaces, which the report sorts.  The budget
bounds the candidates and the classes the table decides; ``Quotient`` then
refuses, before any table is built, a quotient whose chunk or goodness
tables would pass their fixed limits, as one over a field of more than
2^10 elements would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, TheoremViolationError
from .flags import Flag, flag_space, recover_flag
from .gf import FieldCtx
from .linalg import Mat
from .scan import Quotient
from .spaces import (
    MatSpace,
    check_budget,
    check_budget_floor,
    check_matrix_size,
    format_spacefile,
)
from .triang import space_weakly_triangularizable

DEFAULT_SEED = 1729


# -- named families -------------------------------------------------------------


def gen_triangular(n, field, conjugate_by=None) -> MatSpace:
    """Upper-triangular matrices, optionally conjugated by an invertible P:
    the flag space of the standard flag, or of the flag of P's columns."""
    check_matrix_size(n)
    if conjugate_by is None:
        return flag_space(Flag.standard(field, n))
    return flag_space(Flag(field, [conjugate_by.col(j) for j in range(n)]))


def gen_sym(n, field) -> MatSpace:
    """Symmetric matrices; dimension n(n+1)/2."""
    check_matrix_size(n)
    mats = [Mat.unit(field, n, i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(Mat.unit(field, n, i, j) + Mat.unit(field, n, j, i))
    return MatSpace.from_span(mats, field=field, n=n)


def gen_sl(n, field) -> MatSpace:
    """Trace-zero matrices; dimension n^2 - 1."""
    check_matrix_size(n)
    mats = [Mat.unit(field, n, i, j) for i in range(n) for j in range(n) if i != j]
    for i in range(n - 1):
        mats.append(Mat.unit(field, n, i, i) - Mat.unit(field, n, n - 1, n - 1))
    return MatSpace.from_span(mats, field=field, n=n)


def gen_joint(spaces) -> MatSpace:
    """Block upper-triangular space with the given diagonal blocks and
    arbitrary blocks above the diagonal."""
    if not spaces:
        raise ValueError("joint of no spaces")
    field = spaces[0].field
    if any(s.field != field for s in spaces):
        raise ValueError("joint blocks over mixed fields")
    sizes = [s.n for s in spaces]
    total = sum(sizes)
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    mats = []
    for block, space in enumerate(spaces):
        off = offsets[block]
        for b in space.basis:
            entries = [0] * (total * total)
            for i in range(space.n):
                for j in range(space.n):
                    entries[(off + i) * total + (off + j)] = b.entry(i, j)
            mats.append(Mat(field, total, entries))
    for bi in range(len(sizes)):
        for bj in range(bi + 1, len(sizes)):
            for i in range(sizes[bi]):
                for j in range(sizes[bj]):
                    mats.append(Mat.unit(field, total, offsets[bi] + i, offsets[bj] + j))
    return MatSpace.from_span(mats, field=field, n=total)


def gen_random(n, field, dim, seed) -> MatSpace:
    """A uniformly seeded random subspace of the requested dimension."""
    check_matrix_size(n)
    if not 0 <= dim <= n * n:
        raise ValueError(f"dimension {dim} impossible in {n}x{n} matrices")
    rng = random.Random(seed)
    mats = []
    space = MatSpace.from_span([], field=field, n=n)
    while space.dim < dim:
        mats.append(Mat(field, n, tuple(rng.randrange(field.q) for _ in range(n * n))))
        space = MatSpace.from_span(mats, field=field, n=n)
        mats = list(space.basis)
    return space


def grassmann_count(m: int, k: int, q: int) -> int:
    """Gaussian binomial: the number of k-dimensional subspaces of F_q^m."""
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    num = den = 1
    for i in range(min(k, m - k)):  # [m, k] = [m, m - k]
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    count, rem = divmod(num, den)
    if rem:  # cannot fire: the binomial counts subspaces, so it is an integer
        raise TheoremViolationError(f"Gaussian binomial {num}/{den} is not an integer")
    return count


def count_flags(n, field) -> int:
    """Number of complete flags of F^n: the product over i = 1..n of
    (q^i - 1)/(q - 1) (Stanley, Enumerative Combinatorics I, 1.7)."""
    check_matrix_size(n)
    count = step = 1
    for _ in range(2, n + 1):
        step = step * field.q + 1  # (q^i - 1)/(q - 1) = 1 + q + ... + q^(i-1)
        count *= step
    return count


# -- campaign data --------------------------------------------------------------


@dataclass
class CampaignSpec:
    """What to sweep: candidates are `dim`-dimensional subspaces of M_n(F)
    containing every matrix in `constraints`, which is () or (I,): every
    weakly triangularizable space of dimension n(n+1)/2 contains I."""

    n: int
    field: FieldCtx
    dim: int
    constraints: tuple = ()
    budget: int | None = None

    def summary_line(self):
        return (
            f"n={self.n} field={self.field.descriptor()} dim={self.dim} "
            f"constraints={'identity' if self.constraints else 'none'} mode=exhaustive"
        )


@dataclass
class HitRecord:
    space: MatSpace
    alarm: str | None = None
    non_flag: bool = False


@dataclass
class CampaignReport:
    spec_line: str
    total: int
    expected_total: int
    hits: list = dc_field(default_factory=list)
    alarms: list = dc_field(default_factory=list)
    # characteristic 2 only: optimal hits there need not be flag spaces
    counts_non_flag: bool = False

    @property
    def hit_count(self):
        return len(self.hits)

    @property
    def all_hits_ok(self):
        return all(h.alarm is None for h in self.hits)

    def to_text(self):
        lines = [
            f"# campaign: {self.spec_line}",
            f"# total: {self.total}",
            f"# expected_total: {self.expected_total}",
            f"# hits: {self.hit_count}",
        ]
        if self.counts_non_flag:
            lines.append(f"# non_flag_hits: {sum(h.non_flag for h in self.hits)}")
        lines += [
            f"# hits_verified: {'yes' if self.all_hits_ok else 'NO'}",
            f"# alarms: {len(self.alarms)}",
        ]
        for alarm in self.alarms:
            lines.append(f"# alarm: {alarm}")
        for i, hit in enumerate(self.hits):
            lines.append(f"hit {i} non-flag" if hit.non_flag else f"hit {i}")
            for raw in format_spacefile(hit.space).splitlines():
                lines.append("  " + raw)
        return "\n".join(lines) + "\n"


# -- campaign driver ---------------------------------------------------------------


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Run the sweep described by ``spec`` and fully verify every hit."""
    field, n = spec.field, spec.n
    check_matrix_size(n)
    identity = spec.constraints == (Mat.identity(field, n),)
    if spec.constraints and not identity:
        raise PreconditionError("a campaign's constraints must be () or (I,)")
    k = int(identity)
    if not k <= spec.dim <= n * n:
        raise PreconditionError(f"target dimension {spec.dim} outside [{k}, {n * n}]")
    # refused before the quotient builds its tables; the Gaussian binomial
    # of j-subspaces of F^m is at least q^(j(m-j)).  A scan of j >= 1 rows
    # reads the goodness table, whose (q^m - 1)/(q - 1) decided classes are
    # at least q^(m-1) and, unless j = m, at most the candidates
    q, m, rows = field.q, n * n - k, spec.dim - k
    what = "candidates exceed the campaign budget"
    bits = q.bit_length() - 1
    check_budget_floor(rows * (m - rows) * bits, spec.budget, what)
    expected = grassmann_count(m, rows, q)
    check_budget(expected, spec.budget, what)
    if rows:
        table = "classes exceed the campaign budget"
        check_budget_floor((m - 1) * bits, spec.budget, table)
        check_budget((q**m - 1) // (q - 1), spec.budget, table)
        quotient = Quotient(field, n, identity)
        total, spaces = quotient.scan(quotient.goodness_table(), rows)
    else:  # the one candidate is F.I or the zero space
        total, spaces = 1, [MatSpace.from_span(spec.constraints, field=field, n=n)]
    report = CampaignReport(spec.summary_line(), total, expected, counts_non_flag=field.p == 2)
    if total != expected:
        report.alarms.append(
            f"candidate count {total} disagrees with the Gaussian binomial {expected}"
        )
    report.hits = [HitRecord(space=s) for s in sorted(spaces, key=MatSpace.key)]
    _verify_hits(spec, report)
    return report


def _verify_hits(spec, report):
    """The one verification policy; see the module docstring and
    ``recover_flag``."""
    n = spec.n
    optimal = n * (n + 1) // 2
    for hit in report.hits:
        space = hit.space
        if space.dim == optimal:
            try:
                recover_flag(space, budget=spec.budget)
            except PreconditionError:
                hit.alarm = "scan accepted a space with a non-split element"
            except TheoremViolationError as exc:
                hit.non_flag = report.counts_non_flag
                if not hit.non_flag:
                    hit.alarm = f"recovery alarm: {exc}"
        elif not space_weakly_triangularizable(space, budget=spec.budget):
            hit.alarm = "scan accepted a space with a non-split element"
        elif space.dim > optimal:
            hit.alarm = f"weakly triangularizable hit of dimension {space.dim} > n(n+1)/2"
        if hit.alarm is not None:
            report.alarms.append(hit.alarm)
