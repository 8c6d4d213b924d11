"""Named matrix-space families and survey campaigns over the Grassmannian of
matrix subspaces: the campaign policy.  ``count_flags`` is the closed-form
count of complete flags, which an optimal campaign over an odd field must
match hit for hit.

A campaign sweeps every candidate subspace of the target dimension
(optionally constrained to contain given matrices, e.g. the identity),
decides weak triangularizability for each, and verifies every hit by one
policy, independently of the scan.  Weakly triangularizable spaces have
dimension at most t_n = n(n+1)/2.  A hit of dimension t_n is verified by
``recover_flag``, whose flag gate decides and whose element sweep only
explains a failed gate: a non-split element is the alarm that the scan
accepted it, and a weakly triangularizable hit that is not a flag space is
counted in its own report line over characteristic 2 (exploratory fields,
where the theorem does not hold) and is a recovery alarm otherwise.  Below
t_n the element sweep is the whole check; above t_n a hit that survives it
is a theorem-violation alarm.

The quotient by the constraint span, its goodness table and the pruned scan
belong to ``scan.Quotient``; a campaign builds the table once and scans one
pivot pattern at a time.  With a journal, each pattern's count and hits are
appended (and fsynced) as soon as they arrive, and the journal is the resume
state: rerunning the same campaign on it skips the patterns it has already
decided.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, TheoremViolationError
from .flags import Flag, flag_space, recover_flag
from .gf import FieldCtx
from .grassmann import grassmann_count, pivot_patterns
from .linalg import Mat
from .scan import Quotient
from .spaces import (
    MatSpace,
    check_budget,
    check_budget_floor,
    check_matrix_size,
    format_spacefile,
    parse_spacefile,
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
    containing every matrix in `constraints`."""

    n: int
    field: FieldCtx
    dim: int
    constraints: tuple = ()
    budget: int | None = None
    journal: str | None = None

    def summary_line(self):
        names = "+".join(
            "identity" if m == Mat.identity(self.field, self.n) else "custom"
            for m in self.constraints
        )
        return (
            f"n={self.n} field={self.field.descriptor()} dim={self.dim} "
            f"constraints={names or 'none'} mode=exhaustive"
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


# -- journal ----------------------------------------------------------------------

_JOURNAL_ENTRY = re.compile(r"pattern ([0-9,]*) total ([0-9]+) hits ([0-9]+)")
_ENTRY_START = re.compile(r"^pattern ", re.MULTILINE)
# each hit is a spacefile block starting on its "field" line
_HIT_BLOCK = re.compile(r"^(?=field )", re.MULTILINE)


def _journal_header(spec):
    """The summary line, which names a constraint other than I only as
    "custom", and the entries of each such constraint."""
    identity = Mat.identity(spec.field, spec.n)
    customs = "".join(
        f" custom={','.join(map(str, m.entries))}" for m in spec.constraints if m != identity
    )
    return f"# campaign journal: {spec.summary_line()}{customs}"


def _append_to_journal(path, text):
    with open(path, "a") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _append_journal_entry(path, pattern, total, hit_spaces):
    _append_to_journal(
        path,
        f"pattern {','.join(map(str, pattern))} total {total} hits {len(hit_spaces)}\n"
        + "".join(format_spacefile(space) for space in hit_spaces),
    )


def _open_journal(spec, patterns):
    """The patterns this campaign's journal has decided, as
    {pattern: (total, hit spaces)}.  A missing or empty journal gets the
    header; a journal of another campaign is refused.

    Entries are appended one write each, so a kill tears at most the final
    entry (no final newline, an unreadable line, or missing hit blocks); the
    file is cut back to where it starts and its pattern is scanned again.  A
    malformed earlier entry is refused.
    """
    path = spec.journal
    header = _journal_header(spec) + "\n"
    text = ""
    if os.path.exists(path):
        with open(path, newline="") as fh:
            text = fh.read()
    if not text:
        _append_to_journal(path, header)
        return {}
    if not text.startswith(header):
        raise PreconditionError(
            "journal belongs to a different campaign; refuse to resume"
        )
    whole = text.rfind("\n") + 1
    starts = [m.start() for m in _ENTRY_START.finditer(text, len(header), whole)]
    known = set(patterns)
    done = {}
    for start, end in zip(starts, starts[1:] + [whole]):
        try:
            pattern, total, spaces = _read_journal_entry(text[start:end], spec.field)
        except ValueError:
            if end < whole:
                raise
            whole = start
            break
        if pattern not in known or pattern in done:
            raise PreconditionError(f"journal entry for pattern {pattern} does not fit")
        done[pattern] = (total, spaces)
    if whole < len(text):
        os.truncate(path, len(text[:whole].encode()))
    return done


def _read_journal_entry(text, field):
    """(pattern, candidates decided, hit spaces) of one journal entry, which
    must read back exactly as it is written."""
    head, _, body = text.partition("\n")
    entry = _JOURNAL_ENTRY.fullmatch(head)
    if entry is None:
        raise PreconditionError(f"unreadable journal line {head!r}")
    spaces = [
        parse_spacefile(block, exploratory=field.exploratory)
        for block in _HIT_BLOCK.split(body)[1:]
    ]
    # a block cut after its "n" line still parses, hence the exact comparison
    if len(spaces) != int(entry[3]) or "".join(map(format_spacefile, spaces)) != body:
        raise PreconditionError(f"journal entry {head!r} is incomplete")
    return tuple(int(c) for c in entry[1].split(",") if c), int(entry[2]), spaces


# -- campaign driver ---------------------------------------------------------------


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Run the sweep described by ``spec`` and fully verify every hit."""
    field, n, k = spec.field, spec.n, len(spec.constraints)
    check_matrix_size(n)
    if not k <= spec.dim <= n * n:
        raise PreconditionError(f"target dimension {spec.dim} outside [{k}, {n * n}]")
    for m in spec.constraints:
        if m.field != field or m.n != n:
            raise PreconditionError("constraint matrix in the wrong ambient space")
    # refused before the quotient builds its chunk tables; the Gaussian
    # binomial of j-subspaces of F^m is at least q^(j(m-j))
    what = "candidates exceed the campaign budget"
    exponent = (spec.dim - k) * (n * n - spec.dim)
    check_budget_floor(exponent * (field.q.bit_length() - 1), spec.budget, what)
    expected = grassmann_count(n * n - k, spec.dim - k, field.q)
    check_budget(expected, spec.budget, what)
    quotient = Quotient(field, n, spec.constraints)
    report, spaces = _run_exhaustive(spec, quotient, expected)
    report.hits = [HitRecord(space=s) for s in sorted(spaces, key=MatSpace.key)]
    report.counts_non_flag = field.p == 2
    _verify_hits(spec, report)
    return report


def _run_exhaustive(spec, quotient, expected):
    report = CampaignReport(spec.summary_line(), 0, expected)
    patterns = pivot_patterns(quotient.dim, spec.dim - len(spec.constraints))
    done = _open_journal(spec, patterns) if spec.journal else {}

    good = quotient.goodness_table()
    if not good[0]:
        # the zero class is bad: an element of the constraint span dooms
        # every candidate
        report.total = expected
        return report, []

    todo = [p for p in patterns if p not in done]
    for pattern, (decided, rows) in zip(todo, quotient.scan(good, todo)):
        spaces = [quotient.space_from(r) for r in rows]
        if spec.journal:
            _append_journal_entry(spec.journal, pattern, decided, spaces)
        done[pattern] = (decided, spaces)

    report.total = sum(decided for decided, _ in done.values())
    if report.total != expected:
        report.alarms.append(
            f"candidate count {report.total} disagrees with the Gaussian binomial {expected}"
        )
    return report, [s for _, spaces in done.values() for s in spaces]


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
