"""Complete flags, invariant subspaces, and reconstruction of the unique
invariant flag of an optimal weakly triangularizable matrix space.

The recovery algorithm is inductive: pick an adapted vector x as the last
basis vector, pass to the induced space on V/F.x, recover a flag there, and
lift its adapted basis into the kernel of the unique rank-1 idempotent with
range F.x.  Each level computes the line {u in S : im(u) <= F.x} once and
reads the idempotent off it.  One line quotient (stabilizer of F.x, induced
space on V/F.x, projection) serves both recovery, at the adapted x, and the
descent of the structure-map extraction, at x = e_n.  The runtime
correctness gate is the exact equality flag_space(result) == input; the
structure-map extraction re-derives the block-pattern uniqueness and
vanishing facts as post-hoc diagnostics.

Every internal assertion whose truth is guaranteed by the theory raises
TheoremViolationError when it fails; such an alarm is never swallowed and
carries the full recovery trace for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .adapted import find_adapted_vector, projective_reps, range_constrained
from .errors import (
    BudgetExceededError,
    PreconditionError,
    TheoremViolationError,
)
from .grassmann import enumerate_subspaces, grassmann_count
from .linalg import (
    Mat,
    Vec,
    invert,
    kernel_basis,
    row_dot,
    row_space_contains,
    rref,
    rref_solve,
    span_rows,
)
from .spaces import DEFAULT_BUDGET, MatSpace
from .triang import space_weakly_triangularizable


class Flag:
    """Complete flag of F^n given by an ordered basis (e_1, ..., e_n)."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field, basis):
        vecs = tuple(v if isinstance(v, Vec) else Vec(field, v) for v in basis)
        n = len(vecs)
        if any(v.n != n for v in vecs):
            raise ValueError("flag basis vectors have the wrong length")
        reduced, _ = rref([v.entries for v in vecs], field)
        if len(reduced) != n:
            raise ValueError("flag basis is linearly dependent")
        self.field = field
        self.n = n
        self.basis = vecs

    @classmethod
    def standard(cls, field, n):
        return cls(field, tuple(Vec.unit(field, n, i) for i in range(n)))

    def basis_matrix(self) -> Mat:
        """Change-of-basis matrix whose columns are the flag basis."""
        n = self.n
        return Mat(
            self.field, n, tuple(self.basis[j][i] for i in range(n) for j in range(n))
        )

    def subspace(self, i):
        """Canonical RREF rows of V_i = span(e_1, ..., e_i)."""
        return span_rows([v.entries for v in self.basis[:i]], self.field)

    def chain(self):
        return tuple(self.subspace(i) for i in range(self.n + 1))

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.field == other.field
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Flag(n={self.n} over {self.field.descriptor()})"


def flag_space(flag: Flag) -> MatSpace:
    """All endomorphisms leaving every flag subspace invariant.

    Upper-triangular in the flag basis, so the dimension is n(n+1)/2.  The
    one construction of the span of the P E_ij P^-1, i <= j.
    """
    F, n = flag.field, flag.n
    upper = MatSpace.from_span(
        [Mat.unit(F, n, i, j) for i in range(n) for j in range(i, n)], field=F, n=n
    )
    space = upper.conjugate(flag.basis_matrix())
    if space.dim != n * (n + 1) // 2:
        raise TheoremViolationError("flag space has the wrong dimension")
    return space


def invariant_subspaces(space: MatSpace, dims=None, budget=None):
    """Every subspace U of F^n with S.U <= U, as canonical RREF bases.

    Full Grassmannian sweep; keep n and q at desk scale or cap with dims.
    """
    limit = DEFAULT_BUDGET if budget is None else budget
    n, F = space.n, space.field
    wanted = range(n + 1) if dims is None else sorted(set(dims))
    total = sum(grassmann_count(n, k, F.q) for k in wanted)
    if total > limit:
        raise BudgetExceededError(f"{total} candidate subspaces exceed budget {limit}")
    out = []
    for k in wanted:
        for rows in enumerate_subspaces(n, k, F, budget=limit):
            if _rows_invariant(space, rows):
                out.append(rows)
    return out


def _rows_invariant(space, rows):
    F = space.field
    for b in space.basis:
        for v in rows:
            image = tuple(
                row_dot(b, i, v, F) for i in range(space.n)
            )
            if not row_space_contains(list(rows), image, F):
                return False
    return True


def is_chain(subspaces, field) -> bool:
    """True iff the subspaces (canonical row bases) are totally ordered by
    inclusion."""
    ordered = sorted(subspaces, key=len)
    for small, large in zip(ordered, ordered[1:]):
        if not all(row_space_contains(list(large), v, field) for v in small):
            return False
    return True


# -- recovery trace -----------------------------------------------------------


@dataclass
class LevelRecord:
    """Audit record for one recursion level of flag recovery/extraction."""

    n: int
    kind: str
    adapted_vector: tuple | None = None
    range_line_dim: int | None = None
    stabilizer_dim: int | None = None
    quotient_dim: int | None = None
    idempotent: tuple | None = None
    corner_idempotent: tuple | None = None
    corner_scalar: int | None = None
    checks: dict = dc_field(default_factory=dict)
    residual_maps: dict = dc_field(default_factory=dict)
    details: dict = dc_field(default_factory=dict)

    def all_pass(self):
        return all(self.checks.values())


@dataclass
class RecoveryTrace:
    """Per-level audit of a recovery or structure-map extraction run."""

    ambient: int
    field_descriptor: str
    levels: list = dc_field(default_factory=list)

    def all_checks_pass(self):
        return all(rec.all_pass() for rec in self.levels)

    def to_text(self):
        lines = [
            f"# trace ambient: {self.ambient}",
            f"# trace field: {self.field_descriptor}",
        ]
        for depth, rec in enumerate(self.levels, start=1):
            lines.append(f"level {depth}: n={rec.n} kind={rec.kind}")
            if rec.adapted_vector is not None:
                lines.append("  adapted_vector: " + ",".join(map(str, rec.adapted_vector)))
            for name in ("range_line_dim", "stabilizer_dim", "quotient_dim"):
                value = getattr(rec, name)
                if value is not None:
                    lines.append(f"  {name}: {value}")
            if rec.idempotent is not None:
                lines.append("  idempotent: " + ",".join(map(str, rec.idempotent)))
            if rec.corner_idempotent is not None:
                lines.append(
                    "  corner_idempotent: " + ",".join(map(str, rec.corner_idempotent))
                )
            if rec.corner_scalar is not None:
                lines.append(f"  corner_scalar: {rec.corner_scalar}")
            for key, value in sorted(rec.details.items()):
                lines.append(f"  {key}: {value}")
            for key, rows in sorted(rec.residual_maps.items()):
                flat = ";".join(",".join(map(str, row)) for row in rows)
                lines.append(f"  residual {key}: {flat or '-'}")
            for key, ok in sorted(rec.checks.items()):
                lines.append(f"  check {key}: {'pass' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _violate(message, trace):
    raise TheoremViolationError(message, trace=trace)


# -- idempotent ---------------------------------------------------------------


def find_rank1_idempotent(space: MatSpace, x: Vec) -> Mat:
    """The unique trace-1 element of {u in S : im(u) <= F.x}.

    For an optimal space and adapted x this is a rank-1 idempotent with range
    exactly F.x; anything else is a theorem-violation alarm.
    """
    return _idempotent_of_line(range_constrained(space, x), x, None)


def _idempotent_of_line(line, x, trace):
    """The trace-1 element of ``line`` = {u in S : im(u) <= F.x}, checked to
    be an idempotent fixing x; alarms carry ``trace``."""
    if line.dim == 0:
        _violate("no trace-1 element with range in the given line", trace)
    if line.dim > 1:
        _violate("trace-1 element with range in the given line is not unique", trace)
    gen = line.basis[0]
    t = gen.trace()
    if t == 0:
        _violate("no trace-1 element with range in the given line", trace)
    pi = gen.scale(x.field.inv(t))
    if pi * pi != pi:
        _violate("trace-1 candidate is not idempotent", trace)
    if pi.apply(x) != x:
        _violate("idempotent does not fix its range generator", trace)
    return pi


def _line_quotient(space, x):
    """The stabilizer {u in S : u(x) in F.x}, the space it induces on
    F^n / F.x, and the projection F^n -> F^(n-1) onto that quotient.

    x must have leading coordinate 1; the quotient keeps the other
    coordinates, so for x = e_n the induced maps are the leading blocks.
    """
    F, n = space.field, space.n
    lead = next(i for i, e in enumerate(x.entries) if e)
    qcols = [i for i in range(n) if i != lead]
    images = [b.apply(x) for b in space.basis]
    stab_coeffs = kernel_basis(
        [tuple(F.sub(img[i], F.mul(img[lead], x[i])) for img in images) for i in qcols],
        F,
    )
    stabilizer = MatSpace.from_span(
        [space.combination(c) for c in stab_coeffs], field=F, n=n
    )

    def project(v):
        return tuple(F.sub(v[i], F.mul(v[lead], x[i])) for i in qcols)

    # u induces the map whose columns are the projected u(e_j), j != lead
    induced = [
        Mat.from_rows(F, zip(*(project(u.col(j)) for j in qcols))) for u in stabilizer.basis
    ]
    return stabilizer, MatSpace.from_span(induced, field=F, n=n - 1), project


# -- base cases ---------------------------------------------------------------


def base_case_n2(space: MatSpace, budget=None):
    """Direct flag recovery for n = 2 via the trace-form complement.

    The complement of an optimal 3-dimensional space is one trace-zero line
    F.v0; in the basis (v0(j), j) for any j with (j, v0(j)) independent, v0
    is an off-diagonal companion-like matrix whose lower-left entry must be
    zero, which exhibits the space as the upper-triangular matrices.  This is
    ``recover_flag`` restricted to n = 2; its trace is the one base2 level.
    """
    if space.n != 2:
        raise PreconditionError("base case needs 2x2 matrices")
    return recover_flag(space, budget=budget)


def _base_case_n2_into(space, trace):
    F = space.field
    rec = LevelRecord(n=2, kind="base2")
    trace.levels.append(rec)
    rec.checks["contains_identity"] = space.contains(Mat.identity(F, 2))
    if not rec.checks["contains_identity"]:
        _violate("optimal space does not contain the identity", trace)
    perp = space.trace_orthogonal()
    rec.checks["complement_line"] = perp.dim == 1
    if not rec.checks["complement_line"]:
        _violate("trace-form complement is not a line", trace)
    v0 = perp.basis[0]
    rec.details["complement_generator"] = ",".join(map(str, v0.entries))
    rec.checks["complement_traceless"] = v0.trace() == 0
    if not rec.checks["complement_traceless"]:
        _violate("trace-form complement generator has nonzero trace", trace)
    chosen = None
    for j in projective_reps(F, 2):
        image = v0.apply(j)
        reduced, _ = rref([j.entries, image.entries], F)
        if len(reduced) == 2:
            chosen = (j, image)
            break
    rec.checks["independent_image"] = chosen is not None
    if chosen is None:
        _violate("complement generator acts as a scalar", trace)
    j, image = chosen
    rec.details["probe_vector"] = ",".join(map(str, j.entries))
    basis_matrix = Mat(F, 2, (image[0], j[0], image[1], j[1]))
    rep = invert(basis_matrix) * v0 * basis_matrix
    rec.checks["companion_shape"] = (
        rep.entry(0, 0) == 0 and rep.entry(0, 1) == 1 and rep.entry(1, 1) == 0
    )
    if not rec.checks["companion_shape"]:
        _violate("complement generator has the wrong shape in the probe basis", trace)
    beta = rep.entry(1, 0)
    rec.details["lower_left"] = beta
    rec.checks["lower_left_zero"] = beta == 0
    if beta != 0:
        _violate("lower-left coefficient of the complement generator is nonzero", trace)
    flag = Flag(F, (image, j))
    rec.checks["flag_space_equals_input"] = flag_space(flag) == space
    if not rec.checks["flag_space_equals_input"]:
        _violate("recovered flag does not regenerate the space", trace)
    return flag


# -- main recovery ------------------------------------------------------------


def recover_flag(space: MatSpace, *, budget=None, assume_weakly_triangularizable=False):
    """Recover the unique complete flag F with flag_space(F) == space.

    The input must be optimal (dimension n(n+1)/2) and weakly
    triangularizable; the latter is verified exhaustively when q^dim fits the
    budget, otherwise the caller must vouch via
    ``assume_weakly_triangularizable=True``.
    """
    F, n = space.field, space.n
    expected = n * (n + 1) // 2
    if space.dim != expected:
        raise PreconditionError(
            f"optimal spaces have dimension {expected}, got {space.dim}"
        )
    limit = DEFAULT_BUDGET if budget is None else budget
    if not assume_weakly_triangularizable:
        if space.element_count() > limit:
            raise BudgetExceededError(
                "element sweep over budget; pass assume_weakly_triangularizable=True "
                "for inputs known to qualify"
            )
        verdict = space_weakly_triangularizable(space, budget=limit)
        if not verdict:
            raise PreconditionError(
                f"space is not weakly triangularizable; witness {verdict.witness!r}"
            )
    trace = RecoveryTrace(n, F.descriptor())
    flag = _recover_into(space, trace)
    return flag, trace


def _recover_into(space, trace):
    F, n = space.field, space.n
    if n == 1:
        rec = LevelRecord(n=1, kind="base1")
        trace.levels.append(rec)
        flag = Flag(F, (Vec(F, (1,)),))
        rec.checks["flag_space_equals_input"] = flag_space(flag) == space
        if not rec.checks["flag_space_equals_input"]:
            _violate("1-dimensional space is not the full scalar algebra", trace)
        return flag
    if n == 2:
        return _base_case_n2_into(space, trace)

    rec = LevelRecord(n=n, kind="inductive")
    trace.levels.append(rec)

    x = find_adapted_vector(space)
    rec.checks["adapted_vector_found"] = x is not None
    if x is None:
        _violate("weakly triangularizable space has no adapted vector", trace)
    rec.adapted_vector = x.entries

    line = range_constrained(space, x)
    rec.range_line_dim = line.dim
    rec.checks["range_line_dim"] = line.dim == 1
    pi = _idempotent_of_line(line, x, trace)
    rec.idempotent = pi.entries

    stabilizer, quotient_space, project = _line_quotient(space, x)
    rec.stabilizer_dim = stabilizer.dim
    rec.checks["stabilizer_dim"] = stabilizer.dim == space.dim - (n - 1)
    if not rec.checks["stabilizer_dim"]:
        _violate("line stabilizer has wrong dimension", trace)

    # orbit of x spans everything
    orbit_rows, _ = rref([b.apply(x).entries for b in space.basis], F)
    rec.checks["orbit_spans"] = len(orbit_rows) == n
    if not rec.checks["orbit_spans"]:
        _violate("orbit of the adapted vector does not span the space", trace)

    rec.quotient_dim = quotient_space.dim
    rec.checks["quotient_optimal"] = quotient_space.dim == (n - 1) * n // 2
    if not rec.checks["quotient_optimal"]:
        _violate("induced space on the quotient is not optimal", trace)

    sub_flag = _recover_into(quotient_space, trace)

    # lift into ker(pi) the quotient vectors, embedded with 0 at x's lead
    lead = next(i for i, e in enumerate(x.entries) if e)
    lifted = []
    for f in sub_flag.basis:
        vec = Vec(F, f.entries[:lead] + (0,) + f.entries[lead:])
        lift = vec - pi.apply(vec)
        if project(lift.entries) != f.entries:
            _violate("lifted vector does not project to its quotient vector", trace)
        if not pi.apply(lift).is_zero:
            _violate("lifted vector is outside the idempotent's kernel", trace)
        lifted.append(lift)

    try:
        flag = Flag(F, (*lifted, x))
    except ValueError:
        _violate("lifted flag basis is linearly dependent", trace)
    rec.checks["flag_space_equals_input"] = flag_space(flag) == space
    if not rec.checks["flag_space_equals_input"]:
        _violate("recovered flag does not regenerate the space", trace)
    return flag


# -- structure-map extraction ---------------------------------------------------


def extract_structure_maps(space: MatSpace, flag: Flag) -> RecoveryTrace:
    """Re-derive the block-pattern uniqueness and vanishing facts for an
    optimal space with a verified flag.

    Works in the flag basis and, per level with n >= 3: checks the unit and
    pattern memberships, the uniqueness of the three completion families
    (top-row, last-column, middle-block), extracts their residual linear maps
    and the corner scalar of the hyperplane idempotent, and asserts that all
    of them vanish.  Descends through the quotient by the last flag vector.
    """
    if flag.n < 3:
        raise PreconditionError("structure-map extraction needs n >= 3")
    F, n = space.field, space.n
    if flag.field != F or flag.n != n:
        raise PreconditionError("flag does not generate the given space")
    # the flag generates the space iff, in the flag basis, the space is
    # upper triangular and of full dimension n(n+1)/2
    level = space.conjugate(invert(flag.basis_matrix()))
    upper = all(b.is_upper_triangular() for b in level.basis)
    if level.dim != n * (n + 1) // 2 or not upper:
        raise PreconditionError("flag does not generate the given space")
    trace = RecoveryTrace(n, F.descriptor())
    while level.n >= 3:
        _extract_level(level, trace)
        # descend to the space induced on F^n / F.e_n
        _, level, _ = _line_quotient(level, Vec.unit(F, level.n, level.n - 1))
    return trace


def _affine_members(space, fixed):
    """Solve for members of the space with prescribed entries.

    ``fixed`` maps (row, col) to a required value; remaining entries are
    free.  Returns (particular Mat or None, list of homogeneous Mats).
    """
    F, n = space.field, space.n
    rows = []
    rhs = []
    for (i, j), value in sorted(fixed.items()):
        rows.append(tuple(b.entry(i, j) for b in space.basis))
        rhs.append(value)
    solution = rref_solve(rows, rhs, F)
    homogeneous = [space.combination(c) for c in kernel_basis(rows, F)]
    particular = space.combination(solution) if solution is not None else None
    return particular, homogeneous


def _extract_level(space, trace):
    F, n = space.field, space.n
    rec = LevelRecord(n=n, kind="extract")
    trace.levels.append(rec)
    d = space.dim
    rec.checks["dimension"] = d == n * (n + 1) // 2
    if not rec.checks["dimension"]:
        _violate("extraction level space is not optimal", trace)

    def check(name, ok, message):
        rec.checks[name] = bool(ok)
        if not ok:
            _violate(message, trace)

    check(
        "contains_last_unit",
        space.contains(Mat.unit(F, n, n - 1, n - 1)),
        "space misses the last diagonal unit",
    )
    check(
        "contains_corner_unit",
        space.contains(Mat.unit(F, n, 0, n - 1)),
        "space misses the upper-right unit",
    )

    # members with last column zero biject with (n-1) upper-triangular blocks
    fixed = {(i, n - 1): 0 for i in range(n)}
    _, last_col_zero = _affine_members(space, fixed)
    check(
        "last_column_zero_dim",
        len(last_col_zero) == n * (n - 1) // 2,
        "last-column-zero slice has wrong dimension",
    )
    check(
        "last_column_zero_triangular",
        all(
            all(m.entry(i, j) == 0 for i in range(1, n - 1) for j in range(i))
            for m in last_col_zero
        ),
        "a last-column-zero member has a non-triangular leading block",
    )
    fixed_hom = dict(fixed)
    fixed_hom.update({(i, j): 0 for i in range(n - 1) for j in range(n - 1)})
    _, kernel = _affine_members(space, fixed_hom)
    check(
        "leading_block_unique",
        not kernel,
        "leading-block completion is not unique",
    )

    # last columns realize every vector
    col_rows = [tuple(b.entry(i, n - 1) for b in space.basis) for i in range(n)]
    reduced, _ = rref(col_rows, F)
    check("last_column_onto", len(reduced) == n, "last columns do not fill the space")

    # members with first row zero biject with trailing upper-triangular blocks
    fixed = {(0, j): 0 for j in range(n)}
    _, first_row_zero = _affine_members(space, fixed)
    check(
        "first_row_zero_dim",
        len(first_row_zero) == n * (n - 1) // 2,
        "first-row-zero slice has wrong dimension",
    )
    check(
        "first_row_zero_triangular",
        all(
            all(m.entry(i, j) == 0 for i in range(2, n) for j in range(1, i))
            for m in first_row_zero
        ),
        "a first-row-zero member has a non-triangular trailing block",
    )
    check(
        "first_row_zero_shape",
        all(
            all(m.entry(n - 1, j) == 0 for j in range(1, n - 1))
            for m in first_row_zero
        ),
        "a first-row-zero member has junk in the bottom row",
    )
    fixed_hom = dict(fixed)
    fixed_hom.update({(i, j): 0 for i in range(1, n) for j in range(1, n)})
    _, kernel = _affine_members(space, fixed_hom)
    check(
        "trailing_block_unique",
        not kernel,
        "trailing-block completion is not unique",
    )

    # the hyperplane idempotent: kernel spanned by e_2..e_n, range a corner line
    fixed = {(i, j): 0 for i in range(n) for j in range(1, n)}
    _, vanish_on_hyperplane = _affine_members(space, fixed)
    check(
        "corner_idempotent_unique",
        len(vanish_on_hyperplane) == 1,
        "hyperplane-vanishing slice is not a line",
    )
    gen = vanish_on_hyperplane[0]
    t = gen.trace()
    check("corner_idempotent_trace", t != 0, "hyperplane-vanishing line is traceless")
    pi2 = gen.scale(F.inv(t))
    check("corner_idempotent_square", pi2 * pi2 == pi2, "corner candidate not idempotent")
    shape_ok = pi2.entry(0, 0) == 1 and all(
        pi2.entry(i, 0) == 0 for i in range(1, n - 1)
    )
    check("corner_idempotent_shape", shape_ok, "corner idempotent has the wrong shape")
    rec.corner_idempotent = pi2.entries
    rec.corner_scalar = pi2.entry(n - 1, 0)
    check("corner_scalar_zero", rec.corner_scalar == 0, "corner scalar does not vanish")

    # restriction to the trailing hyperplane is optimal and onto
    fixed = {(0, j): 0 for j in range(1, n)}
    _, leaves_hyperplane = _affine_members(space, fixed)
    restriction = MatSpace.from_span(
        [
            Mat(F, n - 1, tuple(m.entry(i, j) for i in range(1, n) for j in range(1, n)))
            for m in leaves_hyperplane
        ],
        field=F,
        n=n - 1,
    )
    check(
        "restriction_optimal",
        restriction.dim == (n - 1) * n // 2,
        "restriction to the trailing hyperplane is not optimal",
    )
    check(
        "restriction_last_unit",
        restriction.contains(Mat.unit(F, n - 1, n - 2, n - 2)),
        "restriction misses its last diagonal unit",
    )
    rcol_rows = [tuple(b.entry(i, n - 2) for b in restriction.basis) for i in range(n - 1)]
    reduced, _ = rref(rcol_rows, F)
    check(
        "restriction_last_column_onto",
        len(reduced) == n - 1,
        "restriction's last columns do not fill the hyperplane",
    )
    mid = n - 2
    for r in range(mid):
        for c in range(r, mid):
            fixed = {(i, mid): 0 for i in range(mid)}
            fixed.update(
                {(i, j): int((i, j) == (r, c)) for i in range(mid) for j in range(mid)}
            )
            particular, _ = _affine_members(restriction, fixed)
            if particular is None:
                check(
                    "restriction_block_complete",
                    False,
                    "restriction misses a leading-block completion",
                )
    rec.checks.setdefault("restriction_block_complete", True)

    # residual maps of the three completion families; each completion must be
    # unique, exist, and leave nothing in its free entries
    def family(name, build_fixed, residual_groups, generators):
        values = {sub: [] for sub in residual_groups}
        for gen_idx in generators:
            fixed = build_fixed(gen_idx)
            particular, kernel = _affine_members(space, fixed)
            if kernel:
                check(f"{name}_unique", False, f"{name} completion is not unique")
            if particular is None:
                check(f"{name}_exists", False, f"{name} completion does not exist")
            for sub, entries in residual_groups.items():
                values[sub].append(
                    tuple(particular.entry(i, j) for (i, j) in entries)
                )
        rec.checks[f"{name}_unique"] = True
        rec.checks[f"{name}_exists"] = True
        for sub, rows in values.items():
            rec.residual_maps[sub] = tuple(rows)
            check(
                f"{sub}_zero",
                not any(any(row) for row in rows),
                f"{sub} residuals do not vanish",
            )

    def top_row_fixed(col):
        fixed = {(0, j): int(j == col) for j in range(n)}
        for i in range(1, n - 1):
            for j in range(n):
                fixed[(i, j)] = 0
        fixed[(n - 1, n - 1)] = 0
        return fixed

    family(
        "row_pattern",
        top_row_fixed,
        {
            "row_pattern_corner": [(n - 1, 0)],
            "row_pattern_bottom": [(n - 1, j) for j in range(1, n - 1)],
        },
        range(1, n - 1),
    )

    def last_col_fixed(row):
        fixed = {(0, j): 0 for j in range(n)}
        for i in range(1, n):
            fixed[(i, n - 1)] = int(i == row)
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                fixed[(i, j)] = 0
        for j in range(1, n - 1):
            fixed[(n - 1, j)] = 0
        return fixed

    family(
        "col_pattern",
        last_col_fixed,
        {
            "col_pattern_side": [(i, 0) for i in range(1, n - 1)],
            "col_pattern_corner": [(n - 1, 0)],
        },
        range(1, n - 1),
    )

    def block_fixed(pos):
        r, c = pos
        fixed = {(0, j): 0 for j in range(n)}
        for i in range(1, n - 1):
            fixed[(i, 0)] = 0
            fixed[(i, n - 1)] = 0
            for j in range(1, n - 1):
                fixed[(i, j)] = int((i, j) == (r, c))
        for j in range(1, n):
            fixed[(n - 1, j)] = 0
        return fixed

    family(
        "block_pattern",
        block_fixed,
        {"block_pattern_corner": [(n - 1, 0)]},
        [(r, c) for r in range(1, n - 1) for c in range(r, n - 1)],
    )
