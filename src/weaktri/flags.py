"""Complete flags and reconstruction of the unique invariant flag of an
optimal weakly triangularizable matrix space.

The recovery algorithm is one inductive step from n down to the n = 1
base.  In a conjugate P T_n P^-1 a vector x is adapted exactly when it lies
off the invariant hyperplane V_(n-1), and a hyperplane never holds every
unit vector, so the step tries e_n, e_(n-1), ..., e_1 and takes the first
adapted one as the last basis vector: no scan over the lines of F^n.  It
then passes to the induced space on V/F.x, recovers a flag there, and lifts
its basis into the kernel of the unique rank-1 idempotent with range F.x.
Each level computes the line {u in S : im(u) <= F.x} once per unit vector
tried, decides adaptedness from it and reads the idempotent off the adapted
one's line, then passes to the line quotient (stabilizer of F.x, induced
space on V/F.x, projection) at x.  Nothing in the step needs n >= 3,
so a 2x2 space takes it once and lands on the 1x1 scalars.

The one correctness gate is the exact equality flag_space(result) == input.
Over odd characteristic every optimal weakly triangularizable space is a
conjugate P T_n P^-1 of the upper-triangular matrices, and a space that
passes the gate is one by construction, so the structure facts of the
paper's block analysis hold for it and are not re-checked:
``extract_structure_maps`` keeps only its precondition, that the flag
generates the space.

Every internal assertion whose truth is guaranteed by the theory raises
TheoremViolationError when it fails; such an alarm is never swallowed and
carries the full recovery trace for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .adapted import is_adapted_line, range_constrained
from .errors import PreconditionError, TheoremViolationError
from .linalg import Mat, Vec, invert, kernel_basis, rref, span_rows
from .spaces import MatSpace
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


# -- recovery trace -----------------------------------------------------------


@dataclass
class LevelRecord:
    """Audit record for one recursion level of flag recovery."""

    n: int
    kind: str
    adapted_vector: tuple | None = None
    range_line_dim: int | None = None
    stabilizer_dim: int | None = None
    quotient_dim: int | None = None
    idempotent: tuple | None = None
    checks: dict = dc_field(default_factory=dict)

    def all_pass(self):
        return all(self.checks.values())


@dataclass
class RecoveryTrace:
    """Per-level audit of a flag recovery run."""

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
            for key, ok in sorted(rec.checks.items()):
                lines.append(f"  check {key}: {'pass' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _violate(message, trace):
    raise TheoremViolationError(message, trace=trace)


# -- idempotent ---------------------------------------------------------------


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
    coordinates.
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
    if not assume_weakly_triangularizable:
        verdict = space_weakly_triangularizable(space, budget=budget)
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

    rec = LevelRecord(n=n, kind="inductive")
    trace.levels.append(rec)

    # on a flag space the adapted vectors are those off its hyperplane,
    # which never holds every unit vector; the adapted one's line is kept
    units = (Vec.unit(F, n, i) for i in reversed(range(n)))
    lines = ((e, range_constrained(space, e)) for e in units)
    x, line = next(((e, ln) for e, ln in lines if is_adapted_line(ln)), (None, None))
    rec.checks["adapted_vector_found"] = x is not None
    if x is None:
        _violate("no unit vector is adapted to the space", trace)
    rec.adapted_vector = x.entries
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
    """Check that ``flag`` generates the optimal space ``space``, for n >= 3.

    The check is the whole extraction: in the flag basis the space must be
    upper triangular of dimension n(n+1)/2, so it *is* T_n.  Every block fact
    of T_n (its units, slices, unique completions, vanishing corner and
    residual maps, and its descent to T_(n-1) through F.e_n) then holds by
    construction and has nothing left to decide; the returned trace records
    no levels, so ``all_checks_pass()`` is true.  A flag that does not
    generate the space raises PreconditionError.
    """
    if flag.n < 3:
        raise PreconditionError("structure-map extraction needs n >= 3")
    F, n = space.field, space.n
    if flag.field != F or flag.n != n:
        raise PreconditionError("flag does not generate the given space")
    level = space.conjugate(invert(flag.basis_matrix()))
    upper = all(b.is_upper_triangular() for b in level.basis)
    if level.dim != n * (n + 1) // 2 or not upper:
        raise PreconditionError("flag does not generate the given space")
    return RecoveryTrace(n, F.descriptor())
