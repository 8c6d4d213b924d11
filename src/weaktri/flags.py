"""Complete flags and reconstruction of the unique invariant flag of an
optimal weakly triangularizable matrix space.

Recovery reads the flag off the radical of the trace form (u, w) -> tr(uw).
On the upper-triangular matrices T_n that radical is exactly the strictly
upper-triangular part N_n: tr(u E_ij) is u_ji, which vanishes for i < j on
every u in T_n and equals u_ii for i = j, so u is in the radical exactly
when its diagonal is zero.  The powers of N_n cut out the standard flag,
N_n^k F^n = V_(n-k), because N_n maps span(e_1, ..., e_i) onto
span(e_1, ..., e_(i-1)).  Conjugation by P carries both facts to
P T_n P^-1 and to P's column flag.  So one kernel solve on the Gram
matrix gives the radical N, the chain V_n = F^n, V_(k-1) = N V_k gives
the flag, and e_i is the canonical (RREF) row of V_i whose pivot column
is new against V_(i-1); column blocks of the radical give every u v of a
chain step in one pass.  Flag basis vectors, like every vector in the
package, are tuples of packed field elements.

The one correctness gate is the exact equality flag_space(result) == input,
and it decides.  ``flag_space`` is the kernel of the constraints
q_i M p_j = 0 for i > j, where p_j is the flag basis and q_i the rows of
P^-1; one RREF with the columns reversed gives its canonical basis.  Over
odd characteristic every optimal weakly triangularizable space is a
conjugate P T_n P^-1 of the upper-triangular matrices, and a space that
passes the gate is one by construction: every element is P u P^-1 with u
upper triangular, hence triangularizable, so no element sweep can add
anything.  ``recover_flag`` therefore runs the gate first and sweeps the
elements only to explain a failed gate: a non-split element makes the
input a precondition failure, and a sweep that holds leaves the gate's
TheoremViolationError standing.  The structure facts of the paper's block
analysis hold on a space that passes the gate and are not re-checked:
``extract_structure_maps`` is that gate on a given flag.

Every step that the theory guarantees on such a space raises
TheoremViolationError when it fails; such an alarm is never swallowed and
carries the recovery trace for audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, TheoremViolationError
from .linalg import Mat, invert, kernel_basis, rref, span_rows
from .spaces import MatSpace
from .triang import space_weakly_triangularizable


class Flag:
    """Complete flag of F^n given by an ordered basis (e_1, ..., e_n), each
    vector a tuple of field elements."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field, basis):
        vecs = tuple(tuple(field.coerce(e) for e in v) for v in basis)
        n = len(vecs)
        if any(len(v) != n for v in vecs):
            raise ValueError("flag basis vectors have the wrong length")
        reduced, _ = rref(vecs, field)
        if len(reduced) != n:
            raise ValueError("flag basis is linearly dependent")
        self.field = field
        self.n = n
        self.basis = vecs

    @classmethod
    def standard(cls, field, n):
        return cls(field, Mat.identity(field, n).rows())

    def basis_matrix(self) -> Mat:
        """Change-of-basis matrix whose columns are the flag basis."""
        n = self.n
        return Mat(
            self.field, n, tuple(self.basis[j][i] for i in range(n) for j in range(n))
        )

    def subspace(self, i):
        """Canonical RREF rows of V_i = span(e_1, ..., e_i)."""
        return span_rows(self.basis[:i], self.field)

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

    Upper-triangular in the flag basis, so the dimension is n(n+1)/2.  With
    p_j the flag basis and q_i the rows of Q = P^-1, M keeps the flag exactly
    when Q M P is upper triangular: q_i M p_j = 0 for i > j, n(n-1)/2
    constraints on vec(M), each the row q_i (x) p_j with entry k*n + l equal
    to q_i[k] p_j[l].  Their kernel is solved with the columns reversed, so
    the RREF picks pivots right to left.  In the original order the kernel
    vector of free column f then has its leading 1 at f, its other nonzero
    entries only at pivot columns right of f and 0 at every other free
    column: sorted by f, the kernel vectors are already the canonical basis.
    """
    F, n = flag.field, flag.n
    q = invert(flag.basis_matrix()).rows()
    constraints = [
        [x for a in q[i] for x in F.axpy(a, flag.basis[j])][::-1]
        for i in range(n)
        for j in range(i)
    ]
    kernel = kernel_basis(constraints, F, width=n * n)
    if len(kernel) != n * (n + 1) // 2:
        raise TheoremViolationError("flag space has the wrong dimension")
    return MatSpace(F, n, (Mat._wrap(F, n, v[::-1]) for v in reversed(kernel)))


# -- recovery trace -----------------------------------------------------------


@dataclass
class RecoveryTrace:
    """Audit of a flag recovery run: each check of its one radical step, by
    name, with its outcome.  A trace with no checks records no level."""

    ambient: int
    field_descriptor: str
    checks: dict = dc_field(default_factory=dict)

    def all_checks_pass(self):
        return all(self.checks.values())

    def to_text(self):
        lines = [
            f"# trace ambient: {self.ambient}",
            f"# trace field: {self.field_descriptor}",
        ]
        if self.checks:
            lines.append(f"level 1: n={self.ambient} kind=radical")
            for key, ok in sorted(self.checks.items()):
                lines.append(f"  check {key}: {'pass' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


# -- main recovery ------------------------------------------------------------


def recover_flag(space: MatSpace, *, budget=None, assume_weakly_triangularizable=False):
    """Recover the unique complete flag F with flag_space(F) == space.

    The input must be optimal (dimension n(n+1)/2).  The radical, chain and
    gate run first, and a space that passes the gate is returned with no
    element sweep.  When a step raises TheoremViolationError the space's
    elements are swept within ``budget`` to explain it: a non-split element
    raises PreconditionError with that witness, and otherwise the
    TheoremViolationError is re-raised (a weakly triangularizable space
    that is not a flag space, possible only over characteristic 2).  With
    ``assume_weakly_triangularizable=True`` the caller vouches for the
    input and nothing is swept.
    """
    try:
        return _flag_by_gate(space)
    except TheoremViolationError:
        if not assume_weakly_triangularizable:
            verdict = space_weakly_triangularizable(space, budget=budget)
            if not verdict:
                raise PreconditionError(
                    f"space is not weakly triangularizable; witness {verdict.witness!r}"
                ) from None
        raise


def _flag_by_gate(space):
    """The trace-form radical, its chain and the gate flag_space == space;
    each step that fails raises TheoremViolationError with the trace.  A
    space that is not of dimension n(n+1)/2 raises PreconditionError."""
    F, n = space.field, space.n
    expected = n * (n + 1) // 2
    if space.dim != expected:
        raise PreconditionError(
            f"optimal spaces have dimension {expected}, got {space.dim}"
        )
    trace = RecoveryTrace(n, F.descriptor())

    def require(check, ok, message):
        trace.checks[check] = ok
        if not ok:
            raise TheoremViolationError(message, trace=trace)

    radical = _trace_form_radical(space)
    require(
        "radical_dim",
        len(radical) == n * (n - 1) // 2,
        "trace-form radical is not of dimension n(n-1)/2",
    )

    # V_n = F^n and V_(k-1) = N V_k, each as (RREF rows, pivot columns); block
    # l is column l of every u in N, so sum_l v_l block_l holds every u v
    blocks = [[x for u in radical for x in u.entries[l::n]] for l in range(n)]
    subspaces = [(Mat.identity(F, n).rows(), list(range(n)))]
    while len(subspaces) <= n:
        images = []
        for v in subspaces[-1][0]:
            acc = [0] * (len(radical) * n)
            for c, block in zip(v, blocks):
                if c:
                    acc = F.axpy(c, block, acc)
            images += (acc[i : i + n] for i in range(0, len(acc), n))
        subspaces.append(rref(images, F))
    subspaces.reverse()  # subspaces[i] is V_i
    require(
        "chain_steps",
        [len(rows) for rows, _ in subspaces] == list(range(n + 1)),
        "radical chain does not drop one dimension per step to 0",
    )

    # the chain is nested (V_(k-1) = N V_k <= N V_(k+1) = V_k), so V_i has
    # one pivot column more than V_(i-1) and e_i is its row there; rows with
    # distinct pivot columns are independent
    basis = [
        next((row for row, c in zip(rows, pivots) if c not in below), None)
        for (_, below), (rows, pivots) in zip(subspaces, subspaces[1:])
    ]
    require("chain_basis", None not in basis, "a radical chain step adds no pivot column")
    flag = Flag(F, basis)
    require(
        "flag_space_equals_input",
        flag_space(flag) == space,
        "recovered flag does not regenerate the space",
    )
    return flag, trace


def _trace_form_radical(space):
    """Basis of {u in S : tr(uw) = 0 for all w in S}: the kernel of the Gram
    matrix G_ij = tr(b_i b_j) = sum_kl (b_i)_kl (b_j)_lk over the canonical
    basis, which is symmetric."""
    F, n = space.field, space.n
    mats = [b.entries for b in space.basis]
    transposed = [tuple(m[c * n + r] for r in range(n) for c in range(n)) for m in mats]
    d = len(mats)
    gram = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            gram[i][j] = gram[j][i] = F.dot(mats[i], transposed[j])
    return [space.combination(c) for c in kernel_basis(gram, F)]


# -- structure-map extraction ---------------------------------------------------


def extract_structure_maps(space: MatSpace, flag: Flag) -> RecoveryTrace:
    """Check that ``flag`` generates the optimal space ``space``, for n >= 3.

    The check is the whole extraction: flag_space(flag) == space makes the
    space T_n in the flag basis.  Every block fact of T_n (its units,
    slices, unique completions, vanishing corner and residual maps, and its
    descent to T_(n-1) through F.e_n) then holds by construction and has
    nothing left to decide; the returned trace records no checks, so
    ``all_checks_pass()`` is true.  A flag that does not generate the space
    raises PreconditionError.
    """
    if flag.n < 3:
        raise PreconditionError("structure-map extraction needs n >= 3")
    if flag_space(flag) != space:
        raise PreconditionError("flag does not generate the given space")
    return RecoveryTrace(space.n, space.field.descriptor())
