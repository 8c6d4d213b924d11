"""Complete flags and reconstruction of the unique invariant flag of an
optimal weakly triangularizable matrix space.

Recovery reads the flag off the radical of the trace form (u, w) -> tr(uw).
On the upper-triangular matrices T_n that radical is exactly the strictly
upper-triangular part N_n: tr(u E_ij) is u_ji, which vanishes for i < j on
every u in T_n and equals u_ii for i = j, so u is in the radical exactly
when its diagonal is zero.  The powers of N_n cut out the standard flag,
N_n^k F^n = V_(n-k), because N_n maps span(e_1, ..., e_i) onto
span(e_1, ..., e_(i-1)).  Conjugation by P carries both facts to
P T_n P^-1 and to P's column flag.  The radical N is read off the space's
canonical basis as its annihilator, with no Gram matrix (``_flag_by_gate``
gives the argument), the chain V_n = F^n, V_(k-1) = N V_k gives the flag,
and e_i is the canonical (RREF) row of V_i whose pivot column is new
against V_(i-1).  Vectors are tuples of packed field elements.

Each reduction is done once: the radical reads the canonical rows as the
RREF they are, the recovered flag keeps the chain that recovery reduced,
and it keeps the space its gate built, so a recovery runs n + 2
eliminations (the n chain levels, one ``invert`` and the flag space's
kernel) and asking the flag for its chain or its space afterwards runs
none.

The one correctness gate is flag_space(result) == input, on the space
the flag builds once and keeps.  Over odd characteristic every optimal
weakly triangularizable space is a conjugate P T_n P^-1, and a space that
passes the gate is one by construction: every element is P u P^-1 with u
upper triangular, so no element sweep can add anything, and the structure
facts of the paper's block analysis are not re-checked.  Every step that
the theory guarantees on such a space raises TheoremViolationError when
it fails; such an alarm is never swallowed and carries the recovery trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import PreconditionError, TheoremViolationError
from .linalg import Mat, invert, kernel_basis, rref, rref_kernel, span_rows
from .spaces import MatSpace
from .triang import space_weakly_triangularizable


class Flag:
    """Complete flag of F^n, n >= 1, given by an ordered basis (e_1, ...,
    e_n), each vector a tuple of field elements.  Two flags are equal when
    their chains are, whatever bases span them.  A flag is immutable: only
    ``chain`` and ``flag_space`` write to it, each once, to keep the chain
    in _chain and the flag's space in _space."""

    __slots__ = ("field", "n", "basis", "_chain", "_space")

    def __init__(self, field, basis):
        vecs = tuple(tuple(field.coerce(e) for e in v) for v in basis)
        n = len(vecs)
        if n == 0:
            raise ValueError("flag basis is empty")
        if any(len(v) != n for v in vecs):
            raise ValueError("flag basis vectors have the wrong length")
        reduced, _ = rref(vecs, field)
        if len(reduced) != n:
            raise ValueError("flag basis is linearly dependent")
        self.field = field
        self.n = n
        self.basis = vecs
        self._chain = None
        self._space = None

    @classmethod
    def _wrap(cls, field, basis, chain):
        # fast path for recovery: basis rows that are reduced field elements
        # with distinct pivot columns, and the canonical chain they span
        flag = object.__new__(cls)
        flag.field = field
        flag.n = len(basis)
        flag.basis = tuple(basis)
        flag._chain = chain
        flag._space = None
        return flag

    @classmethod
    def standard(cls, field, n):
        return cls(field, Mat.identity(field, n).rows())

    def basis_matrix(self) -> Mat:
        """Change-of-basis matrix whose columns are the flag basis."""
        F, n = self.field, self.n
        return Mat._wrap(F, n, tuple(self.basis[j][i] for i in range(n) for j in range(n)))

    def chain(self):
        """Canonical RREF rows of V_0, ..., V_n, built on the first call and
        kept (a recovered flag keeps the chain recovery derived)."""
        if self._chain is None:
            self._chain = tuple(span_rows(self.basis[:i], self.field) for i in range(self.n + 1))
        return self._chain

    def __eq__(self, other):
        return (
            isinstance(other, Flag)
            and self.field == other.field
            and self.chain() == other.chain()
        )

    def __hash__(self):
        return hash((self.field, self.chain()))

    def __repr__(self):
        return f"Flag(n={self.n} over {self.field.descriptor()})"


def flag_space(flag: Flag) -> MatSpace:
    """All endomorphisms leaving every flag subspace invariant.

    Upper-triangular in the flag basis, so the dimension is n(n+1)/2: the
    kernel of ``_flag_constraints``, solved with the columns reversed, so
    the RREF picks pivots right to left.  In the original order the kernel
    vector of free column f then has its leading 1 at f, its other nonzero
    entries only at pivot columns right of f and 0 at every other free
    column: sorted by f, the kernel vectors are already the canonical basis.
    It is built on the first call and kept: later calls return that object.
    """
    if flag._space is None:
        F, n = flag.field, flag.n
        # reversing each q_i and p_j reverses every constraint row, with no row copy
        q = [row[::-1] for row in invert(flag.basis_matrix()).rows()]
        constraints = list(_flag_constraints(F, q, [p[::-1] for p in flag.basis]))
        kernel = kernel_basis(constraints, F, width=n * n)
        if len(kernel) != n * (n + 1) // 2:
            raise TheoremViolationError("flag space has the wrong dimension")
        flag._space = MatSpace(F, n, (Mat._wrap(F, n, v[::-1]) for v in reversed(kernel)))
    return flag._space


def _flag_constraints(F, q, p):
    """With p_j the flag basis and q_i the rows of P^-1, M keeps the flag
    exactly when q_i M p_j = 0 for i > j: yield these n(n-1)/2 rows
    q_i (x) p_j on vec(M), entry k*n + l being q_i[k] p_j[l]."""
    for i in range(1, len(p)):
        for j in range(i):
            yield [x for a in q[i] for x in F.axpy(a, p[j])]


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
        lines = [f"# trace ambient: {self.ambient}", f"# trace field: {self.field_descriptor}"]
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
    space that is not of dimension n(n+1)/2 raises PreconditionError.

    Radical: tr(uw) = <vec(u^T), vec(w)>, so the annihilator S^perp is the
    transpose of the kernel of S's canonical rows, which are already
    reduced.  The trace form on M_n is nondegenerate, so S^perp has
    dimension n^2 - n(n+1)/2 = n(n-1)/2 and (S^perp)^perp = S.  The radical
    S meet S^perp has dimension n(n-1)/2 exactly when S^perp <= S, that is
    when S^perp is totally isotropic, and it is then S^perp itself.  So
    radical_dim checks that isotropy and passes exactly where a Gram-matrix
    kernel has dimension n(n-1)/2, on the same space: the chain, the flag
    and every trace are those of the Gram kernel.  Gate: it cannot fail
    once the checks before it pass, in any characteristic: N = S^perp then
    maps each V_k of the flag (basis matrix P) into V_(k-1), so N =
    P N_n P^-1 by dimension, and S = N^perp = P T_n P^-1.  It stays as the
    alarm for a wrong radical or chain, and costs a caller that goes on to
    use flag_space(flag) nothing extra: the flag keeps the space it builds.
    The flag also keeps the canonical rows of V_0, ..., V_n as its chain
    (``Flag._wrap``): its basis rows are reduced field elements, and
    chain_basis proves them independent, as their pivot columns differ.
    """
    F, n = space.field, space.n
    expected = n * (n + 1) // 2
    if space.dim != expected:
        raise PreconditionError(f"optimal spaces have dimension {expected}, got {space.dim}")
    trace = RecoveryTrace(n, F.descriptor())

    def require(check, ok, message):
        trace.checks[check] = ok
        if not ok:
            raise TheoremViolationError(message, trace=trace)

    radical = _trace_form_radical(space)
    require("radical_dim", radical is not None, "trace-form radical is not of dimension n(n-1)/2")

    # V_n = F^n and V_(k-1) = N V_k, each as (RREF rows, pivot columns); block
    # l is column l of every u in N, so sum_l v_l block_l holds every u v; an
    # RREF does not depend on zero or repeated rows, so they are dropped
    blocks = [[x for u in radical for x in u.entries[l::n]] for l in range(n)]
    subspaces = [(Mat.identity(F, n).rows(), list(range(n)))]
    while len(subspaces) <= n:
        images = set()
        for v in subspaces[-1][0]:
            acc = [0] * (len(radical) * n)
            for c, block in zip(v, blocks):
                if c:
                    acc = F.axpy(c, block, acc)
            images.update(tuple(acc[i : i + n]) for i in range(0, len(acc), n))
        images.discard((0,) * n)
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
    flag = Flag._wrap(F, basis, tuple(tuple(rows) for rows, _ in subspaces))
    require(
        "flag_space_equals_input",
        flag_space(flag) == space,
        "recovered flag does not regenerate the space",
    )
    return flag, trace


def _trace_form_radical(space):
    """Basis of {u in S : tr(uw) = 0 for all w in S} when it has dimension
    n(n-1)/2, else None: S^perp, when tr(u_i u_j) = 0 for i <= j on it.
    S's canonical rows are already in RREF, so the kernel is read off them
    and their leading columns with ``rref_kernel``, with no elimination."""
    F, n = space.field, space.n
    rows = [b.entries for b in space.basis]
    pivots = [next(c for c, e in enumerate(row) if e) for row in rows]
    kernel = rref_kernel(rows, pivots, F, n * n)
    perp = [tuple(e for c in range(n) for e in x[c::n]) for x in kernel]  # x^T
    dot = F.dot
    if any(dot(x, perp[j]) for i, x in enumerate(kernel) for j in range(i, len(perp))):
        return None
    return [Mat._wrap(F, n, u) for u in perp]


# -- structure-map extraction ---------------------------------------------------


def extract_structure_maps(space: MatSpace, flag: Flag) -> RecoveryTrace:
    """Check that ``flag`` generates the optimal space ``space``, for n >= 3.

    The check is the whole extraction: the recovery gate, flag_space(flag)
    == space on the space the flag keeps (no work once recover_flag has
    returned the flag), makes the space T_n in the flag basis, where every
    block fact of T_n (units, slices, unique completions, vanishing corner
    and residual maps, descent to T_(n-1)) holds by construction.  The
    returned trace records no checks, so ``all_checks_pass()`` is true; a
    flag that does not generate the space raises PreconditionError.
    """
    if flag.n < 3:
        raise PreconditionError("structure-map extraction needs n >= 3")
    if flag_space(flag) != space:
        raise PreconditionError("flag does not generate the given space")
    return RecoveryTrace(space.n, space.field.descriptor())
