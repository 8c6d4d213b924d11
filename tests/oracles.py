"""Independent brute-force oracles the library paths are checked against.

These deliberately avoid the code under test: the characteristic polynomial
comes from a Leibniz expansion over the polynomial ring, splitting verdicts
from exhaustive root counting, and adaptedness from sweeping all elements of
the space.  The full-sweep references re-decide every element and every
lift with the library's split test, so they check only the symmetry
reductions (one element per class) of the sweep and the goodness table.

The invariant-subspace sweep, ``is_chain``, ``is_upper_triangular``,
``triangularize`` and ``transpose_dual`` are references that the package
itself never needs; the tests compare recovered flags, split verdicts and
adaptedness against them.  ``naive_conjugate`` is conjugation by the
product formula P m P^-1, which ``flag_space`` must equal on T_n, and
``apply`` is the product M v of a matrix and a vector, one dot product per
row.  ``generates_by_containment`` decides flag_space(flag) == space
without building the flag space: every basis matrix must keep the flag.
``gram_radical`` is the trace-form radical as the kernel of the Gram
matrix, which the annihilator that recovery reads off the canonical basis
must span whenever that kernel has dimension n(n-1)/2.

``scan_pattern_by_rows`` is the campaign's pruned scan as it was before
vectors were packed: rows are coordinate lists, and each combination is
added coordinate by coordinate.  The packed scan must decide every pattern
exactly as it does, up to the order of its hits.

``all_elements`` is the full sweep over all q^dim elements, in the rank
order of the exhaustive check's class walk: ``triang.nonsplit_classes``
over the canonical basis reversed.  ``enumerate_subspaces`` streams
the subspaces of F^m one by one, those that contain given vectors by
filtering the whole stream; ``count_chains`` counts the complete flags
with it, which ``count_flags``'s closed form must equal.
``spaces_through_identity`` streams only the spaces of matrices through I,
built on a complement of F.I that the campaign's quotient does not use, and
``span_elements`` lists a row space with the field's ``add`` and ``mul``
alone.  ``poly_eval`` is Horner evaluation, for root scans.

``poly_add``, ``poly_neg``, ``poly_sub``, ``poly_scale``, ``poly_mul`` and
``poly_divmod`` are polynomial arithmetic one coefficient at a time through
the field's ``add``, ``neg`` and ``mul``.  ``Poly``'s row-at-a-time ``-``,
``*`` and ``%`` must equal them, and the Leibniz expansion and root counting
run on them alone, so neither reference reaches the row kernel
(``FieldCtx.axpy`` and ``dot``) that ``char_poly`` and ``splits_over`` run
on.  ``mul_by_digits`` multiplies two elements of GF(p^k) as the schoolbook
product of their digit vectors reduced by the monic modulus, apart from the
log/exp tables that ``FieldCtx.mul`` reads.
"""

import itertools

from weaktri.errors import PreconditionError, TheoremViolationError
from weaktri.gf import Poly
from weaktri.linalg import Mat, char_poly, invert, kernel_basis, span_rows
from weaktri.spaces import MatSpace
from weaktri.triang import is_triangularizable


def cofactor_char_poly(m: Mat) -> Poly:
    """det(tI - M) by summing over permutations of the polynomial matrix."""
    F, n = m.field, m.n
    total = Poly.zero(F)
    for perm in itertools.permutations(range(n)):
        visited = [False] * n
        cycles = 0
        for i in range(n):
            if not visited[i]:
                cycles += 1
                j = i
                while not visited[j]:
                    visited[j] = True
                    j = perm[j]
        term = Poly.one(F)
        for i in range(n):
            e = m.entry(i, perm[i])
            if i == perm[i]:
                term = poly_mul(term, Poly(F, (F.neg(e), 1)))
            else:
                term = poly_mul(term, Poly(F, (F.neg(e),)))
        if (n - cycles) % 2:
            term = poly_neg(term)
        total = poly_add(total, term)
    return total


def splits_by_root_count(f: Poly) -> bool:
    """A polynomial splits iff its roots, with multiplicity, exhaust the degree."""
    assert not f.is_zero
    remaining = f
    count = 0
    for z in f.field.elements():
        lin = Poly(f.field, (f.field.neg(z), 1))
        while True:
            quo, rem = poly_divmod(remaining, lin)
            if not rem.is_zero:
                break
            remaining = quo
            count += 1
    return count == f.degree


def monic_polys(field, degree):
    for tail in itertools.product(field.elements(), repeat=degree):
        yield Poly(field, tail + (1,))


def poly_eval(poly: Poly, x):
    """poly(x) by Horner's rule."""
    F = poly.field
    acc = 0
    for c in reversed(poly.coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_add(f: Poly, g: Poly) -> Poly:
    F = f.field
    return Poly(F, [F.add(a, b) for a, b in itertools.zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def poly_neg(f: Poly) -> Poly:
    F = f.field
    return Poly(F, [F.neg(c) for c in f.coeffs])


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def poly_scale(f: Poly, c) -> Poly:
    F = f.field
    return Poly(F, [F.mul(a, c) for a in f.coeffs])


def poly_mul(f: Poly, g: Poly) -> Poly:
    F = f.field
    if f.is_zero or g.is_zero:
        return Poly.zero(F)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return Poly(F, out)


def poly_divmod(f: Poly, g: Poly):
    """(quotient, remainder) by long division, one coefficient at a time."""
    F = f.field
    rem = list(f.coeffs)
    dq = len(f.coeffs) - len(g.coeffs)
    if dq < 0:
        return Poly.zero(F), f
    quo = [0] * (dq + 1)
    lead_inv = F.inv(g.coeffs[-1])
    for i in range(dq, -1, -1):
        c = F.mul(rem[i + g.degree], lead_inv)
        quo[i] = c
        if c:
            for j, b in enumerate(g.coeffs):
                rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
    return Poly(F, quo), Poly(F, rem)


def mul_by_digits(field, a, b):
    """a*b in GF(p^k): the schoolbook product of the digit vectors, reduced
    by the monic modulus."""
    p, k = field.p, field.k
    da, db = field.to_digits(a), field.to_digits(b)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    mod = field.modulus
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    return field.from_digits(prod[:k])


def all_elements(space):
    """Every element of the space, one combination per coefficient vector,
    coefficient vectors in lexicographic order."""
    for coeffs in itertools.product(space.field.elements(), repeat=space.dim):
        yield space.combination(coeffs)


def span_elements(rows, field, width):
    """Every element of the row space of ``rows``, vectors of length
    ``width``, one per coefficient vector in lexicographic order, summed
    entry by entry with the field's ``add`` and ``mul``."""
    add, mul = field.add, field.mul
    zero = (0,) * width
    for coeffs in itertools.product(field.elements(), repeat=len(rows)):
        entries = zero
        for c, row in zip(coeffs, rows):
            if c:
                entries = tuple(map(add, entries, row if c == 1 else [mul(c, a) for a in row]))
        yield entries


def spaces_through_identity(n, dim, field):
    """Every dim-dimensional space of n-by-n matrices that contains I, once
    each, as I followed by a basis of a (dim - 1)-dimensional subspace of
    the complement W spanned by the unit matrices of every entry but the
    last diagonal one.  I is 1 at that entry and W is 0 there, so F.I and W
    meet in 0, and taking V to its intersection with W maps the spaces
    through I one to one onto the (dim - 1)-dimensional subspaces of W.
    (The campaign's quotient takes another section: every entry but the
    first.)"""
    identity = tuple(int(i % (n + 1) == 0) for i in range(n * n))
    for rows in _subspaces_by_pattern(n * n - 1, dim - 1, field):
        yield (identity,) + tuple(row + (0,) for row in rows)


def _subspaces_by_pattern(m, k, field):
    for pattern in itertools.combinations(range(m), k):
        pivot_set = set(pattern)
        free = [
            (row, col)
            for row, pc in enumerate(pattern)
            for col in range(pc + 1, m)
            if col not in pivot_set
        ]
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [[int(col == pc) for col in range(m)] for pc in pattern]
            for (row, col), v in zip(free, values):
                rows[row][col] = v
            yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(m, k, field, must_contain=()):
    """Every k-dimensional subspace of F^m that contains ``must_contain``,
    once each, as canonical RREF bases: pivot patterns in lexicographic
    order, free entries in lexicographic order within a pattern.  The
    constraint vectors must be linearly independent, and at most k."""
    must = [tuple(v) for v in must_contain]
    r = len(span_rows(must, field))
    if r != len(must):
        raise PreconditionError("constraints are linearly dependent")
    if r > k:
        raise ValueError(f"cannot fit a {r}-dimensional constraint span in dimension {k}")
    for rows in _subspaces_by_pattern(m, k, field):
        if all(in_span(rows, v, field) for v in must):
            yield rows


def count_chains(n, field):
    """Number of complete flags of F^n, one subspace at a time: each
    k-dimensional subspace extends by every (k+1)-dimensional one that
    contains it."""
    def extend(prev_rows, k):
        if k == n:
            return 1
        return sum(
            extend(rows, k + 1)
            for rows in enumerate_subspaces(n, k, field, must_contain=prev_rows)
        )

    return extend((), 1)


def adapted_by_sweep(space, x) -> bool:
    """Adaptedness by enumerating every element of the space."""
    line = span_rows([tuple(x)], space.field)
    for m in all_elements(space):
        if m.trace() == 0 and _column_space(m) == line:
            return False
    return True


def adapted_hyperplane_by_sweep(space, spanning) -> bool:
    """True when no trace-zero element of the space has kernel exactly the
    hyperplane spanned by ``spanning``."""
    target = span_rows([tuple(v) for v in spanning], space.field)
    for m in all_elements(space):
        if m.trace() != 0:
            continue
        kern = _kernel_rows(m)
        if kern == target:
            return False
    return True


def _column_space(m: Mat):
    return span_rows([m.col(j) for j in range(m.n)], m.field)


def _kernel_rows(m: Mat):
    return span_rows(kernel_basis([m.row(i) for i in range(m.n)], m.field), m.field)


def weakly_triangularizable_by_sweep(space):
    """(verdict, first witness, elements checked) of the full lexicographic
    sweep over all q^dim elements."""
    checked = 0
    for m in all_elements(space):
        checked += 1
        if not is_triangularizable(m):
            return False, m, checked
    return True, None, checked


def goodness_by_full_lifts(field, n, constraint_rows, section_cols):
    """good[packed class] by testing the class's base point plus every
    element of the whole constraint span, for every class."""
    span = MatSpace.from_span([Mat(field, n, r) for r in constraint_rows], field=field, n=n)
    lifts = [z.entries for z in all_elements(span)]
    q, k = field.q, len(section_cols)
    table = []
    for digits in itertools.product(range(q), repeat=k):
        base = [0] * (n * n)
        for col, v in zip(section_cols, reversed(digits)):  # packed little-endian
            base[col] = v
        table.append(
            all(
                is_triangularizable(Mat(field, n, [field.add(a, b) for a, b in zip(base, z)]))
                for z in lifts
            )
        )
    return table


def scan_pattern_by_rows(field, m, good, pattern):
    """Exhaustively decide all candidates whose RREF pivots are ``pattern``;
    returns (candidates_decided, hit_row_lists).

    Rows are assigned bottom-up.  A bad projective point among the
    combinations involving the newest row rejects the row together with every
    completion of the remaining rows above it.
    """
    k = len(pattern)
    if k == 0:
        return 1, [()]
    q = field.q
    elements = tuple(field.elements())
    add_tab = [[field.add(a, b) for b in elements] for a in elements]
    mul_tab = [[field.mul(a, b) for b in elements] for a in elements]
    pows = [q**i for i in range(m)]
    pivot_set = set(pattern)
    frees = [
        [c for c in range(pattern[i] + 1, m) if c not in pivot_set]
        for i in range(k)
    ]
    skip = [1] * k
    for i in range(1, k):
        skip[i] = skip[i - 1] * q ** len(frees[i - 1])
    # q to the number of free positions, the free entries of every row
    expected = q ** sum(map(len, frees))
    templates = []
    for i in range(k):
        t = [0] * m
        t[pattern[i]] = 1
        templates.append(t)
    chosen = [None] * k
    bad_total = 0
    hits = []

    def rec(i, combos):
        nonlocal bad_total
        frees_i = frees[i]
        skip_i = skip[i]
        template = templates[i]
        for values in itertools.product(elements, repeat=len(frees_i)):
            row = template[:]
            for pos, v in zip(frees_i, values):
                row[pos] = v
            ok = True
            for w in combos:
                idx = 0
                for a, b, pw in zip(row, w, pows):
                    idx += add_tab[a][b] * pw
                if not good[idx]:
                    ok = False
                    break
            if not ok:
                bad_total += skip_i
                continue
            chosen[i] = tuple(row)
            if i == 0:
                hits.append(tuple(chosen))
                continue
            grown = list(combos)
            for c in elements[1:]:
                crow = [mul_tab[c][v] for v in row]
                for w in combos:
                    grown.append(tuple(add_tab[a][b] for a, b in zip(crow, w)))
            rec(i - 1, grown)

    rec(k - 1, [(0,) * m])
    got = bad_total + len(hits)
    if got != expected:
        raise TheoremViolationError(
            f"scan bookkeeping drift on pattern {pattern}: {got} != {expected}"
        )
    return expected, hits


def in_span(rows, v, field):
    """v lies in the row space of ``rows``: adding it keeps the rank."""
    return len(span_rows(list(rows) + [tuple(v)], field)) == len(span_rows(rows, field))


def apply(m: Mat, v):
    """M v for a vector v, a tuple of packed field elements."""
    return tuple(m.field.dot(m.row(i), v) for i in range(m.n))


def generates_by_containment(flag, space):
    """flag_space(flag) == space, decided by containment with no kernel: the
    space has the flag's field, size and dimension n(n+1)/2, and every basis
    matrix maps each e_j into V_j = span(e_1, ..., e_j)."""
    F, n = flag.field, flag.n
    if space.field != F or space.n != n or space.dim != n * (n + 1) // 2:
        return False
    return all(
        in_span(flag.basis[: j + 1], apply(b, e), F)
        for b in space.basis
        for j, e in enumerate(flag.basis)
    )


def invariant_subspaces(space):
    """Every subspace U of F^n with S.U <= U, as canonical RREF bases, by a
    sweep over the whole Grassmannian of each dimension."""
    n, F = space.n, space.field
    return [
        rows
        for k in range(n + 1)
        for rows in enumerate_subspaces(n, k, F)
        if all(in_span(rows, apply(b, v), F) for b in space.basis for v in rows)
    ]


def is_chain(subspaces, field) -> bool:
    """The subspaces (row bases) are totally ordered by inclusion."""
    ordered = sorted(subspaces, key=len)
    return all(
        all(in_span(large, v, field) for v in small)
        for small, large in zip(ordered, ordered[1:])
    )


def transpose_dual(space):
    """Reversal-transpose image: entry (i, j) moves to (n-1-j, n-1-i), i.e.
    the transposed space conjugated by the reversal permutation; an
    involution that preserves weak triangularizability."""
    n = space.n
    return MatSpace.from_span(
        [
            Mat(space.field, n, tuple(m.entry(n - 1 - j, n - 1 - i) for i in range(n) for j in range(n)))
            for m in space.basis
        ],
        field=space.field,
        n=n,
    )


def naive_conjugate(space, p: Mat):
    """{P m P^-1} by two matrix products per basis element."""
    p_inv = invert(p)
    return MatSpace.from_span([p * m * p_inv for m in space.basis], field=space.field, n=space.n)


def is_upper_triangular(m: Mat) -> bool:
    return all(m.entry(i, j) == 0 for i in range(m.n) for j in range(i))


def triangularize(m: Mat) -> Mat:
    """An invertible P with P^-1 M P upper triangular, by peeling off one
    eigenvector (eigenvalue from a root scan of the char poly) and recursing
    on the induced map of the quotient."""
    F, n = m.field, m.n
    if n == 1:
        return Mat.identity(F, 1)
    poly = char_poly(m)
    lam = next((z for z in F.elements() if poly_eval(poly, z) == 0), None)
    if lam is None:
        raise PreconditionError("matrix has a non-split characteristic polynomial")
    shifted = m - Mat(F, n, [lam if i == j else 0 for i in range(n) for j in range(n)])
    v = kernel_basis([shifted.row(i) for i in range(n)], F)[0]
    pivot = next(i for i, e in enumerate(v) if e)
    # complete v to a basis with the standard vectors away from its pivot
    cols = [v] + [tuple(int(r == j) for r in range(n)) for j in range(n) if j != pivot]
    q = Mat(F, n, tuple(cols[j][i] for i in range(n) for j in range(n)))
    inner = invert(q) * m * q
    sub = triangularize(
        Mat(F, n - 1, tuple(inner.entry(i, j) for i in range(1, n) for j in range(1, n)))
    )
    block = [1] + [0] * (n - 1)
    for i in range(n - 1):
        block += [0] + list(sub.row(i))
    return q * Mat(F, n, block)


def gram_radical(space):
    """Basis of {u in S : tr(uw) = 0 for all w in S}: the kernel of the Gram
    matrix G_ij = tr(b_i b_j) over the canonical basis, whatever its
    dimension, each kernel vector combined into a matrix of S."""
    gram = [[(b * c).trace() for c in space.basis] for b in space.basis]
    return [space.combination(v) for v in kernel_basis(gram, space.field, width=space.dim)]
