import itertools

import pytest

from weaktri.gf import FieldCtx
from weaktri.linalg import (
    Mat,
    char_poly,
    char_poly_coeffs,
    invert,
    kernel_basis,
    rref,
    rref_kernel,
    rref_solve,
    span_rows,
)

from conftest import random_invertible, random_matrix, seeded
from oracles import apply, cofactor_char_poly


class TestRref:
    def test_identity_solve(self, gf3):
        assert rref_solve([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2, 0), gf3) == (1, 2, 0)

    def test_inconsistent(self, gf3):
        assert rref_solve([(0, 0), (0, 0)], (1, 0), gf3) is None

    def test_kernel_of_no_rows_needs_the_width(self, gf3):
        assert kernel_basis([], gf3) == []
        assert kernel_basis([], gf3, width=2) == [(1, 0), (0, 1)]
        assert kernel_basis([(1, 1)], gf3, width=2) == [(2, 1)]

    def test_kernel_of_reduced_rows_matches_kernel_basis(self, gf3, gf5, gf9):
        # rref_kernel on canonical rows, with the pivots read off the rows as
        # the trace-form radical reads them, eliminates nothing and must give
        # kernel_basis's answer: the width n - rank null space of the rows
        rng = seeded(13)
        for field in (gf3, gf5, gf9):
            units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
            assert rref_kernel([], [], field, 3) == kernel_basis([], field, width=3) == units
            for width in range(1, 7):
                for _ in range(10):
                    rows = [
                        tuple(field.coerce(rng.randrange(field.q)) for _ in range(width))
                        for _ in range(rng.randrange(width + 2))
                    ]
                    canonical = span_rows(rows, field)
                    pivots = [next(c for c, e in enumerate(row) if e) for row in canonical]
                    kernel = rref_kernel(canonical, pivots, field, width)
                    assert kernel == kernel_basis(canonical, field, width=width)
                    assert kernel == kernel_basis(rows, field, width=width)
                    assert len(kernel) == width - len(canonical)
                    assert all(field.dot(row, v) == 0 for row in rows for v in kernel)

    def test_kernel_line(self, gf3):
        kern = kernel_basis([(1, 1), (2, 2)], gf3)
        assert span_rows(kern, gf3) == span_rows([(1, 2)], gf3)

    def test_rref_canonical_under_respan(self, gf5):
        # appending random combinations keeps the span, so the RREF must not move
        rng = seeded(11)
        rows = [tuple(rng.randrange(5) for _ in range(6)) for _ in range(3)]
        base = span_rows(rows, gf5)
        for _ in range(10):
            mixed = list(rows)
            rng.shuffle(mixed)
            for _ in range(4):
                coeffs = [rng.randrange(5) for _ in range(len(rows))]
                mixed.append(
                    tuple(
                        sum(c * r[i] for c, r in zip(coeffs, rows)) % 5
                        for i in range(6)
                    )
                )
            assert span_rows(mixed, gf5) == base

    def test_pivots_strictly_increase(self, gf3):
        rows, pivots = rref([(0, 1, 2), (1, 1, 1), (2, 0, 1)], gf3)
        assert pivots == sorted(pivots)
        for row, pc in zip(rows, pivots):
            assert row[pc] == 1
            assert all(other[pc] == 0 for other in rows if other is not row)


class TestMat:
    def test_mul_identity(self, gf3):
        rng = seeded(3)
        m = random_matrix(gf3, 3, rng)
        assert m * Mat.identity(gf3, 3) == m

    def test_apply(self, gf3):
        # the oracles' M v, which the invariant-subspace sweep relies on
        m = Mat(gf3, 2, (1, 2, 0, 1))
        assert apply(m, (1, 1)) == (0, 1)

    def test_invert_round_trip(self, gf5):
        rng = seeded(5)
        for _ in range(20):
            m = random_invertible(gf5, 3, rng)
            assert m * invert(m) == Mat.identity(gf5, 3)

    def test_singular_returns_none(self, gf3):
        assert invert(Mat(gf3, 2, (0,) * 4)) is None


class TestCharPoly:
    def test_identity_2x2(self, gf3):
        # (t-1)^2 = t^2 + t + 1 over GF(3)
        assert char_poly(Mat.identity(gf3, 2)).coeffs == (1, 1, 1)

    def test_companion(self, gf3):
        companion = Mat(gf3, 2, (0, 2, 1, 0))
        assert char_poly(companion).coeffs == (1, 0, 1)

    def test_matches_cofactor_oracle(self, gf3, gf5, gf9):
        rng = seeded(17)
        fields = (gf3, gf5, gf9)
        for trial in range(150):
            field = fields[trial % 3]
            n = 2 + trial % 3
            m = random_matrix(field, n, rng)
            assert char_poly(m) == cofactor_char_poly(m)

    def test_coeffs_match_cofactor_oracle_on_every_gf3_2x2(self, gf3):
        for entries in itertools.product(range(3), repeat=4):
            m = Mat(gf3, 2, entries)
            assert char_poly_coeffs(gf3, 2, entries) == cofactor_char_poly(m).coeffs

    @pytest.mark.parametrize("field_args", [(3,), (5,), (7,), (101,), (3, 2, (1, 0, 1))])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coeffs_match_cofactor_oracle(self, field_args, n):
        # n <= 3 over a prime field takes the closed forms, the rest Berkowitz
        field = FieldCtx(*field_args)
        rng = seeded(31 + n)
        for _ in range(40):
            m = random_matrix(field, n, rng)
            assert char_poly_coeffs(field, n, m.entries) == cofactor_char_poly(m).coeffs

    def test_conjugation_and_transpose_invariance(self, gf3, gf5):
        rng = seeded(23)
        for trial in range(60):
            field = (gf3, gf5)[trial % 2]
            n = 2 + trial % 3
            m = random_matrix(field, n, rng)
            p = random_invertible(field, n, rng)
            expected = char_poly(m)
            assert char_poly(p * m * invert(p)) == expected
            transposed = Mat(field, n, [e for j in range(n) for e in m.col(j)])
            assert char_poly(transposed) == expected

    def test_det_via_char_poly(self, gf5):
        # det(tI - M) at t = 0 is det(-M) = (-1)^n det(M)
        rng = seeded(29)
        for _ in range(20):
            m = random_matrix(gf5, 3, rng)
            assert char_poly(m).coeffs[0] == gf5.neg(_det_by_elimination(m))


def _det_by_elimination(m):
    F, n = m.field, m.n
    rows = [list(m.row(i)) for i in range(n)]
    acc = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            acc = F.neg(acc)
        acc = F.mul(acc, rows[c][c])
        inv = F.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                f = F.mul(rows[i][c], inv)
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[c])]
    return acc
