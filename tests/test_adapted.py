import re

import pytest

from weaktri.adapted import (
    find_adapted_vector,
    is_adapted_vector,
    projective_reps,
    range_constrained,
)
from weaktri.errors import BudgetExceededError
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, kernel_basis, span_rows
from weaktri.spaces import MatSpace
from weaktri.survey import gen_triangular

from conftest import (
    cycle,
    full_space,
    random_invertible,
    random_matrix,
    seeded,
    triangular_space,
)
from oracles import (
    adapted_by_sweep,
    adapted_hyperplane_by_sweep,
    all_elements,
    apply,
    transpose_dual,
)


def range_by_sweep(space, x):
    """The elements of the space whose columns all lie on the line F.x."""
    line = span_rows([tuple(x)], space.field)
    return {
        m
        for m in all_elements(space)
        if all(span_rows([line[0], m.col(j)], space.field) == line for j in range(space.n))
    }


class TestProjectiveReps:
    def test_count_and_order(self, gf3):
        reps = projective_reps(gf3, 2)
        assert list(reps) == [(0, 1), (1, 0), (1, 1), (1, 2)]

    def test_count(self, gf3):
        assert len(list(projective_reps(gf3, 3))) == (27 - 1) // 2

    def test_streamed(self):
        # the first representatives come without building the q^2 others
        reps = projective_reps(FieldCtx(1000003), 3)
        assert [next(reps) for _ in range(3)] == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]

    def test_normalized(self, gf5):
        for rep in projective_reps(gf5, 3):
            lead = next(e for e in rep if e)
            assert lead == 1


class TestRangeConstrained:
    def test_triangular_through_e1(self, gf3):
        t2 = triangular_space(gf3, 2)
        expected = MatSpace.from_span([Mat.unit(gf3, 2, 0, 0), Mat.unit(gf3, 2, 0, 1)])
        assert range_constrained(t2, (1, 0)) == expected

    def test_triangular_through_e2(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert range_constrained(t2, (0, 1)) == MatSpace.from_span(
            [Mat.unit(gf3, 2, 1, 1)]
        )

    def test_zero_space(self, gf3):
        zero = MatSpace.from_span([], field=gf3, n=2)
        assert range_constrained(zero, (1, 1)).dim == 0

    def test_zero_vector_rejected(self, gf3):
        with pytest.raises(ValueError):
            range_constrained(triangular_space(gf3, 2), (0, 0))

    @pytest.mark.parametrize("field_args", [(3,), (3, 2, (1, 0, 1))])
    def test_one_by_one_matches_the_sweep(self, field_args):
        # with n = 1 there are no constraint rows: all of M_1 spans the line
        field = FieldCtx(*field_args)
        m1 = full_space(field, 1)
        zero = MatSpace.from_span([], field=field, n=1)
        for x in [(c,) for c in field.elements() if c]:
            for space in (m1, zero):
                constrained = range_constrained(space, x)
                assert constrained == space
                assert set(all_elements(constrained)) == range_by_sweep(space, x)
                assert is_adapted_vector(space, x) == adapted_by_sweep(space, x)

    def test_members_have_range_in_line(self, gf5):
        rng = seeded(3)
        for _ in range(10):
            space = MatSpace.from_span([random_matrix(gf5, 3, rng) for _ in range(4)])
            x = (1, 2, 3)
            constrained = range_constrained(space, x)
            line = span_rows([x], gf5)
            for m in constrained.basis:
                cols = span_rows([m.col(j) for j in range(3)], gf5)
                assert all(r in line or not any(r) for r in cols)
                assert len(cols) <= 1


class TestAdaptedVector:
    def test_triangular_examples(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert is_adapted_vector(t2, (0, 1))
        assert not is_adapted_vector(t2, (1, 0))

    def test_zero_space_vacuous(self, gf3):
        zero = MatSpace.from_span([], field=gf3, n=2)
        assert is_adapted_vector(zero, (1, 0))

    def test_find_scans_lexicographically(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert find_adapted_vector(t2) == (0, 1)
        found = find_adapted_vector(MatSpace.from_span([Mat.unit(gf3, 2, 0, 1)]))
        assert found is not None
        assert is_adapted_vector(MatSpace.from_span([Mat.unit(gf3, 2, 0, 1)]), found)

    def test_full_space_contract_only(self, gf3):
        # no adaptedness guarantee without weak triangularizability
        found = find_adapted_vector(full_space(gf3, 2))
        if found is not None:
            assert is_adapted_vector(full_space(gf3, 2), found)

    def test_matches_sweep_oracle(self, gf3):
        rng = seeded(11)
        spaces = [
            triangular_space(gf3, 2),
            full_space(gf3, 2),
            MatSpace.from_span([random_matrix(gf3, 2, rng) for _ in range(2)]),
            MatSpace.from_span([random_matrix(gf3, 3, rng) for _ in range(3)]),
        ]
        for space in spaces:
            for x in projective_reps(space.field, space.n):
                assert is_adapted_vector(space, x) == adapted_by_sweep(space, x)

    def test_equivariance(self, gf3):
        rng = seeded(13)
        t2 = triangular_space(gf3, 2)
        for _ in range(15):
            p = random_invertible(gf3, 2, rng)
            conj = gen_triangular(2, gf3, conjugate_by=p)
            for x in projective_reps(gf3, 2):
                assert is_adapted_vector(t2, x) == is_adapted_vector(conj, apply(p, x))


def dual_line(field, spanning):
    """The line that is adapted for transpose_dual(S) exactly when the
    hyperplane spanned by ``spanning`` is adapted for S: the reversal of the
    hyperplane's normal."""
    (normal,) = kernel_basis([tuple(v) for v in spanning], field)
    return tuple(reversed(normal))


class TestAdaptedHyperplane:
    # a hyperplane H is adapted for S when no trace-zero element of S has
    # kernel exactly H; decided through adapted vectors of the dual space
    def test_zero_space_vacuous(self, gf3):
        zero = MatSpace.from_span([], field=gf3, n=2)
        assert adapted_hyperplane_by_sweep(zero, [(0, 1)])
        assert is_adapted_vector(transpose_dual(zero), dual_line(gf3, [(0, 1)]))

    def test_matches_sweep_oracle(self, gf3):
        rng = seeded(17)
        spaces = [
            triangular_space(gf3, 2),
            full_space(gf3, 2),
            MatSpace.from_span([random_matrix(gf3, 2, rng) for _ in range(2)]),
        ]
        hyperplanes = [[(0, 1)], [(1, 0)], [(1, 1)], [(1, 2)]]
        for space in spaces:
            dual = transpose_dual(space)
            for h in hyperplanes:
                assert is_adapted_vector(dual, dual_line(gf3, h)) == (
                    adapted_hyperplane_by_sweep(space, h)
                )

    def test_triangular_3(self, gf3):
        t3 = triangular_space(gf3, 3)
        for spanning in ([(0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 0, 1)]):
            assert is_adapted_vector(transpose_dual(t3), dual_line(gf3, spanning)) == (
                adapted_hyperplane_by_sweep(t3, spanning)
            )


class TestScanBudget:
    # the budget bounds the lines tried, not the lines of F^n
    def exceeds(self, tried, budget):
        return pytest.raises(
            BudgetExceededError,
            match=re.escape(f"{tried} lines exceed the line-scan budget {budget}"),
        )

    def test_no_adapted_line(self, gf3):
        # all 13 lines of F_3^3 are tried, and none is adapted
        m3 = full_space(gf3, 3)
        assert find_adapted_vector(m3, budget=13) is None
        with self.exceeds(13, 12):
            find_adapted_vector(m3, budget=12)

    def test_adapted_line_after_the_hyperplane(self, gf3, gf5):
        # the flag's hyperplane holds e_2 and e_3, so the first adapted line
        # is e_1, the (q + 2)-th in scan order
        for field in (gf3, gf5):
            space = gen_triangular(3, field, conjugate_by=cycle(field, 3))
            tried = field.q + 2
            assert find_adapted_vector(space, budget=tried) == (1, 0, 0)
            with self.exceeds(tried, tried - 1):
                find_adapted_vector(space, budget=tried - 1)

    def test_first_line_of_a_large_field(self):
        # about 10^12 lines, but e_3 answers at the first
        field = FieldCtx(1000003)
        spaces = [
            triangular_space(field, 3),
            gen_triangular(3, field, conjugate_by=random_invertible(field, 3, seeded(23))),
        ]
        for space in spaces:
            assert find_adapted_vector(space, budget=1) == (0, 0, 1)
            assert find_adapted_vector(space) == (0, 0, 1)
            with self.exceeds(1, 0):
                find_adapted_vector(space, budget=0)


class TestDuality:
    def test_vector_hyperplane_duality(self, gf3):
        # x adapted for S iff the hyperplane annihilating the reversal of x
        # is adapted for the reversal-transpose dual of S
        rng = seeded(19)
        rev = Mat(gf3, 2, (0, 1, 1, 0))
        spaces = [
            triangular_space(gf3, 2),
            MatSpace.from_span([random_matrix(gf3, 2, rng) for _ in range(2)]),
            MatSpace.from_span([random_matrix(gf3, 2, rng) for _ in range(3)]),
        ]
        for space in spaces:
            dual = transpose_dual(space)
            for x in projective_reps(gf3, 2):
                image = apply(rev, x)
                spanning = kernel_basis([image], gf3)
                assert is_adapted_vector(space, x) == adapted_hyperplane_by_sweep(
                    dual, spanning
                )
