import pytest

from weaktri.errors import BudgetExceededError, PreconditionError
from weaktri.gf import FieldCtx, splits_over
from weaktri.linalg import Mat, char_poly, invert
from weaktri.spaces import MatSpace
from weaktri.survey import gen_joint, gen_sym, gen_triangular
from weaktri.triang import is_triangularizable, space_weakly_triangularizable

from conftest import (
    counting_class_decisions,
    full_space,
    random_invertible,
    random_matrix,
    seeded,
    triangular_space,
)
from oracles import (
    is_upper_triangular,
    naive_conjugate,
    transpose_dual,
    triangularize,
    weakly_triangularizable_by_sweep,
)

SWEEP_FIELDS = {
    "GF(3)": FieldCtx(3),
    "GF(5)": FieldCtx(5),
    "GF(9)": FieldCtx(3, 2, (1, 0, 1)),
    "GF(2)": FieldCtx(2),
}


def random_space(field, n, dim, rng, with_identity):
    """A seeded random space of the given dimension, spanned from I first
    when ``with_identity``, and otherwise without I unless dim is n^2."""
    identity = Mat.identity(field, n)
    space = MatSpace.from_span([identity] if with_identity else [], field=field, n=n)
    while space.dim < dim:
        grown = MatSpace.from_span(list(space.basis) + [random_matrix(field, n, rng)])
        if with_identity or dim == n * n or grown.coords_of(identity) is None:
            space = grown
    return space


class TestSingleMatrix:
    def test_nonsplit_companion(self, gf3):
        companion = Mat(gf3, 2, (0, 2, 1, 0))  # of t^2 - 2
        assert not is_triangularizable(companion)

    def test_upper_triangular_always(self, gf3):
        rng = seeded(3)
        for _ in range(20):
            m = random_matrix(gf3, 3, rng)
            entries = [
                m.entry(i, j) if i <= j else 0 for i in range(3) for j in range(3)
            ]
            assert is_triangularizable(Mat(gf3, 3, entries))

    def test_nilpotent_block(self, gf5):
        block = Mat(gf5, 3, (0, 1, 0, 0, 0, 1, 0, 0, 0))
        assert is_triangularizable(block)


class TestTriangularize:
    def test_diagonal_input(self, gf3):
        m = Mat(gf3, 2, (1, 0, 0, 2))
        p = triangularize(m)
        assert is_upper_triangular(invert(p) * m * p)

    def test_lower_unit(self, gf3):
        m = Mat.unit(gf3, 2, 1, 0)
        p = triangularize(m)
        assert is_upper_triangular(invert(p) * m * p)

    def test_random_split_spectrum(self, gf3, gf5):
        rng = seeded(7)
        for trial in range(100):
            field = (gf3, gf5)[trial % 2]
            n = 2 + trial % 3
            upper = [
                rng.randrange(field.q) if i <= j else 0
                for i in range(n)
                for j in range(n)
            ]
            q = random_invertible(field, n, rng)
            m = q * Mat(field, n, upper) * invert(q)
            p = triangularize(m)
            assert invert(p) is not None
            assert is_upper_triangular(invert(p) * m * p)

    def test_rejects_nonsplit(self, gf3):
        with pytest.raises(PreconditionError):
            triangularize(Mat(gf3, 2, (0, 2, 1, 0)))


class TestSpaceVerdicts:
    def test_triangular_space_true(self, gf3):
        verdict = space_weakly_triangularizable(triangular_space(gf3, 3))
        assert verdict and verdict.certified
        assert verdict.checked == 729

    def test_sym2_false_with_first_witness(self, gf3):
        verdict = space_weakly_triangularizable(gen_sym(2, gf3))
        assert not verdict
        # lexicographically first counterexample in coefficient order
        assert verdict.witness.entries == (0, 1, 1, 1)
        assert not splits_over(char_poly(verdict.witness))

    def test_full_2x2_false(self, gf3):
        verdict = space_weakly_triangularizable(full_space(gf3, 2))
        assert not verdict
        assert verdict.witness.entries == (0, 1, 1, 1)

    def test_sample_mode_never_certifies_true(self, gf3):
        verdict = space_weakly_triangularizable(
            triangular_space(gf3, 2), mode="sample", count=50, seed=9
        )
        assert verdict.all_triangularizable and not verdict.certified

    def test_sample_mode_witness_is_definitive(self, gf3):
        verdict = space_weakly_triangularizable(
            gen_sym(2, gf3), mode="sample", count=500, seed=9
        )
        assert not verdict and verdict.certified

    def test_negative_sample_count_rejected(self, gf3):
        with pytest.raises(ValueError, match="sample count must be >= 0, got -3"):
            space_weakly_triangularizable(gen_sym(2, gf3), mode="sample", count=-3, seed=1)
        verdict = space_weakly_triangularizable(gen_sym(2, gf3), mode="sample", count=0)
        assert verdict.all_triangularizable and verdict.checked == 0

    def test_unknown_mode_rejected(self, gf3):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            space_weakly_triangularizable(gen_sym(2, gf3), mode="bogus")

    def test_sample_mode_deterministic(self, gf5):
        first = space_weakly_triangularizable(
            gen_sym(2, gf5), mode="sample", count=100, seed=123
        )
        second = space_weakly_triangularizable(
            gen_sym(2, gf5), mode="sample", count=100, seed=123
        )
        assert first == second

    def test_budget_guard(self, gf3):
        with pytest.raises(BudgetExceededError):
            space_weakly_triangularizable(triangular_space(gf3, 3), budget=100)


class TestInvariance:
    def test_conjugation_invariance(self, gf3):
        rng = seeded(13)
        spaces = [triangular_space(gf3, 2), gen_sym(2, gf3)]
        for space in spaces:
            base = bool(space_weakly_triangularizable(space))
            for _ in range(10):
                p = random_invertible(gf3, 2, rng)
                assert bool(space_weakly_triangularizable(naive_conjugate(space, p))) == base

    def test_transpose_dual_invariance(self, gf3):
        rng = seeded(17)
        spaces = [
            triangular_space(gf3, 2),
            gen_sym(2, gf3),
            MatSpace.from_span([random_matrix(gf3, 2, rng) for _ in range(2)]),
        ]
        for space in spaces:
            assert bool(space_weakly_triangularizable(transpose_dual(space))) == bool(
                space_weakly_triangularizable(space)
            )

    def test_joint_closure_small_blocks(self, gf3):
        m1 = MatSpace.from_span([Mat.identity(gf3, 1)])
        t2 = triangular_space(gf3, 2)
        rng = seeded(19)
        conj = gen_triangular(2, gf3, conjugate_by=random_invertible(gf3, 2, rng))
        for blocks in ([m1, m1], [m1, t2], [t2, m1], [m1, conj], [conj, m1]):
            joint = gen_joint(blocks)
            assert space_weakly_triangularizable(joint)


class TestClassSweep:
    """The exhaustive check decides one element per class and must answer
    exactly as the full sweep over every element."""

    @pytest.mark.parametrize("with_identity", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
    def test_matches_the_full_sweep_on_random_spaces(self, name, n, with_identity):
        field = SWEEP_FIELDS[name]
        rng = seeded(31 + n)
        for dim in range(int(with_identity), min(5, n * n) + 1):
            space = random_space(field, n, dim, rng, with_identity)
            if dim < n * n:
                assert (space.coords_of(Mat.identity(field, n)) is not None) == with_identity
            verdict = space_weakly_triangularizable(space)
            assert (bool(verdict), verdict.witness, verdict.checked) == (
                weakly_triangularizable_by_sweep(space)
            ), (name, n, dim)

    @pytest.mark.parametrize("name", sorted(SWEEP_FIELDS))
    def test_matches_the_full_sweep_on_flag_spaces(self, name):
        field = SWEEP_FIELDS[name]
        for space in (triangular_space(field, 2), gen_sym(2, field), full_space(field, 2)):
            verdict = space_weakly_triangularizable(space)
            assert (bool(verdict), verdict.witness, verdict.checked) == (
                weakly_triangularizable_by_sweep(space)
            )

    def test_t3_takes_one_char_poly_per_class(self, gf3, monkeypatch):
        calls = counting_class_decisions(monkeypatch)
        verdict = space_weakly_triangularizable(triangular_space(gf3, 3))
        assert verdict and verdict.checked == 729
        # the (3^5 - 1)/2 lines of T3 / F.I; the zero class, which splits,
        # is not decided
        assert len(calls) == len(set(calls)) == 121
