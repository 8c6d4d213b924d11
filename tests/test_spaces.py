import itertools
import sys

import pytest

from weaktri import triang
from weaktri.cli import main
from weaktri.flags import Flag, flag_space
from weaktri.errors import BudgetExceededError, SpaceFileError
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, invert
from weaktri.spaces import MatSpace, check_budget, format_spacefile, parse_spacefile
from weaktri.survey import gen_triangular
from weaktri.triang import nonsplit_classes, space_weakly_triangularizable

from conftest import full_space, random_invertible, random_matrix, seeded, triangular_space
from oracles import all_elements, is_upper_triangular, naive_conjugate, transpose_dual


def unit(field, n, i, j):
    return Mat.unit(field, n, i, j)


class TestFromSpan:
    def test_canonicalizes_dependencies(self, gf3):
        e11 = unit(gf3, 2, 0, 0)
        mixed = e11 + unit(gf3, 2, 0, 1)
        space = MatSpace.from_span([e11, mixed])
        assert space.dim == 2
        assert space.basis == (e11, unit(gf3, 2, 0, 1))

    def test_empty_span(self, gf3):
        space = MatSpace.from_span([], field=gf3, n=2)
        assert space.dim == 0

    def test_noisy_respan_of_triangulars(self, gf3):
        rng = seeded(7)
        t2 = triangular_space(gf3, 2)
        mats = []
        for _ in range(6):
            coeffs = [rng.randrange(3) for _ in range(3)]
            mats.append(t2.combination(coeffs))
        mats.extend(t2.basis)
        assert MatSpace.from_span(mats) == t2

    def test_mixed_fields_rejected(self, gf3, gf5):
        with pytest.raises(ValueError):
            MatSpace.from_span([unit(gf3, 2, 0, 0), unit(gf5, 2, 0, 0)])

    def test_canonical_independent_of_spanning_set(self, gf5):
        rng = seeded(13)
        for _ in range(15):
            mats = [random_matrix(gf5, 2, rng) for _ in range(3)]
            space = MatSpace.from_span(mats, field=gf5, n=2)
            respan = [
                space.combination([rng.randrange(5) for _ in range(space.dim)])
                for _ in range(6)
            ] + list(space.basis)
            assert MatSpace.from_span(respan, field=gf5, n=2) == space


class TestMembership:
    def test_triangular_contains(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert t2.coords_of(unit(gf3, 2, 0, 1)) is not None
        assert t2.coords_of(unit(gf3, 2, 1, 0)) is None

    def test_scalar_line(self, gf3):
        line = MatSpace.from_span([Mat.identity(gf3, 2)])
        assert line.coords_of(Mat(gf3, 2, (2, 0, 0, 2))) is not None

    def test_coords_round_trip(self, gf5):
        rng = seeded(19)
        space = MatSpace.from_span([random_matrix(gf5, 3, rng) for _ in range(4)])
        for _ in range(10):
            coeffs = tuple(rng.randrange(5) for _ in range(space.dim))
            assert space.coords_of(space.combination(coeffs)) == coeffs


class TestEnumeration:
    """The full-sweep oracle that the class sweep is checked against."""

    def test_counts_and_distinctness(self, gf3):
        space = MatSpace.from_span([unit(gf3, 2, 0, 0), unit(gf3, 2, 1, 1)])
        elements = list(all_elements(space))
        assert len(elements) == 9
        assert len(set(elements)) == 9

    def test_zero_space_yields_zero(self, gf3):
        space = MatSpace.from_span([], field=gf3, n=2)
        assert list(all_elements(space)) == [Mat(gf3, 2, (0,) * 4)]

    def test_triangulars_all_triangular(self, gf3):
        t2 = triangular_space(gf3, 2)
        elements = list(all_elements(t2))
        assert len(elements) == 27
        assert all(is_upper_triangular(m) for m in elements)

    def test_lexicographic_order(self, gf3):
        space = MatSpace.from_span([unit(gf3, 2, 0, 0), unit(gf3, 2, 1, 1)])
        seen = [space.coords_of(m) for m in all_elements(space)]
        assert seen == sorted(seen)


def every_class(space):
    """(rank, element) for each class the exhaustive sweep of ``space``
    walks, in walk order: the sweep's own call of ``nonsplit_classes``,
    replayed with every class taken as non-split."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triang, "nonsplit_classes", lambda *args: calls.append(args) or iter(()))
        space_weakly_triangularizable(space)
        mp.setattr(triang, "splits_over", lambda f: False)
        (args,) = calls
        return [(rank, Mat(space.field, space.n, e)) for rank, e in nonsplit_classes(*args)]


class TestClasses:
    """The class walk of the exhaustive sweep: one element per nonzero class
    of M ~ cM + lambda I, by ``triang.nonsplit_classes``."""

    def spaces(self, gf3, gf5, gf9):
        rng = seeded(23)
        yield triangular_space(gf3, 2)
        yield triangular_space(gf9, 2)
        yield full_space(gf3, 2)
        yield MatSpace.from_span([], field=gf5, n=2)
        yield MatSpace.from_span([Mat.identity(gf5, 2)])
        for field in (gf3, gf5, gf9):
            for dim in (1, 2, 3):
                yield MatSpace.from_span([random_matrix(field, 2, rng) for _ in range(dim)])
                yield MatSpace.from_span(
                    [Mat.identity(field, 2)] + [random_matrix(field, 2, rng) for _ in range(dim)]
                )

    def test_rank_indexes_the_full_sweep(self, gf3, gf5, gf9):
        for space in self.spaces(gf3, gf5, gf9):
            elements = list(all_elements(space))
            ranks = []
            for rank, m in every_class(space):
                assert elements[rank] == m
                ranks.append(rank)
            assert ranks == sorted(set(ranks))

    def test_one_first_element_per_class(self, gf3, gf5, gf9):
        for space in self.spaces(gf3, gf5, gf9):
            F, n = space.field, space.n
            identity = Mat.identity(F, n)
            shifts = list(F.elements()) if space.coords_of(identity) is not None else [0]
            position = {m: i for i, m in enumerate(all_elements(space))}
            # the zero class, 0 or F.I, splits and is not walked
            covered = {Mat(F, n, F.axpy(lam, identity.entries)) for lam in shifts}
            for rank, m in every_class(space):
                members = {
                    Mat(F, n, F.axpy(c, m.entries, F.axpy(lam, identity.entries)))
                    for c in list(F.elements())[1:]
                    for lam in shifts
                }
                assert min(position[x] for x in members) == rank
                assert not members & covered
                covered |= members
            assert len(covered) == space.element_count()

    def test_class_counts(self, gf3):
        # (q^d - 1)/(q - 1) nonzero classes, d one less with I
        assert len(every_class(triangular_space(gf3, 3))) == 121
        assert len(every_class(full_space(gf3, 2))) == 13
        assert len(every_class(MatSpace.from_span([unit(gf3, 2, 0, 1)]))) == 1

    def test_budget_guard(self, gf3):
        with pytest.raises(BudgetExceededError):
            space_weakly_triangularizable(full_space(gf3, 2), budget=10)

    def test_budget_counts_what_each_sweep_yields(self, gf3, gf5, gf9):
        # the sweep is bounded by its classes, the zero class with the ones
        # it walks, on both sides of the bound
        for space in self.spaces(gf3, gf5, gf9):
            count = 1 + len(every_class(space))
            expected = space_weakly_triangularizable(space)
            assert space_weakly_triangularizable(space, budget=count) == expected
            message = f"^{count} classes exceed the sweep budget {count - 1}$"
            with pytest.raises(BudgetExceededError, match=message):
                space_weakly_triangularizable(space, budget=count - 1)


# GF(3^7) lies above the add-table limit, so its sums take the digit path
CONJUGATION_FIELDS = [
    (3,),
    (5,),
    (3, 2, (1, 0, 1)),
    (101,),
    (11,),
    (2,),
    (2, 2, (1, 1, 1)),
    (3, 7, (1, 0, 2, 0, 0, 0, 0, 1)),
]


class TestConjugation:
    # a conjugate P T_n P^-1 is the flag space of P's columns, checked
    # against the product formula P m P^-1
    def test_identity_fixes(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert gen_triangular(2, gf3, conjugate_by=Mat.identity(gf3, 2)) == t2
        assert naive_conjugate(t2, Mat.identity(gf3, 2)) == t2

    def test_swap_gives_lower_triangular(self, gf3):
        swap = Mat(gf3, 2, (0, 1, 1, 0))
        lower = MatSpace.from_span(
            [unit(gf3, 2, 0, 0), unit(gf3, 2, 1, 0), unit(gf3, 2, 1, 1)]
        )
        assert gen_triangular(2, gf3, conjugate_by=swap) == lower
        assert naive_conjugate(triangular_space(gf3, 2), swap) == lower

    def test_round_trip_random(self, gf5):
        rng = seeded(31)
        t3 = triangular_space(gf5, 3)
        for _ in range(25):
            p = random_invertible(gf5, 3, rng)
            space = gen_triangular(3, gf5, conjugate_by=p)
            assert space.dim == t3.dim
            assert naive_conjugate(space, invert(p)) == t3

    def test_singular_rejected(self, gf3):
        with pytest.raises(ValueError):
            gen_triangular(2, gf3, conjugate_by=Mat(gf3, 2, (0,) * 4))

    @pytest.mark.parametrize("args", CONJUGATION_FIELDS, ids=str)
    def test_equals_the_product_formula(self, args):
        field = FieldCtx(*args)
        rng = seeded(37)
        for n in range(1, 7 if field.q < 1000 else 4):
            t = triangular_space(field, n)
            for _ in range(3):
                p = random_invertible(field, n, rng)
                flag = Flag(field, [p.col(j) for j in range(n)])
                assert flag_space(flag) == naive_conjugate(t, p)

    def test_forms_no_matrix_product(self, gf5, monkeypatch):
        def refuse(self, other):
            raise AssertionError("flag_space formed a matrix product")

        p = random_invertible(gf5, 3, seeded(43))
        want = naive_conjugate(triangular_space(gf5, 3), p)
        monkeypatch.setattr(Mat, "__mul__", refuse)
        with pytest.raises(AssertionError):
            p * p
        assert gen_triangular(3, gf5, conjugate_by=p) == want


class TestTransposeDual:
    def test_triangulars_self_dual(self, gf3):
        for n in (2, 3, 4):
            t = triangular_space(gf3, n)
            assert transpose_dual(t) == t

    def test_single_unit(self, gf3):
        span = MatSpace.from_span([unit(gf3, 2, 0, 1)])
        assert transpose_dual(span) == span

    def test_involution_random(self, gf3):
        rng = seeded(37)
        for _ in range(30):
            space = MatSpace.from_span(
                [random_matrix(gf3, 3, rng) for _ in range(rng.randrange(1, 5))],
                field=gf3,
                n=3,
            )
            assert transpose_dual(transpose_dual(space)) == space

    def test_matches_reversal_conjugation(self, gf5):
        rng = seeded(41)
        n = 3
        rev = Mat(gf5, n, tuple(int(i + j == n - 1) for i in range(n) for j in range(n)))
        for _ in range(10):
            space = MatSpace.from_span([random_matrix(gf5, n, rng) for _ in range(3)])
            transposed = MatSpace.from_span(
                [Mat(gf5, n, [e for j in range(n) for e in b.col(j)]) for b in space.basis],
                field=gf5,
                n=n,
            )
            assert transpose_dual(space) == naive_conjugate(transposed, rev)


class TestSpaceFiles:
    def test_round_trip(self, gf9):
        rng = seeded(47)
        space = MatSpace.from_span([random_matrix(gf9, 3, rng) for _ in range(4)])
        again = parse_spacefile(format_spacefile(space))
        assert again == space
        assert format_spacefile(again) == format_spacefile(space)

    def test_comments_and_blank_lines(self, gf3):
        text = """
        # leading comment
        field GF(3)   # inline comment
        n 2
        dim 1
        mat 1 0 0 1
        """
        assert parse_spacefile(text).dim == 1

    def test_dependent_basis_canonicalized_by_default(self, gf3):
        text = "field GF(3)\nn 2\ndim 2\nmat 1 0 0 0\nmat 2 0 0 0\n"
        assert parse_spacefile(text).dim == 1

    def test_line_diagnostics(self, gf3):
        with pytest.raises(SpaceFileError, match="line 4"):
            parse_spacefile("field GF(3)\nn 2\ndim 1\nmat 1 0 x 1\n")
        with pytest.raises(SpaceFileError, match="column 3"):
            parse_spacefile("field GF(3)\nn 2\ndim 1\nmat 1 0 x 1\n")

    def test_entry_range_checked(self, gf3):
        with pytest.raises(SpaceFileError, match="outside"):
            parse_spacefile("field GF(3)\nn 2\ndim 1\nmat 1 0 5 1\n")

    def test_wrong_entry_count(self):
        with pytest.raises(SpaceFileError, match="expected 4 entries"):
            parse_spacefile("field GF(3)\nn 2\ndim 1\nmat 1 0 0\n")

    def test_dim_mismatch(self):
        with pytest.raises(SpaceFileError, match="dim says"):
            parse_spacefile("field GF(3)\nn 2\ndim 2\nmat 1 0 0 1\n")

    @pytest.mark.parametrize("tail", ["n 3", "field GF(5)", "field GF(3)", "dim 1"])
    def test_repeated_header_refused(self, tail):
        # a second header line is refused, even one that repeats the first,
        # rather than ignored (n) or obeyed (field)
        key = tail.split()[0]
        with pytest.raises(SpaceFileError, match=f"line 5: second '{key}' directive"):
            parse_spacefile(f"field GF(3)\nn 2\ndim 1\nmat 1 0 0 1\n{tail}\n")

    def test_missing_header(self):
        with pytest.raises(SpaceFileError):
            parse_spacefile("mat 1 0 0 1\n")

    def test_nonpositive_n_rejected(self):
        for n in (0, -2):
            with pytest.raises(SpaceFileError, match="line 2: matrix size"):
                parse_spacefile(f"field GF(3)\nn {n}\ndim 0\n")

    def test_cli_check_rejects_empty_space(self, tmp_path, capsys):
        path = tmp_path / "empty.space"
        path.write_text("field GF(3)\nn 0\ndim 0\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == ""

    def test_unknown_directive(self):
        with pytest.raises(SpaceFileError, match="unknown directive"):
            parse_spacefile("field GF(3)\nn 2\nrows 1\n")


def test_budget_message_of_a_count_too_long_to_print():
    # 3^10000 has 4772 digits, past the default int-to-str limit of 4300
    count = 3**10000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        message = f"^at least 2\\^{count.bit_length() - 1} steps exceed 10$"
        with pytest.raises(BudgetExceededError, match=message):
            check_budget(count, 10, "steps exceed")
    finally:
        sys.set_int_max_str_digits(saved)
