import pytest

import weaktri.adapted
import weaktri.flags
import weaktri.spaces
from weaktri.adapted import find_adapted_vector, range_constrained
from weaktri.errors import BudgetExceededError, PreconditionError, TheoremViolationError
from weaktri.flags import (
    Flag,
    _idempotent_of_line,
    extract_structure_maps,
    flag_space,
    recover_flag,
)
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, Vec, span_rows
from weaktri.spaces import MatSpace
from weaktri.survey import gen_sym, gen_triangular
from weaktri.triang import space_weakly_triangularizable

from conftest import full_space, random_invertible, seeded, triangular_space
from oracles import in_span, invariant_subspaces, is_chain


def conjugate_chain(p, field, n):
    return tuple(
        span_rows([p.col(j) for j in range(i)], field) for i in range(n + 1)
    )


class TestFlag:
    def test_standard(self, gf3):
        flag = Flag.standard(gf3, 3)
        assert flag.subspace(2) == ((1, 0, 0), (0, 1, 0))
        assert flag.chain()[0] == ()

    def test_dependent_basis_rejected(self, gf3):
        with pytest.raises(ValueError, match="dependent"):
            Flag(gf3, [(1, 0), (2, 0)])


class TestFlagSpace:
    def test_standard_is_triangular(self, gf3):
        assert flag_space(Flag.standard(gf3, 3)) == triangular_space(gf3, 3)

    def test_swapped_basis_is_lower_triangular(self, gf3):
        flag = Flag(gf3, [(0, 1), (1, 0)])
        lower = MatSpace.from_span(
            [Mat.unit(gf3, 2, 0, 0), Mat.unit(gf3, 2, 1, 0), Mat.unit(gf3, 2, 1, 1)]
        )
        assert flag_space(flag) == lower

    def test_random_flag_dimension_and_invariance(self, gf5):
        rng = seeded(3)
        for _ in range(10):
            p = random_invertible(gf5, 4, rng)
            flag = Flag(gf5, [p.col(j) for j in range(4)])
            space = flag_space(flag)
            assert space.dim == 10
            for i in range(1, 4):
                rows = flag.subspace(i)
                for b in space.basis:
                    for v in rows:
                        assert in_span(rows, b.apply(Vec(gf5, v)), gf5)


class TestInvariantSubspaces:
    def test_triangular_chain(self, gf3):
        found = invariant_subspaces(triangular_space(gf3, 3))
        assert len(found) == 4
        assert sorted(found, key=len) == sorted(Flag.standard(gf3, 3).chain(), key=len)

    def test_zero_space_everything(self, gf3):
        zero = MatSpace.from_span([], field=gf3, n=2)
        # 1 + 4 + 1 subspaces of F_3^2
        assert len(invariant_subspaces(zero)) == 6

    def test_scalar_line_everything(self, gf3):
        line = MatSpace.from_span([Mat.identity(gf3, 2)])
        assert len(invariant_subspaces(line)) == 6

    def test_standard_chain_is_everything_up_to_n4(self, gf3):
        # the invariant subspaces of the triangular algebra are exactly the
        # standard chain; checked exhaustively through n = 4
        for n in (2, 3, 4):
            found = invariant_subspaces(triangular_space(gf3, n))
            assert sorted(found, key=len) == sorted(
                Flag.standard(gf3, n).chain(), key=len
            )
            assert is_chain(found, gf3)


class TestIsChain:
    def test_chain(self, gf3):
        assert is_chain(Flag.standard(gf3, 3).chain(), gf3)

    def test_not_chain(self, gf3):
        assert not is_chain([((1, 0),), ((0, 1),)], gf3)


class TestBaseCase:
    # a 2x2 space takes one inductive step and lands on the n = 1 base
    def test_triangular(self, gf3):
        flag, trace = recover_flag(triangular_space(gf3, 2))
        assert flag.subspace(1) == ((1, 0),)
        assert trace.all_checks_pass()
        assert [rec.kind for rec in trace.levels] == ["inductive", "base1"]
        assert trace.levels[0].adapted_vector == (0, 1)

    def test_conjugate_equivariance(self, gf3, gf5):
        rng = seeded(7)
        for field in (gf3, gf5):
            for _ in range(10):
                p = random_invertible(field, 2, rng)
                space = triangular_space(field, 2).conjugate(p)
                flag, _ = recover_flag(space)
                assert flag.chain() == conjugate_chain(p, field, 2)
                assert flag_space(flag) == space

    def test_non_triangularizable_rejected(self, gf3):
        with pytest.raises(PreconditionError, match="witness"):
            recover_flag(gen_sym(2, gf3))

    def test_wrong_dimension_rejected(self, gf3):
        with pytest.raises(PreconditionError, match="dimension 3, got 1"):
            recover_flag(MatSpace.from_span([Mat.identity(gf3, 2)]))


def idempotent_at(space, x):
    """The trace-1 element of {u in S : im(u) <= F.x}, as recovery reads it."""
    return _idempotent_of_line(range_constrained(space, x), x, None)


class TestRank1Idempotent:
    def test_triangular_e2(self, gf3):
        t2 = triangular_space(gf3, 2)
        assert idempotent_at(t2, Vec(gf3, (0, 1))) == Mat.unit(gf3, 2, 1, 1)

    def test_triangular_3(self, gf3):
        t3 = triangular_space(gf3, 3)
        pi = idempotent_at(t3, Vec(gf3, (0, 0, 1)))
        assert pi * pi == pi
        assert pi.apply(Vec(gf3, (0, 0, 1))).entries == (0, 0, 1)

    def test_scalar_line_alarm(self, gf3):
        line = MatSpace.from_span([Mat.identity(gf3, 2)])
        with pytest.raises(TheoremViolationError):
            idempotent_at(line, Vec(gf3, (1, 0)))


class TestRecoverFlag:
    def test_standard_triangulars(self, gf3):
        for n in (1, 2, 3, 4):
            flag, trace = recover_flag(triangular_space(gf3, n))
            assert flag.chain() == Flag.standard(gf3, n).chain()
            assert trace.all_checks_pass()

    def test_round_trip_random_conjugates(self, gf3, gf5):
        rng = seeded(11)
        for field in (gf3, gf5):
            for n in (2, 3, 4):
                p = random_invertible(field, n, rng)
                space = triangular_space(field, n).conjugate(p)
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                assert flag.chain() == conjugate_chain(p, field, n)
                assert flag_space(flag) == space

    def test_one_range_line_per_level(self, gf3, monkeypatch):
        # one line per unit vector tried, counted through both bindings; the
        # adapted one's line is kept for the idempotent, not recomputed
        calls = []

        def count_through(module):
            real = module.range_constrained

            def counted(space, x):
                calls.append((space.n, x.entries))
                return real(space, x)

            monkeypatch.setattr(module, "range_constrained", counted)

        count_through(weaktri.adapted)
        count_through(weaktri.flags)
        # columns e2, ..., e5, e1: the top level tries all five unit vectors
        cycle = Mat.from_rows(gf3, [[int(i == (j + 1) % 5) for j in range(5)] for i in range(5)])
        for p in (random_invertible(gf3, 5, seeded(23)), cycle):
            calls.clear()
            space = triangular_space(gf3, 5).conjugate(p)
            _, trace = recover_flag(space, assume_weakly_triangularizable=True)
            levels = [rec for rec in trace.levels if rec.kind == "inductive"]
            assert [rec.n for rec in levels] == [5, 4, 3, 2]
            tried = [
                (rec.n, Vec.unit(gf3, rec.n, i).entries)
                for rec in levels
                for i in reversed(range(rec.adapted_vector.index(1), rec.n))
            ]
            assert calls == tried
        assert len(tried) > len(levels)

    def test_large_prime_field(self):
        # the adapted vector is a unit vector, so no level scans the
        # q^2 + q + 1 lines of F^3
        field = FieldCtx(1000003)
        p = random_invertible(field, 3, seeded(29))
        space = gen_triangular(3, field, conjugate_by=p)
        flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
        assert flag.chain() == conjugate_chain(p, field, 3)
        assert flag_space(flag) == space
        assert trace.all_checks_pass()

    def test_hyperplane_through_the_later_units(self, monkeypatch):
        # the flag's hyperplane span(e2, e3) holds e3 and the q lines
        # (0, 1, t) that a scan in projective_reps order meets before e1;
        # the unit vectors take at most 3 + 2 adaptedness tests over both
        # levels, under the cap n(n+1)/2 = 6
        field = FieldCtx(1000003)
        p = Mat.from_rows(field, [(0, 0, 1), (1, 0, 0), (0, 1, 0)])  # e2, e3, e1
        space = gen_triangular(3, field, conjugate_by=p)
        tries = []
        real = weaktri.adapted.range_constrained

        def capped(level_space, x):
            tries.append(x)
            if len(tries) > 6:
                raise AssertionError("recovery scans the lines for an adapted vector")
            return real(level_space, x)

        monkeypatch.setattr(weaktri.adapted, "range_constrained", capped)
        flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
        assert flag.chain() == conjugate_chain(p, field, 3)
        assert flag_space(flag) == space
        assert trace.levels[0].adapted_vector == (1, 0, 0)

    def test_unit_vector_is_the_first_adapted_line(self, gf3, gf5, gf9):
        # the scan in projective_reps order stays the reference: its first
        # adapted line is e_l for the largest l with e_l off the hyperplane
        rng = seeded(31)
        spaces = [
            triangular_space(field, n).conjugate(random_invertible(field, n, rng))
            for field in (gf3, gf5, gf9, FieldCtx(101))
            for n in (2, 3, 4, 5)
            for _ in range(3)
        ]
        for field in (gf3, gf5, gf9):
            for n in (3, 4):
                # columns e2, ..., en, e1: the hyperplane holds e2, ..., en
                cycle = Mat.from_rows(
                    field, [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
                )
                spaces.append(triangular_space(field, n).conjugate(cycle))
        for space in spaces:
            _, trace = recover_flag(space, assume_weakly_triangularizable=True)
            reference = find_adapted_vector(space)
            assert trace.levels[0].adapted_vector == reference.entries

    def test_wrong_dimension_rejected(self, gf3):
        with pytest.raises(PreconditionError, match="dimension"):
            recover_flag(full_space(gf3, 2))

    def test_non_triangularizable_rejected(self, gf3):
        # a 6-dimensional space of 3x3 matrices that is not weakly triangularizable
        bad = MatSpace.from_span(
            [Mat.unit(gf3, 3, i, j) for (i, j) in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 2)]]
        )
        assert bad.dim == 6
        with pytest.raises(PreconditionError, match="witness"):
            recover_flag(bad)

    def test_budget_forces_explicit_assumption(self, gf3):
        space = triangular_space(gf3, 4)
        with pytest.raises(BudgetExceededError):
            recover_flag(space, budget=100)
        flag, _ = recover_flag(space, budget=100, assume_weakly_triangularizable=True)
        assert flag.chain() == Flag.standard(gf3, 4).chain()

    def test_budget_bounds_the_one_sweep(self, gf3):
        # T2 over GF(3) has 3^3 = 27 elements
        space = triangular_space(gf3, 2)
        with pytest.raises(BudgetExceededError, match="27 elements exceed the sweep budget 26"):
            recover_flag(space, budget=26)
        flag, _ = recover_flag(space, budget=27)
        assert flag.chain() == Flag.standard(gf3, 2).chain()

    def test_trace_records_levels(self, gf3):
        _, trace = recover_flag(triangular_space(gf3, 4))
        assert [rec.n for rec in trace.levels] == [4, 3, 2, 1]
        assert trace.levels[0].kind == "inductive"
        assert trace.levels[-1].kind == "base1"
        text = trace.to_text()
        assert "adapted_vector" in text and "check" in text


class TestExtraction:
    # in the flag basis the space is T_n, so the precondition is the whole
    # check and the trace records no levels
    def test_standard_triangular(self, gf3):
        t3 = triangular_space(gf3, 3)
        trace = extract_structure_maps(t3, Flag.standard(gf3, 3))
        assert trace.all_checks_pass()
        assert trace.to_text() == "# trace ambient: 3\n# trace field: GF(3)\n"

    def test_recovered_conjugates(self, gf3, gf5):
        rng = seeded(17)
        for field in (gf3, gf5):
            for n in (3, 4, 5):
                p = random_invertible(field, n, rng)
                space = triangular_space(field, n).conjugate(p)
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                trace = extract_structure_maps(space, flag)
                assert trace.all_checks_pass()
                assert (trace.ambient, trace.levels) == (n, [])

    def test_small_n_rejected(self, gf3):
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 2), Flag.standard(gf3, 2))

    def test_wrong_flag_rejected(self, gf3):
        flag = Flag(gf3, [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 3), flag)

    def test_flag_of_a_smaller_space_rejected(self, gf3):
        # every basis matrix is upper triangular, but one dimension short
        t3 = triangular_space(gf3, 3)
        smaller = MatSpace.from_span(t3.basis[1:], field=gf3, n=3)
        with pytest.raises(PreconditionError):
            extract_structure_maps(smaller, Flag.standard(gf3, 3))

    def test_flag_of_another_size_rejected(self, gf3):
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 4), Flag.standard(gf3, 3))

    def test_two_inversions_per_extraction(self, gf3, monkeypatch):
        calls = []
        real = weaktri.spaces.invert
        monkeypatch.setattr(weaktri.spaces, "invert", lambda m: calls.append(m) or real(m))
        monkeypatch.setattr(weaktri.flags, "invert", lambda m: calls.append(m) or real(m))
        p = random_invertible(gf3, 3, seeded(29))
        space = triangular_space(gf3, 3).conjugate(p)
        flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
        calls.clear()
        assert extract_structure_maps(space, flag).all_checks_pass()
        # P^-1 for the flag basis, and its inverse inside the conjugation
        assert len(calls) == 2


class TestQuotientConsistency:
    def test_recovered_flag_chain_is_all_invariant_subspaces(self, gf3):
        rng = seeded(19)
        for n in (2, 3):
            p = random_invertible(gf3, n, rng)
            space = triangular_space(gf3, n).conjugate(p)
            flag, _ = recover_flag(space)
            found = invariant_subspaces(space)
            assert sorted(found, key=len) == sorted(flag.chain(), key=len)
            assert is_chain(found, gf3)
