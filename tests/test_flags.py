import re

import pytest

import weaktri.flags
from weaktri.adapted import find_adapted_vector
from weaktri.errors import BudgetExceededError, PreconditionError, TheoremViolationError
from weaktri.flags import (
    Flag,
    _trace_form_radical,
    extract_structure_maps,
    flag_space,
    recover_flag,
)
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, span_rows
from weaktri.spaces import MatSpace
from weaktri.survey import (
    CampaignSpec,
    gen_random,
    gen_sl,
    gen_sym,
    gen_triangular,
    run_campaign,
)
from weaktri.triang import space_weakly_triangularizable

from conftest import (
    counting_class_decisions,
    counting_rrefs,
    cycle,
    full_space,
    gf2_non_flag_hit,
    random_invertible,
    seeded,
    triangular_space,
)
from oracles import (
    apply,
    generates_by_containment,
    gram_radical,
    in_span,
    invariant_subspaces,
    is_chain,
)


def conjugate_chain(p, field, n):
    return tuple(
        span_rows([p.col(j) for j in range(i)], field) for i in range(n + 1)
    )


class TestFlag:
    def test_standard(self, gf3):
        flag = Flag.standard(gf3, 3)
        assert flag.chain()[2] == ((1, 0, 0), (0, 1, 0))
        assert flag.chain()[0] == ()

    def test_dependent_basis_rejected(self, gf3):
        with pytest.raises(ValueError, match="dependent"):
            Flag(gf3, [(1, 0), (2, 0)])

    def test_empty_basis_rejected(self, gf3):
        # n = 0, which every other entry point refuses as a matrix size
        with pytest.raises(ValueError, match="empty"):
            Flag(gf3, [])

    def test_basis_vector_of_the_wrong_length_rejected(self, gf3):
        with pytest.raises(ValueError, match="wrong length"):
            Flag(gf3, [(1, 0), (0, 1, 0)])

    def test_two_bases_of_one_flag_are_one_flag(self, gf3, gf5):
        # e_2 = (1, 1) = 2 e_1' + e_2' with e_1' = (2, 0): same V_1, same V_2
        one, other = Flag(gf3, [(1, 0), (0, 1)]), Flag(gf3, [(2, 0), (1, 1)])
        assert one.basis != other.basis
        assert one == other and hash(one) == hash(other)
        assert flag_space(one) == flag_space(other)
        assert one != Flag(gf3, [(0, 1), (1, 0)])
        assert one != Flag.standard(gf5, 2) and one != Flag.standard(gf3, 3)
        assert len({one, other, Flag.standard(gf3, 2)}) == 1


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
                rows = flag.chain()[i]
                for b in space.basis:
                    for v in rows:
                        assert in_span(rows, apply(b, v), gf5)

    def test_one_inversion_one_kernel_and_no_respan(self, gf5, monkeypatch):
        # the constraint kernel is already canonical, so nothing is re-reduced
        calls = []

        def counting(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return counted

        for name in ("invert", "kernel_basis"):
            monkeypatch.setattr(weaktri.flags, name, counting(name, getattr(weaktri.flags, name)))
        from_span = counting("from_span", MatSpace.from_span.__func__)
        monkeypatch.setattr(MatSpace, "from_span", classmethod(from_span))
        rng = seeded(5)
        for n in (1, 2, 3, 4, 5):
            p = random_invertible(gf5, n, rng)
            flag = Flag(gf5, [p.col(j) for j in range(n)])
            calls.clear()
            assert flag_space(flag).dim == n * (n + 1) // 2
            assert sorted(calls) == ["invert", "kernel_basis"]

    def test_kernel_of_the_wrong_dimension_is_an_alarm(self, gf3, monkeypatch):
        kernel_basis = weaktri.flags.kernel_basis
        monkeypatch.setattr(weaktri.flags, "kernel_basis", lambda *a, **k: kernel_basis(*a, **k)[1:])
        with pytest.raises(TheoremViolationError, match="^flag space has the wrong dimension$"):
            flag_space(Flag.standard(gf3, 3))


class TestRadicalChain:
    # V_(k-1) = N V_k, built from column blocks of the radical, must be the
    # RREF of every product u v, formed one matrix and one vector at a time
    def test_matches_the_product_oracle(self, gf3, gf5, gf9):
        rng = seeded(53)
        for field in (gf3, gf5, gf9, FieldCtx(101)):
            for n in (1, 2, 3, 4, 5):
                space = gen_triangular(n, field, conjugate_by=random_invertible(field, n, rng))
                radical = _trace_form_radical(space)
                chain = [span_rows(Mat.identity(field, n).rows(), field)]
                while len(chain) <= n:
                    chain.append(
                        span_rows([apply(u, v) for u in radical for v in chain[-1]], field)
                    )
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                assert flag.chain() == tuple(reversed(chain))


class TestAnnihilator:
    # the radical read off the canonical basis is checked against the Gram
    # matrix's kernel: isotropy of S^perp holds exactly when the Gram radical
    # has dimension n(n-1)/2, and then the two span the same space
    def test_matches_the_gram_radical(self, gf3, gf9):
        rng = seeded(61)
        fields = (FieldCtx(2), gf3, gf9, FieldCtx(101))
        spaces = [gf2_non_flag_hit()] + [gen_sl(2, field) for field in fields]
        for field in fields:
            for n in (1, 2, 3, 4, 5):
                spaces += [
                    gen_triangular(n, field),
                    gen_triangular(n, field, conjugate_by=random_invertible(field, n, rng)),
                    gen_sym(n, field),
                ]
                spaces += [gen_random(n, field, n * (n + 1) // 2, seed) for seed in range(3)]
        outcomes = set()
        for space in spaces:
            F, n = space.field, space.n
            gram = gram_radical(space)
            radical = _trace_form_radical(space)
            assert (radical is not None) == (len(gram) == n * (n - 1) // 2)
            if radical is not None:
                assert MatSpace.from_span(radical, field=F, n=n) == MatSpace.from_span(
                    gram, field=F, n=n
                )
            outcomes.add((F.p == 2, radical is not None))
        # both verdicts occur, in odd characteristic and over GF(2); e.g.
        # S^perp of the symmetric matrices is the skew-symmetric ones, not
        # isotropic in odd characteristic and inside S over GF(2)
        assert outcomes == {(False, True), (False, False), (True, True), (True, False)}


class TestGate:
    # the gate is flag_space(flag) == space on the space the flag keeps;
    # the containment oracle decides the same equality with no kernel
    def test_agrees_with_the_flag_space(self, gf3, gf5, gf9):
        rng = seeded(67)
        for field in (gf3, gf5, gf9, FieldCtx(101)):
            for n in (1, 2, 3, 4):
                flags = [
                    Flag(field, [p.col(j) for j in range(n)])
                    for p in (random_invertible(field, n, rng) for _ in range(3))
                ]
                for flag in flags:
                    space = flag_space(flag)
                    candidates = [flag_space(other) for other in flags]
                    for i, b in enumerate(space.basis):
                        # one basis entry changed
                        entries = list(b.entries)
                        k = rng.randrange(n * n)
                        entries[k] = field.add(entries[k], 1)
                        changed = Mat(field, n, entries)
                        basis = space.basis[:i] + (changed,) + space.basis[i + 1 :]
                        candidates.append(MatSpace.from_span(basis, field=field, n=n))
                    # a flag not yet asked: the first query builds its
                    # space, every later one reads the space it keeps
                    fresh = Flag(field, flag.basis)
                    for candidate in candidates:
                        expected = generates_by_containment(fresh, candidate)
                        for _ in range(2):
                            assert (flag_space(fresh) == candidate) == expected

    def test_recovery_runs_n_plus_2_eliminations_and_keeps_them(self, gf3, gf5, monkeypatch):
        # one rref per chain level V_(n-1), ..., V_0, one to invert the flag
        # basis and one for the flag space's kernel: the radical reads the
        # canonical rows as the RREF they are, and the flag keeps its chain
        # and its space, so asking for either again reduces nothing
        calls = counting_rrefs(monkeypatch)
        rng = seeded(71)
        for field in (gf3, gf5):
            for n in (1, 2, 3, 4, 5):
                p = random_invertible(field, n, rng)
                space = gen_triangular(n, field, conjugate_by=p)
                expected = conjugate_chain(p, field, n)
                calls.clear()
                flag, trace = recover_flag(space)
                assert trace.all_checks_pass()
                assert len(calls) == n + 2
                calls.clear()
                chain = flag.chain()
                kept = flag_space(flag)
                if n >= 3:
                    assert extract_structure_maps(space, flag).all_checks_pass()
                assert calls == []
                assert chain == expected
                assert flag_space(flag) is kept and kept == space

    def test_the_gate_never_fails_first(self, gf3, gf5):
        # the gate is implied by the checks before it (see _flag_by_gate),
        # so on no optimal space is it the first check to fail: random flag
        # spaces, random spaces of dimension n(n+1)/2 and every hit, flag or
        # not, of the n=3 GF(2) dim-6 campaign on I
        gf2 = FieldCtx(2)
        rng = seeded(73)
        spaces = []
        for field in (gf2, gf3, gf5):
            for n in (2, 3):
                spaces += [
                    gen_triangular(n, field, conjugate_by=random_invertible(field, n, rng))
                    for _ in range(10)
                ]
                spaces += [gen_random(n, field, n * (n + 1) // 2, seed) for seed in range(60)]
        report = run_campaign(
            CampaignSpec(n=3, field=gf2, dim=6, constraints=(Mat.identity(gf2, 3),))
        )
        assert (report.hit_count, sum(h.non_flag for h in report.hits)) == (35, 14)
        spaces += [hit.space for hit in report.hits]
        first_failures = []
        for space in spaces:
            try:
                flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
            except TheoremViolationError as exc:
                failed = [check for check, ok in exc.trace.checks.items() if not ok]
                assert len(failed) == 1 and failed[0] != "flag_space_equals_input"
                first_failures.append(failed[0])
                continue
            assert trace.checks["flag_space_equals_input"]
            assert generates_by_containment(flag, space)
            first_failures.append(None)
        # flag spaces pass, and the radical and chain checks both refuse
        assert {None, "radical_dim", "chain_steps"} <= set(first_failures)


class TestKeptChain:
    # a recovered flag keeps the chain recovery derived, with no re-reduction:
    # it must be the chain that its basis spans, which is P's column chain
    def test_equals_the_chain_of_its_basis(self, gf3, gf5, gf9):
        rng = seeded(79)
        for field in (FieldCtx(2), gf3, gf5, gf9):
            for n in (1, 2, 3, 4, 5):
                p = random_invertible(field, n, rng)
                space = gen_triangular(n, field, conjugate_by=p)
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                rebuilt = Flag(field, flag.basis)
                assert flag.chain() == rebuilt.chain() == conjugate_chain(p, field, n)
                assert flag == rebuilt and hash(flag) == hash(rebuilt)
                assert [flag.basis_matrix().col(j) for j in range(n)] == list(flag.basis)


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
    # a 2x2 space has a one-dimensional radical, the line of E_12
    def test_triangular(self, gf3):
        flag, trace = recover_flag(triangular_space(gf3, 2))
        assert flag.chain()[1] == ((1, 0),)
        assert trace.all_checks_pass()
        assert trace.ambient == 2
        assert trace.to_text().splitlines()[2] == "level 1: n=2 kind=radical"

    def test_conjugate_equivariance(self, gf3, gf5):
        rng = seeded(7)
        for field in (gf3, gf5):
            for _ in range(10):
                p = random_invertible(field, 2, rng)
                space = gen_triangular(2, field, conjugate_by=p)
                flag, _ = recover_flag(space)
                assert flag.chain() == conjugate_chain(p, field, 2)
                assert flag_space(flag) == space

    def test_non_triangularizable_rejected(self, gf3):
        with pytest.raises(PreconditionError, match="witness"):
            recover_flag(gen_sym(2, gf3))

    def test_wrong_dimension_rejected(self, gf3):
        with pytest.raises(PreconditionError, match="dimension 3, got 1"):
            recover_flag(MatSpace.from_span([Mat.identity(gf3, 2)]))


class TestRecoverFlag:
    def test_standard_triangulars(self, gf3):
        for n in (1, 2, 3, 4):
            flag, trace = recover_flag(triangular_space(gf3, n))
            assert flag == Flag.standard(gf3, n)
            assert trace.all_checks_pass()

    def test_round_trip_random_conjugates(self, gf3, gf5):
        rng = seeded(11)
        for field in (gf3, gf5):
            for n in (2, 3, 4):
                p = random_invertible(field, n, rng)
                space = gen_triangular(n, field, conjugate_by=p)
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                assert flag.chain() == conjugate_chain(p, field, n)
                assert flag_space(flag) == space

    def test_large_prime_field(self):
        field = FieldCtx(1000003)
        p = random_invertible(field, 3, seeded(29))
        space = gen_triangular(3, field, conjugate_by=p)
        flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
        assert flag.chain() == conjugate_chain(p, field, 3)
        assert flag_space(flag) == space
        assert trace.all_checks_pass()

    def test_hyperplane_through_the_later_units(self, monkeypatch):
        # recovery is linear algebra over the space's coordinates: it never
        # walks the field's elements, not even when the flag's hyperplane
        # holds the later unit vectors, so q = 1000003 costs nothing extra
        field = FieldCtx(1000003)
        conjugators = [cycle(field, 3), cycle(field, 4)]
        conjugators += [random_invertible(field, n, seeded(n)) for n in (2, 3, 4)]
        spaces = [gen_triangular(p.n, field, conjugate_by=p) for p in conjugators]

        def no_scan(self):
            raise AssertionError("recovery walks the elements of the field")

        monkeypatch.setattr(FieldCtx, "elements", no_scan)
        for p, space in zip(conjugators, spaces):
            flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
            assert flag.chain() == conjugate_chain(p, field, p.n)
            assert trace.all_checks_pass()

    def test_unit_vector_is_the_first_adapted_line(self, gf3, gf5, gf9):
        # on a flag space the scan in projective_reps order stops at e_l for
        # the largest l with e_l off the recovered hyperplane
        rng = seeded(31)
        spaces = [
            gen_triangular(n, field, conjugate_by=random_invertible(field, n, rng))
            for field in (gf3, gf5, gf9, FieldCtx(101))
            for n in (2, 3, 4, 5)
            for _ in range(3)
        ]
        spaces += [
            gen_triangular(n, field, conjugate_by=cycle(field, n))
            for field in (gf3, gf5, gf9)
            for n in (3, 4)
        ]
        for space in spaces:
            F, n = space.field, space.n
            flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
            hyperplane = flag.chain()[n - 1]
            units = Mat.identity(F, n).rows()
            last = max(i for i in range(n) if not in_span(hyperplane, units[i], F))
            assert find_adapted_vector(space) == units[last]

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

    def test_the_gate_decides_without_a_sweep(self, gf3, gf5, monkeypatch):
        # a space that passes the gate is a conjugate of T_n, so none of its
        # 5^10 elements is swept and no budget applies
        sweeps = counting_class_decisions(monkeypatch)
        p = random_invertible(gf5, 4, seeded(41))
        space = gen_triangular(4, gf5, conjugate_by=p)
        flag, _ = recover_flag(space)
        assert flag.chain() == conjugate_chain(p, gf5, 4)
        flag, _ = recover_flag(triangular_space(gf3, 4), budget=100)
        assert flag == Flag.standard(gf3, 4)
        assert len(sweeps) == 0

    def test_budget_bounds_the_sweep_of_a_failed_gate(self, gf3, monkeypatch):
        # the symmetric 2x2 matrices over GF(3): 3^3 = 27 elements in
        # 1 + (3^2 - 1)/2 = 5 classes (I is in the space), gate fails
        space = gen_sym(2, gf3)
        with pytest.raises(BudgetExceededError, match="5 classes exceed the sweep budget 4"):
            recover_flag(space, budget=4)
        with pytest.raises(PreconditionError, match=re.escape("witness Mat[[0 1] [1 1]]")):
            recover_flag(space, budget=5)
        sweeps = counting_class_decisions(monkeypatch)
        with pytest.raises(TheoremViolationError):
            recover_flag(space, assume_weakly_triangularizable=True)
        assert len(sweeps) == 0

    def test_trace_records_levels(self, gf3):
        _, trace = recover_flag(triangular_space(gf3, 4))
        assert trace.to_text().splitlines()[2:] == [
            "level 1: n=4 kind=radical",
            "  check chain_basis: pass",
            "  check chain_steps: pass",
            "  check flag_space_equals_input: pass",
            "  check radical_dim: pass",
        ]


class TestRecoveryContract:
    # on any space of dimension n(n+1)/2 recovery returns a flag that passes
    # the gate or raises TheoremViolationError, which the survey reads as a
    # non-flag hit over characteristic 2; no other exception escapes
    def test_seeded_random_spaces(self, gf3, gf9):
        outcomes = []
        for field in (FieldCtx(2), gf3, gf9):
            for n in (2, 3):
                for seed in range(40):
                    space = gen_random(n, field, n * (n + 1) // 2, seed)
                    try:
                        flag, trace = recover_flag(space, assume_weakly_triangularizable=True)
                    except TheoremViolationError as exc:
                        assert not exc.trace.all_checks_pass()
                        outcomes.append("alarm")
                        continue
                    assert flag_space(flag) == space and trace.all_checks_pass()
                    assert space_weakly_triangularizable(space)
                    outcomes.append("flag")
        assert {"flag", "alarm"} <= set(outcomes)


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
                space = gen_triangular(n, field, conjugate_by=p)
                flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
                trace = extract_structure_maps(space, flag)
                assert trace.all_checks_pass()
                assert (trace.ambient, trace.checks) == (n, {})

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
        # a flag's constraint rows have n^2 entries: one of another size
        # must be refused, not dotted against a truncated basis matrix
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 4), Flag.standard(gf3, 3))
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 3), Flag.standard(gf3, 4))

    def test_flag_over_another_field_rejected(self, gf3, gf5):
        # the standard flag's constraints vanish on T_3 over either field
        with pytest.raises(PreconditionError):
            extract_structure_maps(triangular_space(gf3, 3), Flag.standard(gf5, 3))

    def test_space_of_the_wrong_dimension_rejected(self, gf3):
        t3 = triangular_space(gf3, 3)
        larger = MatSpace.from_span(t3.basis + (Mat.unit(gf3, 3, 2, 0),), field=gf3, n=3)
        for space in (larger, full_space(gf3, 3)):
            with pytest.raises(PreconditionError):
                extract_structure_maps(space, Flag.standard(gf3, 3))

    def test_one_inversion_per_extraction(self, gf3, monkeypatch):
        calls = []
        real = weaktri.flags.invert
        monkeypatch.setattr(weaktri.flags, "invert", lambda m: calls.append(m) or real(m))
        p = random_invertible(gf3, 3, seeded(29))
        space = gen_triangular(3, gf3, conjugate_by=p)
        flag, _ = recover_flag(space, assume_weakly_triangularizable=True)
        calls.clear()
        # recovery's gate built the flag's space, and the flag keeps it
        assert extract_structure_maps(space, flag).all_checks_pass()
        assert calls == []
        # a fresh flag builds it: the one inversion of its basis
        assert extract_structure_maps(space, Flag(gf3, flag.basis)).all_checks_pass()
        assert len(calls) == 1


class TestQuotientConsistency:
    def test_recovered_flag_chain_is_all_invariant_subspaces(self, gf3):
        rng = seeded(19)
        for n in (2, 3):
            p = random_invertible(gf3, n, rng)
            space = gen_triangular(n, gf3, conjugate_by=p)
            flag, _ = recover_flag(space)
            found = invariant_subspaces(space)
            assert sorted(found, key=len) == sorted(flag.chain(), key=len)
            assert is_chain(found, gf3)
