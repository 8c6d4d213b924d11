import random

import pytest
from oracles import monic_polys

from weaktri import pencils
from weaktri.cli import main
from weaktri.errors import BudgetExceededError, PreconditionError, TheoremViolationError
from weaktri.gf import FieldCtx, Poly
from weaktri.pencils import char2_odd_counterexample, pencil_splits_all, verify_pencil_division

GF9 = (3, 2, (1, 0, 1))
GF4 = (2, 2, (1, 1, 1))
GF8 = (2, 3, (1, 1, 0, 1))


def _all_pairs(field, degree):
    """Every monic (p, q) of degrees (d, d-1), p outer and q inner."""
    return [(p, q) for p in monic_polys(field, degree) for q in monic_polys(field, degree - 1)]


@pytest.mark.parametrize(
    "field_args, degree, expected",
    [
        ((5,), 3, (3125, 75, 0)),
        ((3,), 4, (2187, 30, 0)),
        ((7,), 3, (16807, 196, 0)),
        (GF9, 2, (729, 81, 0)),
    ],
)
def test_split_pencils_force_divisibility(field_args, degree, expected):
    report = verify_pencil_division(FieldCtx(*field_args), degree)
    assert (report.pairs_checked, report.hypothesis_hits, len(report.violations)) == expected
    assert report.ok


def test_budget_bounds_the_pairs(capsys):
    # 3^7 = 2187 monic (p, q) pairs of degrees (4, 3) over GF(3)
    with pytest.raises(BudgetExceededError, match="^2187 pairs exceed budget 2186$"):
        verify_pencil_division(FieldCtx(3), 4, budget=2186)
    report = verify_pencil_division(FieldCtx(3), 4, budget=2187)
    assert (report.pairs_checked, report.hypothesis_hits, len(report.violations)) == (2187, 30, 0)
    assert main(["lemma31", "--field", "GF(3)", "--degree", "4", "--budget", "2186"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 2187 pairs exceed budget 2186\n"


def test_hopeless_pair_counts_are_refused_uncomputed(capsys):
    # 3^(2d-1) >= 2^(2d-1) decides without computing the count; the
    # degree-10^7 count alone would take seconds
    for degree in (5000, 10_000_000):
        assert main(["lemma31", "--field", "GF(3)", "--degree", str(degree)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"budget exceeded: at least 2^{2 * degree - 1} pairs exceed budget 268435456\n"
        )


def test_pair_count_lower_bound_both_sides():
    # 3^4097 pairs at degree 2049, bounded below by 2^4097: a budget under
    # the bound is refused on it alone, one at the bound meets the count
    gf3 = FieldCtx(3)
    below = f"^at least 2\\^4097 pairs exceed budget {2**4097 - 1}$"
    with pytest.raises(BudgetExceededError, match=below):
        verify_pencil_division(gf3, 2049, budget=2**4097 - 1)
    with pytest.raises(BudgetExceededError, match=f"^{3**4097} pairs exceed budget {2**4097}$"):
        verify_pencil_division(gf3, 2049, budget=2**4097)
    # a bound below 2^4096 is never used: the count is shown exactly
    with pytest.raises(BudgetExceededError, match=f"^{3**4095} pairs exceed budget 0$"):
        verify_pencil_division(gf3, 2048, budget=0)


def test_negative_budget_is_refused(capsys):
    with pytest.raises(PreconditionError, match="^budget must be >= 0, got -1$"):
        verify_pencil_division(FieldCtx(3), 2, budget=-1)
    assert main(["lemma31", "--field", "GF(3)", "--degree", "2", "--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be >= 0, got -1\n"
    # a zero budget is a budget: every sweep exceeds it
    with pytest.raises(BudgetExceededError, match="^27 pairs exceed budget 0$"):
        verify_pencil_division(FieldCtx(3), 2, budget=0)
    assert main(["lemma31", "--field", "GF(3)", "--degree", "2", "--budget", "0"]) == 4
    assert capsys.readouterr().err == "budget exceeded: 27 pairs exceed budget 0\n"


# packed slots of 2 to 5 bits, with 1 to 3 digits per coefficient
@pytest.mark.parametrize(
    "field_args, degree",
    [
        ((3,), 1), ((3,), 2), ((3,), 3), ((5,), 2), (GF9, 2), (GF4, 2), (GF4, 3),
        ((7,), 2), ((11,), 2), (GF8, 2),
    ],
)
def test_sweep_agrees_with_every_pencil_decided(field_args, degree):
    field = FieldCtx(*field_args)
    pairs = _all_pairs(field, degree)
    report = verify_pencil_division(field, degree)
    hits = sum(pencil_splits_all(p, q) for p, q in pairs)
    assert (report.pairs_checked, report.hypothesis_hits) == (len(pairs), hits)


@pytest.mark.parametrize("field_args, degree", [((3,), 3), ((5,), 2), (GF9, 2)])
def test_only_the_hits_are_divided(field_args, degree, monkeypatch):
    field = FieldCtx(*field_args)
    pairs = _all_pairs(field, degree)
    hits = [(p.coeffs, q.coeffs) for p, q in pairs if pencil_splits_all(p, q)]
    divided = []
    divides = pencils._divides

    def counted(field, q, p):
        divided.append((p, q))
        return divides(field, q, p)

    monkeypatch.setattr(pencils, "_divides", counted)
    report = verify_pencil_division(field, degree)
    assert len(divided) == report.hypothesis_hits
    assert divided == hits


# degree 1 divides by q = 1; GF4 has -1 = 1
@pytest.mark.parametrize(
    "field_args, degree",
    [((3,), 2), ((3,), 3), ((5,), 2), (GF9, 2), ((3,), 1), ((7,), 2), (GF4, 2)],
)
def test_violations_come_in_pair_order(field_args, degree, monkeypatch):
    # with every pencil declared split, each pair with q not dividing p violates
    monkeypatch.setattr(pencils, "splits_coeffs", lambda field, coeffs: True)
    field = FieldCtx(*field_args)
    pairs = _all_pairs(field, degree)
    expected = [(p.coeffs, q.coeffs) for p, q in pairs if not (p % q).is_zero]
    report = verify_pencil_division(field, degree)
    assert (report.pairs_checked, report.hypothesis_hits) == (len(pairs), len(pairs))
    assert report.violations == expected
    lines = report.summary().splitlines()
    assert lines[0] == f"{len(pairs)} pairs, {len(pairs)} with split pencils, {len(expected)} violations"
    assert lines[1:] == [
        f"violation p={','.join(map(str, p))} q={','.join(map(str, q))}" for p, q in expected
    ]


@pytest.mark.parametrize(
    "field_args", [(101,), GF9, (5, 2, (3, 0, 1)), (2,)], ids=["GF101", "GF9", "GF25", "GF2"]
)
def test_one_step_division_agrees_with_poly_remainder(field_args):
    # random monic q of degree 1..7 against p = (t + c)*q, which it divides,
    # and against random monic p of one degree more
    field = FieldCtx(*field_args)
    rng = random.Random(43)
    verdicts = []
    for _ in range(200):
        degree = rng.randrange(2, 9)
        q = Poly(field, [rng.randrange(field.q) for _ in range(degree - 1)] + [1])
        multiple = q * Poly(field, (rng.randrange(field.q), 1))
        p = Poly(field, [rng.randrange(field.q) for _ in range(degree)] + [1])
        for f in (multiple, p):
            verdict = pencils._divides(field, q.coeffs, f.coeffs)
            assert verdict == (f % q).is_zero, (f, q)
            verdicts.append(verdict)
    assert verdicts[::2] == [True] * 200
    assert False in verdicts


def test_each_monic_polynomial_is_decided_once(monkeypatch):
    calls = []
    splits_coeffs = pencils.splits_coeffs

    def counted(field, coeffs):
        calls.append(coeffs)
        return splits_coeffs(field, coeffs)

    monkeypatch.setattr(pencils, "splits_coeffs", counted)
    report = verify_pencil_division(FieldCtx(7), 3)
    assert report.pairs_checked == 7**5
    assert len(calls) <= 7**3


@pytest.mark.parametrize("degree", [3, 5])
def test_char2_counterexample_confirms(degree):
    report = char2_odd_counterexample(degree)
    assert report.pencil_splits and not report.divides


def test_unconfirmed_counterexample_is_an_alarm(monkeypatch):
    monkeypatch.setattr(pencils, "pencil_splits_all", lambda p, q: False)
    with pytest.raises(TheoremViolationError, match="^degree-3 counterexample over GF\\(2\\) failed to confirm$"):
        char2_odd_counterexample(3)


def test_counterexample_needs_odd_degree():
    with pytest.raises(ValueError):
        char2_odd_counterexample(4)


def test_pencil_argument_checks(gf3):
    p = Poly(gf3, (0, 0, 1))
    with pytest.raises(ValueError, match="monic"):
        pencil_splits_all(p, Poly(gf3, (0, 2)))
    with pytest.raises(ValueError, match="deg q"):
        pencil_splits_all(p, p)
    # t^2 - lambda*t = t(t - lambda) splits for every lambda
    assert pencil_splits_all(p, Poly.x(gf3))
