import pytest

from weaktri.cli import main
from weaktri.errors import BudgetExceededError
from weaktri.gf import FieldCtx, Poly
from weaktri.pencils import char2_odd_counterexample, pencil_splits_all, verify_pencil_division


@pytest.mark.parametrize(
    "field_args, degree, expected",
    [((5,), 3, (3125, 75, 0)), ((3,), 4, (2187, 30, 0))],
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


@pytest.mark.parametrize("degree", [3, 5])
def test_char2_counterexample_confirms(degree):
    report = char2_odd_counterexample(degree)
    assert report.pencil_splits and not report.divides


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
