"""Gaussian binomials, and the oracle's subspace stream, whose constrained
form filters the plain stream by containment."""

import pytest

from weaktri.errors import PreconditionError
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat, span_rows
from weaktri.survey import CampaignSpec, grassmann_count, run_campaign

from oracles import enumerate_subspaces

CASES = [(3, 1, (3,)), (3, 2, (3,)), (4, 2, (3,)), (4, 2, (5,)), (3, 2, (3, 2, (1, 0, 1)))]


def _check_stream(subspaces, m, k, field, expected, must_contain=()):
    assert len(subspaces) == expected
    assert len(set(subspaces)) == expected
    for rows in subspaces:
        assert len(rows) == k and all(len(r) == m for r in rows)
        assert span_rows(rows, field) == rows  # canonical RREF basis
        for v in must_contain:
            assert span_rows(list(rows) + [v], field) == rows


@pytest.mark.parametrize("m, k, field_args", CASES)
def test_plain_stream_matches_gaussian_binomial(m, k, field_args):
    field = FieldCtx(*field_args)
    subspaces = list(enumerate_subspaces(m, k, field))
    _check_stream(subspaces, m, k, field, grassmann_count(m, k, field.q))


@pytest.mark.parametrize("m, k, field_args", CASES)
def test_constrained_stream_lifts_from_the_quotient(m, k, field_args):
    field = FieldCtx(*field_args)
    must = [(1, 1) + (0,) * (m - 2)]
    if k == 2:
        must.append((0,) * (m - 1) + (2,))
    subspaces = list(enumerate_subspaces(m, k, field, must_contain=must))
    r = len(must)
    expected = grassmann_count(m - r, k - r, field.q)
    _check_stream(subspaces, m, k, field, expected, must_contain=must)


def test_small_counts():
    assert [grassmann_count(4, k, 2) for k in range(5)] == [1, 15, 35, 15, 1]
    with pytest.raises(ValueError):
        grassmann_count(2, 3, 3)


def test_constraint_errors(gf3):
    with pytest.raises(PreconditionError, match="dependent"):
        list(enumerate_subspaces(3, 2, gf3, must_contain=[(1, 0, 0), (2, 0, 0)]))
    # a campaign takes no constraint but I, so it refuses (I, 2I)
    constraints = (Mat.identity(gf3, 2), Mat(gf3, 2, (2, 0, 0, 2)))
    with pytest.raises(PreconditionError, match=r"constraints must be \(\) or \(I,\)"):
        run_campaign(CampaignSpec(n=2, field=gf3, dim=3, constraints=constraints))
    with pytest.raises(ValueError, match="cannot fit"):
        list(enumerate_subspaces(3, 1, gf3, must_contain=[(1, 0, 0), (0, 1, 0)]))

