import pytest

from weaktri.cli import main
from weaktri.errors import PreconditionError
from weaktri.gf import FieldCtx
from weaktri.grassmann import grassmann_count
from weaktri.linalg import Mat
from weaktri.survey import CampaignSpec, _count_chains, count_flags, run_campaign

FIELDS = [(3,), (5,), (7,), (3, 2, (1, 0, 1))]
CAMPAIGN = ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "3", "--contains-identity"]


def identity_spec(field, **kwargs):
    return CampaignSpec(n=2, field=field, dim=3, constraints=(Mat.identity(field, 2),), **kwargs)


@pytest.mark.parametrize("field_args", FIELDS)
def test_hits_are_exactly_the_flags(field_args):
    field = FieldCtx(*field_args)
    report = run_campaign(identity_spec(field))
    assert report.total == grassmann_count(3, 2, field.q)
    assert report.hit_count == count_flags(2, field)
    assert report.all_hits_ok and not report.alarms
    assert "# hits_verified: yes\n" in report.to_text()


def test_two_shards_give_the_same_report(gf5):
    one = run_campaign(identity_spec(gf5, shards=1)).to_text()
    assert run_campaign(identity_spec(gf5, shards=2)).to_text() == one
    assert run_campaign(identity_spec(gf5, shards=1)).to_text() == one


def test_non_split_constraint_dooms_every_candidate(gf3):
    rotation = Mat(gf3, 2, (0, 2, 1, 0))  # char poly t^2 + 1 has no root in GF(3)
    report = run_campaign(CampaignSpec(n=2, field=gf3, dim=2, constraints=(rotation,)))
    assert (report.total, report.hit_count) == (grassmann_count(3, 1, 3), 0)


@pytest.mark.parametrize("shards", [0, -3])
def test_fewer_than_one_shard_rejected(gf3, shards):
    with pytest.raises(PreconditionError, match="shard"):
        run_campaign(identity_spec(gf3, shards=shards))


@pytest.mark.parametrize("n, q", [(2, 3), (2, 7), (3, 3), (3, 5)])
def test_flag_count_agrees_with_chain_enumeration(n, q):
    field = FieldCtx(q)
    assert count_flags(n, field) == _count_chains(n, field)


def test_large_flag_count_skips_the_chain_enumeration():
    q = 1000003
    assert count_flags(3, FieldCtx(q)) == (q + 1) * (q * q + q + 1)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("dim, constrained", [(5, False), (0, True)])
def test_dimension_outside_the_ambient_range_rejected(gf3, mode, dim, constrained):
    constraints = (Mat.identity(gf3, 2),) if constrained else ()
    spec = CampaignSpec(n=2, field=gf3, dim=dim, constraints=constraints, mode=mode, count=0)
    with pytest.raises(PreconditionError, match="outside"):
        run_campaign(spec)


def test_cli_random_campaign_with_impossible_dimension_exits_1(capsys):
    argv = ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "5", "--random", "0"]
    assert main(argv) == 1
    assert "outside" in capsys.readouterr().err


def test_resume_from_an_empty_journal(tmp_path, capsys):
    journal = tmp_path / "campaign.journal"
    journal.write_text("")
    argv = CAMPAIGN + ["--journal", str(journal)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    written = journal.read_text()
    assert written.startswith("# campaign journal: n=2 field=GF(3)")
    # a complete journal is resumed without scanning anything
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert journal.read_text() == written
    assert main(CAMPAIGN) == 0
    assert capsys.readouterr().out == first


def test_killed_campaign_resumes_from_its_journal(gf5, tmp_path):
    whole = tmp_path / "whole.journal"
    fresh = run_campaign(identity_spec(gf5, journal=str(whole))).to_text()
    lines = whole.read_text().splitlines(keepends=True)
    entries = [i for i, line in enumerate(lines) if line.startswith("pattern ")]
    assert len(entries) == 3
    # killed after the first pattern's entry
    cut = tmp_path / "cut.journal"
    cut.write_text("".join(lines[: entries[1]]))
    resumed = run_campaign(identity_spec(gf5, shards=2, journal=str(cut))).to_text()
    assert resumed == fresh
    assert cut.read_text() == whole.read_text()


def test_journal_of_another_campaign_refused(gf3, gf5, tmp_path):
    journal = tmp_path / "campaign.journal"
    run_campaign(identity_spec(gf3, journal=str(journal)))
    before = journal.read_text()
    with pytest.raises(PreconditionError, match="different campaign"):
        run_campaign(identity_spec(gf5, journal=str(journal)))
    assert journal.read_text() == before
