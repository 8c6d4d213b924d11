import pytest

from weaktri.cli import main
from weaktri.errors import PreconditionError
from weaktri.gf import FieldCtx
from weaktri.grassmann import grassmann_count
from weaktri.linalg import Mat
from weaktri.survey import CampaignSpec, count_flags, run_campaign

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


def _without_sharding(text):
    """The report minus what names the sharding: the spec's shard count and
    the per-shard stat lines."""
    lines = [line for line in text.splitlines() if not line.startswith("# shard ")]
    return [line.replace(" shards=2", " shards=1") for line in lines]


def test_two_shards_give_the_same_report(gf5):
    one = run_campaign(identity_spec(gf5, shards=1)).to_text()
    two = run_campaign(identity_spec(gf5, shards=2)).to_text()
    assert sum(line.startswith("# shard ") for line in two.splitlines()) == 2
    assert _without_sharding(one) == _without_sharding(two)
    assert one == run_campaign(identity_spec(gf5, shards=1)).to_text()


def test_non_split_constraint_dooms_every_candidate(gf3):
    rotation = Mat(gf3, 2, (0, 2, 1, 0))  # char poly t^2 + 1 has no root in GF(3)
    report = run_campaign(CampaignSpec(n=2, field=gf3, dim=2, constraints=(rotation,)))
    assert (report.total, report.hit_count) == (grassmann_count(3, 1, 3), 0)
    # decided without a scan: one empty pattern range
    assert report.shard_stats == [{"idx": 0, "lo": 0, "hi": 0, "total": 13, "hits": 0}]


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
    argv = CAMPAIGN + ["--journal", str(journal), "--resume"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert journal.read_text().startswith("# campaign journal: n=2 field=GF(3)")
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(CAMPAIGN) == 0
    assert capsys.readouterr().out == first
