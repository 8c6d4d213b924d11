import pytest

import weaktri.cli
from weaktri.cli import main
from weaktri.errors import TheoremViolationError

CAMPAIGN = ["campaign", "--n", "2", "--field", "GF(5)", "--dim", "3", "--contains-identity"]


@pytest.fixture
def sl2(tmp_path, capsys):
    """Trace-zero 2x2 matrices over GF(3): not weakly triangularizable."""
    assert main(["gen", "--kind", "sl", "--n", "2", "--field", "GF(3)"]) == 0
    path = tmp_path / "sl2.space"
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_negative_verdict_exits_2(sl2, capsys):
    assert main(["check", sl2]) == 2
    assert "verdict false" in capsys.readouterr().out


def test_budget_exceeded_exits_4(sl2, capsys):
    assert main(["check", sl2, "--budget", "1"]) == 4
    assert "budget exceeded" in capsys.readouterr().err


def test_theorem_violation_exits_3(sl2, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TheoremViolationError("deliberate")

    monkeypatch.setattr(weaktri.cli, "space_weakly_triangularizable", broken)
    assert main(["check", sl2]) == 3
    assert "THEOREM VIOLATION: deliberate" in capsys.readouterr().err


@pytest.mark.parametrize("shards", ["0", "-3"])
def test_fewer_than_one_shard_exits_1(shards, capsys):
    assert main(CAMPAIGN + ["--shards", shards]) == 1
    assert "shard" in capsys.readouterr().err


def test_campaign_stdout_does_not_depend_on_shards(capsys):
    assert main(CAMPAIGN + ["--shards", "1"]) == 0
    one = capsys.readouterr().out
    assert "# hits_verified: yes\n" in one
    assert main(CAMPAIGN + ["--shards", "2"]) == 0
    assert capsys.readouterr().out == one


def test_flags_of_a_large_field_exit_0(capsys):
    assert main(["flags", "--n", "3", "--field", "GF(1000003)"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1000011000041000052"
