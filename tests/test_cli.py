import io

import pytest

import weaktri.cli
from weaktri.cli import main
from weaktri.errors import TheoremViolationError
from weaktri.flags import Flag, flag_space
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat
from weaktri.spaces import format_spacefile, parse_spacefile
from weaktri.survey import CampaignSpec, count_flags, gen_triangular, run_campaign

from conftest import gf2_non_flag_hit, random_invertible, seeded

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


def test_budget_comes_from_the_flag_alone(sl2, monkeypatch, capsys):
    # no environment variable sets the budget
    monkeypatch.setenv("WEAKTRI_BUDGET", "1")
    assert main(["check", sl2]) == 2
    assert "verdict false" in capsys.readouterr().out


def test_theorem_violation_exits_3(sl2, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TheoremViolationError("deliberate")

    monkeypatch.setattr(weaktri.cli, "space_weakly_triangularizable", broken)
    assert main(["check", sl2]) == 3
    assert "THEOREM VIOLATION: deliberate" in capsys.readouterr().err


def test_flags_of_a_large_field_exit_0(capsys):
    assert main(["flags", "--n", "3", "--field", "GF(1000003)"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1000011000041000052"


def test_flags_over_a_strong_pseudoprime_exit_1(capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
    assert main(["flags", "--n", "2", "--field", "GF(318665857834031151167461)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "primality is decided for n < 318665857834031151167461" in captured.err


def test_flags_count_just_short_of_the_print_limit(capsys):
    # 4,275 digits, under Python's default int-to-str limit of 4,300
    assert main(["flags", "--n", "134", "--field", "GF(3)"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# n: 134", "# field: GF(3)"]
    assert len(lines[2]) == 4275 and lines[2] == str(count_flags(134, FieldCtx(3)))


@pytest.mark.parametrize("n", [135, 3000])
def test_flags_count_past_the_print_limit_is_refused_uncomputed(n, monkeypatch, capsys):
    # 3^(n(n-1)/2) alone has more than 4,300 digits: refused from that bound
    def refuse(*args):
        raise RuntimeError("the flag count was computed")

    monkeypatch.setattr(weaktri.cli, "count_flags", refuse)
    assert main(["flags", "--n", str(n), "--field", "GF(3)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the flag count has more than 4300 digits, too many to print\n"


def test_flags_count_past_the_print_limit_prints_nothing(capsys):
    # over GF(2), n = 169 passes the bound (4,274 digits) and the count
    # itself is too long: its digits fail before any line is printed
    assert main(["flags", "--n", "169", "--field", "GF(2)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the flag count has more than 4300 digits, too many to print\n"


@pytest.fixture
def t3(tmp_path, capsys):
    """Upper-triangular 3x3 matrices over GF(3)."""
    assert main(["gen", "--kind", "triangular", "--n", "3", "--field", "GF(3)"]) == 0
    path = tmp_path / "t3.space"
    path.write_text(capsys.readouterr().out)
    return str(path)


def test_recover_prints_the_flag_and_the_trace(t3, tmp_path, capsys):
    assert main(["recover", t3]) == 0
    out = capsys.readouterr().out
    head = "# space: n=3 dim=6 field=GF(3)\n# recovered: yes\ne1 1 0 0\ne2 0 1 0\ne3 0 0 1\n"
    assert out.startswith(head + "# trace ambient: 3\n")
    assert out[len(head):] == (
        "# trace ambient: 3\n"
        "# trace field: GF(3)\n"
        "level 1: n=3 kind=radical\n"
        "  check chain_basis: pass\n"
        "  check chain_steps: pass\n"
        "  check flag_space_equals_input: pass\n"
        "  check radical_dim: pass\n"
    )
    trace_file = tmp_path / "t3.trace"
    assert main(["recover", t3, "--trace", str(trace_file)]) == 0
    assert capsys.readouterr().out == head + f"# trace_file: {trace_file}\n"
    assert trace_file.read_text() == out[len(head):]


def test_recover_trace_to_an_unwritable_path_prints_nothing(t3, tmp_path, capsys):
    assert main(["recover", t3, "--trace", str(tmp_path / "missing" / "t3.trace")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2]")


def test_recover_budget_bounds_only_a_failed_gate(t3, sl2, capsys):
    assert main(["recover", t3]) == 0
    plain = capsys.readouterr().out
    # T3 over GF(3) has 3^6 elements, but it passes the gate unswept
    assert main(["recover", t3, "--budget", "1"]) == 0
    assert capsys.readouterr().out == plain
    # sl2 is optimal but fails the gate, so its 1 + (3^3 - 1)/2 = 14 classes
    # are swept within the budget
    assert main(["recover", sl2, "--budget", "1"]) == 4
    assert "14 classes exceed the sweep budget 1" in capsys.readouterr().err
    assert main(["recover", sl2]) == 1
    assert "not weakly triangularizable; witness" in capsys.readouterr().err


def test_recover_a_conjugate_of_t4_over_gf7(tmp_path, capsys):
    # 7^10 elements exceed the default sweep budget; the gate needs none
    gf7 = FieldCtx(7)
    space = gen_triangular(4, gf7, conjugate_by=random_invertible(gf7, 4, seeded(7)))
    path = tmp_path / "t4.space"
    path.write_text(format_spacefile(space))
    assert main(["recover", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# space: n=4 dim=10 field=GF(7)", "# recovered: yes"]
    basis = [[int(t) for t in line.split()[1:]] for line in lines[2:6]]
    assert flag_space(Flag(gf7, basis)) == space


def test_recover_a_failed_gate_prints_its_trace(tmp_path, capsys):
    space = gf2_non_flag_hit()
    gf2 = space.field
    report = run_campaign(
        CampaignSpec(n=3, field=gf2, dim=6, constraints=(Mat.identity(gf2, 3),))
    )
    assert space in [hit.space for hit in report.hits if hit.non_flag]
    path = tmp_path / "nonflag.space"
    path.write_text(format_spacefile(space))
    assert main(["recover", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "THEOREM VIOLATION: radical chain does not drop one dimension per step to 0\n"
        "# trace ambient: 3\n"
        "# trace field: GF(2)\n"
        "level 1: n=3 kind=radical\n"
        "  check chain_steps: FAIL\n"
        "  check radical_dim: pass\n"
    )


RECOVERED_TRACE = (
    "level 1: n={n} kind=radical\n"
    "  check chain_basis: pass\n"
    "  check chain_steps: pass\n"
    "  check flag_space_equals_input: pass\n"
    "  check radical_dim: pass\n"
)


@pytest.mark.parametrize(
    "field, n, seed, stdout",
    [
        (
            FieldCtx(3, 2, (1, 0, 1)),
            4,
            9,
            "# space: n=4 dim=10 field=GF(3^2; 1,0,1)\n# recovered: yes\n"
            "e1 1 4 1 0\ne2 0 1 4 3\ne3 0 0 1 3\ne4 0 0 0 1\n"
            "# trace ambient: 4\n# trace field: GF(3^2; 1,0,1)\n" + RECOVERED_TRACE.format(n=4),
        ),
        (
            FieldCtx(3),
            5,
            3,
            "# space: n=5 dim=15 field=GF(3)\n# recovered: yes\n"
            "e1 0 1 1 2 2\ne2 1 0 0 1 2\ne3 0 0 1 2 2\ne4 0 0 0 1 2\ne5 0 0 0 0 1\n"
            "# trace ambient: 5\n# trace field: GF(3)\n" + RECOVERED_TRACE.format(n=5),
        ),
    ],
    ids=["t4-gf9", "t5-gf3"],
)
def test_recover_stdout_of_seeded_conjugates(field, n, seed, stdout, tmp_path, capsys):
    # the whole stdout, byte for byte: the flag basis is the pivot-new row of
    # each canonical chain subspace, whatever reductions recovery reuses
    space = gen_triangular(n, field, conjugate_by=random_invertible(field, n, seeded(seed)))
    path = tmp_path / "conjugate.space"
    path.write_text(format_spacefile(space))
    assert main(["recover", str(path)]) == 0
    assert capsys.readouterr().out == stdout


def test_campaign_help_says_what_the_budget_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--budget BUDGET campaign budget: first the nominal candidate count" in text
    assert "the (q^m - 1)/(q - 1) classes the goodness table" in text
    assert "must not exceed it (exit 4)" in text
    assert "of a hit whose flag gate fails" in text
    assert "element-sweep budget" not in text
    assert "random" not in text and "--shards" not in text and "--seed" not in text


def test_adapted_vector_of_the_triangular_plane(tmp_path, capsys):
    assert main(["gen", "--kind", "triangular", "--n", "2", "--field", "GF(3)"]) == 0
    path = tmp_path / "t2.space"
    path.write_text(capsys.readouterr().out)
    assert main(["adapted", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "adapted 0 1"


@pytest.mark.parametrize("field", ["GF(3)", "GF(3^2; 1,0,1)"])
def test_adapted_vector_of_the_one_by_one_matrices(tmp_path, capsys, field):
    assert main(["gen", "--kind", "triangular", "--n", "1", "--field", field]) == 0
    path = tmp_path / "m1.space"
    path.write_text(capsys.readouterr().out)
    assert main(["adapted", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "adapted 1"


def test_adapted_budget_bounds_the_lines_tried(sl2, capsys):
    # sl2 over GF(3) has no adapted line: all 4 lines of F_3^2 are tried
    assert main(["adapted", sl2, "--budget", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 4 lines exceed the line-scan budget 3\n"
    assert main(["adapted", sl2, "--budget", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "none"


def test_lemma31_over_gf5(capsys):
    assert main(["lemma31", "--field", "GF(5)", "--degree", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3125 pairs, 75 with split pencils, 0 violations"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (
            ["--field", "GF(2^2;1,1,1)", "--degree", "3"],
            "# field: GF(2^2; 1,1,1)\n# degree: 3\n1024 pairs, 40 with split pencils, 0 violations\n",
        ),
        (
            ["--field", "GF(3^2;1,0,1)", "--degree", "1"],
            "# field: GF(3^2; 1,0,1)\n# degree: 1\n9 pairs, 9 with split pencils, 0 violations\n",
        ),
    ],
)
def test_lemma31_stdout_over_extension_fields(argv, stdout, capsys):
    assert main(["lemma31"] + argv) == 0
    assert capsys.readouterr().out == stdout


def test_lemma31_help_says_what_the_budget_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["lemma31", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--budget BUDGET budget of the sweep: the q^(2d-1) monic (p, q) pairs" in text
    assert "must not exceed it (exit 4)" in text
    assert "element-sweep budget" not in text


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "SL2"],
        ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "3"],
        ["recover", "T3"],
        ["lemma31", "--field", "GF(3)", "--degree", "2"],
        ["adapted", "SL2"],
    ],
)
def test_negative_budget_exits_1(sl2, t3, argv, capsys):
    argv = [{"SL2": sl2, "T3": t3}.get(a, a) for a in argv]
    assert main(argv + ["--budget", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget must be >= 0, got -1\n"
    assert captured.out == ""
    # zero is a budget that the first count exceeds; T3 passes the flag gate,
    # so its recovery counts nothing
    assert main(argv + ["--budget", "0"]) == (0 if argv[0] == "recover" else 4)


@pytest.mark.parametrize(
    "argv",
    [
        # removed campaign options
        CAMPAIGN + ["--shards", "2"],
        CAMPAIGN + ["--random", "5"],
        CAMPAIGN + ["--seed", "7"],
        CAMPAIGN + ["--bogus"],
        ["check"],
        ["lemma31", "--field", "GF(3)", "--degree", "x"],
        [],
    ],
)
def test_usage_error_exits_1(argv, capsys):
    # exit 2 is a negative check verdict, not argparse's usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and captured.err.startswith("usage: weaktri")


def test_removed_journal_option_is_refused(tmp_path, capsys):
    journal = tmp_path / "campaign.journal"
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--n", "2", "--field", "GF(3)", "--dim", "3", "--contains-identity",
              "--journal", str(journal)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --journal" in captured.err
    assert not journal.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "-"],
        ["recover", "-"],
        ["adapted", "-"],
        ["lemma31", "--field", "GF(2)", "--degree", "3"],
        ["campaign", "--n", "2", "--field", "GF(2)", "--dim", "3"],
        ["gen", "--kind", "triangular", "--n", "2", "--field", "GF(2)"],
        ["flags", "--n", "2", "--field", "GF(2)"],
    ],
    ids=lambda argv: argv[0],
)
def test_removed_exploratory_option_is_refused(argv, capsys):
    # characteristic 2 is an input like any other, so no subcommand has the option
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--exploratory"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --exploratory" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["campaign", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: weaktri")


@pytest.mark.parametrize(
    "extra, n, dim",
    [
        (["--kind", "sym", "--n", "3"], 3, 6),
        (["--kind", "sl", "--n", "3"], 3, 8),
        (["--kind", "random", "--n", "3", "--dim", "4"], 3, 4),
        (["--kind", "joint", "--blocks", "1,2"], 3, 7),
    ],
)
def test_gen_kinds(extra, n, dim, capsys):
    assert main(["gen", "--field", "GF(3)"] + extra) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[:3] == ["field GF(3)", f"n {n}", f"dim {dim}"]
    assert len(lines) == 3 + dim
    assert format_spacefile(parse_spacefile(out)) == out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--kind", "joint"], "--kind joint needs --blocks, e.g. --blocks 1,2"),
        (["--kind", "sym"], "--kind sym needs --n"),
        (["--kind", "random", "--n", "2"], "--kind random needs --dim"),
    ],
)
def test_gen_missing_option_exits_1(extra, message, capsys):
    assert main(["gen", "--field", "GF(3)"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_reads_the_space_file_from_stdin(sl2, monkeypatch, capsys):
    assert main(["check", sl2]) == 2
    from_path = capsys.readouterr().out
    with open(sl2) as fh:
        monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
    assert main(["check", "-"]) == 2
    assert capsys.readouterr().out == from_path


@pytest.mark.parametrize(
    "argv, n",
    [
        (["gen", "--kind", "triangular", "--n", "0"], 0),
        (["gen", "--kind", "sym", "--n", "-1"], -1),
        (["gen", "--kind", "sl", "--n", "0"], 0),
        (["gen", "--kind", "random", "--n", "-1", "--dim", "1"], -1),
        (["gen", "--kind", "joint", "--blocks", "0"], 0),
        (["gen", "--kind", "joint", "--blocks", "2,-1"], -1),
        (["flags", "--n", "0"], 0),
        (["flags", "--n", "-1"], -1),
    ],
)
def test_matrix_size_below_one_exits_1(argv, n, capsys):
    assert main(argv + ["--field", "GF(3)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: matrix size n must be >= 1, got {n}\n"


def test_negative_sample_count_exits_1(sl2, capsys):
    assert main(["check", sl2, "--mode", "sample:-3:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sample count must be >= 0, got -3\n"


@pytest.mark.parametrize("mode", ["bogus", "sample:3", "sample:5:abc", "sample:x:1"])
def test_malformed_check_mode_exits_1(sl2, mode, capsys):
    assert main(["check", sl2, "--mode", mode]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad --mode {mode!r}; use exhaustive or sample:N:SEED\n"


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["flags", "--n", "2", "--field", "GF(x)"], None,
         "bad field descriptor 'GF(x)': 'x' is not an integer"),
        (["check", "-"], "field GF(3^2; 1,0,x)\nn 1\n",
         "line 1: bad field descriptor 'GF(3^2; 1,0,x)': 'x' is not an integer"),
        (["gen", "--field", "GF(3)", "--kind", "joint", "--blocks", "1,x"], None,
         "bad --blocks entry 'x'; use sizes such as 1,2"),
    ],
    ids=["flags-field", "spacefile-field", "gen-blocks"],
)
def test_malformed_number_exits_1_naming_it(argv, stdin, message, monkeypatch, capsys):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_check_sample_count_is_bounded_by_the_budget(t3, capsys):
    assert main(["check", t3, "--mode", "sample:5:1", "--budget", "5"]) == 0
    assert capsys.readouterr().out == (
        "# space: n=3 dim=6 field=GF(3)\n# seed: 1\n# mode: sample:5:1\n# checked: 5\n"
        "# certified: no\nverdict true (no counterexample in 5 samples)\n"
    )
    assert main(["check", t3, "--mode", "sample:5:1", "--budget", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 5 samples exceed the sweep budget 4\n"
    # refused before a single sample is drawn
    assert main(["check", t3, "--mode", "sample:400000000:1", "--budget", "10"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 400000000 samples exceed the sweep budget 10\n"


def test_check_help_says_what_the_budget_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--budget BUDGET budget of the check: the exhaustive mode decides" in text
    assert "in sample:N:SEED mode N must not exceed it (exit 4)" in text


# stdout of the full element sweep, which the class sweep must reproduce
CHECK_STDOUT = {
    ("triangular", "4"): "# space: n=4 dim=10 field=GF(3)\n# mode: exhaustive\n"
    "# checked: 59049\n# certified: yes\nverdict true\n",
    ("sym", "2"): "# space: n=2 dim=3 field=GF(3)\n# mode: exhaustive\n"
    "# checked: 5\n# certified: yes\nverdict false\nwitness 0 1 1 1\n",
    ("sym", "3"): "# space: n=3 dim=6 field=GF(3)\n# mode: exhaustive\n"
    "# checked: 5\n# certified: yes\nverdict false\nwitness 0 0 0 0 0 1 0 1 1\n",
}


@pytest.mark.parametrize("kind, n", sorted(CHECK_STDOUT))
def test_check_stdout_equals_the_full_sweep(kind, n, tmp_path, capsys):
    assert main(["gen", "--kind", kind, "--n", n, "--field", "GF(3)"]) == 0
    path = tmp_path / "space"
    path.write_text(capsys.readouterr().out)
    assert main(["check", str(path)]) == (0 if kind == "triangular" else 2)
    assert capsys.readouterr().out == CHECK_STDOUT[kind, n]


def test_check_budget_counts_the_classes_decided(tmp_path, capsys):
    # T4 over GF(3) has 3^10 = 59049 elements but I is in it, so the check
    # decides 1 + (3^9 - 1)/2 = 9842 classes, and the budget counts those
    assert main(["gen", "--kind", "triangular", "--n", "4", "--field", "GF(3)"]) == 0
    path = tmp_path / "t4.space"
    path.write_text(capsys.readouterr().out)
    assert main(["check", str(path), "--budget", "9842"]) == 0
    assert capsys.readouterr().out == CHECK_STDOUT["triangular", "4"]
    assert main(["check", str(path), "--budget", "9841"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "budget exceeded: 9842 classes exceed the sweep budget 9841\n"


def test_check_refused_by_its_budget_prints_nothing(sl2, capsys):
    # sl2 over GF(3) lacks I: 1 + (3^3 - 1)/2 = 14 classes
    assert main(["check", sl2, "--budget", "13"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 14 classes exceed the sweep budget 13\n"
    assert main(["check", sl2, "--budget", "14"]) == 2
    assert capsys.readouterr().out == (
        "# space: n=2 dim=3 field=GF(3)\n# mode: exhaustive\n# checked: 6\n"
        "# certified: yes\nverdict false\nwitness 0 1 2 0\n"
    )
