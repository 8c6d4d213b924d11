import dataclasses
import functools
import hashlib
import re

import pytest

import weaktri.flags
import weaktri.linalg
import weaktri.scan
import weaktri.survey
import weaktri.triang

from weaktri.cli import main
from weaktri.errors import BudgetExceededError, PreconditionError, TheoremViolationError
from weaktri.gf import FieldCtx
from weaktri.linalg import Mat
from weaktri.scan import Quotient
from weaktri.survey import (
    CampaignSpec,
    count_flags,
    gen_joint,
    gen_random,
    gen_sl,
    gen_sym,
    gen_triangular,
    grassmann_count,
    run_campaign,
)
from weaktri.triang import space_weakly_triangularizable

from conftest import counting_class_decisions
import oracles
from oracles import count_chains, goodness_by_full_lifts

GF9 = (3, 2, (1, 0, 1))
FIELDS = [(3,), (5,), (7,), GF9]
CAMPAIGN = ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "3", "--contains-identity"]


def md5(text):
    return md5_bytes(text.encode())


def md5_bytes(data):
    return hashlib.md5(data).hexdigest()


def identity_spec(field, **kwargs):
    return CampaignSpec(n=2, field=field, dim=3, constraints=(Mat.identity(field, 2),), **kwargs)


def counting_sweeps(monkeypatch):
    """Record the spaces swept element by element, by the survey or by the
    recovery it calls."""
    swept = []

    def counted(space, **kwargs):
        swept.append(space)
        return space_weakly_triangularizable(space, **kwargs)

    for module in (weaktri.survey, weaktri.flags):
        monkeypatch.setattr(module, "space_weakly_triangularizable", counted)
    return swept


def leibniz_verdicts(field, n):
    """entries -> whether that matrix's characteristic polynomial splits, by
    the Leibniz expansion and root counting, memoized per matrix."""
    @functools.cache
    def splits(entries):
        return oracles.splits_by_root_count(oracles.cofactor_char_poly(Mat(field, n, entries)))

    return splits


def accept_every_class(monkeypatch):
    monkeypatch.setattr(
        Quotient, "goodness_table", lambda quotient: bytearray(b"\x01") * quotient.field.q**quotient.dim
    )


def fail_every_recovery(monkeypatch):
    """Make the flag gate inside ``recover_flag`` fail on every space."""
    def fail(space):
        raise TheoremViolationError("deliberate")

    monkeypatch.setattr(weaktri.flags, "_trace_form_radical", fail)


@pytest.mark.parametrize("field_args", FIELDS)
def test_hits_are_exactly_the_flags(field_args):
    field = FieldCtx(*field_args)
    report = run_campaign(identity_spec(field))
    assert report.total == grassmann_count(3, 2, field.q)
    assert report.hit_count == count_flags(2, field)
    assert report.all_hits_ok and not report.alarms
    assert "# hits_verified: yes\n" in report.to_text()
    # n = 1: the quotient by I is 0-dimensional, and its one candidate is I
    single = run_campaign(CampaignSpec(n=1, field=field, dim=1, constraints=(Mat.identity(field, 1),)))
    assert (single.total, single.hit_count, single.alarms) == (1, 1, [])
    assert single.hits[0].space.dim == 1


@pytest.mark.parametrize(
    "n, field_args",
    [(2, (3,)), (2, (7,)), (3, (3,)), (3, (5,)), (2, GF9), (3, GF9), (3, (2,))],
    ids=["2-3", "2-7", "3-3", "3-5", "2-9", "3-9", "3-2"],
)
def test_flag_count_agrees_with_chain_enumeration(n, field_args):
    field = FieldCtx(*field_args)
    assert count_flags(n, field) == count_chains(n, field)


def test_count_flags_enumerates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_flags enumerated subspaces")

    monkeypatch.setattr(oracles, "enumerate_subspaces", refuse)
    for name in ("grassmann_count", "Quotient"):
        monkeypatch.setattr(weaktri.survey, name, refuse)
    assert [count_flags(n, FieldCtx(2)) for n in (1, 2, 3)] == [1, 3, 21]
    q = 1000003
    assert count_flags(3, FieldCtx(q)) == (q + 1) * (q * q + q + 1)


@pytest.mark.parametrize("dim, constrained", [(5, False), (0, True)])
def test_dimension_outside_the_ambient_range_rejected(gf3, dim, constrained):
    constraints = (Mat.identity(gf3, 2),) if constrained else ()
    spec = CampaignSpec(n=2, field=gf3, dim=dim, constraints=constraints)
    with pytest.raises(PreconditionError, match="outside"):
        run_campaign(spec)


def test_constraint_of_the_wrong_size_rejected(gf3, monkeypatch):
    # refused before any table is built, as is any constraint but I
    monkeypatch.setattr(weaktri.survey, "Quotient", None)
    for constraint in (Mat.identity(gf3, 3), Mat.identity(FieldCtx(5), 2), Mat.unit(gf3, 2, 0, 0)):
        spec = CampaignSpec(n=2, field=gf3, dim=3, constraints=(constraint,))
        with pytest.raises(PreconditionError, match=r"^a campaign's constraints must be \(\) or \(I,\)$"):
            run_campaign(spec)


def test_family_input_checks(gf3, gf5):
    with pytest.raises(ValueError, match="joint of no spaces"):
        gen_joint([])
    with pytest.raises(ValueError, match="mixed fields"):
        gen_joint([gen_sym(1, gf3), gen_sym(1, gf5)])
    with pytest.raises(ValueError, match="dimension 5 impossible in 2x2 matrices"):
        gen_random(2, gf3, 5, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_matrix_size_below_one_rejected(gf3, n):
    spec = CampaignSpec(n=n, field=gf3, dim=1)
    with pytest.raises(PreconditionError, match=f"matrix size n must be >= 1, got {n}"):
        run_campaign(spec)


@pytest.mark.parametrize("family", [
    lambda n, field: gen_triangular(n, field),
    lambda n, field: gen_sym(n, field),
    lambda n, field: gen_sl(n, field),
    lambda n, field: gen_random(n, field, 1, 5),
], ids=["triangular", "sym", "sl", "random"])
@pytest.mark.parametrize("n", [0, -1])
def test_family_with_matrix_size_below_one_rejected(gf3, family, n):
    with pytest.raises(PreconditionError, match=f"matrix size n must be >= 1, got {n}"):
        family(n, gf3)


@pytest.mark.parametrize("extra", [[], ["--contains-identity"]])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_cli_campaign_with_matrix_size_below_one_exits_1(extra, n, capsys):
    argv = ["campaign", "--n", n, "--field", "GF(3)", "--dim", "1"] + extra
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: matrix size n must be >= 1, got {n}\n"
    assert captured.out == ""


def test_cli_campaign_with_impossible_dimension_exits_1(capsys):
    argv = ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "5"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "outside" in captured.err
    assert captured.out == ""


def test_chunk_tables_built_once_per_campaign(gf3, monkeypatch):
    # the goodness table and the scan share one build; a campaign over its
    # budget is refused before it
    built = []

    class Counted(weaktri.scan._ChunkTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.m)

    monkeypatch.setattr(weaktri.scan, "_ChunkTables", Counted)
    with pytest.raises(BudgetExceededError):
        run_campaign(identity_spec(gf3, budget=12))
    assert built == []
    report = run_campaign(identity_spec(gf3))
    assert report.all_hits_ok and not report.alarms
    assert built == [3]


def test_campaign_below_the_optimal_dimension(gf3):
    # hits of dimension < n(n+1)/2 get the element sweep only
    with_identity = run_campaign(CampaignSpec(n=2, field=gf3, dim=2, constraints=(Mat.identity(gf3, 2),)))
    assert (with_identity.total, with_identity.hit_count) == (13, 10)
    anywhere = run_campaign(CampaignSpec(n=2, field=gf3, dim=2))
    assert (anywhere.total, anywhere.hit_count) == (130, 46)
    for report in (with_identity, anywhere):
        assert report.all_hits_ok and not report.alarms


@pytest.mark.parametrize("identity", [False, True], ids=["none", "identity"])
@pytest.mark.parametrize("field_args", [(2,), (2, 2, (1, 1, 1)), (3,)],
                         ids=["2", "4", "3"])
def test_n2_hits_equal_the_brute_force_hit_sets(field_args, identity):
    # every candidate the campaign rejects is rejected by the oracle too:
    # over an odd field the count checks cannot see a lost non-flag space,
    # and over GF(2) and GF(4) nothing predicts the hit set
    field, n = FieldCtx(*field_args), 2
    must = [Mat.identity(field, n)] if identity else []
    splits = leibniz_verdicts(field, n)
    for dim in range(len(must), n * n + 1):
        report = run_campaign(CampaignSpec(n=n, field=field, dim=dim, constraints=tuple(must)))
        assert report.total == report.expected_total and report.alarms == []
        brute = {
            rows
            for rows in oracles.enumerate_subspaces(
                n * n, dim, field, must_contain=[m.entries for m in must]
            )
            if all(map(splits, oracles.span_elements(rows, field, n * n)))
        }
        assert {hit.space.key() for hit in report.hits} == brute, dim


# dims 4 and 5 (97,155 and 200,787 candidates, 7,175 and 1,491 hits) agree
# too, but stay out: on a 2-core Xeon host (Python 3.11) they take 4.2 and
# 6.8 s, against 5 s for the seven dims below together
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 7, 8, 9])
def test_n3_gf2_identity_hits_equal_the_brute_force_hit_sets(dim):
    # over GF(2) nothing predicts the hit set, so the rejections are checked
    # end to end: the oracle streams I plus each subspace of its own
    # complement of F.I, not the quotient's section, and compares the spaces
    # as element sets, not as RREF bases
    field, n = FieldCtx(2), 3
    splits = leibniz_verdicts(field, n)
    report = run_campaign(CampaignSpec(n=n, field=field, dim=dim, constraints=(Mat.identity(field, n),)))
    assert report.total == report.expected_total and report.alarms == []
    candidates, brute = 0, set()
    for rows in oracles.spaces_through_identity(n, dim, field):
        candidates += 1
        if all(map(splits, oracles.span_elements(rows, field, n * n))):
            brute.add(frozenset(oracles.span_elements(rows, field, n * n)))
    assert candidates == report.total
    assert {frozenset(oracles.span_elements(hit.space.key(), field, n * n)) for hit in report.hits} == brute


def test_hit_above_the_optimal_dimension_is_an_alarm(gf3, monkeypatch):
    # no weakly triangularizable space exceeds n(n+1)/2, so make both the
    # scan and the element sweep accept everything
    monkeypatch.setattr(Quotient, "goodness_table", lambda quotient: [True] * quotient.field.q**quotient.dim)
    monkeypatch.setattr(weaktri.survey, "space_weakly_triangularizable", lambda *a, **k: True)
    report = run_campaign(CampaignSpec(n=2, field=gf3, dim=4))
    assert (report.total, report.hit_count) == (1, 1)
    assert report.alarms == ["weakly triangularizable hit of dimension 4 > n(n+1)/2"]
    assert "# hits_verified: NO\n" in report.to_text()


def test_n3_hits_are_exactly_the_flags(gf3):
    report = run_campaign(CampaignSpec(n=3, field=gf3, dim=6, constraints=(Mat.identity(gf3, 3),)))
    assert report.total == 25_095_280
    assert report.hit_count == count_flags(3, gf3) == 52
    assert report.all_hits_ok and not report.alarms
    assert md5(report.to_text()) == "c1b97b3482959de16c1c723d56f314df"


def test_n3_gf5_campaign_report_digest(capsys):
    argv = ["campaign", "--n", "3", "--field", "GF(5)", "--dim", "6", "--contains-identity",
            "--budget", "40053706056"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "# total: 40053706056\n" in out
    assert "# hits: 186\n# hits_verified: yes\n# alarms: 0\n" in out
    assert md5(out) == "c7ccce79c3ffdfa21dc63c3ce7f153c3"


@pytest.mark.parametrize("q, digest", [
    (3, "e2c3f18f73a042e6070e286377bd36d3"),
    (5, "b45fab655d62648cbb2136f29c9e524e"),
])
def test_n2_identity_campaign_report_digest(q, digest):
    report = run_campaign(identity_spec(FieldCtx(q)))
    assert report.all_hits_ok and not report.alarms
    assert md5(report.to_text()) == digest


@pytest.mark.parametrize("field_args", [(3,), (5,), (3, 2, (1, 0, 1))])
@pytest.mark.parametrize("constraints", ["", "I"])
def test_goodness_table_matches_every_lift(field_args, constraints):
    field = FieldCtx(*field_args)
    quotient = Quotient(field, 2, identity=constraints == "I")
    assert list(quotient.goodness_table()) == goodness_by_full_lifts(
        field, 2, quotient.rows, quotient.section_cols
    )


def test_n3_goodness_table_matches_every_lift(gf3):
    # the oracle decides every lift of each class, 3 per class
    quotient = Quotient(gf3, 3, identity=True)
    table = quotient.goodness_table()
    assert type(table) is bytearray  # one byte per class
    assert list(table) == goodness_by_full_lifts(gf3, 3, quotient.rows, quotient.section_cols)


def test_n3_gf5_goodness_table_digest(gf5):
    table = Quotient(gf5, 3, identity=True).goodness_table()
    assert md5_bytes(table) == "0b59f8df36fc4e44d2367e7ad4bb92e6"


def test_n3_gf3_goodness_table_computes_no_matrix_char_poly(gf3, monkeypatch):
    def refuse(m):
        raise RuntimeError("the goodness table built a Mat for a char poly")

    for module in (weaktri.linalg, weaktri.scan, weaktri.triang):
        monkeypatch.setattr(module, "char_poly", refuse, raising=False)
    table = Quotient(gf3, 3, identity=True).goodness_table()
    assert md5_bytes(table) == "20ed74362afa4c2257181f19a7d2fd54"


def test_n3_campaign_char_poly_counts(gf3, monkeypatch):
    # the table and the element sweep decide their classes through one
    # walk, so its char polys count both
    decided = counting_class_decisions(monkeypatch)
    swept = counting_sweeps(monkeypatch)
    report = run_campaign(CampaignSpec(n=3, field=gf3, dim=6, constraints=(Mat.identity(gf3, 3),)))
    assert (report.total, report.hit_count) == (25_095_280, 52)
    # all 52 hits pass the recovery gate, so no element is swept
    assert len(swept) == 0
    # so every class decided is the table's: the (3^8 - 1)/2 lines of the
    # quotient by F.I; the zero class is F.I
    assert len(decided) == len(set(decided)) == 3280
    assert "non_flag" not in report.to_text()


GF2_CAMPAIGN = ["campaign", "--n", "3", "--field", "GF(2)", "--dim", "6",
                "--contains-identity"]


def test_gf2_optimal_spaces_that_are_not_flag_spaces(capsys, monkeypatch):
    swept = counting_sweeps(monkeypatch)
    decided = counting_class_decisions(monkeypatch)
    assert main(GF2_CAMPAIGN) == 0
    # only the 14 hits that fail the recovery gate are swept, one char poly
    # per nonzero coset of F.I: 2^5 - 1 per hit, after the table's 2^8 - 1
    # lines of the quotient by F.I
    assert len(swept) == 14
    assert len(decided) == 255 + 14 * 31
    out = capsys.readouterr().out
    header = "# total: 97155\n# expected_total: 97155\n# hits: 35\n# non_flag_hits: 14\n"
    assert header + "# hits_verified: yes\n# alarms: 0\n" in out
    assert out.count(" non-flag\n") == 14
    assert out.count("\nhit ") == 35
    assert md5(out) == "1091ee7f487265fad38549fff0eef305"


def test_gf2_n2_report_digest():
    gf2 = FieldCtx(2)
    report = run_campaign(CampaignSpec(n=2, field=gf2, dim=3))
    assert md5(report.to_text()) == "446817065819ec84eb65380ede53c5ad"


def test_candidate_count_off_the_gaussian_binomial_is_an_alarm(monkeypatch, capsys):
    scan = Quotient.scan

    def one_short(quotient, good, k):
        total, spaces = scan(quotient, good, k)
        return total - 1, spaces

    monkeypatch.setattr(Quotient, "scan", one_short)
    assert main(CAMPAIGN) == 3
    out = capsys.readouterr().out
    assert "# total: 12\n# expected_total: 13\n# hits: 4\n# hits_verified: yes\n" in out
    assert "# alarms: 1\n# alarm: candidate count 12 disagrees with the Gaussian binomial 13\n" in out


def test_failed_recovery_is_an_alarm_in_odd_characteristic(monkeypatch, capsys):
    # only characteristic 2 turns a failed recovery into a non-flag hit
    fail_every_recovery(monkeypatch)
    swept = counting_sweeps(monkeypatch)
    assert main(CAMPAIGN) == 3
    out = capsys.readouterr().out
    assert "# hits: 4\n# hits_verified: NO\n# alarms: 4\n" in out
    assert out.count("# alarm: recovery alarm: deliberate\n") == 4
    assert "non_flag" not in out and "non-flag" not in out
    # a failed gate sends each hit to the sweep, once
    assert len(swept) == 4 and len({s.key() for s in swept}) == 4


def test_non_split_hits_fall_back_to_the_sweep_alarm(monkeypatch, capsys):
    # a scan that accepts all 13 candidates: the 4 flag spaces pass the gate,
    # the other 9 fail it and their sweep finds a non-split element
    accept_every_class(monkeypatch)
    swept = counting_sweeps(monkeypatch)
    assert main(CAMPAIGN) == 3
    out = capsys.readouterr().out
    assert "# hits: 13\n# hits_verified: NO\n# alarms: 9\n" in out
    assert out.count("# alarm: scan accepted a space with a non-split element\n") == 9
    assert md5(out) == "2c828253baaf4d380b91a41b6ba6f57a"
    assert len(swept) == 9


def test_sweep_alarm_wins_over_a_failed_recovery(monkeypatch, capsys):
    accept_every_class(monkeypatch)
    fail_every_recovery(monkeypatch)
    assert main(CAMPAIGN) == 3
    out = capsys.readouterr().out
    assert "# hits: 13\n# hits_verified: NO\n# alarms: 13\n" in out
    assert out.count("# alarm: scan accepted a space with a non-split element\n") == 9
    assert out.count("# alarm: recovery alarm: deliberate\n") == 4
    assert md5(out) == "9fae4f160f645fe6b463d331d42c0d40"


def test_budget_bounds_only_the_swept_hits(monkeypatch, capsys):
    assert main(CAMPAIGN) == 0
    plain = capsys.readouterr().out
    # the 4 hits pass the gate, so no class sweep meets the budget
    assert main(CAMPAIGN + ["--budget", "13"]) == 0
    assert capsys.readouterr().out == plain
    # the campaign budget still counts the 13 candidates
    assert main(CAMPAIGN + ["--budget", "12"]) == 4
    assert "13 candidates exceed the campaign budget 12" in capsys.readouterr().err
    # hits that fail the gate are swept within the budget: each sweep
    # decides 1 + (3^2 - 1)/2 = 5 classes, which 13 admits, so every hit's
    # gate alarm stands
    fail_every_recovery(monkeypatch)
    assert main(CAMPAIGN + ["--budget", "13"]) == 3
    assert capsys.readouterr().out.count("# alarm: recovery alarm: deliberate\n") == 4


@pytest.mark.parametrize("n, dim", [(15, 110), (60, 1800)])
def test_hopeless_campaigns_are_refused_uncomputed(n, dim, capsys):
    # the Gaussian binomial of (dim - 1)-subspaces of the quotient by I is
    # at least 3^((dim - 1)(n^2 - dim)); at n=60 computing it never ends
    argv = ["campaign", "--n", str(n), "--field", "GF(3)", "--dim", str(dim), "--contains-identity"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    bits = (dim - 1) * (n * n - dim)
    assert captured.err == (
        f"budget exceeded: at least 2^{bits} candidates exceed the campaign budget 268435456\n"
    )


@pytest.mark.parametrize("n, shown", [(60, str((3**3599 - 1) // 2)), (70, "at least 2^4898")])
def test_hopeless_full_campaigns_are_refused_by_their_table(n, shown, capsys):
    # M_n through I is one candidate ([m, m] = [m, 0] is not multiplied
    # out), but its table has (3^m - 1)/2 classes, m = n^2 - 1, at least
    # 3^(m - 1): counted in full at n=60, refused on the bound at n=70
    argv = ["campaign", "--n", str(n), "--field", "GF(3)", "--dim", str(n * n), "--contains-identity"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exceeded: {shown} classes exceed the campaign budget 268435456\n"


def test_budget_trips_the_class_sweep_of_a_hit(gf3, monkeypatch):
    # a scan that accepts every class: M_2, the one 4-dimensional space
    # through I, is a hit above n(n+1)/2 whose sweep holds 1 + (3^3 - 1)/2
    # = 14 classes, so a budget of 13 admits its campaign but not its sweep
    accept_every_class(monkeypatch)
    whole = dataclasses.replace(identity_spec(gf3), dim=4)
    report = run_campaign(dataclasses.replace(whole, budget=14))
    assert (report.total, report.alarms) == (1, ["scan accepted a space with a non-split element"])
    with pytest.raises(BudgetExceededError, match="^14 classes exceed the sweep budget 13$"):
        run_campaign(dataclasses.replace(whole, budget=13))
    # below n^2 dimensions a campaign has at least as many candidates as a
    # hit's sweep has classes: the 13 optimal hits, each swept in 5 classes
    # when its gate fails, are admitted by 13 and refused whole by 12
    fail_every_recovery(monkeypatch)
    report = run_campaign(identity_spec(gf3, budget=13))
    assert (report.total, report.hit_count, len(report.alarms)) == (13, 13, 13)
    with pytest.raises(BudgetExceededError, match="^13 candidates exceed the campaign budget 12$"):
        run_campaign(identity_spec(gf3, budget=12))


def test_budget_counts_the_classes_of_the_goodness_table(capsys):
    # M_2 is the one 4-dimensional candidate through I, but its scan reads
    # the table's (3^3 - 1)/2 = 13 classes of the quotient by F.I
    argv = ["campaign", "--n", "2", "--field", "GF(3)", "--dim", "4", "--contains-identity"]
    assert main(argv + ["--budget", "12"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "budget exceeded: 13 classes exceed the campaign budget 12\n"
    assert main(argv + ["--budget", "13"]) == 0
    assert "# total: 1\n# expected_total: 1\n# hits: 0\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, q, dim, identity, what",
    [
        # one candidate, but one-digit chunk tables of q^2 = 4,214,809 entries
        (1, 2053, 1, False, "chunk tables of 4214809 entries over GF(2053)"),
        # 1,019,091 candidates and classes, within the default budget, but
        # a goodness table of q^3 bytes
        (2, 1009, 2, True, "a goodness table of 1027243729 bytes"),
    ],
)
def test_campaign_tables_past_their_limits_are_refused_unbuilt(n, q, dim, identity, what,
                                                               monkeypatch, capsys):
    def refuse(*args):
        raise RuntimeError("a scan table was built")

    monkeypatch.setattr(weaktri.scan, "_chunk_tables", refuse)
    monkeypatch.setattr(weaktri.scan, "_Torus", refuse)
    field = FieldCtx(q)
    constraints = (Mat.identity(field, n),) if identity else ()
    with pytest.raises(PreconditionError, match=re.escape(what)):
        run_campaign(CampaignSpec(n=n, field=field, dim=dim, constraints=constraints))
    argv = ["campaign", "--n", str(n), "--field", f"GF({q})", "--dim", str(dim)]
    assert main(argv + ["--contains-identity"] * identity) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {what} exceed")


def refuse_the_quotient(monkeypatch):
    def refuse(*args):
        raise RuntimeError("a quotient was built")

    monkeypatch.setattr(weaktri.survey, "Quotient", refuse)


def test_a_scan_of_no_row_builds_no_chunk_table(monkeypatch, capsys):
    # F.I is the one candidate, decided with no quotient: the chunk tables
    # of GF(10007), 100,140,049 entries, and the torus are never built
    refuse_the_quotient(monkeypatch)
    field = FieldCtx(10007)
    spec = CampaignSpec(n=2, field=field, dim=1, constraints=(Mat.identity(field, 2),))
    report = run_campaign(spec)
    assert (report.total, report.hit_count, report.alarms) == (1, 1, [])
    assert report.hits[0].space.dim == 1
    argv = ["campaign", "--n", "2", "--field", "GF(10007)", "--dim", "1", "--contains-identity"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == report.to_text() and captured.err.startswith("elapsed: ")
    assert captured.out.startswith(
        "# campaign: n=2 field=GF(10007) dim=1 constraints=identity mode=exhaustive\n"
        "# total: 1\n# expected_total: 1\n# hits: 1\n"
    )


@pytest.mark.parametrize(
    "n, dim, identity", [(1, 1, True), (3, 1, True), (1, 0, False), (2, 0, False)]
)
def test_a_scan_of_no_row_builds_no_table(n, dim, identity, monkeypatch):
    # its one candidate, F.I or the zero space, is decided with no quotient
    refuse_the_quotient(monkeypatch)
    field = FieldCtx(5)
    constraints = (Mat.identity(field, n),) if identity else ()
    report = run_campaign(CampaignSpec(n=n, field=field, dim=dim, constraints=constraints, budget=1))
    assert (report.total, report.hit_count, report.alarms) == (1, 1, [])
    assert list(report.hits[0].space.basis) == list(constraints)


def test_non_split_hit_below_the_optimal_dimension_is_a_sweep_alarm(gf3, monkeypatch):
    # a scan that accepts all 13 planes through I: the element sweep, the
    # whole check below n(n+1)/2, finds a non-split element in 3 of them
    accept_every_class(monkeypatch)
    swept = counting_sweeps(monkeypatch)
    report = run_campaign(CampaignSpec(n=2, field=gf3, dim=2, constraints=(Mat.identity(gf3, 2),)))
    assert (report.total, report.hit_count) == (13, 13)
    assert report.alarms == ["scan accepted a space with a non-split element"] * 3
    assert len(swept) == 13


def test_unconstrained_n2_report_digest(gf3):
    # the quotient that reduces nothing: 130 planes, 46 hits
    report = run_campaign(CampaignSpec(n=2, field=gf3, dim=2))
    assert "constraints=none" in report.spec_line
    assert md5(report.to_text()) == "460a9ff81cd709e662c253f9c5c954f6"


@pytest.mark.parametrize("q, total", [(3, 896_260), (5, 317_886_556)])
def test_n3_dim7_campaign_has_no_hit(q, total):
    # a weakly triangularizable space of dimension 7 or more gives one of
    # dimension 7 through I (add F.I, which keeps it weakly
    # triangularizable, then take a 7-dimensional subspace through I):
    # none is, so t_3 <= 6 over GF(3) and GF(5)
    field = FieldCtx(q)
    spec = CampaignSpec(n=3, field=field, dim=7, constraints=(Mat.identity(field, 3),), budget=total)
    report = run_campaign(spec)
    assert report.total == report.expected_total == total
    assert (report.hit_count, report.alarms) == (0, [])
