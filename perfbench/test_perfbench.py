"""Tests of the benchmark itself, at toy size:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run._use_checkout_source()

import tracer as tracing  # noqa: E402
import weaktri  # noqa: E402
import workloads  # noqa: E402
from oracle import RefField  # noqa: E402
from speed import Speedometer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_ops(seed=7, campaign_hits=4):
    """Campaign n=2 GF(3) dim 3 containing I (13 candidates, 4 flags), a few
    recoveries, and the GF(3) d=2 pencil sweep with one counterexample."""
    mix = ((2, 3, (3,)), (2, 3, (3, 2, (1, 0, 1))), (1, 4, (5,)))
    return (
        [workloads.campaign_op(2, (3,), 3, 13, campaign_hits)]
        + workloads.recover_ops(seed, mix)
        + workloads.lemma_ops(cases=(((3,), 2, (27, 9, 0)),), degrees=(3,))
    )


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_toy_pass_emits_every_end_to_end_metric():
    ops = toy_ops()
    passes = run.run_passes(ops, 0)
    metrics = run.end_to_end(passes, [(0.25, 1.0), (1.0, 2.0), (0.75, 1.0)])
    result = run.result_line(passes, metrics)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, len(ops), 0)
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert metrics["setup_s"]["value"] == 0.5  # median of seconds over slowdown


def test_toy_traced_pass_emits_every_layer_metric():
    tracer = tracing.Tracer()
    passes = run.run_passes(toy_ops(), 0, tracer)
    assert [p["traced"] for p in passes] == [False, True]
    assert not any(p["failures"] for p in passes)
    metrics = tracer.layer_metrics(run.overhead_share(passes))
    assert units(metrics) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    value = {name: metric["value"] for name, metric in metrics.items()}
    assert (value["survey.candidates"], value["survey.hits"]) == (13, 4)
    assert (value["pencils.pairs"], value["pencils.hypothesis_hits"]) == (27, 9)
    assert value["flags.recover_flag.calls"] == 5 + 4  # the ops' and the campaign's
    assert value["survey.verify.calls"] == 8  # sweep and recovery per n=2 hit
    assert 0 < value["gf.splits_over.distinct_share"] <= 1
    # wrappers are gone once the traced pass ends
    assert weaktri.survey.char_poly is weaktri.linalg.char_poly
    assert weaktri.spaces.MatSpace.from_span.__func__.__module__ == "weaktri.spaces"


def test_self_time_accounts_for_the_campaign_span():
    tracer = tracing.Tracer()
    run.run_passes(toy_ops()[:1], 0, tracer)
    (span,) = [s for s in tracer.spans if s["name"].startswith("campaign")]
    aliases = set(tracing.BINDING_KEYS.values())
    self_sum = sum(rec[2] for key, rec in span["funcs"].items() if key not in aliases)
    assert self_sum == pytest.approx(span["funcs"]["survey.run_campaign"][1], rel=1e-9)


def test_wrong_reference_and_raising_op_count_as_failed():
    def boom():
        raise weaktri.PreconditionError("deliberate")

    ops = toy_ops(campaign_hits=5) + [workloads.Op("raises", boom, lambda out: None)]
    passes = run.run_passes(ops, 0)
    result = run.result_line(passes, run.end_to_end(passes, [(0.1, 1.0)]))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, len(ops), 2)
    assert "expected" in passes[0]["failures"][0]
    assert "deliberate" in passes[0]["failures"][1]


def test_recovery_inputs_follow_the_seed():
    def chain(seed):
        return workloads.recover_ops(seed, ((1, 3, (5,)),))[0].run()[0]

    assert chain(3) == chain(3) != chain(4)


def test_reference_field_matches_library_packing():
    for args in ((7,), (3, 2, (1, 0, 1))):
        ref, lib = RefField(*args), weaktri.FieldCtx(*args)
        for a in range(ref.q):
            for b in range(ref.q):
                assert ref.mul(a, b) == lib.mul(a, b)
                assert ref.sub(a, b) == lib.sub(a, b)
            if a:
                assert ref.inv(a) == lib.inv(a)


def test_pass_times_are_divided_by_the_slowdown():
    passes = [{"wall": 4.0, "ops": [1.0, 3.0], "slowdown": 2.0}]
    assert run.pass_summary(passes) == {"wall_s": 2.0, "op_p50_ms": 1000.0, "op_tail_ms": 1500.0}
    assert run.pass_summary(passes, normalized=False)["wall_s"] == 4.0
    assert Speedometer().sample() > 0


def test_op_time_leaves_out_probe_samples():
    speed = Speedometer()
    ops = [workloads.Op("probes", lambda: [speed.sample() for _ in range(5)], lambda out: None)]
    durations, failures = run.run_pass(ops, speed)
    assert failures == [] and 0 <= durations[0] < 0.005
    with speed.sampling():  # a busy second and a bit: the timer fires twice
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) == 5 + 2


def test_tail_percentile():
    assert run.tail(range(1, 401)) == (97, 388)
    assert run.tail([3, 1, 2]) == (100, 3)


def test_command_refuses_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma31", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
