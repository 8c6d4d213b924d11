"""The benchmark's workloads: each is a list of ops that call the public
``weaktri`` API, with every answer checked against a fixed reference.

An op is one coarse entry call as a user makes it: one campaign, one flag
recovery, or one pencil sweep.  Building the ops (fields, specs, conjugated
input spaces, reference chains) is set-up; running them is the timed phase.
Functions are looked up on the ``weaktri`` package when an op runs, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import weaktri
from oracle import RefField, column_chain, rank


@dataclass
class Op:
    """``run`` does the timed work; ``check`` returns None for a right answer
    and a description of the mismatch otherwise."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# -- campaigns --------------------------------------------------------------------


def campaign_op(n, field_args, dim, total, hits):
    """An exhaustive one-shard campaign over dim-dimensional spaces
    containing I, with its text report; the header must show the reference
    counts."""
    field = weaktri.FieldCtx(*field_args)
    spec = weaktri.CampaignSpec(
        n=n,
        field=field,
        dim=dim,
        constraints=(weaktri.Mat.identity(field, n),),
    )
    want = {"total": str(total), "hits": str(hits), "hits_verified": "yes", "alarms": "0"}

    def run():
        report = weaktri.run_campaign(spec)
        return report.to_text()

    def check(text):
        header = dict(
            line[2:].split(": ", 1)
            for line in text.splitlines()
            if line.startswith("# ") and ": " in line
        )
        got = {key: header.get(key) for key in want}
        return None if got == want else f"report header {got}, expected {want}"

    return Op(f"campaign n={n} {field.descriptor()} dim={dim}", run, check)


# -- flag recovery ----------------------------------------------------------------

# (count, n, field): conjugates of the n-by-n upper-triangular space
RECOVER_MIX = (
    (130, 4, (3,)),
    (60, 5, (3,)),
    (60, 4, (5,)),
    (60, 4, (7,)),
    (60, 4, (3, 2, (1, 0, 1))),
    (30, 3, (101,)),
)


def _random_invertible(rng, n, ref):
    while True:
        entries = tuple(rng.randrange(ref.q) for _ in range(n * n))
        if rank(entries, n, ref) == n:
            return entries


def recover_op(space, expected_chain):
    """Recover the flag of an optimal space, regenerate the space from it and
    extract its structure maps; the chain must equal ``expected_chain``."""

    def run():
        flag, _trace = weaktri.recover_flag(space, assume_weakly_triangularizable=True)
        regenerates = weaktri.flag_space(flag) == space
        maps_ok = weaktri.extract_structure_maps(space, flag).all_checks_pass()
        return flag.chain(), regenerates, maps_ok

    def check(out):
        chain, regenerates, maps_ok = out
        if chain != expected_chain:
            return "recovered chain differs from the conjugator's column spans"
        if not regenerates:
            return "flag_space of the recovered flag differs from the input"
        if not maps_ok:
            return "structure-map checks failed"
        return None

    return Op(f"recover n={space.n} {space.field.descriptor()}", run, check)


def recover_ops(seed, mix=RECOVER_MIX):
    """Seeded conjugates P T P^-1 of upper-triangular spaces T; the flag of
    each is spanned by P's leading columns."""
    rng = random.Random(seed)
    ops = []
    for count, n, field_args in mix:
        field, ref = weaktri.FieldCtx(*field_args), RefField(*field_args)
        for _ in range(count):
            entries = _random_invertible(rng, n, ref)
            p = weaktri.Mat(field, n, entries)
            space = weaktri.gen_triangular(n, field, conjugate_by=p)
            ops.append(recover_op(space, column_chain(entries, n, ref)))
    return ops


# -- split-pencil lemma ---------------------------------------------------------------

# (field, degree, (pairs, hypothesis hits, violations))
PENCIL_CASES = (
    ((5,), 3, (3125, 75, 0)),
    ((7,), 3, (16807, 196, 0)),
    ((3,), 4, (2187, 30, 0)),
    ((3, 2, (1, 0, 1)), 2, (729, 81, 0)),
)
COUNTEREXAMPLE_DEGREES = (3, 5)


def pencil_op(field_args, degree, expected):
    field = weaktri.FieldCtx(*field_args)

    def run():
        report = weaktri.verify_pencil_division(field, degree)
        return report.pairs_checked, report.hypothesis_hits, len(report.violations)

    def check(got):
        return None if got == expected else f"(pairs, hits, violations) {got}, expected {expected}"

    return Op(f"pencils {field.descriptor()} d={degree}", run, check)


def counterexample_op(degree):
    def run():
        return weaktri.char2_odd_counterexample(degree).confirmed

    def check(confirmed):
        return None if confirmed else "GF(2) counterexample not confirmed"

    return Op(f"char2 counterexample d={degree}", run, check)


def lemma_ops(cases=PENCIL_CASES, degrees=COUNTEREXAMPLE_DEGREES):
    return [pencil_op(*case) for case in cases] + [counterexample_op(d) for d in degrees]


# Only recover-mix draws from the seed; the others are exhaustive over fixed inputs.
WORKLOADS = {
    "campaign-gf3": lambda seed: [campaign_op(3, (3,), 6, 25_095_280, 52)],
    "recover-mix": recover_ops,
    "lemma31": lambda seed: lemma_ops(),
}
