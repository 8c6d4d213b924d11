"""Command-line surface.

Exit codes: 0 success (or verdict true), 1 usage/input error, 2 negative
check verdict, 3 theorem-violation alarm (or pencil violation), 4 budget
exceeded.  Reports are plain text with a ``# key: value`` header block;
identical inputs produce byte-identical stdout (timing goes to stderr).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .adapted import find_adapted_vector
from .errors import BudgetExceededError, TheoremViolationError
from .flags import recover_flag
from .gf import parse_field
from .linalg import Mat
from .spaces import (
    DEFAULT_BUDGET,
    MatSpace,
    check_budget,
    check_matrix_size,
    format_spacefile,
    parse_spacefile,
)
from .survey import (
    DEFAULT_SEED,
    CampaignSpec,
    count_flags,
    gen_joint,
    gen_random,
    gen_sl,
    gen_sym,
    gen_triangular,
    run_campaign,
)
from .pencils import verify_pencil_division
from .triang import space_weakly_triangularizable


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2, which means a negative check
    verdict; the message still goes to stderr."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_spacefile(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_spacefile(text)


def _add_budget_arg(sub, what):
    sub.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"{what} (default: {DEFAULT_BUDGET})",
    )


def cmd_check(args):
    space = _read_spacefile(args.spacefile)
    mode = args.mode
    # the verdict comes first, so a refused mode or budget prints nothing
    if mode == "exhaustive":
        verdict = space_weakly_triangularizable(space, budget=args.budget)
    else:
        kind, *parts = mode.split(":")
        try:  # a wrong part count fails the unpacking
            count, seed = map(int, parts) if kind == "sample" else ()
        except ValueError:
            raise ValueError(f"bad --mode {mode!r}; use exhaustive or sample:N:SEED") from None
        verdict = space_weakly_triangularizable(
            space, mode="sample", count=count, seed=seed, budget=args.budget
        )
    print(f"# space: n={space.n} dim={space.dim} field={space.field.descriptor()}")
    if mode != "exhaustive":
        print(f"# seed: {seed}")
    print(f"# mode: {mode}")
    print(f"# checked: {verdict.checked}")
    print(f"# certified: {'yes' if verdict.certified else 'no'}")
    if verdict.all_triangularizable:
        note = "" if verdict.certified else f" (no counterexample in {verdict.checked} samples)"
        print(f"verdict true{note}")
        return 0
    print("verdict false")
    print("witness " + " ".join(str(e) for e in verdict.witness.entries))
    return 2


def cmd_recover(args):
    space = _read_spacefile(args.spacefile)
    flag, trace = recover_flag(space, budget=args.budget)
    text = trace.to_text()
    if args.trace:
        # written before anything is printed, so an unwritable path prints nothing
        with open(args.trace, "w") as fh:
            fh.write(text)
    print(f"# space: n={space.n} dim={space.dim} field={space.field.descriptor()}")
    print("# recovered: yes")
    for i, vec in enumerate(flag.basis, start=1):
        print(f"e{i} " + " ".join(str(e) for e in vec))
    if args.trace:
        print(f"# trace_file: {args.trace}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_adapted(args):
    space = _read_spacefile(args.spacefile)
    vec = find_adapted_vector(space, budget=args.budget)
    print(f"# space: n={space.n} dim={space.dim} field={space.field.descriptor()}")
    if vec is None:
        print("none")
    else:
        print("adapted " + " ".join(str(e) for e in vec))
    return 0


def cmd_lemma31(args):
    field = parse_field(args.field)
    report = verify_pencil_division(field, args.degree, budget=args.budget)
    print(f"# field: {field.descriptor()}")
    print(f"# degree: {args.degree}")
    print(report.summary())
    return 0 if report.ok else 3


def cmd_campaign(args):
    check_matrix_size(args.n)
    field = parse_field(args.field)
    constraints = ()
    if args.contains_identity:
        constraints = (Mat.identity(field, args.n),)
    spec = CampaignSpec(
        n=args.n,
        field=field,
        dim=args.dim,
        constraints=constraints,
        budget=args.budget,
    )
    started = time.time()
    report = run_campaign(spec)
    sys.stdout.write(report.to_text())
    print(f"elapsed: {time.time() - started:.1f}s", file=sys.stderr)
    return 3 if report.alarms else 0


def cmd_gen(args):
    field = parse_field(args.field)
    kind = args.kind
    if kind == "joint":
        if not args.blocks:
            raise ValueError("--kind joint needs --blocks, e.g. --blocks 1,2")
        space = gen_joint([_full_algebra(_block_size(t), field) for t in args.blocks.split(",")])
    else:
        if args.n is None:
            raise ValueError(f"--kind {kind} needs --n")
        check_matrix_size(args.n)
        if kind == "triangular":
            space = gen_triangular(args.n, field)
        elif kind == "sym":
            space = gen_sym(args.n, field)
        elif kind == "sl":
            space = gen_sl(args.n, field)
        else:  # random: argparse's choices admit no other kind
            if args.dim is None:
                raise ValueError("--kind random needs --dim")
            space = gen_random(args.n, field, args.dim, args.seed)
    sys.stdout.write(format_spacefile(space))
    return 0


def _block_size(token):
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad --blocks entry {token!r}; use sizes such as 1,2") from None


def _full_algebra(n, field):
    check_matrix_size(n)
    units = [Mat.unit(field, n, i, j) for i in range(n) for j in range(n)]
    return MatSpace.from_span(units, field=field, n=n)


def cmd_flags(args):
    field = parse_field(args.field)
    check_matrix_size(args.n)
    # q^(n(n-1)/2) bounds the count below: a count that bound already shows
    # too long for Python's int-to-str limit (none before 3.10.7) is refused
    # uncomputed, and the digits are formed before any line is printed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = f"the flag count has more than {limit} digits, too many to print"
    if limit and args.n * (args.n - 1) // 2 * math.log10(field.q) >= limit:
        raise ValueError(too_long)
    count = count_flags(args.n, field)
    try:
        count = str(count)
    except ValueError:  # past the limit, though the bound was not
        raise ValueError(too_long) from None
    print(f"# n: {args.n}")
    print(f"# field: {field.descriptor()}")
    print(count)
    return 0


def build_parser():
    parser = _Parser(
        prog="weaktri",
        description="Exact-arithmetic weak-triangularizability toolkit over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide weak triangularizability of a space")
    p.add_argument("spacefile", help="matrix-space file, or - for stdin")
    p.add_argument("--mode", default="exhaustive", help="exhaustive or sample:N:SEED")
    _add_budget_arg(p, "budget of the check: the exhaustive mode decides one element per "
                       "class of M ~ cM (and M ~ M + lambda I when I is in the space), and "
                       "the class count must not exceed it; in sample:N:SEED mode N must "
                       "not exceed it (exit 4)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", help="recover the invariant flag of an optimal space")
    p.add_argument("spacefile", help="matrix-space file, or - for stdin")
    p.add_argument("--trace", default=None, help="write the recovery trace to a file")
    _add_budget_arg(p, "budget of the class sweep, which runs only when the flag gate fails")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("adapted", help="first adapted vector of a space")
    p.add_argument("spacefile", help="matrix-space file, or - for stdin")
    _add_budget_arg(p, "budget of the line scan: the projective lines tried until one is "
                       "adapted must not exceed it (exit 4)")
    p.set_defaults(func=cmd_adapted)

    p = sub.add_parser("lemma31", help="exhaustive split-pencil divisibility sweep")
    p.add_argument("--field", required=True, help="field descriptor, e.g. GF(3)")
    p.add_argument("--degree", type=int, required=True)
    _add_budget_arg(p, "budget of the sweep: the q^(2d-1) monic (p, q) pairs of degrees "
                       "(d, d-1) must not exceed it (exit 4)")
    p.set_defaults(func=cmd_lemma31)

    p = sub.add_parser("campaign", help="sweep subspaces for weakly triangularizable hits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--contains-identity", action="store_true")
    _add_budget_arg(p, "campaign budget: first the nominal candidate count, and the "
                       "(q^m - 1)/(q - 1) classes the goodness table of an m-dimensional "
                       "quotient decides unless no row is scanned, must not exceed it "
                       "(exit 4); then it bounds each class sweep: of a hit whose flag "
                       "gate fails, and of a hit not of dimension n(n+1)/2")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("gen", help="emit a named space as a spacefile")
    p.add_argument("--kind", required=True,
                   choices=["triangular", "sym", "sl", "joint", "random"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--field", required=True)
    p.add_argument("--dim", type=int, default=None, help="dimension for --kind random")
    p.add_argument("--blocks", default=None, help="joint block sizes, e.g. 1,2")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("flags", help="count the complete flags of F^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_flags)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "budget"):
            # a negative budget is refused before any command prints
            check_budget(0, args.budget, "")
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except TheoremViolationError as exc:
        print(f"THEOREM VIOLATION: {exc}", file=sys.stderr)
        if exc.trace is not None:
            sys.stderr.write(exc.trace.to_text())
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
