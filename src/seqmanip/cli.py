"""Command-line front end.

JSON goes to standard output, logs to standard error.  Exit codes: 0 on
success, 1 on invalid input, 2 on an internal verification mismatch (the
dynamic program disagreeing with an oracle, or a solver's self-check
failing, which must never happen), 3 when a search budget (the dynamic
program's states, an oracle's states or policies) is exceeded or memory
runs out.

Each command imports the solvers it runs, so ``solve`` without ``--check``
loads neither the oracles nor the sweeps.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .dp import best_response_with_table
from .engine import BudgetExceeded, Solution, _positive_int, manipulator_bundle
from .model import (
    Instance,
    InstanceError,
    generate_random_instance,
    generate_tightness_instance,
    parse_instance,
    serialize_instance,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ``solve --dump-table`` writes this many rows at a time.
_ROWS_PER_WRITE = 1024


def _emit_table(payload: dict, rows: Iterable[dict]) -> None:
    """``_emit({**payload, "table": list(rows)})`` for non-empty ``rows``,
    written ``_ROWS_PER_WRITE`` rows at a time, so that neither every row
    nor the whole text is held at once.  The rows go where a NaN put in
    their place is printed: no other value in a payload is a float, and no
    string's text holds a raw newline, so "NaN\\n" occurs there only."""
    head, tail = json.dumps({**payload, "table": [math.nan]}, indent=2, sort_keys=True).split("NaN\n")
    cut = head.rindex("\n")
    head, newline = head[:cut], head[cut:]  # ``newline``: a newline and the rows' indent
    encode = json.JSONEncoder(indent=2, sort_keys=True).encode
    write = sys.stdout.write
    rows = iter(rows)
    separator = head
    while batch := list(itertools.islice(rows, _ROWS_PER_WRITE)):
        # Each row of an encoded list starts with a newline and two spaces.
        write(separator + encode(batch)[1:-2].replace("\n  ", newline))
        separator = ","
    write(f"\n{tail}\n")


def _load_instance(path: str) -> Instance:
    if path == "-":
        return parse_instance(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _decimal(value: Fraction, places: int = 6) -> str:
    scaled = round(value * 10**places)
    return f"{scaled // 10**places}.{scaled % 10**places:0{places}d}"


def _budget(text: str) -> int:
    budget = _positive_int(text)
    if budget is None:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return budget


def _check_bounds(args: argparse.Namespace, lowest: dict[str, int]) -> None:
    """Reject the first option in ``lowest`` whose value is below its bound."""
    for option, bound in lowest.items():
        if getattr(args, option[2:].replace("-", "_")) < bound:
            raise InstanceError(args.command, f"{option} must be at least {bound}")


def _solution_payload(inst: Instance, solution: Solution) -> dict:
    return {
        "bundle": [item for item in inst.manipulator_ranking if item in solution.bundle.items],
        "utility": str(solution.utility),
        "strategy": list(solution.strategy),
        "sequence": [{"item": item, "agent": agent} for item, agent in solution.sequence],
    }


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    solution, table = best_response_with_table(inst, budget=args.budget)
    payload = _solution_payload(inst, solution)
    payload["dp_states"] = len(table)
    exit_code = EXIT_OK
    if args.check:
        from .oracle import dominated_greedy_best

        reference, certificate = dominated_greedy_best(inst, budget=args.budget)
        agrees = reference.utility == solution.utility
        payload["check"] = {
            "method": "dominated-greedy",
            "utility": str(reference.utility),
            "certificate_policy": list(certificate),
            "agrees": agrees,
        }
        if not agrees:
            _log("verification mismatch: dynamic program disagrees with the dominated-greedy oracle")
            exit_code = EXIT_MISMATCH
    if not args.dump_table:
        _emit(payload)
        return exit_code
    rows = (
        {
            "state": {"x": state.x, "y": state.y, "last_rank": list(state.last_rank)},
            "utility": str(entry.utility),
            "pred": None
            if entry.pred is None
            else {"x": entry.pred.x, "y": entry.pred.y, "last_rank": list(entry.pred.last_rank)},
            "q": entry.q,
        }
        for state, entry in sorted(table.items())
    )
    _emit_table(payload, rows)
    return exit_code


def _cmd_greedy(args: argparse.Namespace) -> int:
    from .greedy import greedy_alg

    inst = _load_instance(args.instance)
    seq, strategy = greedy_alg(inst)
    _emit(_solution_payload(inst, Solution(strategy, seq, manipulator_bundle(inst, seq))))
    return EXIT_OK


def _cmd_truthful(args: argparse.Namespace) -> int:
    from .responses import truthful_response

    inst = _load_instance(args.instance)
    _emit(_solution_payload(inst, truthful_response(inst)))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import choice_tree_best, dominated_greedy_best

    inst = _load_instance(args.instance)
    if args.method == "choice-tree":
        solution = choice_tree_best(inst, budget=args.budget)
        payload = _solution_payload(inst, solution)
    else:
        solution, certificate = dominated_greedy_best(inst, budget=args.budget)
        payload = _solution_payload(inst, solution)
        payload["certificate_policy"] = list(certificate)
    payload["method"] = args.method
    _emit(payload)
    return EXIT_OK


def _cmd_ratio(args: argparse.Namespace) -> int:
    from .responses import approximation_report

    if args.tightness is not None:
        inst = generate_tightness_instance(args.tightness)
    elif args.instance is not None:
        inst = _load_instance(args.instance)
    else:
        raise InstanceError("ratio", "give an instance file or --tightness K")
    report = approximation_report(inst)
    _emit(
        {
            "truthful": str(report.truthful),
            "optimal": str(report.optimal),
            "ratio": str(report.ratio),
            "ratio_decimal": _decimal(report.ratio),
        }
    )
    return EXIT_OK


def _cmd_achievable(args: argparse.Namespace) -> int:
    from .responses import allocation_response

    inst = _load_instance(args.instance)
    target = [token for token in args.target.split(",") if token]
    result = allocation_response(inst, target)
    _emit({"target": sorted(target), "achievable": result})
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.tightness is not None:
        inst = generate_tightness_instance(args.tightness)
        _log(f"generated tightness instance k={args.tightness}")
    else:
        if args.seed is None:
            raise InstanceError("gen", "--seed is required for random generation")
        inst = generate_random_instance(args.agents, args.items, args.seed)
        _log(f"generated random instance agents={args.agents} items={args.items} seed={args.seed}")
    text = serialize_instance(inst)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _log(f"wrote {args.output}")
    else:
        print(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    import itertools

    from . import sweeps

    # A random instance has at least one item.
    _check_bounds(args, {"--random": 0, "--agents": 1, "--max-items": 1 if args.random else 0, "--workers": 1})
    specs = []
    if args.exhaustive:
        specs.append(sweeps.iter_exhaustive_specs(args.agents, args.max_items))
    if args.random:
        specs.append(
            sweeps.iter_random_specs(args.random, [args.agents], args.max_items, args.seed)
        )
    if not specs:
        raise InstanceError("verify", "nothing to do: pass --exhaustive and/or --random COUNT")
    summary = sweeps.sweep(
        itertools.chain.from_iterable(specs),
        workers=args.workers,
        budget=args.budget,
    )
    payload = {
        "checked": summary.checked,
        "agents": args.agents,
        "max_items": args.max_items,
        "seed": args.seed,
        "mismatches": [list(map(str, spec)) for spec in summary.mismatches],
        "half_violations": [list(map(str, spec)) for spec in summary.half_violations],
        "state_bound_violations": [list(map(str, spec)) for spec in summary.bound_violations],
        "ok": summary.ok,
    }
    _emit(payload)
    if not summary.ok:
        _log("verification mismatch: see the mismatch lists in the output")
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    import csv
    import io
    from dataclasses import asdict

    from . import sweeps

    tokens = [tok.strip() for tok in args.sizes.split(",") if tok]
    if not tokens or not all(tok.isdecimal() for tok in tokens):
        raise InstanceError("bench", "--sizes must be comma-separated item counts, each at least 0")
    _check_bounds(args, {"--agents": 1, "--per-size": 1, "--workers": 1})
    sizes = [int(tok) for tok in tokens]
    params = [
        (args.agents, m, args.seed + offset)
        for m in sizes
        for offset in range(args.per_size)
    ]
    rows = sweeps.bench_many(params, workers=args.workers)
    rendered = [
        {
            **asdict(row),
            "utility_opt": str(row.utility_opt),
            "utility_truthful": str(row.utility_truthful),
            "ratio": None if row.ratio is None else str(row.ratio),
            "dp_millis": round(row.dp_millis, 3),
        }
        for row in rows
    ]
    if args.csv:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(sweeps.BENCH_FIELDS))
        writer.writeheader()
        for row in rendered:
            writer.writerow({key: ("" if row[key] is None else row[key]) for key in sweeps.BENCH_FIELDS})
        if args.csv == "-":
            sys.stdout.write(buffer.getvalue())
        else:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                handle.write(buffer.getvalue())
            _log(f"wrote {args.csv}")
    else:
        _emit({"rows": rendered})
    return EXIT_OK


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser, with arguments (``-h`` included) only for the commands
    named in ``argv``: argparse runs no other command's parser, and the
    top-level help and errors read only the commands' names and help."""
    parser = argparse.ArgumentParser(
        prog="seqmanip",
        description="Exact best-response solvers for manipulating sequential allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = set(argv)

    def command(name: str, help_text: str, func) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_text, add_help=name in named)
        p.set_defaults(func=func)
        return p if name in named else None

    def add_instance(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance JSON file, or - for stdin")

    p = command("solve", "optimal response via the dynamic program", _cmd_solve)
    if p:
        add_instance(p)
        p.add_argument("--check", action="store_true", help="cross-check against the dominated-greedy oracle")
        p.add_argument("--dump-table", action="store_true", help="include the state table in the output")
        p.add_argument(
            "--budget",
            type=_budget,
            default=None,
            help="budget of the DP's stored states and of the --check oracle's dominated policies",
        )

    p = command("greedy", "run the greedy procedure", _cmd_greedy)
    if p:
        add_instance(p)

    p = command("truthful", "execute the truthful strategy", _cmd_truthful)
    if p:
        add_instance(p)

    p = command("oracle", "run a brute-force oracle", _cmd_oracle)
    if p:
        add_instance(p)
        p.add_argument(
            "--method",
            choices=["choice-tree", "dominated-greedy"],
            default="choice-tree",
        )
        p.add_argument("--budget", type=_budget, default=None, help="search budget override")

    p = command("ratio", "truthful/optimal approximation report", _cmd_ratio)
    if p:
        p.add_argument("instance", nargs="?", default=None, help="instance JSON file")
        p.add_argument("--tightness", type=int, default=None, metavar="K", help="use the tightness family with eps = 1/K")

    p = command("achievable", "can the manipulator get exactly a target bundle?", _cmd_achievable)
    if p:
        add_instance(p)
        p.add_argument("--target", required=True, help="comma-separated item list, e.g. a,b")

    p = command("gen", "generate an instance document", _cmd_gen)
    if p:
        p.add_argument("--agents", type=int, default=3)
        p.add_argument("--items", type=int, default=6)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tightness", type=int, default=None, metavar="K")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = command("verify", "sweep instances and check solver agreement", _cmd_verify)
    if p:
        p.add_argument("--agents", type=int, default=3)
        p.add_argument("--max-items", type=int, default=5)
        p.add_argument("--exhaustive", action="store_true", help="all policies x all ranking tuples up to --max-items")
        p.add_argument("--random", type=int, default=0, metavar="COUNT", help="additionally check COUNT random instances")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=_budget, default=None)
        p.add_argument("--workers", type=int, default=1)

    p = command("bench", "time the dynamic program on generated instances", _cmd_bench)
    if p:
        p.add_argument("--agents", type=int, default=3)
        p.add_argument("--sizes", default="10,15,20,25,30", help="comma-separated item counts")
        p.add_argument("--per-size", type=int, default=3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--csv", default=None, metavar="PATH", help="write CSV to PATH ('-' for stdout) instead of JSON")
        p.add_argument("--workers", type=int, default=1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _log(f"error: {exc}")
        return EXIT_BUDGET
    except MemoryError:
        _log("error: out of memory; lower --budget or give the process more memory")
        return EXIT_BUDGET
    except RuntimeError as exc:
        # A solver's self-check failed: a bug, reported like an oracle mismatch.
        if not str(exc).startswith("internal error"):
            raise
        _log(f"error: {exc}")
        return EXIT_MISMATCH
    except InstanceError as exc:
        _log(f"error: {exc}")
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
