"""Command-line front end.

Exit codes: 0 affirmative verdict or plain success, 1 negative verdict,
2 usage error (unparseable input, out-of-range parameters), 3 internal
error (oracle disagreement, broken invariant, out of memory). `check` has
one verdict path: `eg` and `certificate` take the verdict from the
Erdős–Gallai core, `hh` and `constant` from their reduction traces (which
agree with it everywhere), so `--method` only picks the certificate. The
hub-fill witness of `certificate` covers only some negative answers; an
answer of that method without a certificate is marked `"conclusive":
false` (text: `inconclusive: no domination witness`) and exits 0.
Output is line-oriented and stable; informational notes go to stderr so
stdout can be compared against golden files. Every `--json` record is the
text of json.dumps with sorted keys; a trace, a graph's edges or a maximal
image is spliced into it item by item (_emit_spliced). Graphs print from
checked neighbor lists; no command builds a SimpleGraph. Each command
imports the library modules it runs when it starts, so building the parser
loads none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    BadSumError,
    DegseqError,
    InternalInconsistencyError,
    NotCGraphicalError,
    NotGraphicalError,
    NotMajorizedError,
    OracleMismatchError,
    OutOfRangeError,
    SumMismatchError,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Most integers a trace prints unless --max-trace raises it: n² (hh) to 2n² for n entries
TRACE_BUDGET = 100_000_000
# A longer admitted trace is counted without its states and then built again, so a
# refusal holds the runs of at most this many printed integers
TRACE_KEPT = 4_000_000
# maximal.ORACLES, repeated so that building the parser does not import maximal
ORACLES = ("graphs", "partitions", "both")
# graphs._edge_runs pieces of a JSON edge list: "[u, v]" texts joined by ", "
JSON_EDGE = ("[", ", ", "]", ", ")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True))


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _parse_seq(orders, args, literal: str):
    """The DegreeSequence of a literal, parsed by the orders module."""
    # "-" reads the literal from stdin, for sequences past the argv size cap;
    # a second "-" in one command finds stdin drained and is a usage error
    if literal == "-":
        literal = sys.stdin.read()
    seq, already_sorted = orders.parse_sequence(literal)
    if not already_sorted:
        _note(args, f"note: input reordered to {orders.format_sequence(seq)}")
    return seq


def _emit_spliced(record: dict, key: str, texts) -> None:
    """Write json.dumps(record, sort_keys=True) and a newline with the None
    value of key, at any depth, replaced by the list of the JSON texts
    texts, written one by one, so a long list is never held as one string."""
    head, tail = json.dumps(record, sort_keys=True).split(f'"{key}": null', 1)
    write = sys.stdout.write
    write(f'{head}"{key}": [')
    for i, text in enumerate(texts):
        write(f", {text}" if i else text)
    write(f"]{tail}\n")


def _cmd_check(args) -> int:
    from . import graphs, orders, realizability
    seq = _parse_seq(orders, args, args.sequence)
    method = args.method
    certificate = trace = up = c_graphical = None
    if args.connected:  # one is_c_graphical test, and the realization only on a yes
        c_graphical = realizability.is_c_graphical(seq)
        if c_graphical:
            up = realizability._built(seq, True)
    if c_graphical:  # implies graphical; the realization is printed, so no trace is built
        graphical = True
    elif method in ("hh", "constant"):  # the trace is printed from its runs
        budget = max(TRACE_BUDGET, args.max_trace or 0)
        constant = method == "constant"
        trace = realizability._reduction(seq, constant, TRACE_KEPT)
        graphical, printed = trace.graphical, trace.printed
        if printed > budget:
            raise OutOfRangeError(
                f"the {method} trace would print {printed} integers, over the budget of "
                f"{budget}; --max-trace {printed} prints it"
            )
        if printed > TRACE_KEPT:
            trace = realizability._reduction(seq, constant)
    else:  # eg, certificate
        graphical = realizability.erdos_gallai(seq)
        if method == "certificate" and not graphical:
            try:
                certificate = realizability.non_graphical_certificate(seq)
            except BadSumError:  # odd total, or no hub fill has this total
                pass
    verdict = realizability.Verdict(seq, graphical, c_graphical, method, certificate)
    inconclusive = method == "certificate" and certificate is None and up is None

    if args.json:  # a realization or a trace is spliced into the verdict's record
        record = verdict.to_dict()
        if inconclusive:
            record["conclusive"] = False
        if up is not None:
            record["certificate"] = {"kind": "realization", "n": len(up), "edges": None}
            _emit_spliced(record, "edges", graphs._edge_runs(up, *JSON_EDGE))
        elif trace is not None:
            record["certificate"] = {"kind": "trace", "outcome": trace.outcome, "steps": None}
            rendered = realizability._rendered_steps(trace.states, trace.rules, ", ")
            # a rule ("hh", "reduce(k=1,n=3)") needs no escape in JSON
            steps = (f'{{"after": [{a}], "before": [{b}], "rule": "{r}"}}' for b, r, a in rendered)
            _emit_spliced(record, "steps", steps)
        else:
            _emit_json(record)
    else:
        _emit(f"sequence: {orders.format_sequence(seq)}")
        _emit(f"graphical: {'yes' if graphical else 'no'} (method: {method})")
        if args.connected:
            _emit(f"c-graphical: {'yes' if c_graphical else 'no'}")
        if trace is not None:
            steps = realizability._rendered_steps(trace.states, trace.rules, ",")
            for before, rule, after in steps:
                _emit(f"  {before} -[{rule}]-> {after}")
            _emit(f"  {trace.outcome}")
        elif isinstance(certificate, realizability.NonGraphicalWitness):
            _emit(f"witness: {orders.format_sequence(certificate.witness)} (d={certificate.d})")
        elif up is not None:
            _emit("realization: " + " ".join(graphs._edge_runs(up, "", "-", "", " ")))
        elif inconclusive:
            _emit("inconclusive: no domination witness")
    # is_c_graphical is exact, so only a plain certificate answer can be inconclusive
    negative = not c_graphical if args.connected else not (graphical or inconclusive)
    return EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_realize(args) -> int:
    from . import graphs, orders, realizability
    seq = _parse_seq(orders, args, args.sequence)
    try:
        up = realizability._realization(seq, args.connected)
    except (NotGraphicalError, NotCGraphicalError) as exc:
        if args.json:
            _emit_json({"sequence": list(seq), "realized": False, "reason": str(exc)})
        else:
            print(f"not realizable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.json:
        record = {"sequence": list(seq), "realized": True, "n": len(up), "edges": None}
        _emit_spliced(record, "edges", graphs._edge_runs(up, *JSON_EDGE))
    elif args.format == "dot":
        _emit(graphs._dot(up))
    else:
        _emit(graphs._edge_list_text(up))
    return EXIT_OK


def _cmd_compare(args) -> int:
    from . import orders
    x = _parse_seq(orders, args, args.x)
    y = _parse_seq(orders, args, args.y)
    verdict = orders.compare(x, y, order=args.order)
    if args.json:
        _emit_json({"x": list(x), "y": list(y), "order": args.order, "verdict": verdict.value})
    else:
        _emit(verdict.value)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from . import constructions, graphs, orders
    n, d = args.n, args.d
    if d < 0 and args.prime:
        raise DegseqError("the clique-fill family is not defined for d < 0")
    family = constructions.clique_fill_sequence if args.prime else constructions.hub_fill_sequence
    seq = (constructions._incomplete_star if d < 0 else family)(n, d)
    # the graph's checked neighbor lists are built only when it is printed
    up = None if args.emit == "seq" else constructions._lists(seq)
    if args.json:
        payload = {"n": n, "d": d, "prime": bool(args.prime), "sequence": list(seq)}
        if up is not None:
            _emit_spliced({**payload, "edges": None}, "edges", graphs._edge_runs(up, *JSON_EDGE))
        else:
            _emit_json(payload)
        return EXIT_OK
    if args.emit in ("seq", "both"):
        _emit(orders.format_sequence(seq))
    if up is not None:
        _emit(graphs._edge_list_text(up))
    return EXIT_OK


def _cmd_maximal(args) -> int:
    from . import maximal
    report = maximal.maximal_elements(args.n, args.d, oracle=args.oracle, max_n=args.max_n)
    cap = maximal.enumeration_cap(args.oracle, args.max_n)
    if cap > maximal.enumeration_cap(args.oracle):
        _note(args, f"note: enumeration cap overridden to n <= {cap}")
    if args.json:  # report.to_dict(), with the image spliced in row by row
        record = {"n": args.n, "d": args.d, "all_sequences": None, "oracle_agreement":
                  report.oracle_agreement, "maximal": [list(s) for s in report.sorted_maximal()]}
        names = list(map(str, range(args.n))).__getitem__
        rows = (f"[{', '.join(map(names, s))}]" for s in report.sorted_all())
        _emit_spliced(record, "all_sequences", rows)
        return EXIT_OK
    head, body = report.format_text(full=args.full).split("\n", 1)
    _note(args, head)
    sys.stdout.write(body)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from . import orders
    x = _parse_seq(orders, args, args.x)
    y = _parse_seq(orders, args, args.y)
    try:
        chain = orders.decompose_into_basic_transfers(x, y)
    except (NotMajorizedError, SumMismatchError) as exc:
        if args.json:
            _emit_json({"decomposable": False, "reason": str(exc)})
        else:
            print(f"not decomposable: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    if args.json:
        _emit_json(
            {
                "decomposable": True,
                "start": list(chain.start),
                "steps": [[t.from_rank, t.to_rank] for t in chain.steps],
            }
        )
    else:
        for t in chain.steps:
            _emit(f"({t.from_rank} → {t.to_rank})")
    return EXIT_OK


def _cmd_lorenz(args) -> int:
    from . import orders
    seq = _parse_seq(orders, args, args.sequence)
    if args.nonnormalized:
        pts = orders.nonnormalized_lorenz_points(seq)
        if args.json:
            _emit_json({"sequence": list(seq), "points": [list(p) for p in pts]})
        elif args.csv:
            _emit("x,y\n" + "\n".join(f"{j},{s}" for j, s in pts))
        else:
            for j, s in pts:
                _emit(f"({j}, {s})")
        return EXIT_OK
    curve = orders.lorenz_curve(seq)
    if args.json:
        _emit_json(
            {
                "sequence": list(seq),
                "points": [
                    [f"{fx.numerator}/{fx.denominator}", f"{fy.numerator}/{fy.denominator}"]
                    for fx, fy in curve.points
                ],
            }
        )
    elif args.csv:
        _emit(curve.to_csv())
    else:
        for fx, fy in curve.points:
            _emit(f"({fx}, {fy})")
    return EXIT_OK


@functools.cache  # built once per process: set-up costs more than parsing one command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degseq",
        description="Degree-sequence realizability and majorization toolkit",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON record")
    common.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="test a sequence for graphicality")
    p.add_argument("sequence", help='comma-separated degrees, e.g. "5,4,4,3,3,3"; - reads stdin')
    p.add_argument("--connected", action="store_true", help="also test c-graphicality")
    p.add_argument(
        "--method",
        choices=("eg", "hh", "constant", "certificate"),
        default="eg",
        help="deciding procedure (default: eg)",
    )
    p.add_argument("--max-trace", type=int, help=f"raise the {TRACE_BUDGET:,}-integer trace cap")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("realize", parents=[common], help="construct a realization")
    p.add_argument("sequence")
    p.add_argument("--connected", action="store_true", help="require a connected realization")
    p.add_argument("--format", choices=("edgelist", "dot"), default="edgelist")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("compare", parents=[common], help="compare two sequences")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--order", choices=("lorenz", "generalized"), default="generalized")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("construct", parents=[common], help="build a canonical family member")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int, help="edges added to the star; negative for deficits")
    p.add_argument("--prime", action="store_true", help="use the clique-fill family")
    p.add_argument("--emit", choices=("seq", "graph", "both"), default="seq")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("maximal", parents=[common], help="maximal sequences of connected graphs")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--oracle", choices=ORACLES, default="both")
    p.add_argument("--full", action="store_true", help="also print the full image")
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="raise the enumeration cap (may take very long)",
    )
    p.set_defaults(func=_cmd_maximal)

    p = sub.add_parser("decompose", parents=[common], help="unit-transfer chain between sequences")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("lorenz", parents=[common], help="Lorenz curve of a sequence")
    p.add_argument("sequence")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--nonnormalized", action="store_true")
    p.set_defaults(func=_cmd_lorenz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (OracleMismatchError, InternalInconsistencyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:  # exit 1 would read as a negative verdict
        print("error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL
    except (DegseqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())
