"""Command-line front end.

Subcommands tie parsing, the backward transformer, the semantic oracles,
normal forms, sequence encodings, aggregates, and loop compilation into
reproducible batch runs.  States are written ``var=p/q,var=p/q`` (unnamed
variables are 0), rationals print as ``p/q``, and infinities as ``inf``.

Exit codes: 0 success, 1 property-suite failure, 2 parse or other engine
error, an unreadable program file, or an input nested too deeply for the
recursive walkers, 3 loop where a loop-free program was required, or a
program that is not a single while loop given to ``wp --kleene`` or
``encode-loop``, 4 exploration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import SUITES
from .errors import ContainsLoop, EngineError, FuelExceeded, ParseError
from .goedel import decode_seq, encode_seq
from .loops import encode_loop
from .normalform import dnf_recover, to_dnf, to_prenex, to_snf
from .parser import parse_exp, parse_program, parse_state
from .semantics import DEFAULT_DEPTH, ORACLE, default_domain, eval_exp
from .series import make_product, make_sum
from .syntax import Var, While, exp_tree_size, print_exp
from .wp import (
    DEFAULT_STATE_CAP,
    VarSet,
    forward_dist,
    kleene_iterate,
    wp_loop_free,
)

DEFAULT_FUEL = 30


def _at_least(low: int):
    """Argument type: an integer no smaller than ``low`` (else a usage error)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


_COUNT = _at_least(0)


def naturals(text: str) -> list[int]:
    """Argument type: comma-separated naturals (else a usage error)."""
    return [_COUNT(part) for part in text.split(",") if part != ""]


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser with one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _read_program(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise EngineError(f"cannot read program file {path}: "
                          f"{exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise EngineError(f"program file {path} is not UTF-8: {exc.reason}") from exc
    return parse_program(text)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_wp(args) -> int:
    program = _read_program(args.program)
    post = parse_exp(args.post)
    payload: dict = {}
    lines = []
    if args.kleene is None:
        pre = wp_loop_free(program, post)
        payload["preexpectation"] = print_exp(pre)
        lines.append(print_exp(pre))
        if args.at is not None:
            sigma = parse_state(args.at)
            value = eval_exp(pre, sigma, default_domain(pre, sigma, args.depth))
            payload["value"] = str(value)
            lines.append(f"at {args.at}: {value}")
    else:
        if not isinstance(program, While):
            raise ContainsLoop("--kleene expects a single while loop")
        sigma = parse_state(args.at or "")
        value = kleene_iterate(program, post, sigma, args.kleene,
                               state_cap=args.state_cap)
        payload["k"] = args.kleene
        payload["value"] = str(value)
        lines.append(str(value))
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_check(args) -> int:
    suite = SUITES[args.suite]
    report = suite(seed=args.seed)
    payload = report.to_json()
    lines = [f"suite {report.suite}: "
             f"{'pass' if report.passed else 'FAIL'}, {report.cases} cases"]
    lines += [f"note: {note}" for note in report.notes]
    for failure in report.failures:
        lines.append("counterexample: " + json.dumps(failure))
    _emit(args, payload, "\n".join(lines))
    return 0 if report.passed else 1


def cmd_normalize(args) -> int:
    exp = parse_exp(args.exp)
    if args.form == "prenex":
        result = to_prenex(exp).to_exp()
    elif args.form == "snf":
        result = to_snf(exp).to_exp()
    elif args.form == "dnf":
        result = to_dnf(exp).to_exp()
    else:
        result = dnf_recover(to_dnf(exp))
    _emit(args, {"form": args.form, "result": print_exp(result)},
          print_exp(result))
    return 0


def cmd_goedel(args) -> int:
    if args.action == "encode-seq":
        code = encode_seq(args.values)
        _emit(args, {"num": str(code.num), "length": code.length}, str(code.num))
    else:
        values = decode_seq(args.num, args.length)
        text = ",".join(str(v) for v in values)
        _emit(args, {"values": values}, text)
    return 0


def cmd_series(args) -> int:
    body = parse_exp(args.body)
    bound = Var("$n")
    if args.kind == "sum":
        aggregate = make_sum(body, bound)
    else:
        aggregate = make_product(body, bound)
    sigma = parse_state(args.at or "").set(bound, args.n)
    dom = default_domain(aggregate.pure, sigma, args.depth)
    value = eval_exp(aggregate.pure, sigma, dom, mode=ORACLE)
    payload = {"value": str(value)}
    lines = [str(value)]
    if args.emit_pure:
        payload["pure"] = print_exp(aggregate.pure)
        lines.append(payload["pure"])
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_encode_loop(args) -> int:
    program = _read_program(args.program)
    if not isinstance(program, While):
        raise ContainsLoop("encode-loop expects a single while loop")
    post = parse_exp(args.post)
    varset = VarSet.for_program(program, post)
    encoding = encode_loop(program, post, varset)
    sigma = parse_state(args.eval_at or "")
    # one pass: each call continues the one before it
    values = [{"k": k, "value": str(encoding.plan_eval(
        sigma, k, state_cap=args.state_cap))} for k in range(args.k + 1)]
    payload: dict = {"values": values}
    lines = [f"k={entry['k']}: {entry['value']}" for entry in values]
    if args.emit_pure:
        size = exp_tree_size(encoding.pure)
        if size > args.max_pure_nodes:
            raise FuelExceeded(
                f"the compiled term expands to {size} nodes, above the "
                f"--max-pure-nodes cap of {args.max_pure_nodes}; its shared "
                "in-memory form is built, but printing it verbatim is "
                "impractical at this size"
            )
        payload["pure"] = print_exp(encoding.pure)
        lines.append(payload["pure"])
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_forward(args) -> int:
    program = _read_program(args.program)
    sigma = parse_state(args.at or "")
    varset = VarSet.for_program(program)
    dist = forward_dist(program, sigma, varset, args.fuel,
                        state_cap=args.state_cap)
    payload = dist.to_json(varset)
    lines = [f"{entry['state']} -> {entry['weight']}"
             for entry in payload["entries"]]
    lines.append(f"mass {payload['mass']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpengine",
        description="Exact weakest-preexpectation engine for probabilistic "
                    "guarded commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _option("--format", choices=["text", "json"], default="text")
    depth = _option("--depth", type=_COUNT, default=DEFAULT_DEPTH,
                    help=f"quantifier domain size (default {DEFAULT_DEPTH})")
    cap = _option("--state-cap", type=_at_least(1), default=DEFAULT_STATE_CAP,
                  help=f"exploration cap (default {DEFAULT_STATE_CAP})")

    wp = sub.add_parser("wp", parents=[depth, cap, fmt],
                        help="preexpectation of a program")
    wp.add_argument("-p", "--program", required=True, help="program file")
    wp.add_argument("-f", "--post", required=True, help="postexpectation")
    group = wp.add_mutually_exclusive_group()
    group.add_argument("--syntactic", action="store_true",
                       help="loop-free syntactic transform (default)")
    group.add_argument("--kleene", type=_COUNT, metavar="K",
                       help="K-fold fixed-point iterate of a loop")
    wp.add_argument("--at", help="state as var=p/q,var=p/q")
    wp.set_defaults(fn=cmd_wp)

    check = sub.add_parser("check", parents=[fmt], help="run a property suite")
    check.add_argument("suite", choices=sorted(SUITES))
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(fn=cmd_check)

    normalize = sub.add_parser("normalize", parents=[fmt],
                               help="rewrite an expectation")
    form = normalize.add_mutually_exclusive_group(required=True)
    form.add_argument("--prenex", dest="form", action="store_const",
                      const="prenex")
    form.add_argument("--snf", dest="form", action="store_const", const="snf")
    form.add_argument("--dnf", dest="form", action="store_const", const="dnf")
    form.add_argument("--recover", dest="form", action="store_const",
                      const="recover")
    normalize.add_argument("-f", "--exp", required=True)
    normalize.set_defaults(fn=cmd_normalize)

    goedel_cmd = sub.add_parser("goedel", help="sequence encodings")
    goedel_sub = goedel_cmd.add_subparsers(dest="action", required=True)
    enc = goedel_sub.add_parser("encode-seq", parents=[fmt])
    enc.add_argument("values", type=naturals, help="comma-separated naturals")
    enc.set_defaults(fn=cmd_goedel, action="encode-seq")
    dec = goedel_sub.add_parser("decode-seq", parents=[fmt])
    dec.add_argument("num", type=_COUNT)
    dec.add_argument("length", type=_COUNT)
    dec.set_defaults(fn=cmd_goedel, action="decode-seq")

    series = sub.add_parser("series", parents=[depth, fmt],
                            help="sum or product aggregates")
    series.add_argument("kind", choices=["sum", "product"])
    series.add_argument("--body", required=True,
                        help="body over $s (sum) or $p (product)")
    series.add_argument("--n", type=_COUNT, required=True, help="upper index")
    series.add_argument("--at", help="state as var=p/q,...")
    series.add_argument("--emit-pure", action="store_true")
    series.set_defaults(fn=cmd_series)

    encode = sub.add_parser("encode-loop", parents=[cap, fmt],
                            help="compile a loop")
    encode.add_argument("--program", required=True)
    encode.add_argument("--post", required=True)
    encode.add_argument("--eval-at", dest="eval_at")
    encode.add_argument("--depth-k", dest="k", type=_COUNT, default=8,
                        help="truncation depth for plan values")
    encode.add_argument("--emit-pure", action="store_true")
    encode.add_argument("--max-pure-nodes", type=_COUNT, default=1_000_000,
                        help="refuse to print compiled terms whose tree "
                             "expansion exceeds this many nodes")
    encode.set_defaults(fn=cmd_encode_loop)

    forward = sub.add_parser("forward", parents=[cap, fmt],
                             help="forward distribution")
    forward.add_argument("-p", "--program", required=True)
    forward.add_argument("--at")
    forward.add_argument("--fuel", type=_COUNT, default=DEFAULT_FUEL,
                         help=f"loop-unrolling rounds (default {DEFAULT_FUEL})")
    forward.set_defaults(fn=cmd_forward)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ContainsLoop as exc:
        print(f"loop error: {exc}", file=sys.stderr)
        return 3
    except FuelExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (Python recursion limit "
              f"{sys.getrecursionlimit()})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
