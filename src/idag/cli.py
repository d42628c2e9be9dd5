"""Command-line front end.

Commands: eq, normalize, decompose, compose, tensor, closure, prune, dot,
random, selftest. Inputs are literal text, "@path" to read a file, or "-"
for standard input. Exit codes: 0 success/equal, 1 unequal or selftest
failure, 2 any error.

Each command imports only what it runs: eq and normalize load the parser,
the free model and the canonical form; decompose adds the decomposition
module; dot, random and selftest each add their own module.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .core import Idag, concat, juxt, prune_dangling, transitive_closure
from .equivalence import TheoryMode, equal_mod_theory, normalize
from .errors import IdagError, IndexOutOfRange
from .jsonio import idag_from_json, idag_to_json
from .terms import parse, print_expression
from .weights import BY_NAME

if TYPE_CHECKING:
    from .decomposition import TopSort


def _read_input(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return spec


def _theory_mode(args: argparse.Namespace) -> TheoryMode:
    quotients = frozenset(args.quotient or ())
    return TheoryMode(BY_NAME[args.mode], quotients)


def _emit_idag(d: Idag, fmt: str) -> None:
    if fmt == "dot":
        from .dot import idag_to_dot

        print(idag_to_dot(d))
    else:
        # json and text coincide for idags: the JSON document is the text form
        print(idag_to_json(d))


def _pick_sorting(d: Idag, spec: str) -> TopSort:
    from .decomposition import default_sorting, topological_sortings

    if spec == "default":
        return default_sorting(d)
    text = spec.split(":", 1)[1] if spec.startswith("index:") else spec
    try:
        k = int(text)
    except ValueError:
        raise IndexOutOfRange(f"bad sorting selector {spec!r}") from None
    if k < 0:
        raise IndexOutOfRange(f"sorting index {k} is negative")
    for sort in itertools.islice(topological_sortings(d), k, k + 1):
        return sort
    raise IndexOutOfRange(f"sorting index {k} out of range")


def _cmd_eq(args: argparse.Namespace) -> int:
    mode = _theory_mode(args)
    lhs = parse(_read_input(args.lhs))
    rhs = parse(_read_input(args.rhs))
    report = equal_mod_theory(lhs, rhs, mode)
    if args.format == "json":
        print(json.dumps(report.to_json_obj(), separators=(",", ":"), ensure_ascii=False))
    else:
        print("equal" if report.equal else "unequal")
        print(f"lhs normal form: {idag_to_json(report.normal_form_left)}")
        print(f"rhs normal form: {idag_to_json(report.normal_form_right)}")
    return 0 if report.equal else 1


def _cmd_normalize(args: argparse.Namespace) -> int:
    mode = _theory_mode(args)
    e = parse(_read_input(args.expr))
    _emit_idag(normalize(e, mode), args.format)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decomposition import decompose

    d = idag_from_json(_read_input(args.idag))
    sort = _pick_sorting(d, args.sorting)
    text = print_expression(decompose(d, sort))
    if args.format == "json":
        print(
            json.dumps(
                {"expression": text, "sorting": list(sort.order)},
                separators=(",", ":"),
                ensure_ascii=False,
            )
        )
    else:
        print(text)
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    first = idag_from_json(_read_input(args.first))
    second = idag_from_json(_read_input(args.second))
    # diagram order: the first operand feeds the second
    _emit_idag(concat(second, first), args.format)
    return 0


def _cmd_tensor(args: argparse.Namespace) -> int:
    top = idag_from_json(_read_input(args.first))
    bottom = idag_from_json(_read_input(args.second))
    _emit_idag(juxt(top, bottom), args.format)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    d = idag_from_json(_read_input(args.idag))
    _emit_idag(transitive_closure(d), args.format)
    return 0


def _cmd_prune(args: argparse.Namespace) -> int:
    d = idag_from_json(_read_input(args.idag))
    _emit_idag(prune_dangling(d), args.format)
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    _emit_idag(idag_from_json(_read_input(args.idag)), "dot")
    return 0


def _cmd_random(args: argparse.Namespace) -> int:
    import random

    from .randgen import random_idag

    if not 0.0 <= args.edge_prob <= 1.0:
        raise IdagError(f"edge_prob {args.edge_prob} outside [0, 1]")
    rng = random.Random(args.seed)
    labels = tuple(args.label) if args.label else ("•",)
    d = random_idag(
        rng,
        args.n_in,
        args.n_out,
        args.n_nodes,
        args.edge_prob,
        BY_NAME[args.mode],
        labels=labels,
    )
    _emit_idag(d, args.format)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idag",
        description="Interfaced dags: compose, decompose, and decide equality "
        "of generator expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt_default: str = "text") -> None:
        p.add_argument("--mode", choices=["bool", "nat", "int"], default="bool")
        p.add_argument(
            "--quotient",
            action="append",
            choices=["transitive", "nodangling"],
            help="quotient to apply after evaluation (bool mode only; repeatable)",
        )
        p.add_argument("--format", choices=["json", "text", "dot"], default=fmt_default)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eq", help="decide equality of two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    common(p)
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("normalize", help="expression -> canonical idag JSON")
    p.add_argument("expr")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("decompose", help="idag JSON -> expression")
    p.add_argument("idag")
    p.add_argument(
        "--sorting",
        default="default",
        help='"default", or an index k (also "index:k") into the sorting enumeration',
    )
    common(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", help="sequential composite of two idag JSONs (first feeds second)")
    p.add_argument("first")
    p.add_argument("second")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("tensor", help="parallel composite of two idag JSONs")
    p.add_argument("first")
    p.add_argument("second")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("closure", help="transitive closure of a bool idag")
    p.add_argument("idag")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("prune", help="delete dangling nodes of a bool idag")
    p.add_argument("idag")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("dot", help="render idag JSON as Graphviz text")
    p.add_argument("idag")
    common(p, fmt_default="dot")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("random", help="generate a random idag")
    p.add_argument("n_in", type=int)
    p.add_argument("n_out", type=int)
    p.add_argument("n_nodes", type=int)
    p.add_argument("edge_prob", type=float)
    p.add_argument("--label", action="append", help="node label pool (repeatable)")
    common(p, fmt_default="json")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("selftest", help="run the reduced-scale acceptance suites")
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IdagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
