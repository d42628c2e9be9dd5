"""Command-line front end.

Commands: eq, normalize, decompose, compose, tensor, closure, prune, dot,
random, selftest. Inputs are literal text, "@path" to read a file, or "-"
for standard input. Exit codes: 0 success/equal, 1 unequal or selftest
failure, 2 any error.

One table, _COMMANDS, gives each command its operands and only the options
its handler reads: --mode and --quotient select the theory an expression is
read in, so the commands that read idags, whose JSON names their weights,
do not take them.

Each command imports only what it runs: eq and normalize load the parser,
the free model and the canonical form; decompose adds the decomposition
module; dot, random and selftest each add their own module.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import DEFAULT_LABEL, Idag, concat, juxt, prune_dangling, transitive_closure
from .equivalence import NO_DANGLING, TRANSITIVE, TheoryMode, equal_mod_theory, normalize
from .errors import IdagError, IndexOutOfRange
from .jsonio import dumps, idag_from_json, idag_to_json
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
    if k >= sys.maxsize:  # past what islice counts, and any enumeration reaches
        raise IndexOutOfRange(f"sorting index {k} exceeds {sys.maxsize - 1}")
    for sort in itertools.islice(topological_sortings(d), k, k + 1):
        return sort
    raise IndexOutOfRange(f"sorting index {k} out of range")


def _cmd_eq(args: argparse.Namespace) -> int:
    mode = _theory_mode(args)
    lhs, rhs = (parse(_read_input(spec)) for spec in args.operands)
    report = equal_mod_theory(lhs, rhs, mode)
    if args.format == "json":
        print(dumps(report.to_json_obj()))
    else:
        print("equal" if report.equal else "unequal")
        print(f"lhs normal form: {idag_to_json(report.normal_form_left)}")
        print(f"rhs normal form: {idag_to_json(report.normal_form_right)}")
    return 0 if report.equal else 1


def _cmd_normalize(args: argparse.Namespace) -> int:
    mode = _theory_mode(args)
    (spec,) = args.operands
    _emit_idag(normalize(parse(_read_input(spec)), mode), args.format)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decomposition import decompose

    (spec,) = args.operands
    d = idag_from_json(_read_input(spec))
    sort = _pick_sorting(d, args.sorting)
    text = print_expression(decompose(d, sort))
    if args.format == "json":
        print(dumps({"expression": text, "sorting": list(sort.order)}))
    else:
        print(text)
    return 0


def _on_idags(operation: Callable[..., Idag]) -> Callable[[argparse.Namespace], int]:
    """The handler of a command that reads its operands as JSON idags, in
    order, and emits operation applied to them."""

    def run(args: argparse.Namespace) -> int:
        operands = [idag_from_json(_read_input(spec)) for spec in args.operands]
        _emit_idag(operation(*operands), args.format)
        return 0

    return run


def _cmd_random(args: argparse.Namespace) -> int:
    import random

    from .randgen import random_idag

    n_in, n_out, n_nodes, edge_prob = args.operands
    rng = random.Random(args.seed)
    labels = tuple(args.label) if args.label else (DEFAULT_LABEL,)
    d = random_idag(rng, n_in, n_out, n_nodes, edge_prob, BY_NAME[args.mode], labels=labels)
    _emit_idag(d, args.format)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest(seed=args.seed) else 1


_OPTIONS: dict[str, dict] = {
    "--mode": {"choices": tuple(BY_NAME), "default": "bool"},
    "--quotient": {
        "action": "append",
        "choices": (TRANSITIVE, NO_DANGLING),
        "help": "quotient to apply after evaluation (bool mode only; repeatable)",
    },
    "--sorting": {
        "default": "default",
        "help": '"default" (the lexicographically least topological sorting, node ids '
        'compared as strings), or an index k (also "index:k") into the sortings in that order',
    },
    "--seed": {"type": int, "default": 0},
    "--label": {"action": "append", "help": "node label pool (repeatable)"},
}
_OPERAND_TYPES = {"n_in": int, "n_out": int, "n_nodes": int, "edge_prob": float}
_THEORY = ("--mode", "--quotient")
_IDAG_FORMATS = ("json", "text", "dot")

# command: (help, operands, options, formats with the default first, handler);
# a command with one format takes no --format
_COMMANDS: dict[str, tuple] = {
    "eq": ("decide equality of two expressions",
           ("lhs", "rhs"), _THEORY, ("text", "json"), _cmd_eq),
    "normalize": ("expression -> canonical idag JSON",
                  ("expr",), _THEORY, _IDAG_FORMATS, _cmd_normalize),
    "decompose": ("idag JSON -> expression",
                  ("idag",), ("--sorting",), ("text", "json"), _cmd_decompose),
    "compose": ("sequential composite of two idag JSONs (first feeds second)",
                ("first", "second"), (), _IDAG_FORMATS, _on_idags(lambda a, b: concat(b, a))),
    "tensor": ("parallel composite of two idag JSONs",
               ("first", "second"), (), _IDAG_FORMATS, _on_idags(juxt)),
    "closure": ("transitive closure of a bool idag",
                ("idag",), (), _IDAG_FORMATS, _on_idags(transitive_closure)),
    "prune": ("delete dangling nodes of a bool idag",
              ("idag",), (), _IDAG_FORMATS, _on_idags(prune_dangling)),
    "dot": ("render idag JSON as Graphviz text",
            ("idag",), (), ("dot",), _on_idags(lambda d: d)),
    "random": ("generate a random idag", ("n_in", "n_out", "n_nodes", "edge_prob"),
               ("--mode", "--seed", "--label"), _IDAG_FORMATS, _cmd_random),
    "selftest": ("run the reduced-scale acceptance suites",
                 (), ("--seed",), (), _cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idag",
        description="Interfaced dags: compose, decompose, and decide equality "
        "of generator expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, operands, options, formats, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for operand in operands:  # each appends its value to args.operands, in order
            p.add_argument("operands", action="append", metavar=operand,
                           type=_OPERAND_TYPES.get(operand, str))
        for flag in options:
            p.add_argument(flag, **_OPTIONS[flag])
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=handler, format=formats[0] if formats else None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IdagError, OSError, UnicodeError) as exc:  # UnicodeError: input that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
