"""Command-line front end.

Commands: eq, normalize, decompose, compose, tensor, closure, prune, dot,
random, selftest. Inputs are literal text, "@path" to read a file, or "-"
for standard input. Exit codes: 0 success/equal, 1 unequal or selftest
failure, 2 any error (running out of memory too). A reader that closes
stdout early is not an error: the command keeps the exit code its result
gives.

One table, _COMMANDS, gives each command its operands and only the options
its handler reads: --mode and --quotient select the theory an expression is
read in, so the commands that read idags, whose JSON names their weights,
do not take them.

Each command imports and configures only what it runs. main builds the
subparser of the command it is given alone, and the full parser only for
help, a missing command or an unknown one; each handler imports its own
modules. So eq and normalize load the parser, the free model, the
canonical search (canon) and the JSON writer; decompose loads the JSON
reader (jsonread), algebra.make_idag, the decomposition module and the
printer but not the search; dot, random and selftest each add their own module.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .core import DEFAULT_LABEL, NO_DANGLING, TRANSITIVE, Idag, prune_dangling, transitive_closure
from .errors import IdagError, IndexOutOfRange
from .weights import BY_NAME

if TYPE_CHECKING:
    from .decomposition import TopSort
    from .equivalence import TheoryMode


def _read_input(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return spec


def _print(*lines: str) -> None:
    """Print lines to stdout and flush them. When the reader has closed the
    pipe, stdout is pointed at os.devnull instead, so the command ends with
    the exit code its own result gives and nothing fails at exit."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _theory_mode(args: argparse.Namespace) -> TheoryMode:
    from .equivalence import TheoryMode

    quotients = frozenset(args.quotient or ())
    return TheoryMode(BY_NAME[args.mode], quotients)


def _emit_idag(d: Idag, fmt: str) -> None:
    if fmt == "dot":
        from .dot import idag_to_dot

        _print(idag_to_dot(d))
    else:
        from .jsonio import idag_to_json

        # json and text coincide for idags: the JSON document is the text form
        _print(idag_to_json(d))


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
    from .equivalence import equal_mod_theory
    from .jsonio import dumps, idag_to_json
    from .terms import parse

    mode = _theory_mode(args)
    lhs, rhs = (parse(_read_input(spec)) for spec in args.operands)
    report = equal_mod_theory(lhs, rhs, mode)
    if args.format == "json":
        _print(dumps(report.to_json_obj()))
    else:  # all lines are built before any is printed: a failure prints no verdict
        _print(
            "equal" if report.equal else "unequal",
            f"lhs normal form: {idag_to_json(report.normal_form_left)}",
            f"rhs normal form: {idag_to_json(report.normal_form_right)}",
        )
    return 0 if report.equal else 1


def _cmd_normalize(args: argparse.Namespace) -> int:
    from .equivalence import normalize
    from .terms import parse

    mode = _theory_mode(args)
    (spec,) = args.operands
    _emit_idag(normalize(parse(_read_input(spec)), mode), args.format)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .decomposition import decompose
    from .jsonio import dumps
    from .jsonread import idag_from_json
    from .printer import print_expression

    (spec,) = args.operands
    d = idag_from_json(_read_input(spec))
    sort = _pick_sorting(d, args.sorting)
    text = print_expression(decompose(d, sort))
    if args.format == "json":
        _print(dumps({"expression": text, "sorting": list(sort.order)}))
    else:
        _print(text)
    return 0


def _on_idags(operation: Callable[..., Idag]) -> Callable[[argparse.Namespace], int]:
    """The handler of a command that reads its operands as JSON idags, in
    order, and emits operation applied to them."""

    def run(args: argparse.Namespace) -> int:
        from .jsonread import idag_from_json

        operands = [idag_from_json(_read_input(spec)) for spec in args.operands]
        _emit_idag(operation(*operands), args.format)
        return 0

    return run


def _compose(first: Idag, second: Idag) -> Idag:
    from .algebra import concat

    return concat(second, first)


def _tensor(first: Idag, second: Idag) -> Idag:
    from .algebra import juxt

    return juxt(first, second)


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

    return 0 if run_selftest(seed=args.seed, out=_print) else 1


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
                ("first", "second"), (), _IDAG_FORMATS, _on_idags(_compose)),
    "tensor": ("parallel composite of two idag JSONs",
               ("first", "second"), (), _IDAG_FORMATS, _on_idags(_tensor)),
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


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command, a parser with that
    command's subparser alone, whose usage line still lists every command."""
    parser = argparse.ArgumentParser(
        prog="idag",
        description="Interfaced dags: compose, decompose, and decide equality "
        "of generator expressions.",
    )
    names = _COMMANDS if command is None else (command,)
    # with one subparser, the usage line would list that command alone, so
    # the metavar lists them all, as the full parser spells its choices; the
    # full parser takes none, since a metavar renames the command in errors
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, operands, options, formats, handler = _COMMANDS[name]
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command named first is what the full parser would pick, and its
    # subparser alone parses the rest as the full parser would
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    # UnicodeError: input that is not UTF-8; MemoryError must not exit 1 ("unequal")
    except (IdagError, OSError, UnicodeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
