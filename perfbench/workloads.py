"""The four workloads: seeded inputs, the op each input is timed on, and the
check each result must pass.

A workload is a list of rounds. Every round has the same mix of input
families, so a run that stops after any whole round has measured the same
mix; only the seeded contents differ between rounds and seeds. The rounds
are built before timing starts, so generation (including `idag.randgen`)
counts as set-up.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from idag import (
    BOOL,
    INT,
    NAT,
    FreeIdagModel,
    MatrixModel,
    TheoryMode,
    canonical_form,
    decompose,
    default_sorting,
    equal_mod_theory,
    evaluate,
    idag_to_json,
    interpret,
    is_isomorphic,
    make_idag,
    normalize,
    parse,
    print_expression,
    prune_dangling,
    random_expression,
    random_idag,
    transitive_closure,
    validate_for_mode,
)
from idag.core import In, NodeRef, Out
from idag.equivalence import NO_DANGLING, TRANSITIVE
from idag.errors import ArityMismatch, SearchBudgetExceeded
from idag.terms import Delta, Nabla, Node, Seq, Ten, arity_of

from oracles import (
    anchor_variants,
    arity,
    closed_node,
    fits_int64,
    graph_of_idag,
    graph_of_json,
    path_sums,
    refinement_signature,
    rewrite_equal,
    sequence,
    tensor,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

STRATA = (8, 16, 32, 64)
LABELS = ("a", "b", "c")
MEAN_OUT_DEGREE = 3.0
CLI_TIMEOUT_S = 20.0


@dataclass
class Case:
    """One op on one input. op(tracer) runs the op; check(result) compares
    its result with the independent reference. known_defect marks an input
    in a class the program is known to get wrong (see README.md)."""

    kind: str
    op: Callable
    check: Callable
    stratum: int = 0
    known_defect: bool = False


@dataclass
class Workload:
    """in_children: the ops run in child processes, so peak memory is the
    children's."""

    name: str
    rounds: list
    warmup: list
    trace_rounds: int
    in_children: bool = False


def is_known_error(error: BaseException) -> bool:
    """Errors the program raises on inputs it should handle: the canonical
    search budget (symmetric inputs)."""
    return isinstance(error, SearchBudgetExceeded)


def _random_dag(rng: random.Random, n: int, n_in: int, n_out: int, mode):
    # node k has (n-1-k) later nodes and n_out outputs to point at
    p = min(1.0, MEAN_OUT_DEGREE / ((n - 1) / 2 + n_out))
    return random_idag(rng, n_in, n_out, n, p, mode, labels=LABELS)


# ---------------------------------------------------------------------------
# roundtrip: default_sorting -> decompose -> print -> parse -> evaluate (free)
# -> canonical_form -> idag_to_json


def _op_roundtrip(d, tr):
    sort = tr.call("decomposition.default_sorting", default_sorting, d)
    e = tr.call("decomposition.decompose", decompose, d, sort)
    tr.count_expression(e, len(d.nodes))
    text = tr.call("terms.print_expression", print_expression, e)
    e2 = tr.call("terms.parse", parse, text)
    value = tr.call("models.evaluate_free", evaluate, e2, tr.model(FreeIdagModel(d.weights)))
    nf = tr.call("core.canonical_form", canonical_form, value)
    return tr.call("jsonio.idag_to_json", idag_to_json, nf)


def _check_roundtrip(expected_json, signature, result) -> bool:
    if expected_json is not None and result != expected_json:
        return False
    return refinement_signature(graph_of_json(json.loads(result))) == signature


def roundtrip(seed: int) -> Workload:
    rng = random.Random(seed)
    modes = (BOOL, NAT, INT)
    rounds = []
    for r in range(25):
        cases = []
        for s, n in enumerate(STRATA):
            # interface widths and modes cycle through 0..6 and bool/nat/int
            # the same way for every seed, so seeds differ only in edges and
            # labels
            d = _random_dag(rng, n, (r + 2 * s) % 7, (3 * r + s) % 7, modes[(r + s) % 3])
            try:
                expected = idag_to_json(canonical_form(d))
            except SearchBudgetExceeded:
                expected = None
            check = partial(_check_roundtrip, expected, refinement_signature(graph_of_idag(d)))
            cases.append(Case(f"roundtrip.n{n}", partial(_op_roundtrip, d), check, stratum=n))
        rounds.append(cases)
    return Workload("roundtrip", rounds, warmup=rounds[0][:1], trace_rounds=4)


# ---------------------------------------------------------------------------
# equality: equal_mod_theory on pairs with verdicts known by construction

KFOLD = range(2, 13)
# factor counts of the random tensors, evenly spread over 1..40
TENSOR_SIZES = (1, 5, 9, 13, 17, 21, 24, 28, 32, 36, 40)
REPEAT_FACTOR = 0.25
# slot q of a family in a round uses mode EQ_MODES[q % 5]: three in five
# slots are bool, and one in three bool slots uses quotients
EQ_MODES = ("bool", "nat", "boolq", "int", "bool")
RANDOM_QUOTIENTS = ((TRANSITIVE,), (NO_DANGLING,), (TRANSITIVE, NO_DANGLING))
WEIGHTS = {"bool": BOOL, "boolq": BOOL, "nat": NAT, "int": INT}


def _quotient_loop(d, tm: TheoryMode, tr):
    """The library's quotient loop, one public call per step."""
    close = TRANSITIVE in tm.quotients
    prune = NO_DANGLING in tm.quotients
    if not (close or prune):
        return d
    while True:
        tr.counts["core.quotient_rounds"] += 1
        before = d
        if prune:
            d = tr.call("core.prune_dangling", prune_dangling, d)
        if close:
            d = tr.call("core.transitive_closure", transitive_closure, d)
        if prune:
            d = tr.call("core.prune_dangling", prune_dangling, d)
        if d == before:
            return d


def _normalize_steps(e, tm: TheoryMode, tr):
    validate_for_mode(e, tm.weights, tm.labels)
    value = tr.call("models.evaluate_free", evaluate, e, tr.model(FreeIdagModel(tm.weights)))
    value = _quotient_loop(value, tm, tr)
    tr.counts["core.canonical_form.calls"] += 1
    return tr.call("core.canonical_form", canonical_form, value)


def _equal_steps(e1, e2, tm: TheoryMode, tr) -> bool:
    """equal_mod_theory replayed from its public steps in the library's
    order, so each step gets its own span."""
    if arity_of(e1) != arity_of(e2):
        raise ArityMismatch("interfaces differ")
    nf1 = tr.call("equivalence.normalize", _normalize_steps, e1, tm, tr)
    nf2 = tr.call("equivalence.normalize", _normalize_steps, e2, tm, tr)
    equal = nf1 == nf2
    if equal:
        tr.call("core.is_isomorphic", is_isomorphic, nf1, nf2)
    return equal


def _op_equality(e1, e2, tm, tr) -> bool:
    if tr.enabled:
        return tr.call("equivalence.equal_mod_theory", _equal_steps, e1, e2, tm, tr)
    return equal_mod_theory(e1, e2, tm).equal


def _theory(mode: str, quotients: tuple) -> TheoryMode:
    return TheoryMode(WEIGHTS[mode], frozenset(quotients if mode == "boolq" else ()))


def _factor(rng: random.Random, depth: int):
    """A small random_expression with a row of node boxes on each border, so
    forty factors carry about two hundred nodes."""
    e = random_expression(rng, max_depth=depth, labels=LABELS)
    a, b = arity(e)
    if a:
        e = Seq(tensor([Node(rng.choice(LABELS)) for _ in range(a)]), e)
    if b:
        e = Seq(e, tensor([Node(rng.choice(LABELS)) for _ in range(b)]))
    return e


def _anchored_pair(rng: random.Random, n_factors: int, mode: str, equal: bool, depth: int):
    """lhs: a tensor of n_factors factors, one of them the anchor node[l];
    rhs: a rewrite of it with the anchor replaced by an equal or an unequal
    variant (see oracles.anchor_variants)."""
    factors: list = []
    for _ in range(n_factors - 1):
        if factors and rng.random() < REPEAT_FACTOR:
            factors.append(rng.choice(factors))
        else:
            factors.append(_factor(rng, depth))
    pos = rng.randint(0, len(factors))
    label = rng.choice(LABELS)
    variant = anchor_variants(label, "bool" if mode == "boolq" else mode)[0 if equal else 1]
    lhs = tensor(factors[:pos] + [Node(label)] + factors[pos:])
    rhs = rewrite_equal(factors[:pos] + [variant] + factors[pos:], rng)
    return lhs, rhs


def _kfold_pair(rng: random.Random, k: int, mode: str, equal: bool):
    """k copies of eta ; node ; eps against a rewrite of k copies (equal), of
    k+1 copies (nat) or of k copies with one relabelled (unequal). From nine
    interchangeable copies on, canonical_form exceeds its search budget."""
    lhs = tensor([closed_node()] * k)
    if equal:
        rhs_parts = [closed_node()] * k
    elif mode == "nat":
        rhs_parts = [closed_node()] * (k + 1)
    else:
        rhs_parts = [closed_node()] * (k - 1) + [closed_node("z")]
    return lhs, rewrite_equal(rhs_parts, rng)


def _equality_case(kind, lhs, rhs, tm, expected: bool) -> Case:
    return Case(kind, partial(_op_equality, lhs, rhs, tm), lambda result: result is expected)


def equality(seed: int) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for _ in range(8):
        cases = []
        for q in range(2 * len(KFOLD)):
            k, equal = KFOLD[q // 2], q % 2 == 0
            mode = EQ_MODES[q % 5]
            lhs, rhs = _kfold_pair(rng, k, mode, equal)
            tm = _theory(mode, (TRANSITIVE,))
            cases.append(_equality_case(f"equality.kfold.k{k}", lhs, rhs, tm, equal))
        for q in range(2 * len(TENSOR_SIZES)):
            size, equal = TENSOR_SIZES[q // 2], q % 2 == 0
            mode = EQ_MODES[q % 5]
            lhs, rhs = _anchored_pair(rng, size, mode, equal, depth=3)
            tm = _theory(mode, RANDOM_QUOTIENTS[(q // 5) % 3])
            cases.append(_equality_case(f"equality.tensor.{mode}", lhs, rhs, tm, equal))
        rounds.append(cases)
    return Workload("equality", rounds, warmup=rounds[0][:4], trace_rounds=2)


# ---------------------------------------------------------------------------
# matrix: MatrixModel by interpret and by evaluate(decompose(...))

IMAGES = {NAT: {"a": 1, "b": 2, "c": 1}, INT: {"a": 1, "b": 2, "c": -1}}
# (delta ; nabla)^k is 2^k: the first k of each pair fits int64, the second
# does not; likewise a chain of L weight-3 edges is 3^L (3^39 fits, 3^40 not)
DN_CHAINS = ((16, 63), (32, 64), (48, 80), (62, 128))
WEIGHTED_CHAINS = ((20, 40), (30, 41), (38, 48), (39, 60))
# N = 64 twice (nat and int), so that the slowest op, evaluate at N = 64, is
# a sixth of all ops and p90 falls inside it rather than on its edge
MATRIX_STRATA = (8, 16, 32, 64, 64)


def _op_interpret(d, model, tr):
    sort = tr.call("decomposition.default_sorting", default_sorting, d)
    return tr.call("decomposition.interpret", interpret, d, sort, tr.model(model))


def _op_evaluate_decomposed(d, model, tr):
    sort = tr.call("decomposition.default_sorting", default_sorting, d)
    e = tr.call("decomposition.decompose", decompose, d, sort)
    tr.count_expression(e, len(d.nodes))
    return tr.call("models.evaluate_matrix", evaluate, e, tr.model(model))


def _op_evaluate(e, model, tr):
    return tr.call("models.evaluate_matrix", evaluate, e, tr.model(model))


def _check_matrix(expected: list, n_in: int, n_out: int, result) -> bool:
    return (
        (result.n_in, result.n_out) == (n_in, n_out)
        and [list(row) for row in result.entries] == expected
    )


def _weighted_chain(length: int, mode):
    """input -> n1 -> ... -> n(length-1) -> output, every edge weight 3 (nat)
    or -3 (int)."""
    w = 3 if mode is NAT else -3
    ids = [f"n{k}" for k in range(1, length)]
    verts = [In(0)] + [NodeRef(i) for i in ids] + [Out(0)]
    edges = [(verts[k], verts[k + 1], w) for k in range(length)]
    return make_idag(1, 1, [(i, "a") for i in ids], edges, mode)


def _idag_case(kind: str, op, d, model, stratum: int = 0) -> Case:
    expected = path_sums(graph_of_idag(d), IMAGES[model.weights])
    check = partial(_check_matrix, expected, d.n_in, d.n_out)
    return Case(kind, partial(op, d, model), check, stratum, known_defect=not fits_int64(expected))


def matrix(seed: int) -> Workload:
    rng = random.Random(seed)
    models = {ws: MatrixModel(ws, images) for ws, images in IMAGES.items()}
    rounds = []
    for r in range(16):
        cases = []
        for s, n in enumerate(MATRIX_STRATA):
            model = models[(NAT, INT)[(r + s) % 2]]
            d = _random_dag(rng, n, 1 + (r + 2 * s) % 6, 1 + (3 * r + s) % 6, model.weights)
            cases.append(_idag_case(f"matrix.n{n}.interpret", _op_interpret, d, model, n))
            cases.append(_idag_case(f"matrix.n{n}.evaluate", _op_evaluate_decomposed, d, model, n))
        # one value below and one above 2^63 in every round, alternating
        # between (delta ; nabla)^k and weighted chains
        model = models[(NAT, INT)[r // 2 % 2]]
        pick = r // 2 % 4
        if r % 2 == 0:
            for k in DN_CHAINS[pick]:
                expected = [[2**k]]
                e = sequence([Seq(Delta(), Nabla())] * k)
                cases.append(
                    Case("matrix.dn_chain", partial(_op_evaluate, e, model),
                         partial(_check_matrix, expected, 1, 1), known_defect=not fits_int64(expected))
                )
        else:
            op, name = (_op_interpret, "interpret") if pick % 2 == 0 else (_op_evaluate_decomposed, "evaluate")
            for length in WEIGHTED_CHAINS[pick]:
                cases.append(_idag_case(f"matrix.chain.{name}", op, _weighted_chain(length, model.weights), model))
        rounds.append(cases)
    return Workload("matrix", rounds, warmup=rounds[0][:2], trace_rounds=4)


# ---------------------------------------------------------------------------
# cli: python -m idag eq / normalize / decompose, one subprocess at a time


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_python(args: list) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of `python <args>`, run from
    the repository root against its own src/."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _op_cli(argv: list, tr):
    return tr.call("cli." + argv[0], run_python, ["-m", "idag", *argv])


def _check_cli(code: int, stdout, result) -> bool:
    got_code, got_out, _err = result
    return got_code == code and (stdout is None or got_out == stdout)


def _check_cli_overflow(result) -> bool:
    # 1 means "unequal"; an unrepresentable weight is an error (2) or works (0)
    return result[0] in (0, 2)


def _overflow_idag_json(rng: random.Random) -> str:
    """A nat chain input -> n1 -> ... -> output with one weight 10^20."""
    length = rng.randint(2, 4)
    ids = [f"n{k}" for k in range(1, length)]
    verts = [{"in": 0}] + [{"node": i} for i in ids] + [{"out": 0}]
    big = rng.randrange(length)
    edges = [
        {"src": verts[k], "dst": verts[k + 1], **({"w": 10**20} if k == big else {})}
        for k in range(length)
    ]
    obj = {"mode": "nat", "inputs": 1, "outputs": 1, "nodes": [{"id": i} for i in ids], "edges": edges}
    return json.dumps(obj, separators=(",", ":"))


def _cli_case(argv: list, code: int, stdout=None) -> Case:
    return Case("cli." + argv[0], partial(_op_cli, argv), partial(_check_cli, code, stdout))


def cli(seed: int) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for _ in range(13):
        eq_lhs, eq_rhs = _anchored_pair(rng, 3, "bool", True, depth=2)
        ne_lhs, ne_rhs = _anchored_pair(rng, 3, "nat", False, depth=2)
        tq_lhs, tq_rhs = _anchored_pair(rng, 3, "bool", True, depth=2)
        norm_bool = tensor([_factor(rng, 2) for _ in range(3)])
        norm_int = tensor([_factor(rng, 2) for _ in range(3)])
        d = _random_dag(rng, 8, rng.randint(1, 3), rng.randint(1, 3), NAT)
        text = print_expression

        def normalized(e, mode) -> bytes:
            return (idag_to_json(normalize(e, mode)) + "\n").encode()

        decomposed = (print_expression(decompose(d, default_sorting(d))) + "\n").encode()
        rounds.append(
            [
                _cli_case(["eq", text(eq_lhs), text(eq_rhs)], 0),
                _cli_case(["eq", text(ne_lhs), text(ne_rhs), "--mode", "nat"], 1),
                _cli_case(["eq", text(tq_lhs), text(tq_rhs), "--quotient", TRANSITIVE], 0),
                _cli_case(["eq", text(eq_lhs), text(Ten(eq_lhs, Node())), "--mode", "nat"], 2),
                _cli_case(["normalize", text(norm_bool)], 0, normalized(norm_bool, BOOL)),
                _cli_case(["normalize", text(norm_int), "--mode", "int"], 0, normalized(norm_int, INT)),
                _cli_case(["decompose", idag_to_json(d)], 0, decomposed),
                Case(
                    "cli.decompose_overflow",
                    partial(_op_cli, ["decompose", _overflow_idag_json(rng)]),
                    _check_cli_overflow,
                    known_defect=True,
                ),
            ]
        )
    return Workload("cli", rounds, warmup=rounds[0][:1], trace_rounds=2, in_children=True)


BUILDERS = {"roundtrip": roundtrip, "equality": equality, "matrix": matrix, "cli": cli}
