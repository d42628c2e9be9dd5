"""Self-contained correctness suites.

Each suite_* function runs one family of checks and reports how many cases it
ran and which failed. The CLI's selftest command runs every suite at reduced
scale; the package's acceptance tests run the same functions at full scale
with time budgets. Keeping both on one code path means the shipped selftest
exercises exactly what the test suite certifies.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Optional

from .algebra import concat, juxt, make_idag
from .builders import map_atoms
from .core import (
    Idag,
    In,
    NodeRef,
    Out,
    canonical_form,
    is_isomorphic,
    prune_dangling,
    transitive_closure,
)
from .decomposition import decompose, default_sorting, topological_sortings
from .equivalence import equal_mod_theory, normalize
from .errors import IdagError
from .jsonio import idag_to_json
from .layers import _fold_slices, encode_relation, interpret, transposition_identities
from .matrices import MatrixModel
from .models import FreeIdagModel, evaluate
from .printer import print_expression
from .randgen import random_expression, random_idag, random_matrix
from .record import Record
from .sortings import count_topological_sortings, sample_topological_sorting
from .terms import Delta, Id, Nabla, Node, Seq, Ten, arity_of, parse
from .weights import BOOL, INT, NAT, WeightSystem


class SuiteResult(Record):
    """One suite's name, its number of cases and its failure messages."""

    __slots__ = ("name", "cases", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Worked sample idags


def sample_dag_2_3() -> Idag:
    """A (2,3)-idag with nodes k, l; the left factor of the worked
    composite."""
    return make_idag(
        2,
        3,
        ["k", "l"],
        [
            (In(0), Out(1)),
            (In(0), NodeRef("k")),
            (In(1), NodeRef("k")),
            (NodeRef("k"), Out(1)),
            (NodeRef("k"), Out(2)),
            (NodeRef("l"), Out(2)),
        ],
    )


def sample_dag_3_1() -> Idag:
    """A (3,1)-idag with nodes a, b, c, d; the right factor of the worked
    composite. It has exactly five topological sortings."""
    return make_idag(
        3,
        1,
        ["a", "b", "c", "d"],
        [
            (In(0), NodeRef("a")),
            (In(0), NodeRef("b")),
            (In(1), NodeRef("a")),
            (In(2), NodeRef("a")),
            (In(2), NodeRef("c")),
            (NodeRef("a"), NodeRef("b")),
            (NodeRef("a"), NodeRef("d")),
            (NodeRef("b"), Out(0)),
            (NodeRef("c"), NodeRef("d")),
            (NodeRef("d"), Out(0)),
        ],
    )


def sample_composite_2_1() -> Idag:
    """The expected sequential composite of the two samples, written out."""
    return make_idag(
        2,
        1,
        ["k", "l", "a", "b", "c", "d"],
        [
            (In(0), NodeRef("a")),
            (In(0), NodeRef("k")),
            (In(1), NodeRef("k")),
            (NodeRef("k"), NodeRef("a")),
            (NodeRef("k"), NodeRef("c")),
            (NodeRef("l"), NodeRef("a")),
            (NodeRef("l"), NodeRef("c")),
            (NodeRef("a"), NodeRef("b")),
            (NodeRef("a"), NodeRef("d")),
            (NodeRef("b"), Out(0)),
            (NodeRef("c"), NodeRef("d")),
            (NodeRef("d"), Out(0)),
        ],
    )


# ---------------------------------------------------------------------------
# Axioms

# name, list of (lhs, rhs) spellings, modes the law holds in
AXIOMS: list[tuple[str, list[tuple[str, str]], tuple[WeightSystem, ...]]] = [
    (
        "monoid-unit",
        [("(eta * id(1)) ; nabla", "id(1)"), ("(id(1) * eta) ; nabla", "id(1)")],
        (BOOL, NAT, INT),
    ),
    (
        "monoid-assoc",
        [("(nabla * id(1)) ; nabla", "(id(1) * nabla) ; nabla")],
        (BOOL, NAT, INT),
    ),
    ("monoid-comm", [("sym(1,1) ; nabla", "nabla")], (BOOL, NAT, INT)),
    (
        "comonoid-counit",
        [("delta ; (eps * id(1))", "id(1)"), ("delta ; (id(1) * eps)", "id(1)")],
        (BOOL, NAT, INT),
    ),
    (
        "comonoid-coassoc",
        [("delta ; (delta * id(1))", "delta ; (id(1) * delta)")],
        (BOOL, NAT, INT),
    ),
    ("comonoid-cocomm", [("delta ; sym(1,1)", "delta")], (BOOL, NAT, INT)),
    ("bialgebra-unit-counit", [("eta ; eps", "id(0)")], (BOOL, NAT, INT)),
    ("bialgebra-merge-discard", [("nabla ; eps", "eps * eps")], (BOOL, NAT, INT)),
    ("bialgebra-unit-copy", [("eta ; delta", "eta * eta")], (BOOL, NAT, INT)),
    (
        "bialgebra-merge-copy",
        [
            (
                "nabla ; delta",
                "(delta * delta) ; (id(1) * sym(1,1) * id(1)) ; (nabla * nabla)",
            )
        ],
        (BOOL, NAT, INT),
    ),
    ("degenerate", [("delta ; nabla", "id(1)")], (BOOL,)),
    ("antipode-unit", [("eta ; anti", "eta")], (INT,)),
    ("antipode-merge", [("(anti * anti) ; nabla", "nabla ; anti")], (INT,)),
    ("antipode-discard", [("anti ; eps", "eps")], (INT,)),
    ("antipode-copy", [("anti ; delta", "delta ; (anti * anti)")], (INT,)),
    (
        "antipode-cancel",
        [
            ("delta ; (anti * id(1)) ; nabla", "eps ; eta"),
            ("delta ; (id(1) * anti) ; nabla", "eps ; eta"),
        ],
        (INT,),
    ),
]


def suite_axioms() -> SuiteResult:
    """The sixteen defining equations, each checked in every mode it belongs
    to, both by the decision procedure and by matrix evaluation."""
    failures: list[str] = []
    for name, pairs, modes in AXIOMS:
        for lhs_text, rhs_text in pairs:
            lhs = parse(lhs_text)
            rhs = parse(rhs_text)
            for ws in modes:
                # a broken build may crash mid-evaluation; record it as a
                # failing case rather than aborting the suite
                try:
                    if not equal_mod_theory(lhs, rhs, ws).equal:
                        failures.append(
                            f"{name} [{ws!r}]: {lhs_text!r} vs {rhs_text!r}, "
                            f"normal forms {idag_to_json(normalize(lhs, ws))} and "
                            f"{idag_to_json(normalize(rhs, ws))}"
                        )
                        continue
                    mm = MatrixModel(ws)
                    if evaluate(lhs, mm) != evaluate(rhs, mm):
                        failures.append(
                            f"{name} [{ws!r}]: matrix model disagrees on "
                            f"{lhs_text!r} vs {rhs_text!r}"
                        )
                except IdagError as exc:
                    failures.append(f"{name} [{ws!r}]: {exc}")
    return SuiteResult("axioms", len(AXIOMS), failures)


def suite_figure() -> SuiteResult:
    """The worked composite: node set, exact edge set, and byte-identical
    canonical JSON against the expected idag."""
    failures: list[str] = []
    comp = concat(sample_dag_3_1(), sample_dag_2_3())
    want = sample_composite_2_1()
    if set(comp.node_ids) != set(want.node_ids):
        failures.append(f"node set {sorted(comp.node_ids)}")
    if dict(comp.edges) != dict(want.edges):
        failures.append("edge set differs from the worked composite")
    if idag_to_json(canonical_form(comp)) != idag_to_json(canonical_form(want)):
        failures.append("canonical JSON differs from the worked composite")
    return SuiteResult("figure-composite", 1, failures)


# ---------------------------------------------------------------------------
# Randomized suites

_LABELS = ("•", "x", "y")
# suite_sort_invariance sends this many sortings of each idag through the
# full expression (decompose + evaluate), the rest through interpret
_EXPR_ROUTE = 2


def _gather_sortings(d: Idag, cap: int, rng: random.Random) -> list[tuple[str, ...]]:
    if count_topological_sortings(d) <= 50:
        return list(itertools.islice(topological_sortings(d), cap))
    sorts = [default_sorting(d)]
    for _ in range(cap - 1):
        sorts.append(sample_topological_sorting(d, rng))
    return sorts


def suite_sort_invariance(
    seed: int = 3, n_idags: int = 120, max_sortings: int = 6
) -> SuiteResult:
    """Decomposition value does not depend on the sorting: every sorting of a
    random BOOL idag evaluates to the same value in the free model and in
    NAT/INT matrix models with random node images. The first _EXPR_ROUTE
    sortings go through the full expression (decompose + evaluate); the rest
    compose slices directly (_fold_slices), which also cross-checks the two
    routes against each other."""
    rng = random.Random(seed)
    failures: list[str] = []
    free = FreeIdagModel(BOOL)
    for case in range(n_idags):
        d = random_idag(
            rng,
            rng.randint(0, 5),
            rng.randint(0, 5),
            rng.randint(0, 7),
            0.4,
            BOOL,
            labels=_LABELS,
        )
        nat = MatrixModel(NAT, {lbl: rng.choice([2, 3]) for lbl in _LABELS})
        intm = MatrixModel(INT, {lbl: rng.choice([-2, 2, 3]) for lbl in _LABELS})
        sorts = _gather_sortings(d, max_sortings, rng)
        ref_free = ref_nat = ref_int = None
        for si, s in enumerate(sorts):
            if si < _EXPR_ROUTE:
                e = decompose(d, s)
                values = (evaluate(e, free), evaluate(e, nat), evaluate(e, intm))
            else:
                values = (
                    _fold_slices(d, s, free),
                    interpret(d, s, nat),
                    interpret(d, s, intm),
                )
            if si == 0:
                ref_free = canonical_form(values[0])
                ref_nat, ref_int = values[1], values[2]
                continue
            if is_isomorphic(values[0], ref_free) is None:
                failures.append(f"case {case}: free value changed at sorting {si}")
                break
            if values[1] != ref_nat or values[2] != ref_int:
                failures.append(f"case {case}: matrix value changed at sorting {si}")
                break
    return SuiteResult("sort-invariance", n_idags, failures)


def suite_transpositions(seed: int = 4, n_cases: int = 120) -> SuiteResult:
    """The five local identities hold for random adjacent transpositions."""
    rng = random.Random(seed)
    failures: list[str] = []
    done = 0
    attempts = 0
    while done < n_cases and attempts < n_cases * 20:
        attempts += 1
        ws = (BOOL, NAT, INT)[attempts % 3]
        d = random_idag(
            rng,
            rng.randint(0, 4),
            rng.randint(0, 4),
            rng.randint(2, 7),
            0.35,
            ws,
            labels=_LABELS,
        )
        sort = default_sorting(d)
        pairs = [
            i
            for i in range(len(sort) - 1)
            if d.weight(NodeRef(sort[i]), NodeRef(sort[i + 1])) == 0
        ]
        if not pairs:
            continue
        i = rng.choice(pairs)
        swapped = list(sort)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        report = transposition_identities(d, sort, swapped, i)
        done += 1
        if not report.all_ok:
            failures.append(f"case {done}: {report}")
    if done < n_cases:
        failures.append(f"only {done}/{n_cases} transposable cases found")
    return SuiteResult("transpositions", done, failures)


def suite_compositionality(seed: int = 5, n_pairs: int = 120) -> SuiteResult:
    """Stacked sortings: interpreting a sequential or parallel composite
    along the concatenation of the factors' sortings equals composing the
    factors' interpretations. Free model, slices composed (_fold_slices),
    canonical-form equality."""
    rng = random.Random(seed)
    failures: list[str] = []
    for case in range(n_pairs):
        ws = (BOOL, NAT, INT)[case % 3]
        free = FreeIdagModel(ws)
        mid = rng.randint(0, 4)
        d1 = random_idag(
            rng, rng.randint(0, 4), mid, rng.randint(0, 5), 0.4, ws,
            labels=_LABELS, id_prefix="a",
        )
        d2 = random_idag(
            rng, mid, rng.randint(0, 4), rng.randint(0, 5), 0.4, ws,
            labels=_LABELS, id_prefix="b",
        )
        s1 = default_sorting(d1)
        s2 = default_sorting(d2)
        stacked = s1 + s2

        comp = concat(d2, d1)
        lhs = _fold_slices(comp, stacked, free)
        rhs = concat(_fold_slices(d2, s2, free), _fold_slices(d1, s1, free))
        if canonical_form(lhs) != canonical_form(rhs):
            failures.append(f"case {case}: concat compositionality")
            continue

        tens = juxt(d1, d2)
        lhs = _fold_slices(tens, stacked, free)
        rhs = juxt(_fold_slices(d1, s1, free), _fold_slices(d2, s2, free))
        if canonical_form(lhs) != canonical_form(rhs):
            failures.append(f"case {case}: juxt compositionality")
    return SuiteResult("compositionality", n_pairs * 2, failures)


def suite_freeness_roundtrip(seed: int = 6, n_idags: int = 150) -> SuiteResult:
    """decompose then evaluate in the free model reproduces the idag, for the
    default sorting and one uniformly sampled sorting."""
    rng = random.Random(seed)
    failures: list[str] = []
    for case in range(n_idags):
        ws = (BOOL, NAT, INT)[case % 3]
        d = random_idag(
            rng,
            rng.randint(0, 5),
            rng.randint(0, 5),
            rng.randint(0, 7),
            0.4,
            ws,
            labels=_LABELS,
        )
        want = canonical_form(d)
        sorts = [default_sorting(d), sample_topological_sorting(d, rng)]
        for s in sorts:
            got = canonical_form(evaluate(decompose(d, s), FreeIdagModel(ws)))
            if got != want:
                failures.append(f"case {case}: roundtrip along {s}")
                break
    return SuiteResult("freeness-roundtrip", n_idags, failures)


def _scramble(rng: random.Random, d: Idag, tag: str) -> Idag:
    """An isomorphic copy: fresh node ids, shuffled node sequence, edges
    reinserted in shuffled order."""
    ids = list(d.node_ids)
    renamed = {nid: f"{tag}{k}" for k, nid in enumerate(ids)}
    node_list = [(renamed[nid], lbl) for nid, lbl in d.nodes]
    rng.shuffle(node_list)

    def ren(v):
        return NodeRef(renamed[v.id]) if isinstance(v, NodeRef) else v

    items = [((ren(src), ren(dst)), w) for (src, dst), w in d.edges.items()]
    rng.shuffle(items)
    return make_idag(d.n_in, d.n_out, node_list, {e: w for e, w in items}, d.weights)


def _brute_force_iso(d1: Idag, d2: Idag) -> Optional[dict[str, str]]:
    """Independent oracle: try every node bijection."""
    if (d1.weights, d1.n_in, d1.n_out) != (d2.weights, d2.n_in, d2.n_out):
        return None
    if len(d1.nodes) != len(d2.nodes) or len(d1.edges) != len(d2.edges):
        return None
    if sorted(l for _, l in d1.nodes) != sorted(l for _, l in d2.nodes):
        return None
    ids1 = list(d1.node_ids)
    labels1 = [d1.label_of(n) for n in ids1]
    edges1, edges2 = d1.edges.items(), d2.edges
    for perm in itertools.permutations(d2.node_ids):
        if [d2.label_of(n) for n in perm] != labels1:
            continue
        mapping = dict(zip(ids1, perm))

        def ren(v):
            return NodeRef(mapping[v.id]) if isinstance(v, NodeRef) else v

        if {(ren(s), ren(t)): w for (s, t), w in edges1} == edges2:
            return mapping
    return None


def suite_isomorphism(
    seed: int = 7, n_random: int = 60, n_copies: int = 20
) -> SuiteResult:
    """Canonical-form equality agrees with a brute-force isomorphism oracle
    on every pair from a corpus of random idags plus scrambled copies, and
    is_isomorphic returns valid witnesses."""
    rng = random.Random(seed)
    corpus: list[Idag] = []
    for k in range(n_random):
        ws = (BOOL, NAT, INT)[k % 3]
        corpus.append(
            random_idag(
                rng,
                rng.randint(0, 3),
                rng.randint(0, 3),
                rng.randint(0, 6),
                0.4,
                ws,
                labels=_LABELS,
            )
        )
    for k in range(n_copies):
        corpus.append(_scramble(rng, corpus[rng.randrange(n_random)], f"copy{k}_"))

    canons = [idag_to_json(canonical_form(d)) for d in corpus]
    failures: list[str] = []
    pairs = 0
    for a in range(len(corpus)):
        for b in range(a + 1, len(corpus)):
            pairs += 1
            oracle = _brute_force_iso(corpus[a], corpus[b])
            by_canon = canons[a] == canons[b]
            witness = is_isomorphic(corpus[a], corpus[b])
            if by_canon != (oracle is not None):
                failures.append(f"pair ({a},{b}): canonical vs oracle")
            if (witness is not None) != (oracle is not None):
                failures.append(f"pair ({a},{b}): is_isomorphic vs oracle")
            if witness is not None:
                mapping = witness

                def ren(v):
                    return (
                        NodeRef(mapping[v.id]) if isinstance(v, NodeRef) else v
                    )

                remapped = {
                    (ren(s), ren(t)): w for (s, t), w in corpus[a].edges.items()
                }
                if remapped != dict(corpus[b].edges) or any(
                    corpus[a].label_of(x) != corpus[b].label_of(y)
                    for x, y in mapping.items()
                ):
                    failures.append(f"pair ({a},{b}): invalid witness")
    return SuiteResult("isomorphism", pairs, failures)


def suite_matrix_agreement(seed: int = 8, n_pairs: int = 150) -> SuiteResult:
    """concat of node-free idags is the semiring matrix product, and
    encode_relation evaluates back to its matrix (exactly) and to the
    node-free idag with those weights (free model); every other case draws
    entries up to 10^20."""
    rng = random.Random(seed)
    failures: list[str] = []
    for case in range(n_pairs):
        ws = (BOOL, NAT, INT)[case % 3]
        max_abs = (4, 10**20)[case % 2]
        free = FreeIdagModel(ws)
        a, b, c = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        f = random_matrix(rng, a, b, ws, max_abs)
        g = random_matrix(rng, b, c, ws, max_abs)
        prod = f.then(g)
        composite = concat(free.relation(g), free.relation(f))
        got = [
            [composite.weight(In(i), Out(j)) for j in range(c)] for i in range(a)
        ]
        if got != [list(row) for row in prod.entries]:
            failures.append(f"case {case}: concat vs matrix product")
            continue
        enc = encode_relation(f)
        if evaluate(enc, MatrixModel(ws)) != f:
            failures.append(f"case {case}: encode_relation matrix inversion")
            continue
        if canonical_form(evaluate(enc, free)) != canonical_form(free.relation(f)):
            failures.append(f"case {case}: encode_relation free inversion")
    return SuiteResult("matrix-agreement", n_pairs, failures)


def suite_quotients(seed: int = 9, n_idags: int = 60) -> SuiteResult:
    """The two conclusion-style quotient checks plus prune confluence:
    substituting a self-bypassing box for every node in a decomposition
    evaluates to the transitive closure; the antipode law collapses to the
    zero matrix; dangling-node deletion is order-independent."""
    rng = random.Random(seed)
    failures: list[str] = []
    cases = 0

    def bypass(atom):
        if type(atom) is Node:
            return Seq(Seq(Delta(), Ten(Node(atom.label), Id(1))), Nabla())
        return atom

    for case in range(n_idags):
        cases += 1
        d = random_idag(
            rng,
            rng.randint(0, 5),
            rng.randint(0, 5),
            rng.randint(0, 7),
            0.4,
            BOOL,
            labels=_LABELS,
        )
        e = map_atoms(decompose(d, default_sorting(d)), bypass)
        got = canonical_form(evaluate(e, FreeIdagModel(BOOL)))
        if got != canonical_form(transitive_closure(d)):
            failures.append(f"case {case}: bypass substitution vs closure")

    cases += 1
    for text in ("delta ; (anti * id(1)) ; nabla", "delta ; (id(1) * anti) ; nabla"):
        if evaluate(parse(text), MatrixModel(INT)).entries != ((0,),):
            failures.append("antipode collapse is not the zero matrix")
        if not equal_mod_theory(parse(text), parse("eps ; eta"), INT).equal:
            failures.append("antipode collapse vs eps ; eta")

    for case in range(n_idags):
        cases += 1
        d = random_idag(
            rng, rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 7), 0.3, BOOL
        )
        nodes = list(d.nodes)
        edges = dict(d.edges)
        while True:
            indeg = {nid: 0 for nid, _ in nodes}
            outdeg = {nid: 0 for nid, _ in nodes}
            for src, dst in edges:
                if isinstance(src, NodeRef):
                    outdeg[src.id] += 1
                if isinstance(dst, NodeRef):
                    indeg[dst.id] += 1
            eligible = [
                nid for nid, _ in nodes if indeg[nid] == 0 or outdeg[nid] == 0
            ]
            if not eligible:
                break
            victim = rng.choice(eligible)
            nodes = [(nid, lbl) for nid, lbl in nodes if nid != victim]
            edges = {
                (s, t): w
                for (s, t), w in edges.items()
                if not (isinstance(s, NodeRef) and s.id == victim)
                and not (isinstance(t, NodeRef) and t.id == victim)
            }
        got = prune_dangling(d)
        if list(got.nodes) != nodes or dict(got.edges) != edges:
            failures.append(f"case {case}: prune order dependence")
    return SuiteResult("quotients", cases, failures)


def suite_parse_roundtrip(seed: int = 10, n_cases: int = 300) -> SuiteResult:
    """print then parse is the identity on random well-typed ASTs."""
    rng = random.Random(seed)
    failures: list[str] = []
    for case in range(n_cases):
        e = random_expression(rng, allow_anti=True)
        text = print_expression(e)
        try:
            back = parse(text)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            failures.append(f"case {case}: {text!r} failed to parse: {exc}")
            continue
        if back != e:
            failures.append(f"case {case}: {text!r} reparsed differently")
        elif arity_of(back) != arity_of(e):
            failures.append(f"case {case}: {text!r} changed arity")
    return SuiteResult("parse-roundtrip", n_cases, failures)


# ---------------------------------------------------------------------------

REDUCED: list[Callable[[int], SuiteResult]] = [
    lambda seed: suite_axioms(),
    lambda seed: suite_figure(),
    lambda seed: suite_sort_invariance(seed + 3, 120, 6),
    lambda seed: suite_transpositions(seed + 4, 120),
    lambda seed: suite_compositionality(seed + 5, 120),
    lambda seed: suite_freeness_roundtrip(seed + 6, 150),
    lambda seed: suite_isomorphism(seed + 7, 60, 20),
    lambda seed: suite_matrix_agreement(seed + 8, 150),
    lambda seed: suite_quotients(seed + 9, 60),
    lambda seed: suite_parse_roundtrip(seed + 10, 300),
]


def run_selftest(seed: int = 0, out: Callable[[str], None] = print) -> bool:
    """Run every suite at reduced scale; True iff all pass. Deterministic for
    a fixed seed."""
    t0 = time.perf_counter()
    ok = True
    out("selftest: acceptance suites at reduced scale")
    for idx, runner in enumerate(REDUCED):
        t_suite = time.perf_counter()
        try:
            res = runner(seed)
        except Exception as exc:  # noqa: BLE001 - a crashed suite is a failure
            out(f"  suite {idx}: CRASH, {exc!r}")
            ok = False
            continue
        status = "ok" if res.ok else "FAIL"
        out(f"  {res.name}: {res.cases} cases, {status} ({time.perf_counter() - t_suite:.2f} s)")
        if not res.ok:
            ok = False
            for f in res.failures[:3]:
                out(f"    {f}")
            if len(res.failures) > 3:
                out(f"    ... and {len(res.failures) - 3} more")
    out(f"selftest: {'PASS' if ok else 'FAIL'} in {time.perf_counter() - t0:.1f}s")
    return ok
