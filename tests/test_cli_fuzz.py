"""The CLI contract on drawn inputs: whatever the command, options and
operands, `python -m idag` exits 0, 1 or 2, exits 1 only from eq (where it
means "unequal"), and never prints a traceback. Each case runs in a child
process whose address space is capped, so a width that escaped its bound
shows as a MemoryError traceback rather than as a machine out of memory.

The draws cover the flags commands do not take, expression texts (valid
ones, huge and 5,000-digit widths, deep nesting, and mutations of each),
JSON idag texts (valid ones, a field replaced by a huge, negative or
mistyped value, deep nesting, and text mutations) and numbers for random.
"""

import json
import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import run_capped
from idag.jsonio import idag_to_obj
from idag.printer import print_expression
from idag.randgen import random_expression
from idag.selftest import sample_composite_2_1, sample_dag_2_3, sample_dag_3_1

FUZZ_SEED = 20261018
FUZZ_EXAMPLES = 32

# selftest is left out: its options are in the --help test, its run in criterion 10
COMMANDS = ["eq", "normalize", "decompose", "compose", "tensor", "closure", "prune", "dot",
            "random"]
OPERAND_COUNTS = {"eq": 2, "compose": 2, "tensor": 2, "random": 4}

HUGE_NUMBERS = ["100000000000", "1000001", "9" * 5000, "0" * 5000 + "1", "-1", "4" * 4300]
small = st.integers(0, 9).map(str)
numbers = st.one_of(small, small, small, st.sampled_from(HUGE_NUMBERS))


def _mutate(text_strategy):
    """Texts from text_strategy, a third of them with one character deleted,
    replaced or inserted, or a slice repeated."""

    @st.composite
    def mutated(draw):
        text = draw(text_strategy)
        if not text or draw(st.integers(0, 2)):
            return text
        i = draw(st.integers(0, len(text) - 1))
        j = draw(st.integers(i, len(text)))
        char = draw(st.sampled_from(list("();*[],{}:\"0129-.ax ")))
        deleted, replaced = text[:i] + text[i + 1 :], text[:i] + char + text[i + 1 :]
        inserted, repeated = text[:i] + char + text[i:], text[:j] + text[i:]
        return draw(st.sampled_from([deleted, replaced, inserted, repeated]))

    return mutated()


atoms = st.one_of(
    st.sampled_from(["eta", "nabla", "eps", "delta", "anti", "node", "node[a]", "node[7]"]),
    st.builds("id({})".format, numbers),
    st.builds("sym({},{})".format, numbers, numbers),
)
expressions = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.builds("{} ; {}".format, inner, inner),
        st.builds("{} * {}".format, inner, inner),
        st.builds("({})".format, inner),
    ),
    max_leaves=8,
)
nested = st.builds(lambda depth, e: "(" * depth + e + ")" * depth, st.integers(0, 3000), atoms)
well_typed = st.builds(
    lambda k: print_expression(random_expression(random.Random(k), 3, allow_anti=k % 2 == 0)),
    st.integers(0, 10**6),
)
expression_texts = _mutate(st.one_of(well_typed, well_typed, expressions, nested))

VALID_IDAGS = [idag_to_obj(d) for d in (sample_dag_2_3(), sample_dag_3_1(), sample_composite_2_1())]
VALID_IDAGS.append({
    "mode": "int", "inputs": 1, "outputs": 1, "nodes": [{"id": "p"}],
    "edges": [{"src": {"in": 0}, "dst": {"node": "p"}, "w": -3},
              {"src": {"node": "p"}, "dst": {"out": 0}, "w": 10**20}],
})
# "HUGE" stands for a 5,000-digit integer, which json.dumps would refuse to write
json_values = st.sampled_from(
    [int(n) for n in HUGE_NUMBERS[:2]] + [4 * 10**4299, -1, 0, 1, True, None, 1.5, "x", [], {}, "nat", "HUGE"]
)


@st.composite
def _json_idags(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(VALID_IDAGS))))
    if not draw(st.integers(0, 2)):
        # replace one value, found by a path of keys and indexes
        target, key = obj, draw(st.sampled_from(sorted(obj)))
        while isinstance(target[key], (dict, list)) and target[key] and draw(st.booleans()):
            target = target[key]
            key = draw(st.sampled_from(sorted(target) if isinstance(target, dict) else range(len(target))))
        target[key] = draw(json_values)
    return json.dumps(obj, ensure_ascii=False).replace('"HUGE"', "9" * 5000)


# up to 50,000 characters, so that a mutated text still passes as one argument
nested_json = st.builds(lambda depth: "[" * depth + "]" * depth, st.integers(1, 25_000))
json_texts = _mutate(st.one_of(_json_idags(), _json_idags(), _json_idags(), nested_json))
operands = st.one_of(
    expression_texts, json_texts, numbers, st.sampled_from(["0.5", "nan", "-inf", "1e400", ""])
)

# the options each command takes; any other flag is drawn now and then
COMMAND_FLAGS = {
    "eq": ["--mode", "--quotient", "--format"],
    "normalize": ["--mode", "--quotient", "--format"],
    "decompose": ["--sorting", "--format"],
    "random": ["--mode", "--seed", "--label", "--format"],
    "dot": [],
}
FLAG_VALUES = {
    "--mode": ["bool", "nat", "int"],
    "--quotient": ["transitive", "nodangling"],
    "--format": ["json", "text", "dot"],
    "--seed": ["0", "5", "-2", "9" * 5000],
    "--sorting": ["default", "0", "3", "index:1", "index:x", "-1", "9" * 30, "9" * 5000],
    "--label": ["a", "", "a b", "•"],
}
BAD_VALUES = ["real", "none", "xml", ""]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    if command == "random":
        edge_prob = st.sampled_from(["0.5", "0", "1", "1.5", "nan"])
        args = [draw(numbers) for _ in range(3)] + [draw(edge_prob)]
    else:
        # mostly operands of the command's own kind, now and then any other
        own = expression_texts if command in ("eq", "normalize") else json_texts
        args = [draw(own if draw(st.integers(0, 9)) else operands)
                for _ in range(OPERAND_COUNTS.get(command, 1))]
        if command == "eq" and draw(st.booleans()):
            args[1] = draw(st.sampled_from([args[0], f"({args[0]})", f"{args[0]} * id(0)"]))
    if draw(st.integers(0, 9)) == 0:
        args = args[:-1] if draw(st.booleans()) else args + [draw(operands)]
    flags = COMMAND_FLAGS.get(command, ["--format"])
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(flags if flags and draw(st.integers(0, 5)) else sorted(FLAG_VALUES)))
        values = FLAG_VALUES[flag] if draw(st.integers(0, 5)) else BAD_VALUES
        args += [flag, draw(st.sampled_from(values))]
    return [command, *args]


@seed(FUZZ_SEED)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None, database=None)
@given(invocations())
def test_cli_exit_codes_on_drawn_inputs(argv):
    r = run_capped(["-m", "idag", *argv])
    assert "Traceback" not in r.stderr, r.stderr[-2000:]
    assert r.returncode in (0, 1, 2), r.stderr[-2000:]
    assert r.returncode != 1 or argv[0] == "eq", r.stderr[-2000:]
