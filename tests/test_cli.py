import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idag
from helpers import run_capped
from idag.algebra import concat
from idag.cli import build_parser, main
from idag.jsonio import idag_to_json, idag_to_obj
from idag.jsonread import idag_from_json
from idag.selftest import sample_dag_2_3, sample_dag_3_1


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "idag", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


# the modules split off from core, models, terms and decomposition so that
# eq and normalize compile none of them (and jsonread, split off jsonio)
_SPLIT_OFF = [
    "idag.algebra", "idag.builders", "idag.layers", "idag.loops", "idag.matrices",
    "idag.parse_errors", "idag.printer", "idag.sortings",
]


def test_eq_does_not_import_selftest():
    """Each command, run as `python -m idag`, loads none of the modules it
    does not call; modules the interpreter loaded before it do not count."""
    unused_by_eq = [
        "dataclasses", "inspect", "idag.decomposition", "idag.randgen", "idag.dot", "idag.selftest", "idag.jsonread",
        *_SPLIT_OFF,
    ]
    unread = ["dataclasses", "inspect", "idag.selftest", "idag.canon", "idag.equivalence", "idag.models",
              "idag.matrices", "idag.loops", "idag.parse_errors", "idag.sortings", "idag.layers"]
    dag = json.dumps(idag_to_obj(sample_dag_2_3()))
    cases = [
        (["eq", "delta ; nabla", "id(1)", "--mode", "bool"], 0, unused_by_eq),
        (["eq", "delta ; nabla", "id(1)", "--mode", "nat"], 1, unused_by_eq),
        (["normalize", "(delta ; nabla) * node[a]", "--mode", "nat"], 0, unused_by_eq),
        (["decompose", dag], 0, [*unread, "idag.randgen", "idag.dot"]),
        (["closure", dag], 0, [*unread, "idag.randgen", "idag.dot", "idag.terms", "idag.decomposition"]),
        (["dot", dag], 0, [*unread, "idag.randgen", "idag.terms", "idag.decomposition"]),
        (["random", "2", "2", "4", "0.5"], 0, [*unread, "idag.dot", "idag.decomposition", "idag.printer", "idag.jsonread"]),
    ]
    src = str(Path(idag.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, status, unused in cases:
        code = (
            "import runpy, sys\n"
            "before = set(sys.modules)\n"
            f"sys.argv = ['idag', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('idag', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            f"print(status, [m for m in {unused!r} if m in sys.modules and m not in before])\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[-1] == f"{status} []", (argv[0], r.stdout)


# stdout, stderr and exit code of `idag ARGS` for help and usage errors, as
# the parser of every command printed them under Python GOLDEN["python"]
GOLDEN = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


def _outcome(capsys, call) -> tuple:
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "no command")
def test_help_and_usage_are_the_full_parsers(case, capsys, monkeypatch):
    """main builds only the named command's subparser; its help and errors
    must be what the parser of every command prints. Help text differs
    between Python versions, so the golden text is compared only under the
    version it was written with, and the full parser on every version."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    got = _outcome(capsys, lambda: main(case["argv"]))
    assert got == _outcome(capsys, lambda: build_parser().parse_args(case["argv"]))
    if "%d.%d" % sys.version_info[:2] == GOLDEN["python"]:
        assert got == (case["code"], case["stdout"], case["stderr"])


def test_eq_exit_codes(capsys):
    assert main(["eq", "delta ; nabla", "id(1)", "--mode", "bool"]) == 0
    assert main(["eq", "delta ; nabla", "id(1)", "--mode", "nat"]) == 1
    assert main(["eq", "nabla", "delta"]) == 2
    out = capsys.readouterr()
    assert "error:" in out.err


def test_eq_json_format(capsys):
    assert main(["eq", "delta ; nabla", "id(1)", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equal"] is True
    assert sorted(obj) == ["equal", "lhs", "rhs"]


def test_eq_quotient_flag(capsys):
    lhs = "delta ; (node * id(1)) ; nabla"
    assert main(["eq", lhs, "node"]) == 1
    assert main(["eq", lhs, "node", "--quotient", "transitive"]) == 0
    assert main(["eq", lhs, "node", "--quotient", "transitive", "--mode", "nat"]) == 2


def test_normalize_round_trips(capsys):
    assert main(["normalize", "delta ; (anti * id(1)) ; nabla", "--mode", "int"]) == 0
    text = capsys.readouterr().out.strip()
    d = idag_from_json(text)
    assert (d.n_in, d.n_out) == (1, 1)
    assert not d.edges
    assert idag_to_json(d) == text


def test_parse_error_exit(capsys):
    assert main(["normalize", "delta ;;"]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_eq(capsys):
    depth = 1000
    assert main(["eq", "(" * depth + "id(1)" + ")" * depth, "id(1)"]) == 0


def test_normalize_many_interchangeable_copies(capsys):
    for k in (9, 12):
        text = " * ".join(["(eta ; node ; eps)"] * k)
        for mode in ("bool", "nat"):
            assert main(["normalize", text, "--mode", mode]) == 0
            d = idag_from_json(capsys.readouterr().out)
            assert (len(d.nodes), len(d.edges)) == (k, 0)


def test_anti_needs_int_mode(capsys):
    assert main(["normalize", "anti"]) == 2
    assert main(["normalize", "anti", "--mode", "int"]) == 0


def test_compose_and_tensor(tmp_path, capsys):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(idag_to_json(sample_dag_2_3()), encoding="utf-8")
    right.write_text(idag_to_json(sample_dag_3_1()), encoding="utf-8")

    assert main(["compose", f"@{left}", f"@{right}"]) == 0
    got = idag_from_json(capsys.readouterr().out.strip())
    assert got == concat(sample_dag_3_1(), sample_dag_2_3())

    assert main(["compose", f"@{right}", f"@{left}"]) == 2  # interfaces clash

    assert main(["tensor", f"@{left}", f"@{left}"]) == 0
    side = idag_from_json(capsys.readouterr().out.strip())
    assert (side.n_in, side.n_out) == (4, 6)


def test_decompose_sorting_flags(tmp_path, capsys):
    right = tmp_path / "right.json"
    right.write_text(idag_to_json(sample_dag_3_1()), encoding="utf-8")

    assert main(["decompose", f"@{right}", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sorting"] == ["a", "b", "c", "d"]

    assert main(["decompose", f"@{right}", "--sorting", "2", "--format", "json"]) == 0
    obj2 = json.loads(capsys.readouterr().out)
    assert obj2["sorting"] == ["a", "c", "d", "b"]

    assert main(["decompose", f"@{right}", "--sorting", "index:4", "--format", "json"]) == 0
    obj3 = json.loads(capsys.readouterr().out)
    assert obj3["sorting"] == ["c", "a", "d", "b"]

    assert main(["decompose", f"@{right}", "--sorting", "5"]) == 2
    assert main(["decompose", f"@{right}", "--sorting", "9" * 20]) == 2  # past islice's reach
    assert main(["decompose", f"@{right}", "--sorting", "nonsense"]) == 2


def test_closure_and_prune(capsys):
    wire = '{"mode":"bool","inputs":1,"outputs":1,"nodes":[],"edges":[{"src":{"in":0},"dst":{"out":0}}]}'
    assert main(["closure", wire]) == 0
    assert capsys.readouterr().out.strip() == wire

    dangling = '{"mode":"bool","inputs":1,"outputs":1,"nodes":[{"id":"p"}],"edges":[{"src":{"in":0},"dst":{"out":0}}]}'
    assert main(["prune", dangling]) == 0
    assert capsys.readouterr().out.strip() == wire


def test_dot_layout(capsys):
    assert main(["dot", idag_to_json(sample_dag_2_3())]) == 0
    text = capsys.readouterr().out
    assert text.count("shape=point") == 5  # 2 inputs + 3 outputs
    assert "rank=source" in text and "rank=sink" in text
    assert text.count("shape=circle") == 2
    visible = [
        ln for ln in text.splitlines() if "->" in ln and "style=invis" not in ln
    ]
    assert len(visible) == 6


def test_random_determinism(capsys):
    args = ["random", "2", "2", "4", "0.5", "--seed", "11", "--mode", "int"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    idag_from_json(first)

    assert main(["random", "1", "1", "1", "1.5"]) == 2


def test_random_negative_node_count_is_a_clean_error(capsys):
    assert main(["random", "2", "2", "-3", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: negative node count -3\n"


def test_json_weight_refusals_exit_2_with_one_error_line(capsys):
    # the JSON reader's edge weights are checked by their weight system, in
    # one wording, and a refusal is one error line and exit 2
    cases = [
        ("bool", 0, "error: zero weight: omit the edge instead\n"),
        ("nat", -1, "error: negative weight -1 requires int mode\n"),
        ("bool", 2, "error: bool mode admits only weights 0 and 1, got 2\n"),
    ]
    for mode, w, message in cases:
        edge = {"src": {"in": 0}, "dst": {"out": 0}, "w": w}
        d = {"mode": mode, "inputs": 1, "outputs": 1, "nodes": [], "edges": [edge]}
        assert main(["decompose", json.dumps(d)]) == 2
        assert capsys.readouterr() == ("", message)


def test_entry_point_subprocess():
    r = run_cli("eq", "sym(1,1) ; sym(1,1)", "id(2)")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("equal")


def test_import_does_not_load_numpy():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, idag; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_decompose_huge_weight_evaluates_back():
    from idag.core import canonical_form
    from idag.matrices import MatrixModel
    from idag.models import FreeIdagModel, evaluate
    from idag.terms import parse
    from idag.weights import NAT

    d = {
        "mode": "nat", "inputs": 1, "outputs": 1, "nodes": [{"id": "p"}],
        "edges": [{"src": {"in": 0}, "dst": {"node": "p"}, "w": 10**20},
                  {"src": {"node": "p"}, "dst": {"out": 0}}],
    }
    r = run_cli("decompose", json.dumps(d))
    assert r.returncode == 0, r.stderr
    e = parse(r.stdout)
    assert evaluate(e, MatrixModel(NAT)).entries == ((10**20,),)
    back = evaluate(e, FreeIdagModel(NAT))
    assert canonical_form(back) == canonical_form(idag_from_json(json.dumps(d)))


def test_decompose_unprintable_label_is_a_clean_error(capsys):
    # a valid idag whose label has no expression syntax: an error, not a
    # traceback, and exit 2, not the exit 1 that means "unequal"
    d = {
        "mode": "bool", "inputs": 1, "outputs": 1, "nodes": [{"id": "p", "label": "a b"}],
        "edges": [{"src": {"in": 0}, "dst": {"node": "p"}}, {"src": {"node": "p"}, "dst": {"out": 0}}],
    }
    assert main(["decompose", json.dumps(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'a b'" in err


def test_numbers_too_long_to_read_or_write_exit_2(capsys):
    # int() reads and writes at most 4,300 digits; exit 1 would read as "unequal"
    huge_json = '{"mode":"bool","inputs":1' + "0" * 5000 + ',"outputs":1,"nodes":[],"edges":[]}'
    # weights of 4,000 digits read, but their product has too many to write
    scale = '{"mode":"nat","inputs":1,"outputs":1,"nodes":[],"edges":[{"src":{"in":0},"dst":{"out":0},"w":%s}]}'
    scale %= "9" * 4000
    cases = [
        (["eq", f"id({'9' * 5000})", "id(1)"], "error: width of 5000 digits exceeds the bound"),
        (["closure", huge_json], "error: invalid JSON: "),
        (["decompose", "[" * 100_000], "error: invalid JSON: "),
        (["compose", scale, scale], "error: cannot write a number: "),
        (["compose", scale, scale, "--format", "dot"], "error: cannot write a number: "),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message)
        r = run_cli(*argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(message), r.stderr


def test_stdin_input():
    r = subprocess.run(
        [sys.executable, "-m", "idag", "closure", "-"],
        input='{"mode":"bool","inputs":0,"outputs":0,"nodes":[],"edges":[]}',
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == '{"mode":"bool","inputs":0,"outputs":0,"nodes":[],"edges":[]}'


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["closure", "@/definitely/not/here.json"]) == 2
    assert "error:" in capsys.readouterr().err
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"mode":"bool","inputs":0,"outputs":0,"nodes":[{"id":"\xe9"}],"edges":[]}')
    assert main(["closure", f"@{not_utf8}"]) == 2
    assert "error:" in capsys.readouterr().err



def test_eq_of_two_long_chains(tmp_path):
    # 10,000 nodes in a row: colour refinement that recoloured every node in
    # every round took minutes here, as each round splits off one node
    chain = tmp_path / "chain.txt"
    chain.write_text(" ; ".join(["node[a]"] * 10_000))
    r = run_capped(["-m", "idag", "eq", f"@{chain}", f"@{chain}"])
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "equal"


def test_running_out_of_memory_is_an_error_not_a_verdict(tmp_path):
    # the transitive closure of a 3,000-node chain has C(3002, 2) edges,
    # about 4.5 million, more than a 400 MB address space holds
    n = 3000
    chain = tmp_path / "chain.txt"
    chain.write_text(" ; ".join(["node[a]"] * n))
    chain_json = tmp_path / "chain.json"
    chain_json.write_text(run_cli("normalize", f"@{chain}").stdout)

    def closed(text):
        obj = json.loads(text)
        return len(obj["nodes"]) == n and len(obj["edges"]) == (n + 2) * (n + 1) // 2

    cases = [
        (["eq", "--quotient", "transitive", f"@{chain}", f"@{chain}"], lambda out: out.startswith("equal\n")),
        (["normalize", "--quotient", "transitive", f"@{chain}"], closed),
        (["closure", f"@{chain_json}"], closed),
    ]
    for argv, correct in cases:
        r = run_capped(["-m", "idag", *argv], cap=400_000_000)
        assert "Traceback" not in r.stderr, r.stderr[-2000:]
        assert r.returncode in (0, 2), (argv[0], r.returncode)
        if r.returncode == 0:
            assert correct(r.stdout), argv[0]
        else:
            assert r.stdout == "" and r.stderr.startswith("error: "), (argv[0], r.stderr[-2000:])


NINE_NODE_TENSOR = " * ".join(f"node[{c}]" for c in "abcdefghi")


def test_a_reader_closing_stdout_early_is_not_a_failure():
    """As in `idag normalize ... | head -c 10`: the reader takes 10 bytes
    and closes the pipe. The command still exits with the code its result
    gives, 0 or 1 for an unequal eq, with nothing on stderr. Unbuffered
    stdout writes each piece as it is printed, so whether a write meets the
    closed pipe depends on timing: each command runs several times, four
    at once."""
    src = str(Path(idag.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONUNBUFFERED": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    cases = [(["normalize", NINE_NODE_TENSOR], 0)] * 20 + [(["eq", "node[a]", "node[b]"], 1)] * 4
    for at in range(0, len(cases), 4):
        runs = [
            (subprocess.Popen([sys.executable, "-m", "idag", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, bufsize=0), code)
            for argv, code in cases[at : at + 4]
        ]
        for p, code in runs:
            assert p.stdout.read(10)  # up to 10 bytes: what the first write has sent
            p.stdout.close()
            err = p.stderr.read()
            p.stderr.close()
            assert (p.wait(timeout=120), err) == (code, b"")


# each command's options, the ones its handler reads, with their choices
CLI_OPTIONS = {
    "eq": {"--mode {bool,nat,int}", "--quotient {transitive,nodangling}", "--format {text,json}"},
    "normalize": {"--mode {bool,nat,int}", "--quotient {transitive,nodangling}", "--format {json,text,dot}"},
    "decompose": {"--sorting", "--format {text,json}"},
    "compose": {"--format {json,text,dot}"},
    "tensor": {"--format {json,text,dot}"},
    "closure": {"--format {json,text,dot}"},
    "prune": {"--format {json,text,dot}"},
    "dot": set(),
    "random": {"--mode {bool,nat,int}", "--seed", "--label", "--format {json,text,dot}"},
    "selftest": {"--seed"},
}
_WIRE = '{"mode":"bool","inputs":1,"outputs":1,"nodes":[],"edges":[{"src":{"in":0},"dst":{"out":0}}]}'
CLI_OPERANDS = {
    "eq": ["id(1)", "id(1)"], "normalize": ["id(1)"], "decompose": [_WIRE], "compose": [_WIRE, _WIRE],
    "tensor": [_WIRE, _WIRE], "closure": [_WIRE], "prune": [_WIRE], "dot": [_WIRE],
    "random": ["1", "1", "1", "0.5"], "selftest": [],
}


def test_each_command_takes_only_the_options_it_reads(capsys):
    for command, options in CLI_OPTIONS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"--(?!help\b)[a-z]+(?: \{[a-z,]+\})?", text))
        assert listed == options, command
    # every flag that a command once accepted and ignored is now an error
    removed = [
        (command, flag)
        for command, options in CLI_OPTIONS.items()
        for flag in ("--mode", "--quotient", "--format", "--seed")
        if not any(option.split()[0] == flag for option in options)
    ]
    assert len(removed) == 25
    values = {"--mode": "nat", "--quotient": "transitive", "--format": "json", "--seed": "5"}
    for command, flag in removed:
        with pytest.raises(SystemExit) as info:
            main([command, *CLI_OPERANDS[command], flag, values[flag]])
        assert info.value.code == 2, (command, flag)
        assert "unrecognized arguments" in capsys.readouterr().err
    for command in ("eq", "decompose"):
        with pytest.raises(SystemExit) as info:
            main([command, *CLI_OPERANDS[command], "--format", "dot"])
        assert info.value.code == 2
